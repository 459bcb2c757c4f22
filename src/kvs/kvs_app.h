// KvsApp: packages the KVS engine as a smart-NIC AppEngine, including the
// Sec. 4 error-handling story — when the SSD hosting the log dies, the app
// drops its session and keeps retrying bring-up until the device returns.
#ifndef SRC_KVS_KVS_APP_H_
#define SRC_KVS_KVS_APP_H_

#include <memory>

#include "src/kvs/kvs_engine.h"
#include "src/nicdev/smart_nic.h"

namespace lastcpu::kvs {

struct KvsAppConfig {
  KvsEngineConfig engine;
};

class KvsApp : public nicdev::AppEngine {
 public:
  KvsApp(dev::Device* host, Pasid pasid, KvsAppConfig config = {});

  void Start(std::function<void(Status)> done) override;
  void HandleRequest(std::vector<uint8_t> payload,
                     std::function<void(std::vector<uint8_t>)> respond) override;
  bool HandleDoorbell(DeviceId from, uint64_t value) override;
  void OnPeerFailed(DeviceId device) override;
  void OnPeerPermanentlyFailed(DeviceId device) override;

  KvsEngine& engine() { return engine_; }
  uint32_t recoveries() const { return recoveries_; }
  // True once the storage provider was quarantined: the retry loop is dead
  // and requests answer kUnavailable until a new provider appears.
  bool provider_permanently_failed() const { return provider_gone_; }

 private:
  void Retry(uint32_t attempt);

  dev::Device* host_;
  KvsEngine engine_;
  uint32_t recoveries_ = 0;
  // True while a bring-up attempt is in flight, so the initial-start and
  // peer-failure retry chains never run two bring-ups concurrently.
  bool restarting_ = false;
  bool provider_gone_ = false;
  // Last storage device a session was bound to. The file client forgets its
  // provider on transient failure (Reset), but the quarantine notice arrives
  // *after* that reset — this is how the app still recognizes it.
  DeviceId last_provider_ = DeviceId::Invalid();
};

}  // namespace lastcpu::kvs

#endif  // SRC_KVS_KVS_APP_H_

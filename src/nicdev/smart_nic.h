// SmartNic: the self-managing network device that runs offloaded application
// logic (paper Sec. 3: "the operations (get, insert, update, etc.) are
// processed in a smart-NIC").
//
// The NIC terminates external-network datagrams on its embedded cores, runs a
// pluggable AppEngine on each request (the KVS engine in the paper's
// example), and uses other devices' services — the SSD file service, the
// memory controller — through the system bus, with zero CPU involvement.
#ifndef SRC_NICDEV_SMART_NIC_H_
#define SRC_NICDEV_SMART_NIC_H_

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/dev/device.h"
#include "src/net/network.h"

namespace lastcpu::nicdev {

// Application logic offloaded onto the NIC. Implementations decode a request
// datagram, do their work (possibly using bus services), and respond.
class AppEngine {
 public:
  virtual ~AppEngine() = default;

  // Bring-up (open sessions, recover state). Must call `done`.
  virtual void Start(std::function<void(Status)> done) = 0;

  // One inbound datagram; `respond` sends the reply datagram.
  virtual void HandleRequest(std::vector<uint8_t> payload,
                             std::function<void(std::vector<uint8_t>)> respond) = 0;

  // Data-plane doorbell forwarded by the NIC; return true when consumed.
  virtual bool HandleDoorbell(DeviceId from, uint64_t value) = 0;

  // A peer device this engine depends on failed.
  virtual void OnPeerFailed(DeviceId device) { (void)device; }

  // A peer device was quarantined: it is never coming back, so stop retrying
  // against it and surface unavailability to clients instead.
  virtual void OnPeerPermanentlyFailed(DeviceId device) { (void)device; }
};

class SmartNic : public dev::Device {
 public:
  // Embedded packet-processing cores.
  static constexpr size_t kCores = 4;

  SmartNic(DeviceId id, const dev::DeviceContext& context, net::Network* network);

  // Installs the offloaded application; it starts when the NIC goes alive
  // (Sec. 2.2: "the device will load its applications").
  void LoadApp(std::unique_ptr<AppEngine> app);

  net::EndpointId endpoint() const { return endpoint_; }
  AppEngine* app() { return app_.get(); }
  bool app_ready() const { return app_ready_; }

  uint64_t requests_handled() const { return requests_handled_; }
  uint64_t requests_dropped() const { return requests_dropped_; }

 protected:
  void OnAlive() override;
  void OnReset() override;
  void OnDoorbell(DeviceId from, uint64_t value) override;
  void OnPeerFailed(DeviceId device) override;
  void OnPeerPermanentlyFailed(DeviceId device) override;

 private:
  void OnDatagram(net::EndpointId from, std::vector<uint8_t> payload);
  // Assigns work to the least-loaded embedded core; returns its finish time.
  sim::SimTime OccupyCore(sim::Duration cost);

  net::Network* network_;
  net::EndpointId endpoint_ = 0;
  std::unique_ptr<AppEngine> app_;
  bool app_ready_ = false;
  std::array<sim::SimTime, kCores> core_busy_until_{};
  uint64_t requests_handled_ = 0;
  uint64_t requests_dropped_ = 0;
  // Per-datagram counters, by handle: each enters the registry at its first
  // use, as a name lookup at that point would.
  sim::LazyCounter requests_{&stats(), "requests"};
  sim::LazyCounter datagrams_dropped_{&stats(), "datagrams_dropped"};
};

}  // namespace lastcpu::nicdev

#endif  // SRC_NICDEV_SMART_NIC_H_

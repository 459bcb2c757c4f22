#include "src/kvs/kvs_app.h"

#include <utility>

namespace lastcpu::kvs {

// Delay between bring-up retries after the storage device fails, and how many
// the app makes before it gives up.
constexpr sim::Duration kRetryDelay = sim::Duration::Micros(500);
constexpr uint32_t kMaxRetries = 20;

KvsApp::KvsApp(dev::Device* host, Pasid pasid, KvsAppConfig config)
    : host_(host), engine_(host, pasid, config.engine) {}

void KvsApp::Start(std::function<void(Status)> done) {
  if (engine_.running()) {
    // Relaunch after a host reset: the engine still holds the pre-reset
    // session, which died with the device. Drop it before bringing up anew.
    engine_.Stop(Aborted("host device reset"));
  }
  restarting_ = true;
  engine_.Start([this, done = std::move(done)](Status s) {
    restarting_ = false;
    if (s.ok()) {
      last_provider_ = engine_.file().provider();
    }
    if (!s.ok()) {
      // A lost bring-up message must not strand the app forever — there is
      // no CPU to notice and relaunch it. Fall into the same retry loop the
      // peer-failure path uses.
      Retry(0);
    }
    if (done) {
      done(s);
    }
  });
}

void KvsApp::HandleRequest(std::vector<uint8_t> payload,
                           std::function<void(std::vector<uint8_t>)> respond) {
  engine_.HandleRequest(std::move(payload), std::move(respond));
}

bool KvsApp::HandleDoorbell(DeviceId from, uint64_t value) {
  return engine_.HandleDoorbell(from, value);
}

void KvsApp::OnPeerFailed(DeviceId device) {
  if (!engine_.running() || device != engine_.file().provider()) {
    return;
  }
  // Sec. 4: "It is the responsibility of the application logic running on the
  // consumer to recover from this scenario."
  engine_.Stop(Unavailable("storage device failed"));
  Retry(0);
}

void KvsApp::OnPeerPermanentlyFailed(DeviceId device) {
  if (device != engine_.file().provider() && device != last_provider_) {
    return;
  }
  // The supervisor quarantined the storage device: it will never announce
  // alive again, so the recovery loop would spin for kMaxRetries for
  // nothing. Kill the loop and fail requests fast with kUnavailable.
  provider_gone_ = true;
  host_->stats().GetCounter("kvs_provider_permanently_failed").Increment();
  if (engine_.running()) {
    engine_.Stop(Unavailable("storage device permanently failed"));
  }
}

void KvsApp::Retry(uint32_t attempt) {
  if (provider_gone_) {
    return;  // the provider is quarantined; retrying cannot succeed
  }
  if (attempt >= kMaxRetries) {
    host_->stats().GetCounter("kvs_recovery_abandoned").Increment();
    return;
  }
  host_->simulator()->Schedule(kRetryDelay, [this, attempt] {
    if (engine_.running() || restarting_ || provider_gone_) {
      return;
    }
    restarting_ = true;
    engine_.Start([this, attempt](Status s) {
      restarting_ = false;
      if (s.ok()) {
        last_provider_ = engine_.file().provider();
        ++recoveries_;
        host_->stats().GetCounter("kvs_recoveries").Increment();
        return;
      }
      Retry(attempt + 1);
    });
  });
}

}  // namespace lastcpu::kvs

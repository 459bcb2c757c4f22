#include "src/nicdev/smart_nic.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"

namespace lastcpu::nicdev {

// Per-request parse/dispatch cost on an embedded core.
constexpr sim::Duration kRequestCost = sim::Duration::Micros(1);

SmartNic::SmartNic(DeviceId id, const dev::DeviceContext& context, net::Network* network)
    : dev::Device(id, "smart-nic", context), network_(network) {
  LASTCPU_CHECK(network != nullptr, "NIC needs a network");
  endpoint_ = network_->Attach([this](net::EndpointId from, std::vector<uint8_t> payload) {
    OnDatagram(from, std::move(payload));
  });
}

void SmartNic::LoadApp(std::unique_ptr<AppEngine> app) {
  LASTCPU_CHECK(app != nullptr, "null app engine");
  app_ = std::move(app);
  app_ready_ = false;
  if (state() == State::kAlive) {
    app_->Start([this](Status s) {
      app_ready_ = s.ok();
      TraceEvent("app-start", s.ToString());
    });
  }
}

void SmartNic::OnReset() {
  dev::Device::OnReset();
  // Every app session died with the device; OnAlive relaunches them once
  // self-test completes.
  app_ready_ = false;
}

void SmartNic::OnAlive() {
  if (app_ != nullptr && !app_ready_) {
    app_->Start([this](Status s) {
      app_ready_ = s.ok();
      TraceEvent("app-start", s.ToString());
    });
  }
}

sim::SimTime SmartNic::OccupyCore(sim::Duration cost) {
  auto it = std::min_element(core_busy_until_.begin(), core_busy_until_.end());
  sim::SimTime start = std::max(simulator()->Now(), *it);
  sim::SimTime done = start + cost;
  *it = done;
  return done;
}

void SmartNic::OnDatagram(net::EndpointId from, std::vector<uint8_t> payload) {
  if (state() != State::kAlive || app_ == nullptr || !app_ready_) {
    ++requests_dropped_;
    datagrams_dropped_->Increment();
    return;
  }
  // Parse + dispatch on an embedded core.
  sim::SimTime ready = OccupyCore(kRequestCost);
  simulator()->ScheduleAt(ready, [this, from, payload = std::move(payload)]() mutable {
    if (state() != State::kAlive || !app_ready_) {
      ++requests_dropped_;
      return;
    }
    ++requests_handled_;
    requests_->Increment();
    app_->HandleRequest(std::move(payload), [this, from](std::vector<uint8_t> response) {
      if (state() != State::kAlive) {
        return;  // died before responding
      }
      network_->Send(endpoint_, from, std::move(response));
    });
  });
}

void SmartNic::OnDoorbell(DeviceId from, uint64_t value) {
  if (app_ != nullptr && app_->HandleDoorbell(from, value)) {
    return;
  }
  stats().GetCounter("unclaimed_doorbells").Increment();
}

void SmartNic::OnPeerFailed(DeviceId device) {
  if (app_ != nullptr) {
    app_->OnPeerFailed(device);
  }
}

void SmartNic::OnPeerPermanentlyFailed(DeviceId device) {
  if (app_ != nullptr) {
    app_->OnPeerPermanentlyFailed(device);
  }
}

}  // namespace lastcpu::nicdev

#include "src/net/network.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"

namespace lastcpu::net {

Network::Network(sim::Simulator* simulator, NetworkConfig config)
    : simulator_(simulator), config_(config) {
  LASTCPU_CHECK(simulator != nullptr, "network needs a simulator");
}

EndpointId Network::Attach(Handler handler) {
  LASTCPU_CHECK(handler != nullptr, "endpoint without handler");
  EndpointId id = next_id_++;
  endpoints_.emplace(id, Endpoint{std::move(handler), sim::SimTime::Zero()});
  return id;
}

void Network::Detach(EndpointId endpoint) { endpoints_.erase(endpoint); }

void Network::Send(EndpointId from, EndpointId to, std::vector<uint8_t> payload) {
  auto source = endpoints_.find(from);
  LASTCPU_CHECK(source != endpoints_.end(), "send from detached endpoint %u", from);

  datagrams_->Increment();
  bytes_->Increment(payload.size());

  // The link is busy only while it serializes the datagram; the datagram
  // then flies for base_latency while the next one goes out behind it.
  auto serialization = sim::Duration::Nanos(
      static_cast<uint64_t>(static_cast<double>(payload.size()) / config_.bytes_per_nano));
  sim::SimTime start = std::max(simulator_->Now(), source->second.tx_busy_until);
  source->second.tx_busy_until = start + serialization;
  sim::SimTime arrival = source->second.tx_busy_until + config_.base_latency;

  simulator_->ScheduleAt(arrival, [this, from, to, payload = std::move(payload)]() mutable {
    auto target = endpoints_.find(to);
    if (target == endpoints_.end()) {
      dropped_->Increment();
      return;
    }
    target->second.handler(from, std::move(payload));
  });
}

}  // namespace lastcpu::net

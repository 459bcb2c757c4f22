#include "src/net/network.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"

namespace lastcpu::net {

constexpr sim::Duration kBaseLatency = sim::Duration::Micros(5);  // one-way wire+switch
constexpr double kBytesPerNano = 10.0;                           // ~10 GB/s links

Network::Network(sim::Simulator* simulator) : simulator_(simulator) {
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
  // then flies for kBaseLatency while the next one goes out behind it.
  auto serialization = sim::Duration::Nanos(
      static_cast<uint64_t>(static_cast<double>(payload.size()) / kBytesPerNano));
  sim::SimTime start = std::max(simulator_->Now(), source->second.tx_busy_until);
  source->second.tx_busy_until = start + serialization;
  sim::SimTime arrival = source->second.tx_busy_until + kBaseLatency;

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

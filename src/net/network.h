// Simulated external network: remote clients <-> smart-NIC endpoints.
//
// This models the paper's Sec. 3 setting — "The NIC exposes a KVS interface
// to other machines over the network" — as a latency/bandwidth-modeled
// message fabric between endpoints. It is distinct from both the system bus
// (control plane) and the memory fabric (data plane): it is the outside
// world.
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/stats.h"

namespace lastcpu::net {

using EndpointId = uint32_t;

class Network {
 public:
  using Handler = std::function<void(EndpointId from, std::vector<uint8_t> payload)>;

  explicit Network(sim::Simulator* simulator);

  // Attaches an endpoint; `handler` receives every datagram addressed to it.
  EndpointId Attach(Handler handler);
  void Detach(EndpointId endpoint);

  // Sends a datagram. Egress is serialized per source endpoint (one link per
  // machine): a datagram holds its source's link for its serialization time
  // (size / kBytesPerNano) and arrives kBaseLatency after that ends, so
  // back-to-back datagrams fly at once. Delivery is dropped silently if the
  // target detached (like UDP).
  void Send(EndpointId from, EndpointId to, std::vector<uint8_t> payload);

  sim::StatsRegistry& stats() { return stats_; }

 private:
  struct Endpoint {
    Handler handler;
    sim::SimTime tx_busy_until;
  };

  sim::Simulator* simulator_;
  std::unordered_map<EndpointId, Endpoint> endpoints_;
  EndpointId next_id_ = 1;
  sim::StatsRegistry stats_;
  // Per-datagram counters, by handle: each enters the registry at its first
  // use, as a name lookup at that point would.
  sim::LazyCounter datagrams_{&stats_, "datagrams"};
  sim::LazyCounter bytes_{&stats_, "bytes"};
  sim::LazyCounter dropped_{&stats_, "dropped"};
};

}  // namespace lastcpu::net

#endif  // SRC_NET_NETWORK_H_

// Simulated-network tests: delivery, latency/bandwidth model, egress
// serialization, drops.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/net/network.h"
#include "src/sim/simulator.h"

namespace lastcpu::net {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  sim::Simulator simulator_;
};

TEST_F(NetworkTest, DeliversDatagramsWithLatency) {
  Network network(&simulator_);
  std::optional<std::vector<uint8_t>> received;
  EndpointId from_seen = 0;
  EndpointId b = network.Attach([&](EndpointId from, std::vector<uint8_t> payload) {
    from_seen = from;
    received = std::move(payload);
  });
  EndpointId a = network.Attach([](EndpointId, std::vector<uint8_t>) {});
  network.Send(a, b, {1, 2, 3});
  EXPECT_FALSE(received.has_value());  // not instantaneous
  simulator_.Run();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(from_seen, a);
  EXPECT_GE(simulator_.Now().nanos(), 5000u);  // base latency
}

TEST_F(NetworkTest, LargerPayloadsTakeLonger) {
  Network network(&simulator_);
  EndpointId sink = network.Attach([](EndpointId, std::vector<uint8_t>) {});
  EndpointId a = network.Attach([](EndpointId, std::vector<uint8_t>) {});
  network.Send(a, sink, std::vector<uint8_t>(64));
  simulator_.Run();
  sim::Duration small = simulator_.Now() - sim::SimTime::Zero();

  sim::Simulator simulator2;
  Network network2(&simulator2);
  EndpointId sink2 = network2.Attach([](EndpointId, std::vector<uint8_t>) {});
  EndpointId a2 = network2.Attach([](EndpointId, std::vector<uint8_t>) {});
  network2.Send(a2, sink2, std::vector<uint8_t>(1 << 20));
  simulator2.Run();
  EXPECT_GT(simulator2.Now().nanos(), small.nanos() * 5);
}

TEST_F(NetworkTest, EgressSerializesPerEndpoint) {
  Network network(&simulator_);
  int delivered = 0;
  sim::SimTime last;
  EndpointId sink = network.Attach([&](EndpointId, std::vector<uint8_t>) {
    ++delivered;
    last = simulator_.Now();
  });
  EndpointId a = network.Attach([](EndpointId, std::vector<uint8_t>) {});
  // Two large sends back-to-back: the second leaves once the first has
  // serialized, and arrives one flight after its own serialization.
  network.Send(a, sink, std::vector<uint8_t>(1 << 20));
  network.Send(a, sink, std::vector<uint8_t>(1 << 20));
  simulator_.Run();
  EXPECT_EQ(delivered, 2);
  uint64_t serialization = static_cast<uint64_t>((1 << 20) / 10.0);  // 104,857 ns
  EXPECT_EQ(last.nanos(), 2 * serialization + 5000);
}

TEST_F(NetworkTest, SmallDatagramsPipelineOnOneLink) {
  // A 300-byte datagram holds the 10 B/ns link for 30 ns, so eight sent at
  // once leave 30 ns apart and all fly their 5 us together.
  Network network(&simulator_);
  std::vector<uint64_t> arrivals;
  EndpointId sink = network.Attach(
      [&](EndpointId, std::vector<uint8_t>) { arrivals.push_back(simulator_.Now().nanos()); });
  EndpointId a = network.Attach([](EndpointId, std::vector<uint8_t>) {});
  for (int k = 0; k < 8; ++k) {
    network.Send(a, sink, std::vector<uint8_t>(300));
  }
  simulator_.Run();
  ASSERT_EQ(arrivals.size(), 8u);
  for (uint64_t k = 1; k <= 8; ++k) {
    EXPECT_EQ(arrivals[k - 1], 5000 + 30 * k) << k;
  }
}

TEST_F(NetworkTest, SendToDetachedEndpointDrops) {
  Network network(&simulator_);
  EndpointId a = network.Attach([](EndpointId, std::vector<uint8_t>) {});
  EndpointId b = network.Attach([](EndpointId, std::vector<uint8_t>) {});
  network.Detach(b);
  network.Send(a, b, {1});
  simulator_.Run();
  EXPECT_EQ(network.stats().GetCounter("dropped").value(), 1u);
}

TEST_F(NetworkTest, DetachMidFlightDropsDelivery) {
  Network network(&simulator_);
  int delivered = 0;
  EndpointId b = network.Attach([&](EndpointId, std::vector<uint8_t>) { ++delivered; });
  EndpointId a = network.Attach([](EndpointId, std::vector<uint8_t>) {});
  network.Send(a, b, {1});
  network.Detach(b);
  simulator_.Run();
  EXPECT_EQ(delivered, 0);
}

TEST_F(NetworkTest, StatsCountTraffic) {
  Network network(&simulator_);
  EndpointId b = network.Attach([](EndpointId, std::vector<uint8_t>) {});
  EndpointId a = network.Attach([](EndpointId, std::vector<uint8_t>) {});
  network.Send(a, b, std::vector<uint8_t>(100));
  simulator_.Run();
  EXPECT_EQ(network.stats().GetCounter("datagrams").value(), 1u);
  EXPECT_EQ(network.stats().GetCounter("bytes").value(), 100u);
}

}  // namespace
}  // namespace lastcpu::net

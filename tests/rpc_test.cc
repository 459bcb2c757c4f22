// RpcEndpoint transaction-layer tests: deadlines, bounded retries with
// backoff, duplicate absorption through the replay window, typed aborts on
// peer death and local failure, and seed-deterministic fault injection
// through the bus. The invariant under test everywhere: every call completes
// exactly once with a typed Status, no matter what the interconnect does.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/fault.h"
#include "tests/alloc_counter.h"
#include "tests/test_util.h"

namespace lastcpu::dev {
namespace {

using testutil::EchoService;
using testutil::Harness;
using testutil::TestDevice;

class RpcTest : public ::testing::Test {
 protected:
  RpcTest()
      : nic_(DeviceId(1), "nic", harness_.Context()),
        ssd_(DeviceId(2), "ssd", harness_.Context()) {
    ssd_.AddService(std::make_unique<EchoService>(DeviceId(2), "echo"));
  }

  void PowerOnAll() {
    nic_.PowerOn();
    ssd_.PowerOn();
    harness_.simulator.Run();
  }

  proto::OpenRequest EchoOpen() { return proto::OpenRequest{"echo", "", 0, Pasid(1)}; }

  Harness harness_;
  TestDevice nic_;
  TestDevice ssd_;
};

TEST_F(RpcTest, CustomDeadlineFiresTimedOut) {
  PowerOnAll();
  ssd_.InjectFailure();  // silent: no bus notification, so only the deadline fires
  RpcOptions options;
  options.timeout = sim::Duration::Micros(200);
  sim::SimTime start = harness_.simulator.Now();
  std::optional<StatusCode> code;
  sim::SimTime completed;
  nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), EchoOpen(), options,
                                       [&](Result<proto::OpenResponse> result) {
                                         code = result.status().code();
                                         completed = harness_.simulator.Now();
                                       });
  harness_.simulator.Run();
  EXPECT_EQ(code, StatusCode::kTimedOut);
  EXPECT_EQ(completed, start + sim::Duration::Micros(200));
  EXPECT_EQ(nic_.rpc().in_flight(), 0u);
}

TEST_F(RpcTest, RetryAfterDropSucceeds) {
  PowerOnAll();
  sim::FaultPlan all_drops;
  all_drops.drop_probability = 1.0;
  sim::FaultInjector injector(all_drops);
  harness_.bus.SetFaultInjector(&injector);

  RpcOptions options;
  options.timeout = sim::Duration::Micros(100);
  options.max_attempts = 3;
  options.backoff = sim::Duration::Micros(50);
  std::optional<Result<proto::OpenResponse>> outcome;
  nic_.rpc().Call<proto::OpenResponse>(
      DeviceId(2), EchoOpen(), options,
      [&](Result<proto::OpenResponse> result) { outcome = std::move(result); });
  // Let attempt 1 be dropped and its deadline expire, then heal the wire
  // before the retransmission goes out.
  harness_.simulator.RunFor(sim::Duration::Micros(120));
  ASSERT_FALSE(outcome.has_value());
  harness_.bus.SetFaultInjector(nullptr);
  harness_.simulator.Run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok()) << outcome->status().ToString();
  EXPECT_GE(injector.dropped(), 1u);
  EXPECT_GE(nic_.stats().GetCounter("request_retries").value(), 1u);
}

TEST_F(RpcTest, ExhaustedRetriesSurfaceTimedOut) {
  PowerOnAll();
  sim::FaultPlan all_drops;
  all_drops.drop_probability = 1.0;
  sim::FaultInjector injector(all_drops);
  harness_.bus.SetFaultInjector(&injector);

  RpcOptions options;
  options.timeout = sim::Duration::Micros(100);
  options.max_attempts = 3;
  std::optional<StatusCode> code;
  nic_.rpc().Call<proto::OpenResponse>(
      DeviceId(2), EchoOpen(), options,
      [&](Result<proto::OpenResponse> result) { code = result.status().code(); });
  harness_.simulator.Run();
  EXPECT_EQ(code, StatusCode::kTimedOut);
  EXPECT_EQ(nic_.stats().GetCounter("request_retries").value(), 2u);  // attempts 2 and 3
  EXPECT_EQ(nic_.stats().GetCounter("request_timeouts").value(), 1u);
  EXPECT_EQ(nic_.rpc().in_flight(), 0u);
  harness_.bus.SetFaultInjector(nullptr);
}

TEST_F(RpcTest, DuplicatedRequestExecutesOnce) {
  PowerOnAll();
  sim::FaultPlan duplicates;
  duplicates.duplicate_probability = 1.0;
  sim::FaultInjector injector(duplicates);
  harness_.bus.SetFaultInjector(&injector);

  int completions = 0;
  nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), EchoOpen(),
                                       [&](Result<proto::OpenResponse> result) {
                                         EXPECT_TRUE(result.ok());
                                         ++completions;
                                       });
  harness_.simulator.Run();
  // The wire delivered the request (and the response) twice; the replay
  // cache made the service execute once, and the endpoint absorbed the
  // duplicate response as an orphan.
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 1u);
  EXPECT_GE(ssd_.stats().GetCounter("duplicate_requests").value(), 1u);
  EXPECT_GE(nic_.stats().GetCounter("orphan_responses").value(), 1u);
  harness_.bus.SetFaultInjector(nullptr);
}

TEST_F(RpcTest, RetransmittedNonIdempotentRequestIsReplayedNotReexecuted) {
  PowerOnAll();
  // Drop only the response path: the request executes, the client retries,
  // and the service must answer from its replay cache instead of opening a
  // second instance. We approximate "drop one message" by healing the wire
  // after the first attempt's deadline.
  sim::FaultPlan all_drops;
  all_drops.drop_probability = 1.0;
  sim::FaultInjector injector(all_drops);

  RpcOptions options;
  options.timeout = sim::Duration::Micros(100);
  options.max_attempts = 2;
  options.backoff = sim::Duration::Micros(50);
  std::optional<Result<proto::OpenResponse>> outcome;
  nic_.rpc().Call<proto::OpenResponse>(
      DeviceId(2), EchoOpen(), options,
      [&](Result<proto::OpenResponse> result) { outcome = std::move(result); });
  // Attempt 1's request is delivered clean (no injector yet)...
  harness_.simulator.RunFor(sim::Duration::Micros(2));
  // ...but its response window is poisoned: drop everything until past the
  // deadline, then heal so the retransmission round-trips.
  harness_.bus.SetFaultInjector(&injector);
  harness_.simulator.RunFor(sim::Duration::Micros(120));
  harness_.bus.SetFaultInjector(nullptr);
  harness_.simulator.Run();
  ASSERT_TRUE(outcome.has_value());
  if (outcome->ok()) {
    // Whether the first response raced the poisoned window or the retry was
    // served from the cache, the service must have executed exactly once.
    EXPECT_EQ(ssd_.FindServiceByName("echo")->instance_count(), 1u);
  }
}

TEST_F(RpcTest, PeerFailureBroadcastAbortsInFlightWithUnavailable) {
  PowerOnAll();
  ssd_.InjectFailure();
  sim::SimTime start = harness_.simulator.Now();
  std::optional<StatusCode> code;
  sim::SimTime completed;
  nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), EchoOpen(),
                                       [&](Result<proto::OpenResponse> result) {
                                         code = result.status().code();
                                         completed = harness_.simulator.Now();
                                       });
  harness_.bus.ReportDeviceFailure(DeviceId(2));
  harness_.simulator.Run();
  EXPECT_EQ(code, StatusCode::kUnavailable);
  // The broadcast reached us long before the 100ms default deadline.
  EXPECT_LT(completed, start + sim::Duration::Millis(1));
  EXPECT_EQ(nic_.rpc().in_flight(), 0u);
}

TEST_F(RpcTest, LocalFailureAbortsEverythingWithAborted) {
  PowerOnAll();
  std::optional<StatusCode> code;
  nic_.rpc().Call<proto::OpenResponse>(
      DeviceId(2), EchoOpen(),
      [&](Result<proto::OpenResponse> result) { code = result.status().code(); });
  nic_.InjectFailure();
  harness_.simulator.Run();
  EXPECT_EQ(code, StatusCode::kAborted);
  EXPECT_EQ(nic_.rpc().in_flight(), 0u);
}

TEST_F(RpcTest, ExplicitAbortOrphansTheLateResponse) {
  PowerOnAll();
  std::optional<StatusCode> code;
  RequestId id = nic_.rpc().Call<proto::OpenResponse>(
      DeviceId(2), EchoOpen(),
      [&](Result<proto::OpenResponse> result) { code = result.status().code(); });
  nic_.rpc().Abort(id, Aborted("caller moved on"));
  EXPECT_EQ(code, StatusCode::kAborted);
  harness_.simulator.Run();
  // The echo service still answered; the response found no transaction.
  EXPECT_EQ(nic_.stats().GetCounter("orphan_responses").value(), 1u);
}

TEST_F(RpcTest, AbortsCompleteInIssueOrder) {
  PowerOnAll();
  std::vector<int> order;
  auto issue = [&](int tag, DeviceId dst) {
    nic_.rpc().Call<proto::OpenResponse>(dst, EchoOpen(),
                                         [&order, tag](Result<proto::OpenResponse> result) {
                                           EXPECT_FALSE(result.ok());
                                           order.push_back(tag);
                                         });
  };
  // Nothing is attached as device 7: that call stays in flight until the
  // bus would bounce it, and AbortPeer on the echo device leaves it alone.
  issue(0, DeviceId(2));
  issue(1, DeviceId(7));
  issue(2, DeviceId(2));
  issue(3, DeviceId(2));
  nic_.rpc().AbortPeer(DeviceId(2), Unavailable("device 2 failed"));
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(nic_.rpc().in_flight(), 1u);

  issue(4, DeviceId(2));
  issue(5, DeviceId(2));
  issue(6, DeviceId(2));
  nic_.rpc().AbortAll(Aborted("device reset"));
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 1, 4, 5, 6}));
  EXPECT_EQ(nic_.rpc().in_flight(), 0u);
  // The echo device still answers; every answer is an orphan now.
  harness_.simulator.Run();
  EXPECT_EQ(order.size(), 7u);
}

TEST_F(RpcTest, DelayedMessagesStillCompleteInOrderOfArrival) {
  PowerOnAll();
  sim::FaultPlan delays;
  delays.delay_probability = 1.0;
  delays.delay_min = sim::Duration::Micros(1);
  delays.delay_max = sim::Duration::Micros(10);
  sim::FaultInjector injector(delays);
  harness_.bus.SetFaultInjector(&injector);

  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), EchoOpen(),
                                         [&](Result<proto::OpenResponse> result) {
                                           EXPECT_TRUE(result.ok());
                                           ++completed;
                                         });
  }
  harness_.simulator.Run();
  EXPECT_EQ(completed, 8);
  EXPECT_GE(injector.delayed(), 8u);
  harness_.bus.SetFaultInjector(nullptr);
}

TEST_F(RpcTest, ReorderedMessagesAreAbsorbed) {
  PowerOnAll();
  sim::FaultPlan reorders;
  reorders.reorder_probability = 0.5;
  reorders.seed = 7;
  sim::FaultInjector injector(reorders);
  harness_.bus.SetFaultInjector(&injector);

  RpcOptions options;
  options.timeout = sim::Duration::Millis(1);
  options.max_attempts = 3;
  int completed = 0;
  for (int i = 0; i < 16; ++i) {
    nic_.rpc().Call<proto::OpenResponse>(
        DeviceId(2), EchoOpen(), options,
        [&](Result<proto::OpenResponse>) { ++completed; });
  }
  harness_.simulator.Run();
  // Correlation by request id makes ordering irrelevant: every call
  // completes, none hang, nothing leaks.
  EXPECT_EQ(completed, 16);
  EXPECT_EQ(nic_.rpc().in_flight(), 0u);
  EXPECT_GE(injector.reordered(), 1u);
  harness_.bus.SetFaultInjector(nullptr);
}

TEST_F(RpcTest, FaultSequenceIsSeedDeterministic) {
  struct RunRecord {
    uint64_t dropped, delayed, duplicated, reordered;
    int ok, failed;
    sim::SimTime end;
    bool operator==(const RunRecord& other) const {
      return std::tie(dropped, delayed, duplicated, reordered, ok, failed, end) ==
             std::tie(other.dropped, other.delayed, other.duplicated, other.reordered, other.ok,
                      other.failed, other.end);
    }
  };
  auto run = [](uint64_t seed) {
    Harness harness;
    TestDevice nic(DeviceId(1), "nic", harness.Context());
    TestDevice ssd(DeviceId(2), "ssd", harness.Context());
    ssd.AddService(std::make_unique<EchoService>(DeviceId(2), "echo"));
    nic.PowerOn();
    ssd.PowerOn();
    harness.simulator.Run();

    sim::FaultPlan plan;
    plan.drop_probability = 0.1;
    plan.delay_probability = 0.2;
    plan.duplicate_probability = 0.1;
    plan.reorder_probability = 0.1;
    plan.seed = seed;
    sim::FaultInjector injector(plan);
    harness.bus.SetFaultInjector(&injector);

    RpcOptions options;
    options.timeout = sim::Duration::Micros(200);
    options.max_attempts = 3;
    RunRecord record{};
    for (int i = 0; i < 40; ++i) {
      nic.rpc().Call<proto::OpenResponse>(DeviceId(2),
                                          proto::OpenRequest{"echo", "", 0, Pasid(1)}, options,
                                          [&record](Result<proto::OpenResponse> result) {
                                            result.ok() ? ++record.ok : ++record.failed;
                                          });
      harness.simulator.Run();
    }
    record.dropped = injector.dropped();
    record.delayed = injector.delayed();
    record.duplicated = injector.duplicated();
    record.reordered = injector.reordered();
    record.end = harness.simulator.Now();
    harness.bus.SetFaultInjector(nullptr);
    return record;
  };

  RunRecord first = run(42);
  RunRecord second = run(42);
  EXPECT_TRUE(first == second);
  EXPECT_EQ(first.ok + first.failed, 40);
  EXPECT_GT(first.dropped + first.delayed + first.duplicated + first.reordered, 0u);
}

TEST_F(RpcTest, DiscoveryWindowClosesWithCollectedOffers) {
  PowerOnAll();
  std::optional<size_t> count;
  sim::SimTime start = harness_.simulator.Now();
  sim::SimTime closed;
  nic_.rpc().Discover(proto::ServiceType::kCompute, "", sim::Duration::Micros(30),
                      [&](std::vector<proto::ServiceDescriptor> services) {
                        count = services.size();
                        closed = harness_.simulator.Now();
                      });
  harness_.simulator.Run();
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(closed, start + sim::Duration::Micros(30));
}

// --- The at-most-once replay window ------------------------------------------
//
// A raw bus port stands in for a client that numbers its own requests, so a
// test can send exact duplicates. The echo service's instance count shows
// each execution.

// Answers MemAllocRequests with a fixed MemAllocResponse: at once, or with
// `defer` set, only when the test replies to a held request itself.
class AllocResponder : public TestDevice {
 public:
  using TestDevice::TestDevice;

  bool defer = false;
  int executions = 0;
  std::vector<proto::Message> held;

 protected:
  void OnMessage(const proto::Message& message) override {
    if (!message.Is<proto::MemAllocRequest>()) {
      TestDevice::OnMessage(message);
      return;
    }
    ++executions;
    if (defer) {
      held.push_back(message);
      return;
    }
    Reply(message, proto::MemAllocResponse{VirtAddr(0x10000), kPageSize, 7});
  }
};

class ReplayWindowTest : public RpcTest {
 protected:
  static constexpr DeviceId kRawId = DeviceId(9);
  static constexpr DeviceId kResponderId = DeviceId(3);

  ReplayWindowTest() : responder_(kResponderId, "responder", harness_.Context()) {
    port_ = harness_.bus.Attach(
        kRawId, "raw", [this](proto::Message message) { received_.push_back(std::move(message)); },
        nullptr);
  }

  // Powers every device, then announces the raw port so replies reach it.
  void Boot() {
    responder_.PowerOn();
    PowerOnAll();
    proto::Message alive;
    alive.dst = kBusDevice;
    alive.payload = proto::AliveAnnounce{"raw", {}};
    port_->Send(std::move(alive));
    harness_.simulator.Run();
  }

  // Sends request `id` with `payload` from the raw port and runs the machine
  // until it is idle.
  void SendRaw(DeviceId dst, uint64_t id, proto::Payload payload) {
    proto::Message request;
    request.dst = dst;
    request.request_id = RequestId(id);
    request.payload = std::move(payload);
    port_->Send(std::move(request));
    harness_.simulator.Run();
  }
  void SendOpen(uint64_t id) { SendRaw(DeviceId(2), id, EchoOpen()); }

  size_t Executions() { return ssd_.FindServiceByName("echo")->instance_count(); }
  uint64_t SsdCounter(std::string_view name) { return ssd_.stats().GetCounter(name).value(); }

  AllocResponder responder_;
  bus::BusPort* port_ = nullptr;
  std::vector<proto::Message> received_;
};

TEST_F(ReplayWindowTest, DuplicateOfAnsweredRequestIsReplayed) {
  Boot();
  SendOpen(1);
  ASSERT_EQ(received_.size(), 1u);
  ASSERT_TRUE(received_[0].Is<proto::OpenResponse>());
  EXPECT_EQ(Executions(), 1u);

  SendOpen(1);
  EXPECT_EQ(Executions(), 1u);
  EXPECT_EQ(SsdCounter("duplicate_requests"), 1u);
  EXPECT_EQ(SsdCounter("responses_replayed"), 1u);
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[1].request_id, RequestId(1));
  EXPECT_EQ(received_[1].payload, received_[0].payload);
}

TEST_F(ReplayWindowTest, DuplicateOfUnansweredRequestIsDropped) {
  Boot();
  responder_.defer = true;
  proto::MemAllocRequest alloc{Pasid(1), kPageSize, VirtAddr(0), Access::kReadWrite};
  SendRaw(kResponderId, 5, alloc);
  SendRaw(kResponderId, 5, alloc);
  EXPECT_EQ(responder_.executions, 1);
  EXPECT_EQ(responder_.stats().GetCounter("duplicate_requests").value(), 1u);
  EXPECT_EQ(responder_.stats().GetCounter("responses_replayed").value(), 0u);
  EXPECT_TRUE(received_.empty());

  // The one reply answers both copies; a later duplicate gets it replayed.
  ASSERT_EQ(responder_.held.size(), 1u);
  responder_.Reply(responder_.held[0], proto::MemAllocResponse{VirtAddr(0x10000), kPageSize, 7});
  harness_.simulator.Run();
  ASSERT_EQ(received_.size(), 1u);
  SendRaw(kResponderId, 5, alloc);
  EXPECT_EQ(responder_.executions, 1);
  EXPECT_EQ(responder_.stats().GetCounter("responses_replayed").value(), 1u);
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[1].payload, received_[0].payload);
}

TEST_F(ReplayWindowTest, OldestRequestLeavesAfter256NewerFromAnySource) {
  Boot();
  SendOpen(1);
  // 255 newer requests from two sources: the window is device-wide, so the
  // nic's calls push request 1 toward the exit as much as the raw port's.
  for (uint64_t id = 2; id <= 128; ++id) {
    SendOpen(id);
  }
  for (int i = 0; i < 128; ++i) {
    nic_.rpc().Call<proto::OpenResponse>(DeviceId(2), EchoOpen(),
                                         [](Result<proto::OpenResponse> result) {
                                           EXPECT_TRUE(result.ok());
                                         });
  }
  harness_.simulator.Run();
  ASSERT_EQ(Executions(), 256u);

  // Still inside the 256-request window: answered from the cache.
  SendOpen(1);
  EXPECT_EQ(Executions(), 256u);
  EXPECT_EQ(SsdCounter("responses_replayed"), 1u);

  // One more newer request pushes it out; its duplicate executes again.
  SendOpen(129);
  SendOpen(1);
  EXPECT_EQ(Executions(), 258u);
  EXPECT_EQ(SsdCounter("responses_replayed"), 1u);
}

TEST_F(ReplayWindowTest, ResetForgetsTheWindow) {
  Boot();
  SendOpen(1);
  ASSERT_EQ(SsdCounter("opens_accepted"), 1u);
  proto::Message reset;
  reset.dst = DeviceId(2);
  reset.payload = proto::ResetSignal{};
  port_->Send(std::move(reset));
  harness_.simulator.Run();
  ASSERT_EQ(ssd_.state(), Device::State::kAlive);

  SendOpen(1);
  EXPECT_EQ(SsdCounter("opens_accepted"), 2u);
  EXPECT_EQ(SsdCounter("responses_replayed"), 0u);
}

// One control RPC is a request, a handler, a cached answer and a completion.
// Once the simulator's event pool, the endpoint's spare transactions and the
// server's replay window exist, none of that touches the heap: not the
// transaction, not the caller's callback, not the replay entry.
TEST_F(ReplayWindowTest, OneRoundTripAllocatesNothing) {
  Boot();
  int completed = 0;
  auto round_trip = [&] {
    std::array<uint64_t, 7> words{};
    auto done = [words, &completed](Result<proto::MemAllocResponse> response) {
      if (response.ok() && response->first_frame == 7 && words[0] == 0) {
        ++completed;
      }
    };
    static_assert(sizeof(done) == 64);
    nic_.rpc().Call<proto::MemAllocResponse>(
        kResponderId, proto::MemAllocRequest{Pasid(1), kPageSize, VirtAddr(0), Access::kReadWrite},
        std::move(done));
    harness_.simulator.Run();
  };
  // Warm up past one full turn of the replay window.
  for (size_t i = 0; i < ReplayWindow::kCapacity + 44; ++i) {
    round_trip();
  }
  uint64_t before = alloc_counter::Calls();
  for (int i = 0; i < 100; ++i) {
    round_trip();
  }
  uint64_t allocations = alloc_counter::Calls() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(completed, static_cast<int>(ReplayWindow::kCapacity) + 144);
}

}  // namespace
}  // namespace lastcpu::dev

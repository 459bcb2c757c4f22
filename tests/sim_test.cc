// Unit tests for the discrete-event simulation substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/sim/json.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"
#include "src/sim/trace_export.h"

namespace lastcpu::sim {
namespace {

TEST(SimTimeTest, ArithmeticAndComparison) {
  SimTime t0 = SimTime::Zero();
  SimTime t1 = t0 + Duration::Micros(5);
  EXPECT_EQ(t1.nanos(), 5000u);
  EXPECT_LT(t0, t1);
  EXPECT_EQ((t1 - t0).nanos(), 5000u);
  EXPECT_EQ(Duration::Millis(1).nanos(), 1'000'000u);
  EXPECT_EQ(Duration::Seconds(2).nanos(), 2'000'000'000u);
  EXPECT_EQ((Duration::Micros(3) * 4).nanos(), 12'000u);
  EXPECT_EQ((Duration::Micros(8) / 2).nanos(), 4'000u);
}

TEST(SimTimeTest, ToStringPicksUnits) {
  EXPECT_EQ(Duration::Nanos(42).ToString(), "42ns");
  EXPECT_EQ(Duration::Micros(150).ToString(), "150.00us");
  EXPECT_EQ(Duration::Millis(25).ToString(), "25.00ms");
  EXPECT_EQ(Duration::Seconds(12).ToString(), "12.000s");
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.Schedule(Duration::Micros(3), [&] { order.push_back(3); });
  simulator.Schedule(Duration::Micros(1), [&] { order.push_back(1); });
  simulator.Schedule(Duration::Micros(2), [&] { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.Now().nanos(), 3000u);
  EXPECT_EQ(simulator.events_executed(), 3u);
}

TEST(SimulatorTest, SimultaneousEventsRunFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.Schedule(Duration::Micros(1), [&order, i] { order.push_back(i); });
  }
  simulator.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator simulator;
  int fired = 0;
  simulator.Schedule(Duration::Micros(1), [&] {
    ++fired;
    simulator.Schedule(Duration::Micros(1), [&] { ++fired; });
  });
  simulator.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(simulator.Now().nanos(), 2000u);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator simulator;
  bool ran = false;
  EventId id = simulator.Schedule(Duration::Micros(1), [&] { ran = true; });
  EXPECT_TRUE(simulator.Cancel(id));
  EXPECT_FALSE(simulator.Cancel(id));  // double-cancel reports failure
  simulator.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(simulator.events_executed(), 0u);
}

TEST(SimulatorTest, CancelAfterRunReturnsFalse) {
  Simulator simulator;
  EventId id = simulator.Schedule(Duration::Micros(1), [] {});
  simulator.Run();
  EXPECT_FALSE(simulator.Cancel(id));
}

TEST(SimulatorTest, RunUntilAdvancesClockToDeadline) {
  Simulator simulator;
  int fired = 0;
  simulator.Schedule(Duration::Micros(1), [&] { ++fired; });
  simulator.Schedule(Duration::Micros(10), [&] { ++fired; });
  simulator.RunUntil(SimTime::FromNanos(5000));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.Now().nanos(), 5000u);
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator simulator;
  simulator.RunFor(Duration::Micros(7));
  EXPECT_EQ(simulator.Now().nanos(), 7000u);
  simulator.RunFor(Duration::Micros(3));
  EXPECT_EQ(simulator.Now().nanos(), 10000u);
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator simulator;
  int fired = 0;
  simulator.Schedule(Duration::Micros(1), [&] { ++fired; });
  simulator.Schedule(Duration::Micros(2), [&] { ++fired; });
  EXPECT_TRUE(simulator.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(simulator.Step());
  EXPECT_FALSE(simulator.Step());
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, PendingEventsExcludesCancelled) {
  Simulator simulator;
  simulator.Schedule(Duration::Micros(1), [] {});
  EventId id = simulator.Schedule(Duration::Micros(2), [] {});
  EXPECT_EQ(simulator.pending_events(), 2u);
  simulator.Cancel(id);
  EXPECT_EQ(simulator.pending_events(), 1u);
}

TEST(EventFnTest, InvokesAndReportsEngagement) {
  EventFn empty;
  EXPECT_FALSE(static_cast<bool>(empty));
  int fired = 0;
  EventFn fn = [&fired] { ++fired; };
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(fired, 2);
}

TEST(EventFnTest, HoldsMoveOnlyCallables) {
  // std::function could never hold this capture; EventFn is the reason the
  // hot path can move proto::Message payloads instead of copying them.
  auto value = std::make_unique<int>(41);
  int seen = 0;
  EventFn fn = [value = std::move(value), &seen] { seen = *value + 1; };
  fn();
  EXPECT_EQ(seen, 42);
}

TEST(EventFnTest, MoveTransfersTheCallable) {
  int fired = 0;
  EventFn a = [&fired] { ++fired; };
  EventFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(fired, 1);
}

TEST(EventFnTest, LargeCapturesFallBackToHeapCorrectly) {
  // Several times kInlineBytes: exercises the heap-stored vtable path.
  struct Big {
    uint64_t words[16] = {};
  };
  Big big;
  big.words[15] = 7;
  uint64_t seen = 0;
  EventFn fn = [big, &seen] { seen = big.words[15]; };
  EventFn moved = std::move(fn);
  moved();
  EXPECT_EQ(seen, 7u);
}

TEST(ScopedEventTest, CancelsOnDestruction) {
  Simulator simulator;
  bool ran = false;
  {
    ScopedEvent scoped(&simulator,
                       simulator.Schedule(Duration::Micros(1), [&] { ran = true; }));
    EXPECT_TRUE(scoped.armed());
  }
  simulator.Run();
  EXPECT_FALSE(ran);
}

TEST(ScopedEventTest, MoveTransfersOwnershipAndAssignmentCancels) {
  Simulator simulator;
  bool first = false;
  bool second = false;
  ScopedEvent scoped(&simulator,
                     simulator.Schedule(Duration::Micros(1), [&] { first = true; }));
  ScopedEvent stolen = std::move(scoped);
  EXPECT_FALSE(scoped.armed());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(stolen.armed());
  // Assigning a new event over an armed handle cancels the old one.
  stolen = ScopedEvent(&simulator,
                       simulator.Schedule(Duration::Micros(2), [&] { second = true; }));
  simulator.Run();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(ScopedEventTest, ReleaseAbandonsWithoutCancelling) {
  Simulator simulator;
  bool ran = false;
  EventId raw;
  {
    ScopedEvent scoped(&simulator,
                       simulator.Schedule(Duration::Micros(1), [&] { ran = true; }));
    raw = scoped.Release();
    EXPECT_FALSE(scoped.armed());
  }
  EXPECT_TRUE(raw.valid());
  simulator.Run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, DaemonsDoNotKeepRunAlive) {
  Simulator simulator;
  int daemon_fires = 0;
  int work_fires = 0;
  simulator.ScheduleDaemon(Duration::Micros(1), [&] { ++daemon_fires; });
  simulator.Schedule(Duration::Micros(3), [&] { ++work_fires; });
  simulator.Run();
  // The daemon ahead of the last real event runs; Run() then returns even
  // though nothing cancelled it.
  EXPECT_EQ(daemon_fires, 1);
  EXPECT_EQ(work_fires, 1);
  EXPECT_EQ(simulator.Now().nanos(), 3000u);
}

TEST(SimulatorTest, PeriodicFiresEveryPeriodWhileWorkRemains) {
  Simulator simulator;
  std::vector<uint64_t> fire_times;
  simulator.SchedulePeriodic(Duration::Micros(2),
                             [&] { fire_times.push_back(simulator.Now().nanos()); });
  simulator.RunUntil(SimTime::FromNanos(9000));
  EXPECT_EQ(fire_times, (std::vector<uint64_t>{2000, 4000, 6000, 8000}));
}

TEST(SimulatorTest, PeriodicIdStaysValidAcrossFirings) {
  Simulator simulator;
  int fires = 0;
  EventId id = simulator.SchedulePeriodic(Duration::Micros(1), [&] { ++fires; });
  simulator.RunUntil(SimTime::FromNanos(3500));
  EXPECT_EQ(fires, 3);
  // The original handle still refers to the (re-armed) event.
  EXPECT_TRUE(simulator.Cancel(id));
  simulator.RunUntil(SimTime::FromNanos(10000));
  EXPECT_EQ(fires, 3);
}

TEST(SimulatorTest, PeriodicCancellableFromInsideItsOwnCallback) {
  Simulator simulator;
  int fires = 0;
  EventId id;
  id = simulator.SchedulePeriodic(Duration::Micros(1), [&] {
    ++fires;
    if (fires == 3) {
      EXPECT_TRUE(simulator.Cancel(id));
    }
  });
  simulator.RunUntil(SimTime::FromNanos(20000));
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(simulator.Cancel(id));
}

// Golden event-order test: locks the global (timestamp, schedule-seq) FIFO
// semantics across engine rebuilds. Mixes relative/absolute scheduling,
// daemons, and near and far delays; the expected order is the schedule order
// within each timestamp.
TEST(SimulatorTest, EqualTimestampFifoOrderGolden) {
  Simulator simulator;
  std::vector<int> order;
  auto record = [&order](int tag) { return [&order, tag] { order.push_back(tag); }; };
  simulator.Schedule(Duration::Micros(5), record(0));
  simulator.ScheduleAt(SimTime::FromNanos(5000), record(1));
  simulator.ScheduleDaemon(Duration::Micros(5), record(2));
  simulator.Schedule(Duration::Micros(1), record(3));
  simulator.Schedule(Duration::Millis(50), record(4));  // far future
  simulator.ScheduleAt(SimTime::FromNanos(5000), record(5));
  simulator.Schedule(Duration::Micros(1), [&] {
    // Scheduled mid-run for an already-open timestamp: runs after everything
    // scheduled for t=5us before it, by sequence order.
    simulator.ScheduleAt(SimTime::FromNanos(5000), record(6));
  });
  simulator.Schedule(Duration::Micros(1), record(7));
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{3, 7, 0, 1, 2, 5, 6, 4}));
}

// Seeded property test: 100k random schedule/cancel operations, interleaved
// with partial runs, checked against a reference model of the order contract.
// The model keeps every event whose Cancel did not return true and sorts the
// survivors by (due time, schedule index); the engine must execute exactly
// that sequence, and a second run of the same seed must repeat it.
struct RandomScheduleRun {
  std::vector<uint64_t> executed;  // schedule indices, in execution order
  std::vector<uint64_t> expected;  // the reference model's order
};

RandomScheduleRun RunRandomSchedule(uint64_t seed) {
  Simulator simulator;
  Rng rng(seed);
  RandomScheduleRun run;
  constexpr uint64_t kEvents = 100000;
  std::vector<SimTime> due;
  std::vector<bool> cancelled(kEvents, false);
  std::vector<std::pair<EventId, uint64_t>> cancellable;
  for (uint64_t index = 0; index < kEvents; ++index) {
    // Delays from a few nanoseconds to about two milliseconds.
    Duration delay = Duration::Nanos(rng.NextBelow(1u << (8 + rng.NextBelow(14))));
    due.push_back(simulator.Now() + delay);
    EventId id = simulator.Schedule(delay, [&run, index] { run.executed.push_back(index); });
    if (rng.NextBelow(4) == 0) {
      cancellable.emplace_back(id, index);
    }
    // Periodically cancel a random remembered event (some already ran).
    if (!cancellable.empty() && rng.NextBelow(3) == 0) {
      size_t pick = rng.NextBelow(cancellable.size());
      if (simulator.Cancel(cancellable[pick].first)) {
        cancelled[cancellable[pick].second] = true;
      }
      cancellable[pick] = cancellable.back();
      cancellable.pop_back();
    }
    // Occasionally advance time so cancellation interleaves with execution.
    if (rng.NextBelow(64) == 0) {
      simulator.RunFor(Duration::Nanos(rng.NextBelow(4096)));
    }
  }
  simulator.Run();
  for (uint64_t index = 0; index < kEvents; ++index) {
    if (!cancelled[index]) {
      run.expected.push_back(index);
    }
  }
  std::sort(run.expected.begin(), run.expected.end(), [&due](uint64_t a, uint64_t b) {
    return due[a] != due[b] ? due[a] < due[b] : a < b;
  });
  return run;
}

TEST(SimulatorTest, SeededRandomScheduleOrderIsReproducible) {
  RandomScheduleRun first = RunRandomSchedule(0xC0FFEE);
  RandomScheduleRun second = RunRandomSchedule(0xC0FFEE);
  EXPECT_GT(first.executed.size(), 50000u);
  EXPECT_EQ(first.executed, first.expected);
  EXPECT_EQ(first.executed, second.executed);
}

// Regression test for the schedule-then-cancel burst: cancelled refs must be
// compacted away instead of accumulating until their (far-future) timestamps
// are reached. Mirrors the per-attempt RPC deadline pattern.
TEST(SimulatorTest, CancelledBurstTriggersCompaction) {
  Simulator simulator;
  constexpr int kBurst = 20000;
  for (int i = 0; i < kBurst; ++i) {
    // A deadline far in the future, cancelled immediately — the old engine
    // kept every entry queued until its timestamp was popped.
    EventId deadline = simulator.Schedule(Duration::Seconds(10), [] {});
    simulator.Cancel(deadline);
  }
  EXPECT_GE(simulator.compactions(), 1u);
  // The queue holds (far) fewer dead refs than were cancelled; the dead
  // fraction is bounded by the compaction threshold, not by the burst size.
  EXPECT_LT(simulator.cancelled_refs(), 1000u);
  EXPECT_EQ(simulator.pending_events(), 0u);
  simulator.Run();
  EXPECT_EQ(simulator.events_executed(), 0u);
}

TEST(SimulatorTest, CancelReclaimsCapturedStateImmediately) {
  Simulator simulator;
  auto witness = std::make_shared<int>(7);
  std::weak_ptr<int> observer = witness;
  EventId id = simulator.Schedule(Duration::Seconds(1), [held = std::move(witness)] {
    (void)held;
  });
  EXPECT_FALSE(observer.expired());
  simulator.Cancel(id);
  // The capture died at Cancel() time, not when t=1s would have been popped.
  EXPECT_TRUE(observer.expired());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysInBounds) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(42);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(99);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    sum += rng.NextExponential(10.0);
  }
  double mean = sum / kSamples;
  EXPECT_NEAR(mean, 10.0, 0.3);
}

TEST(RngTest, FillProducesUnbiasedBytes) {
  Rng rng(5);
  std::vector<uint8_t> buf(100000);
  rng.Fill(buf);
  double sum = 0;
  for (uint8_t b : buf) {
    sum += b;
  }
  EXPECT_NEAR(sum / static_cast<double>(buf.size()), 127.5, 2.0);
}

TEST(ZipfTest, SkewsTowardLowRanks) {
  Rng rng(2024);
  ZipfGenerator zipf(1000, 0.99);
  std::vector<int> hits(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    uint64_t v = zipf.Next(rng);
    ASSERT_LT(v, 1000u);
    ++hits[v];
  }
  // Rank 0 must dominate, and the head must hold most of the mass.
  EXPECT_GT(hits[0], hits[100]);
  int head = 0;
  for (int i = 0; i < 100; ++i) {
    head += hits[i];
  }
  EXPECT_GT(head, 50000);
}

TEST(HistogramTest, EmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(uint64_t{1000});
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  // Bucket representative is within ~3% of the true value.
  EXPECT_NEAR(static_cast<double>(h.p50()), 1000.0, 35.0);
}

TEST(HistogramTest, QuantilesOfUniformRamp) {
  Histogram h;
  for (uint64_t v = 1; v <= 10000; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_NEAR(static_cast<double>(h.p50()), 5000.0, 300.0);
  EXPECT_NEAR(static_cast<double>(h.p99()), 9900.0, 400.0);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 10000u);
  EXPECT_NEAR(h.mean(), 5000.5, 1.0);
}

TEST(HistogramTest, RecordsDurations) {
  Histogram h;
  h.Record(Duration::Micros(5));
  EXPECT_EQ(h.max(), 5000u);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a;
  Histogram b;
  a.Record(uint64_t{10});
  b.Record(uint64_t{1000000});
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000000u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(uint64_t{5});
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, LargeValuesDoNotOverflowBuckets) {
  Histogram h;
  h.Record(UINT64_MAX);
  h.Record(UINT64_MAX / 2);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), UINT64_MAX);
}

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.ValueAtQuantile(0.0), 0u);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 0u);
}

TEST(HistogramTest, QuantileExtremesBracketRecordedRange) {
  Histogram h;
  for (uint64_t v = 100; v <= 1000; v += 100) {
    h.Record(v);
  }
  // Bucket-representative values: allow the ~3% sub-bucket error.
  uint64_t q0 = h.ValueAtQuantile(0.0);
  uint64_t q1 = h.ValueAtQuantile(1.0);
  EXPECT_GE(q0, 90u);
  EXPECT_LE(q0, 110u);
  EXPECT_GE(q1, 950u);
  EXPECT_LE(q1, 1050u);
  EXPECT_LE(q0, q1);
}

TEST(HistogramTest, MergeDisjointRangesPreservesMinMaxCount) {
  Histogram low;
  low.Record(uint64_t{10});
  low.Record(uint64_t{20});
  Histogram high;
  high.Record(uint64_t{1'000'000});
  high.Record(uint64_t{2'000'000});
  low.Merge(high);
  EXPECT_EQ(low.count(), 4u);
  EXPECT_EQ(low.min(), 10u);
  EXPECT_EQ(low.max(), 2'000'000u);
  EXPECT_DOUBLE_EQ(low.sum(), 10.0 + 20.0 + 1'000'000.0 + 2'000'000.0);
}

TEST(HistogramTest, DeltaSinceSubtractsEarlierRecordings) {
  Histogram h;
  h.Record(uint64_t{100});
  h.Record(uint64_t{200});
  Histogram checkpoint = h;
  h.Record(uint64_t{5000});
  h.Record(uint64_t{6000});
  Histogram delta = h.DeltaSince(checkpoint);
  EXPECT_EQ(delta.count(), 2u);
  // Min/max are bucket-representative after subtraction.
  EXPECT_GE(delta.min(), 4800u);
  EXPECT_LE(delta.max(), 6200u);

  Histogram nothing = h.DeltaSince(h);
  EXPECT_EQ(nothing.count(), 0u);
}

TEST(StatsRegistryTest, CountersAndHistogramsByName) {
  StatsRegistry stats;
  stats.GetCounter("ops").Increment();
  stats.GetCounter("ops").Increment(4);
  stats.GetHistogram("latency").Record(uint64_t{100});
  EXPECT_EQ(stats.GetCounter("ops").value(), 5u);
  EXPECT_EQ(stats.GetHistogram("latency").count(), 1u);
  stats.Reset();
  EXPECT_EQ(stats.GetCounter("ops").value(), 0u);
}

TEST(TraceLogTest, DisabledByDefault) {
  Simulator simulator;
  TraceLog trace;
  Tracer tracer(&trace, &simulator, "nic");
  EXPECT_FALSE(tracer.enabled());
  tracer.Instant("open");
  SpanId span = tracer.BeginSpan("op");
  EXPECT_EQ(span, 0u);
  tracer.EndSpan(span);
  EXPECT_TRUE(trace.records().empty());
}

TEST(TraceLogTest, RecordsWhenEnabled) {
  Simulator simulator;
  TraceLog trace;
  trace.Enable();
  Tracer tracer(&trace, &simulator, "nic");
  simulator.Schedule(Duration::Nanos(10), [&] { tracer.Instant("open", "file=kv.log"); });
  simulator.Run();
  ASSERT_EQ(trace.records().size(), 1u);
  EXPECT_EQ(trace.records()[0].component, "nic");
  EXPECT_EQ(trace.records()[0].detail, "file=kv.log");
  EXPECT_EQ(trace.records()[0].when, SimTime::FromNanos(10));
}

TEST(TraceLogTest, FindByEventFilters) {
  Simulator simulator;
  TraceLog trace;
  trace.Enable();
  Tracer a(&trace, &simulator, "a");
  Tracer b(&trace, &simulator, "b");
  Tracer c(&trace, &simulator, "c");
  a.Instant("x");
  b.Instant("y");
  c.Instant("x");
  EXPECT_EQ(trace.FindByEvent("x").size(), 2u);
  EXPECT_EQ(trace.FindByEvent("z").size(), 0u);
}

TEST(TraceLogTest, FindByEventMatchesSpanNamesOnce) {
  Simulator simulator;
  TraceLog trace;
  trace.Enable();
  Tracer tracer(&trace, &simulator, "sys");
  SpanId span = tracer.BeginSpan("alloc");
  tracer.EndSpan(span);
  // A begin/end pair is one logical event: the end record must not double it.
  EXPECT_EQ(trace.FindByEvent("alloc").size(), 1u);
}

TEST(TraceLogTest, ContainsSequenceRespectsOrder) {
  Simulator simulator;
  TraceLog trace;
  trace.Enable();
  Tracer tracer(&trace, &simulator, "sys");
  for (const char* e : {"discover", "offer", "open", "alloc", "map", "grant"}) {
    tracer.Instant(e);
  }
  EXPECT_TRUE(trace.ContainsSequence({"discover", "open", "grant"}));
  EXPECT_FALSE(trace.ContainsSequence({"open", "discover"}));
  EXPECT_TRUE(trace.ContainsSequence({}));
}

TEST(TraceLogTest, ContainsSequenceSeesSpanNames) {
  Simulator simulator;
  TraceLog trace;
  trace.Enable();
  Tracer tracer(&trace, &simulator, "sys");
  SpanId outer = tracer.BeginSpan("Alloc");
  tracer.Instant("map", "", outer);
  tracer.EndSpan(outer);
  EXPECT_TRUE(trace.ContainsSequence({"Alloc", "map"}));
}

TEST(TraceLogTest, SpansCarryParentAndFlowLinks) {
  Simulator simulator;
  TraceLog trace;
  trace.Enable();
  Tracer tracer(&trace, &simulator, "nic");
  SpanId parent = tracer.BeginSpan("request");
  SpanId child = tracer.BeginSpan("handle", parent);
  FlowId flow = tracer.FlowSend("MemAllocRequest", child);
  EXPECT_NE(parent, 0u);
  EXPECT_NE(child, 0u);
  EXPECT_NE(flow, 0u);
  tracer.FlowReceive("MemAllocRequest", flow, child);
  tracer.EndSpan(child);
  tracer.EndSpan(parent);

  const auto& records = trace.records();
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[0].kind, TraceKind::kSpanBegin);
  EXPECT_EQ(records[1].parent, parent);
  EXPECT_EQ(records[2].kind, TraceKind::kFlowSend);
  EXPECT_EQ(records[2].flow, flow);
  EXPECT_EQ(records[3].kind, TraceKind::kFlowReceive);
  EXPECT_EQ(records[3].flow, flow);
}

TEST(TraceLogTest, DumpIsHumanReadable) {
  Simulator simulator;
  TraceLog trace;
  trace.Enable();
  Tracer tracer(&trace, &simulator, "nic");
  SpanId span = tracer.BeginSpan("open", 0, "f");
  tracer.EndSpan(span);
  std::ostringstream os;
  trace.Dump(os);
  EXPECT_NE(os.str().find("nic"), std::string::npos);
  EXPECT_NE(os.str().find("open"), std::string::npos);
}

TEST(JsonTest, ParsesScalarsAndContainers) {
  auto v = ParseJson(R"({"a": [1, 2.5, -3], "b": "hi\nthere", "c": true, "d": null})");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_object());
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->array()[1].number(), 2.5);
  EXPECT_DOUBLE_EQ(a->array()[2].number(), -3.0);
  EXPECT_EQ(v->Find("b")->str(), "hi\nthere");
  EXPECT_TRUE(v->Find("c")->boolean());
  EXPECT_TRUE(v->Find("d")->is_null());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("").ok());
}

TEST(StatsSnapshotTest, DeltaSinceReportsPerPhaseValues) {
  StatsRegistry stats;
  stats.GetCounter("ops").Increment(10);
  stats.GetHistogram("latency").Record(uint64_t{100});
  StatsSnapshot before = stats.Snapshot();
  stats.GetCounter("ops").Increment(7);
  stats.GetCounter("new_counter").Increment(3);
  stats.GetHistogram("latency").Record(uint64_t{200});
  StatsSnapshot delta = stats.Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.counters.at("ops"), 7u);
  EXPECT_EQ(delta.counters.at("new_counter"), 3u);
  EXPECT_EQ(delta.histograms.at("latency").count(), 1u);
}

TEST(StatsSnapshotTest, JsonRoundTrips) {
  StatsRegistry stats;
  stats.GetCounter("ops").Increment(42);
  stats.GetHistogram("latency").Record(uint64_t{1000});
  stats.GetHistogram("latency").Record(uint64_t{3000});
  auto parsed = ParseJson(stats.Snapshot().ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("ops")->number(), 42.0);
  const JsonValue* latency = parsed->Find("histograms")->Find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_DOUBLE_EQ(latency->Find("count")->number(), 2.0);
  EXPECT_GT(latency->Find("max")->number(), latency->Find("min")->number());
}

// Builds a small two-component trace: a request span on "nic" that sends a
// message to a handling span on "memctrl", linked by one flow.
TraceLog MakeLinkedTrace() {
  Simulator simulator;
  TraceLog trace;
  trace.Enable();
  Tracer nic(&trace, &simulator, "nic");
  Tracer memctrl(&trace, &simulator, "memctrl");
  SpanId request = nic.BeginSpan("Alloc");
  FlowId flow = nic.FlowSend("MemAllocRequest", request);
  simulator.Schedule(Duration::Nanos(500), [&] {
    SpanId handle = memctrl.BeginSpan("MemAllocRequest", request);
    memctrl.FlowReceive("MemAllocRequest", flow, handle);
    memctrl.EndSpan(handle);
  });
  simulator.Schedule(Duration::Nanos(900), [&] { nic.EndSpan(request); });
  simulator.Run();
  return trace;
}

TEST(ChromeTraceExportTest, EmitsValidJsonWithMonotoneTimestamps) {
  TraceLog trace = MakeLinkedTrace();
  std::ostringstream os;
  WriteChromeTrace(trace, os);
  auto parsed = ParseJson(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_GE(events->array().size(), 4u);  // 2 process names, 2 spans, 2 flows
  double last_ts = -1.0;
  for (const JsonValue& event : events->array()) {
    ASSERT_TRUE(event.is_object());
    ASSERT_NE(event.Find("ph"), nullptr);
    if (event.Find("ph")->str() == "M") {
      continue;  // metadata has no timestamp ordering obligation
    }
    ASSERT_NE(event.Find("ts"), nullptr);
    double ts = event.Find("ts")->number();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
  }
}

TEST(ChromeTraceExportTest, FlowSendAndFinishShareIds) {
  TraceLog trace = MakeLinkedTrace();
  std::ostringstream os;
  WriteChromeTrace(trace, os);
  auto parsed = ParseJson(os.str());
  ASSERT_TRUE(parsed.ok());
  std::map<double, int> sends;
  std::map<double, int> finishes;
  for (const JsonValue& event : parsed->Find("traceEvents")->array()) {
    const std::string& ph = event.Find("ph")->str();
    if (ph == "s") {
      ++sends[event.Find("id")->number()];
    } else if (ph == "f") {
      ++finishes[event.Find("id")->number()];
      EXPECT_EQ(event.Find("bp")->str(), "e");
    }
  }
  EXPECT_FALSE(sends.empty());
  EXPECT_EQ(sends, finishes);
}

TEST(ChromeTraceExportTest, SpansRecordParentIds) {
  TraceLog trace = MakeLinkedTrace();
  std::ostringstream os;
  WriteChromeTrace(trace, os);
  auto parsed = ParseJson(os.str());
  ASSERT_TRUE(parsed.ok());
  std::map<double, double> parent_of;  // span id -> parent id
  for (const JsonValue& event : parsed->Find("traceEvents")->array()) {
    if (event.Find("ph")->str() != "X") {
      continue;
    }
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    parent_of[args->Find("span")->number()] = args->Find("parent")->number();
  }
  ASSERT_EQ(parent_of.size(), 2u);
  // Exactly one root; the other span's parent is the root.
  int roots = 0;
  for (const auto& [span, parent] : parent_of) {
    if (parent == 0.0) {
      ++roots;
    } else {
      EXPECT_TRUE(parent_of.contains(parent));
    }
  }
  EXPECT_EQ(roots, 1);
}

// --- Result ---------------------------------------------------------------------

// Counts copies; moves are free.
struct CopyCounter {
  static inline int copies = 0;
  CopyCounter() = default;
  CopyCounter(const CopyCounter&) { ++copies; }
  CopyCounter(CopyCounter&&) noexcept = default;
  CopyCounter& operator=(const CopyCounter&) {
    ++copies;
    return *this;
  }
  CopyCounter& operator=(CopyCounter&&) noexcept = default;
};

TEST(ResultTest, RvalueDereferenceMovesTheValueOut) {
  Result<CopyCounter> result{CopyCounter()};
  CopyCounter::copies = 0;
  [[maybe_unused]] CopyCounter taken = *std::move(result);
  EXPECT_EQ(CopyCounter::copies, 0);
}

TEST(ResultTest, AssignMovesTheValueOut) {
  CopyCounter out;
  CopyCounter::copies = 0;
  ASSERT_TRUE(Assign(Result<CopyCounter>(CopyCounter()), out).ok());
  EXPECT_EQ(CopyCounter::copies, 0);
}

}  // namespace
}  // namespace lastcpu::sim

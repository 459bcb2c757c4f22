// Runs a workload: open-loop episodes on fresh machines, the search for the
// highest rate that meets the workload's p99 limit, and the long host-clock
// phase; turns what they measure into named metrics.
#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/host_counters.h"
#include "perfbench/rig.h"
#include "perfbench/workloads.h"

namespace perfbench {

// The latency recorded for an op that failed: above every limit.
inline constexpr uint64_t kFailedNs = UINT64_MAX;

// What one episode (one fresh machine) measured.
struct Episode {
  SetupTimes setup;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Simulated latency of every measured op from its scheduled send, in issue
  // order (kFailedNs for a failed op), and each op's kind.
  std::vector<uint64_t> latency_ns;
  std::vector<OpKind> kinds;
  // How late the generator issued any op, and how long the machine took to
  // finish after the last op was due (simulated ns).
  uint64_t max_lateness_ns = 0;
  uint64_t drain_ns = 0;
  // Layer counters over the measured phase (end minus start), gauges at its
  // end, and histogram deltas.
  sim::StatsSnapshot delta;
  AllocCount allocs;
  uint64_t events = 0;
  uint64_t host_ns = 0;  // wall time of the measured phase
  // Wall time from the issue of op k * slice_ops to that of op (k + 1) *
  // slice_ops (Workload::slice_ops); the last slice ends when the measured
  // phase has drained.
  std::vector<uint64_t> slice_host_ns;
  std::vector<std::string> failures;

  // Hash of everything the simulation determines: latencies, layer counts and
  // events. Equal across repeats of one input, traced or not; heap
  // allocations are compared separately, since tracing adds some.
  uint64_t Digest() const;
};

// Builds a machine, warms it up at the nominal rate, then drives `ops`
// measured ops at `rate`. With `spans` enabled, the measured phase records
// the benchmark's spans into it.
Episode RunEpisode(const Workload& workload, uint64_t seed, double rate, uint64_t ops,
                   SpanLog* spans);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scales every op count (warm-up, measured, probes); tests run short.
  double scale = 1.0;
  // Where the traced run writes its Chrome traces ("" = nowhere).
  std::string trace_dir;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> failures;
  // Digest of the exact (simulated and counted) results of this seed.
  uint64_t digest = 0;
  // Human-readable lines: the self-time table, probes, tracing overhead.
  std::vector<std::string> notes;
};

Report RunBenchmark(const Workload& workload, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_

// The four benchmark workloads: their fixed parameters, input generators and
// machine builders.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/rig.h"
#include "src/core/machine.h"

namespace perfbench {

struct Workload {
  std::string name;
  // Offered rate (simulated ops/s) of the measured episodes, and the fixed
  // limit on p99 that defines the highest sustainable rate.
  double nominal_rate = 0;
  double p99_limit_us = 0;
  // Ops per episode: warm-up (not measured), measured, per rate probe, and
  // per repeat of the host-clock loop (the first ops of stream 0; short, so
  // that every slice gets many repeats).
  uint64_t warmup_ops = 0;
  uint64_t measured_ops = 0;
  uint64_t probe_ops = 0;
  uint64_t host_ops = 0;
  // The measured phase is timed on the host clock in slices of this many ops
  // (about 2 ms each). A slice does the same work in every repeat of an
  // input, so its fastest repeat shows its cost without the load that other
  // tenants put on the host's cores.
  uint64_t slice_ops = 0;
  // Distinct input streams (sub-seeds) whose measured episodes are pooled
  // into the exact simulated metrics; one fresh machine each.
  uint32_t streams = 1;
  // `n` generated ops from `seed`: the only input a machine ever sees.
  std::vector<Op> (*generate)(uint64_t seed, uint64_t n) = nullptr;
  // Builds, boots and preloads a fresh machine, timing each phase.
  std::unique_ptr<Rig> (*build)(SpanLog* spans, SetupTimes* times) = nullptr;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(std::string_view name);

// `n` ops with unit-rate Poisson arrival times (seconds), drawn from a
// generator seeded with `seed`; every workload's generator starts here.
std::vector<Op> PoissonOps(uint64_t seed, uint64_t n);

// Reads the counters and histograms every layer of `machine` keeps (bus,
// fabric, network, devices, IOMMUs, SSD internals, memory controllers) into
// `out` under the benchmark's metric-source names.
void SampleMachine(lastcpu::core::Machine& machine, sim::StatsSnapshot* out);

// Builders, defined in kvs_rigs.cc and control_rigs.cc.
std::unique_ptr<Rig> BuildKvsRead(SpanLog* spans, SetupTimes* times);
std::unique_ptr<Rig> BuildKvsOverwrite(SpanLog* spans, SetupTimes* times);
std::vector<Op> GenerateKvsRead(uint64_t seed, uint64_t n);
std::vector<Op> GenerateKvsOverwrite(uint64_t seed, uint64_t n);
std::unique_ptr<Rig> BuildControlRack(SpanLog* spans, SetupTimes* times);
std::unique_ptr<Rig> BuildControlRackCentral(SpanLog* spans, SetupTimes* times);
std::vector<Op> GenerateControl(uint64_t seed, uint64_t n);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

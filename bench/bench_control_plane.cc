// E2: control-plane operation throughput and latency under contention.
//
// N devices each run a closed loop of (alloc 16 KiB -> free) operations.
// Decentralized: requests ride the bus to the memory controller; mappings are
// programmed by the bus's table engine. Centralized: every operation is an
// interrupt + syscall on a CPU with a fixed core count.
//
// Expected shape (paper claim: "control tasks ... can be handled in other
// hardware"): at 1 device the centralized kernel is competitive; as devices
// grow, the kernel's run queue serializes while the decentralized path's
// specialized hardware pipeline keeps per-op latency near-flat until the
// memory controller's firmware saturates.
//
// Series:
//  * Decentralized / Centralized: the closed-loop baselines. A closed loop
//    of identical clients marches in lockstep, so p50 == p99 there by
//    construction — read those rows for throughput, not tails.
//  * DecentralizedOpenLoop: Poisson arrivals (seeded, deterministic), which
//    surface real queueing variance in p50/p99.
//  * DecentralizedBatched[OpenLoop]: the grant-magazine fast path
//    (core::MagazineClient) over the same bus; most ops never leave the
//    device, collapsing bus_msgs_per_op.
//  * CentralizedBatched: the same magazine over the kernel client, refilled
//    through lease_batch syscalls, so the batched comparison stays fair.
//
// `--quick` (stripped before google-benchmark sees the args) shrinks the op
// count for CI smoke runs.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_util.h"

namespace lastcpu {
namespace {

using benchutil::ControlLoadRunner;
using benchutil::StubDevice;

uint64_t g_ops_per_device = 200;

// Open-loop mean inter-arrival per device: ~70% of the unbatched per-device
// service rate at 16 devices, so queues form but stay stable.
constexpr sim::Duration kOpenLoopInterarrival = sim::Duration::Micros(25);

void RunDecentralized(benchmark::State& state, size_t devices, bool batched,
                      sim::Duration interarrival) {
  for (auto _ : state) {
    core::Machine machine;
    auto& memctrl = machine.AddMemoryController();
    std::vector<StubDevice*> stubs;
    for (size_t i = 0; i < devices; ++i) {
      stubs.push_back(&machine.Emplace<StubDevice>("dev" + std::to_string(i)));
    }
    machine.Boot();

    std::vector<std::unique_ptr<core::BusControlClient>> clients;
    std::vector<std::unique_ptr<core::MagazineClient>> magazines;
    std::vector<ControlLoadRunner::PerClient> per_client;
    for (size_t i = 0; i < devices; ++i) {
      clients.push_back(std::make_unique<core::BusControlClient>(stubs[i], memctrl.id()));
      core::ControlClient* client = clients.back().get();
      if (batched) {
        magazines.push_back(std::make_unique<core::MagazineClient>(client, stubs[i], memctrl.id()));
        client = magazines.back().get();
      }
      per_client.push_back({client, Pasid(static_cast<uint32_t>(i + 1))});
    }
    // Snapshot/delta isolates the measured phase from boot traffic.
    sim::StatsSnapshot before = machine.bus().stats().Snapshot();
    sim::SimTime start = machine.simulator().Now();
    ControlLoadRunner::Options options;
    options.ops_each = g_ops_per_device;
    options.mean_interarrival = interarrival;
    ControlLoadRunner runner(&machine.simulator(), std::move(per_client), options);
    runner.Run();
    sim::Duration elapsed = machine.simulator().Now() - start;
    sim::StatsSnapshot delta = machine.bus().stats().Snapshot().DeltaSince(before);
    state.SetIterationTime(elapsed.seconds());
    state.counters["ops_per_sec"] =
        static_cast<double>(runner.completed()) / elapsed.seconds();
    state.counters["bus_msgs_per_op"] = static_cast<double>(delta.counters["messages_delivered"]) /
                                        static_cast<double>(runner.completed());
    if (batched) {
      uint64_t hits = 0;
      uint64_t misses = 0;
      for (const auto& magazine : magazines) {
        hits += magazine->hits();
        misses += magazine->misses();
      }
      state.counters["magazine_hit_rate"] =
          static_cast<double>(hits) / static_cast<double>(hits + misses);
      // Return leased regions before the magazines die, so the run ends with
      // a clean allocation table (and the drain traffic is accounted).
      for (const auto& magazine : magazines) {
        magazine->FlushSync();
      }
    }
    benchutil::ReportLatency(state, runner.latency());
  }
  state.counters["devices"] = static_cast<double>(devices);
  state.counters["design"] = 0;
  state.counters["batched"] = batched ? 1 : 0;
  state.counters["open_loop"] = interarrival > sim::Duration::Zero() ? 1 : 0;
}

void ControlPlane_Decentralized(benchmark::State& state) {
  RunDecentralized(state, static_cast<size_t>(state.range(0)), /*batched=*/false,
                   sim::Duration::Zero());
}

void ControlPlane_DecentralizedBatched(benchmark::State& state) {
  RunDecentralized(state, static_cast<size_t>(state.range(0)), /*batched=*/true,
                   sim::Duration::Zero());
}

void ControlPlane_DecentralizedOpenLoop(benchmark::State& state) {
  RunDecentralized(state, static_cast<size_t>(state.range(0)), /*batched=*/false,
                   kOpenLoopInterarrival);
}

void ControlPlane_DecentralizedBatchedOpenLoop(benchmark::State& state) {
  RunDecentralized(state, static_cast<size_t>(state.range(0)), /*batched=*/true,
                   kOpenLoopInterarrival);
}

void RunCentralized(benchmark::State& state, size_t devices, uint32_t cores, bool batched) {
  for (auto _ : state) {
    sim::Simulator simulator;
    mem::PhysicalMemory memory(256 << 20);
    baseline::CentralKernelConfig config;
    config.cores = cores;
    baseline::CentralKernel kernel(&simulator, &memory, config);
    std::vector<std::unique_ptr<iommu::Iommu>> iommus;
    std::vector<std::unique_ptr<core::KernelControlClient>> clients;
    std::vector<std::unique_ptr<core::MagazineClient>> magazines;
    std::vector<ControlLoadRunner::PerClient> per_client;
    for (size_t i = 0; i < devices; ++i) {
      DeviceId id(static_cast<uint32_t>(i + 1));
      iommus.push_back(std::make_unique<iommu::Iommu>(id));
      kernel.RegisterDevice(id, iommus.back().get());
      clients.push_back(std::make_unique<core::KernelControlClient>(&kernel, id));
      core::ControlClient* client = clients.back().get();
      if (batched) {
        // No host device in the kernel rig: the magazine refills through
        // lease_batch syscalls (one interrupt for N mappings), which is what
        // keeps the batched comparison fair across designs.
        magazines.push_back(std::make_unique<core::MagazineClient>(client));
        client = magazines.back().get();
      }
      per_client.push_back({client, Pasid(static_cast<uint32_t>(i + 1))});
    }
    sim::StatsSnapshot before = kernel.stats().Snapshot();
    sim::SimTime start = simulator.Now();
    ControlLoadRunner runner(&simulator, std::move(per_client), g_ops_per_device);
    runner.Run();
    sim::Duration elapsed = simulator.Now() - start;
    sim::StatsSnapshot delta = kernel.stats().Snapshot().DeltaSince(before);
    state.SetIterationTime(elapsed.seconds());
    state.counters["ops_per_sec"] =
        static_cast<double>(runner.completed()) / elapsed.seconds();
    state.counters["queue_wait_p99_us"] =
        static_cast<double>(delta.histograms["queue_wait"].p99()) / 1e3;
    if (batched) {
      uint64_t hits = 0;
      uint64_t misses = 0;
      for (const auto& magazine : magazines) {
        hits += magazine->hits();
        misses += magazine->misses();
      }
      state.counters["magazine_hit_rate"] =
          static_cast<double>(hits) / static_cast<double>(hits + misses);
      for (const auto& magazine : magazines) {
        magazine->FlushSync();
      }
    }
    benchutil::ReportLatency(state, runner.latency());
  }
  state.counters["devices"] = static_cast<double>(devices);
  state.counters["cores"] = static_cast<double>(cores);
  state.counters["design"] = 1;
  state.counters["batched"] = batched ? 1 : 0;
}

void ControlPlane_Centralized(benchmark::State& state) {
  RunCentralized(state, static_cast<size_t>(state.range(0)),
                 static_cast<uint32_t>(state.range(1)), /*batched=*/false);
}

void ControlPlane_CentralizedBatched(benchmark::State& state) {
  RunCentralized(state, static_cast<size_t>(state.range(0)),
                 static_cast<uint32_t>(state.range(1)), /*batched=*/true);
}

BENCHMARK(ControlPlane_Decentralized)
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16);

BENCHMARK(ControlPlane_DecentralizedBatched)
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16);

BENCHMARK(ControlPlane_DecentralizedOpenLoop)
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond)
    ->Arg(4)
    ->Arg(16);

BENCHMARK(ControlPlane_DecentralizedBatchedOpenLoop)
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond)
    ->Arg(4)
    ->Arg(16);

BENCHMARK(ControlPlane_Centralized)
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond)
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({16, 1})
    ->Args({16, 4});

BENCHMARK(ControlPlane_CentralizedBatched)
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond)
    ->Args({1, 1})
    ->Args({16, 1})
    ->Args({16, 4});

}  // namespace
}  // namespace lastcpu

// Custom main so CI can pass `--quick` (not a google-benchmark flag): strips
// it from argv and shrinks the per-device op count for smoke runs.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      lastcpu::g_ops_per_device = 40;
      for (int j = i; j + 1 < argc; ++j) {
        argv[j] = argv[j + 1];
      }
      --argc;
      break;
    }
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

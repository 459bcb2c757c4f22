// Host-performance benchmark: how fast does the simulator itself run?
//
// Every other bench reports *simulated* time; this one reports wall-clock
// throughput of the discrete-event engine (events/second on the host) while
// driving a KVS burst through the full machine, batched vs unbatched. The
// batching fast paths exist to cut modeled costs, but they also collapse the
// event count per op (fewer DMA transfers and doorbells = fewer scheduled
// events), so they speed up the simulation itself — this bench quantifies
// both: wall-clock events/sec, plus the per-op doorbell and DMA-transfer
// counts the E-batch experiment quotes.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"

namespace lastcpu {
namespace {

using benchutil::KvsRig;

constexpr uint64_t kKeys = 200;
constexpr uint64_t kBurstOps = 2000;
constexpr uint32_t kValueBytes = 256;
// Window sizing: coalescing merges only what arrives within one window, so
// the window must exceed the device's completion inter-arrival time (~60us
// here — GETs at NAND-read speed across 4 dies) to batch the steady state.
// 250us is NVMe-style interrupt moderation: ~4 completions per trailing
// doorbell at this op rate, with throughput set by flash, not the window.
constexpr sim::Duration kBatchWindow = sim::Duration::Micros(250);

KvsRig BuildRig(bool batched) {
  core::MachineConfig machine_config;
  kvs::KvsAppConfig app_config;
  ssddev::SmartSsdConfig ssd_config;
  ssd_config.host_auth_service = false;
  if (batched) {
    machine_config.fabric.doorbell_coalesce_window = kBatchWindow;
    app_config.engine.file_client.submit_batch_window = kBatchWindow;
    ssd_config.file_service.completion_batch_window = kBatchWindow;
  }
  return KvsRig::Build(machine_config, app_config, ssd_config);
}

void RunBurst(benchmark::State& state, bool batched) {
  for (auto _ : state) {
    KvsRig rig = BuildRig(batched);
    rig.Preload(kKeys, kValueBytes);

    sim::StatsSnapshot fabric_before = rig.machine->fabric().stats().Snapshot();
    uint64_t events_before = rig.machine->simulator().events_executed();
    sim::SimTime sim_start = rig.machine->simulator().Now();
    auto wall_start = std::chrono::steady_clock::now();

    // The burst: issue everything up front (the engine queues ops beyond the
    // session's slot budget), then drain. Read-heavy, the canonical KVS
    // serving pattern: GETs fan out across NAND dies and the device read
    // cache, so completions arrive densely and the batching windows have
    // something to merge. PUTs are paced by the active log block's NAND
    // program time regardless of batching, so a write-heavy burst measures
    // flash, not the fast path; a 1-in-8 PUT mix keeps the log warm without
    // letting programs set the pace.
    uint64_t completed = 0;
    for (uint64_t i = 0; i < kBurstOps; ++i) {
      const std::string key = kvs::WorkloadGenerator::KeyFor(i % kKeys);
      if (i % 8 != 0) {
        rig.app->engine().Get(key, [&completed](Result<std::vector<uint8_t>> r) {
          LASTCPU_CHECK(r.ok(), "burst get failed");
          ++completed;
        });
      } else {
        rig.app->engine().Put(key, std::vector<uint8_t>(kValueBytes, static_cast<uint8_t>(i)),
                              [&completed](Status s) {
                                LASTCPU_CHECK(s.ok(), "burst put failed");
                                ++completed;
                              });
      }
    }
    rig.machine->RunUntilIdle();
    LASTCPU_CHECK(completed == kBurstOps, "burst never finished");

    auto wall_elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                      wall_start)
                            .count();
    uint64_t events = rig.machine->simulator().events_executed() - events_before;
    sim::Duration sim_elapsed = rig.machine->simulator().Now() - sim_start;
    sim::StatsSnapshot fabric =
        rig.machine->fabric().stats().Snapshot().DeltaSince(fabric_before);

    state.SetIterationTime(wall_elapsed);
    double ops = static_cast<double>(kBurstOps);
    state.counters["events_per_sec_wall"] = static_cast<double>(events) / wall_elapsed;
    state.counters["events_per_op"] = static_cast<double>(events) / ops;
    state.counters["sim_ops_per_sec"] = ops / sim_elapsed.seconds();
    state.counters["doorbells_per_op"] =
        static_cast<double>(fabric.counters["doorbells"]) / ops;
    state.counters["dma_transfers_per_op"] =
        static_cast<double>(fabric.counters["dma_writes"] + fabric.counters["dma_reads"]) / ops;
    state.counters["sg_segments"] = static_cast<double>(fabric.counters["dma_sg_segments"]);
    state.counters["client_flushes"] =
        static_cast<double>(rig.nic->stats().GetCounter("file_client_batch_flushes").value());
    state.counters["service_flushes"] =
        static_cast<double>(rig.ssd->stats().GetCounter("file_service_batch_flushes").value());
    state.counters["queued_peak"] = static_cast<double>(rig.app->engine().queued_ops());
  }
  state.counters["batched"] = batched ? 1 : 0;
}

// Slowest unbatched events/sec seen this run; the --min-events-per-sec floor
// below is checked against it after the benchmarks finish.
double g_min_unbatched_events_per_sec = 0.0;

void SimHostPerf_KvsBurst_Unbatched(benchmark::State& state) {
  RunBurst(state, false);
  g_min_unbatched_events_per_sec = state.counters["events_per_sec_wall"];
}
void SimHostPerf_KvsBurst_Batched(benchmark::State& state) { RunBurst(state, true); }

BENCHMARK(SimHostPerf_KvsBurst_Unbatched)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(SimHostPerf_KvsBurst_Batched)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lastcpu

// Custom main so CI can enforce a host-throughput floor: with
// `--min-events-per-sec=N` the process exits nonzero when the unbatched burst
// executes fewer simulator events per wall-clock second than N. The floor is
// deliberately far below a healthy run — it exists to catch order-of-magnitude
// engine regressions, not scheduler jitter.
int main(int argc, char** argv) {
  double floor_events_per_sec = 0.0;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr std::string_view kFlag = "--min-events-per-sec=";
    std::string_view arg = argv[i];
    if (arg.substr(0, kFlag.size()) == kFlag) {
      floor_events_per_sec = std::strtod(arg.substr(kFlag.size()).data(), nullptr);
    } else {
      argv[kept++] = argv[i];  // hand everything else to the benchmark library
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (floor_events_per_sec > 0.0 &&
      lastcpu::g_min_unbatched_events_per_sec < floor_events_per_sec) {
    std::fprintf(stderr,
                 "FAIL: unbatched host throughput %.0f events/sec is below the floor %.0f\n",
                 lastcpu::g_min_unbatched_events_per_sec, floor_events_per_sec);
    return 1;
  }
  return 0;
}

// E4: the Section-3 KVS application end to end.
//
// Sweeps value size and GET fraction, decentralized vs CPU-mediated. In the
// CPU-mediated variant every network request must be dispatched by the
// kernel before the NIC's engine may process it (the traditional
// kernel-owned network stack); the data path below is identical, which is
// exactly the paper's point — once the data plane is device-to-device, the
// CPU only adds a toll booth. Also runs E9 (KVS under FTL garbage collection)
// and the E-batch burst (data-plane batching, batched vs unbatched).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace lastcpu {
namespace {

using benchutil::KvsRig;

constexpr uint64_t kKeys = 500;
constexpr uint64_t kOpsPerClient = 1200;
constexpr int kClients = 8;
constexpr uint32_t kConcurrency = 16;
// Kernel network-stack work per packet direction in the mediated design
// (interrupt handling, skb processing, socket wakeup — classic numbers).
constexpr sim::Duration kStackWork = sim::Duration::Micros(8);

// Wraps the KVS app so every request first pays a kernel mediation.
class MediatedKvsApp : public nicdev::AppEngine {
 public:
  MediatedKvsApp(std::unique_ptr<kvs::KvsApp> inner, baseline::CentralKernel* kernel)
      : inner_(std::move(inner)), kernel_(kernel) {}

  void Start(std::function<void(Status)> done) override { inner_->Start(std::move(done)); }

  void HandleRequest(std::vector<uint8_t> payload,
                     std::function<void(std::vector<uint8_t>)> respond) override {
    kernel_->MediateIo(kStackWork,
                       [this, payload = std::move(payload),
                        respond = std::move(respond)]() mutable {
                         inner_->HandleRequest(std::move(payload),
                                               [this, respond = std::move(respond)](
                                                   std::vector<uint8_t> response) mutable {
                                                 // Completion also interrupts the CPU.
                                                 kernel_->MediateIo(
                                                     kStackWork,
                                                     [respond = std::move(respond),
                                                      response = std::move(response)]() mutable {
                                                       respond(std::move(response));
                                                     });
                                               });
                       });
  }

  bool HandleDoorbell(DeviceId from, uint64_t value) override {
    return inner_->HandleDoorbell(from, value);
  }
  void OnPeerFailed(DeviceId device) override { inner_->OnPeerFailed(device); }

  kvs::KvsApp* inner() { return inner_.get(); }

 private:
  std::unique_ptr<kvs::KvsApp> inner_;
  baseline::CentralKernel* kernel_;
};

void RunWorkload(benchmark::State& state, core::Machine& machine, nicdev::SmartNic& nic,
                 kvs::KvsApp& app, uint32_t value_bytes, double get_fraction) {
  // Preload.
  for (uint64_t i = 0; i < kKeys; ++i) {
    app.engine().Put(kvs::WorkloadGenerator::KeyFor(i),
                     std::vector<uint8_t>(value_bytes, static_cast<uint8_t>(i)),
                     [](Status s) { LASTCPU_CHECK(s.ok(), "preload failed"); });
    machine.RunUntilIdle();
  }
  std::vector<std::unique_ptr<kvs::LoadClient>> clients;
  int finished = 0;
  sim::SimTime start = machine.simulator().Now();
  for (int c = 0; c < kClients; ++c) {
    kvs::WorkloadConfig workload;
    workload.num_keys = kKeys;
    workload.get_fraction = get_fraction;
    workload.value_bytes = value_bytes;
    workload.seed = static_cast<uint64_t>(c) + 1;
    clients.push_back(std::make_unique<kvs::LoadClient>(
        &machine.simulator(), &machine.network(), nic.endpoint(), workload, kConcurrency));
    clients.back()->Start(kOpsPerClient, [&finished] { ++finished; });
  }
  machine.RunUntilIdle();
  LASTCPU_CHECK(finished == kClients, "workload never finished");
  sim::Duration elapsed = machine.simulator().Now() - start;
  state.SetIterationTime(elapsed.seconds());
  uint64_t completed = 0;
  uint64_t errors = 0;
  sim::Histogram latency;
  sim::Histogram get_latency;
  sim::Histogram put_latency;
  for (const auto& client : clients) {
    completed += client->completed();
    errors += client->errors();
    latency.Merge(client->latency());
    get_latency.Merge(client->get_latency());
    put_latency.Merge(client->put_latency());
  }
  state.counters["ops_per_sec"] = static_cast<double>(completed) / elapsed.seconds();
  benchutil::ReportLatency(state, latency);
  state.counters["get_p99_us"] = static_cast<double>(get_latency.p99()) / 1e3;
  state.counters["put_p99_us"] = static_cast<double>(put_latency.p99()) / 1e3;
  state.counters["errors"] = static_cast<double>(errors);
}

void Kvs_Decentralized(benchmark::State& state) {
  auto value_bytes = static_cast<uint32_t>(state.range(0));
  double get_fraction = static_cast<double>(state.range(1)) / 100.0;
  for (auto _ : state) {
    KvsRig rig = KvsRig::Build();
    RunWorkload(state, *rig.machine, *rig.nic, *rig.app, value_bytes, get_fraction);
  }
  state.counters["value_bytes"] = static_cast<double>(value_bytes);
  state.counters["design"] = 0;
}

void Kvs_CpuMediated(benchmark::State& state) {
  auto value_bytes = static_cast<uint32_t>(state.range(0));
  double get_fraction = static_cast<double>(state.range(1)) / 100.0;
  for (auto _ : state) {
    // Same machine, plus a 1-core kernel that must bless every request.
    auto machine = std::make_unique<core::Machine>();
    machine->AddMemoryController();
    ssddev::SmartSsdConfig ssd_config;
    ssd_config.host_auth_service = false;
    auto& ssd = machine->AddSmartSsd(ssd_config);
    auto& nic = machine->AddSmartNic();
    ssd.ProvisionFile("kv.log", {});
    Pasid pasid = machine->NewApplication("kvs");
    baseline::CentralKernel kernel(&machine->simulator(), &machine->memory());

    auto inner = std::make_unique<kvs::KvsApp>(&nic, pasid);
    auto mediated = std::make_unique<MediatedKvsApp>(std::move(inner), &kernel);
    MediatedKvsApp* app = mediated.get();
    nic.LoadApp(std::move(mediated));
    machine->Boot();
    RunWorkload(state, *machine, nic, *app->inner(), value_bytes, get_fraction);
  }
  state.counters["value_bytes"] = static_cast<double>(value_bytes);
  state.counters["design"] = 1;
}

// --- E9: KVS under FTL garbage collection ----------------------------------
//
// Sustained overwrites of a small key set, with log compaction enabled so
// dead log generations are trimmed and the FTL has garbage to collect. Two
// device shapes run the identical workload:
//  * gc-idle: the default NAND array (64 MiB) — the working set never fills
//    the device, so garbage collection stays asleep. This is the baseline.
//  * gc-active: a 2 MiB NAND array — the overwrite stream writes several
//    multiples of raw capacity, so the run reaches steady state with GC
//    relocating pages concurrently with host traffic.
// Reported per series: throughput, PUT p99, steady-state write amplification,
// GC runs, and write stalls (host writes parked while GC frees a block).

constexpr uint64_t kGcKeys = 32;
constexpr uint32_t kGcValueBytes = 1024;
constexpr int kGcClients = 4;
constexpr uint32_t kGcConcurrency = 8;
// Overridable from main() for `--gc-smoke` (CI) runs.
uint64_t g_gc_ops_per_client = 1500;

struct GcResult {
  double sim_seconds = 0;
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t put_p99_ns = 0;
  double waf = 0;
  uint64_t gc_runs = 0;
  uint64_t gc_relocated_pages = 0;
  uint64_t write_stalls = 0;
  double ops_per_sec() const { return static_cast<double>(completed) / sim_seconds; }
};

GcResult RunGcWorkload(bool gc_active, uint64_t ops_per_client) {
  ssddev::SmartSsdConfig ssd_config;
  ssd_config.host_auth_service = false;
  if (gc_active) {
    // 2 dies x 16 blocks x 16 pages x 4 KiB = 2 MiB raw. The workload below
    // writes several multiples of that, forcing steady-state GC.
    ssd_config.nand.dies = 2;
    ssd_config.nand.blocks_per_die = 16;
    ssd_config.nand.pages_per_block = 16;
  }
  kvs::KvsAppConfig app_config;
  // Roll the log once half of it is dead so trimmed generations hand the FTL
  // invalid pages to reclaim; without compaction the log only ever grows and
  // GC would have nothing to free.
  app_config.engine.compact_garbage_ratio = 0.5;
  app_config.engine.min_compact_bytes = 128 << 10;
  KvsRig rig = KvsRig::Build(core::MachineConfig{}, app_config, ssd_config);
  rig.Preload(kGcKeys, kGcValueBytes);

  std::vector<std::unique_ptr<kvs::LoadClient>> clients;
  int finished = 0;
  sim::SimTime start = rig.machine->simulator().Now();
  for (int c = 0; c < kGcClients; ++c) {
    kvs::WorkloadConfig workload;
    workload.num_keys = kGcKeys;
    workload.get_fraction = 0.1;  // 90% PUT: a sustained overwrite stream
    workload.value_bytes = kGcValueBytes;
    workload.seed = static_cast<uint64_t>(c) + 1;
    clients.push_back(std::make_unique<kvs::LoadClient>(
        &rig.machine->simulator(), &rig.machine->network(), rig.nic->endpoint(), workload,
        kGcConcurrency));
    clients.back()->Start(ops_per_client, [&finished] { ++finished; });
  }
  rig.machine->RunUntilIdle();
  LASTCPU_CHECK(finished == kGcClients, "gc workload never finished");

  GcResult out;
  out.sim_seconds = (rig.machine->simulator().Now() - start).seconds();
  sim::Histogram put_latency;
  for (const auto& client : clients) {
    out.completed += client->completed();
    out.errors += client->errors();
    put_latency.Merge(client->put_latency());
  }
  out.put_p99_ns = put_latency.p99();
  const ssddev::Ftl& ftl = rig.ssd->ftl();
  out.waf = ftl.WriteAmplification();
  out.gc_runs = ftl.gc_runs();
  out.gc_relocated_pages = ftl.gc_relocated_pages();
  out.write_stalls = ftl.write_stalls();
  return out;
}

void Kvs_SustainedOverwrite(benchmark::State& state) {
  bool gc_active = state.range(0) == 1;
  for (auto _ : state) {
    GcResult r = RunGcWorkload(gc_active, g_gc_ops_per_client);
    state.SetIterationTime(r.sim_seconds);
    state.counters["ops_per_sec"] = r.ops_per_sec();
    state.counters["put_p99_us"] = static_cast<double>(r.put_p99_ns) / 1e3;
    state.counters["waf"] = r.waf;
    state.counters["gc_runs"] = static_cast<double>(r.gc_runs);
    state.counters["gc_relocated_pages"] = static_cast<double>(r.gc_relocated_pages);
    state.counters["write_stalls"] = static_cast<double>(r.write_stalls);
    state.counters["errors"] = static_cast<double>(r.errors);
  }
  state.counters["gc_active"] = gc_active ? 1 : 0;
}

BENCHMARK(Kvs_SustainedOverwrite)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->Arg(0)   // gc-idle baseline (64 MiB array, GC never wakes)
    ->Arg(1);  // gc-active (2 MiB array, steady-state GC)

// Value-size sweep at YCSB-B-like 95% GET.
BENCHMARK(Kvs_Decentralized)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->Args({64, 95})
    ->Args({256, 95})
    ->Args({1024, 95})
    ->Args({2048, 95})
    // Mix sweep at 256-byte values: YCSB-C (100% GET), B (95%), A (50%).
    ->Args({256, 100})
    ->Args({256, 50});

BENCHMARK(Kvs_CpuMediated)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->Args({64, 95})
    ->Args({256, 95})
    ->Args({1024, 95})
    ->Args({2048, 95})
    ->Args({256, 100})
    ->Args({256, 50});

// --- E-batch: one KVS burst, batched vs unbatched ---------------------------
//
// 2000 ops issued at once through the NIC's virtqueue to the SSD, then
// drained. Read-heavy, the canonical KVS serving pattern: GETs fan out across
// NAND dies and the device read cache, so completions arrive densely and the
// batching windows have something to merge. 1 op in 8 is a PUT, enough to
// keep the log warm. FlashFs group-commits the PUTs' appends, so those queued
// behind a tail-page program share the next one and NAND programs do not
// set the burst's pace: unbatched, the burst runs at about 110k ops/s, and
// batched at about 47k, where its requests and completions wait out the
// windows. Batched turns on the data-plane fast paths: scatter-gather DMA,
// doorbell coalescing, and virtqueue submit and completion batching. Every
// number is a count or simulated time, so each run reproduces exactly.

constexpr uint64_t kBurstKeys = 200;
constexpr uint64_t kBurstOps = 2000;
constexpr uint32_t kBurstValueBytes = 256;
// Coalescing merges only what arrives within one window, so the window must
// exceed the device's completion inter-arrival time (~60us here: GETs at
// NAND-read speed across 4 dies) to batch the steady state. 250us is
// NVMe-style interrupt moderation: about 8.6 ops per doorbell, at the price
// of the throughput the windows hold back.
constexpr sim::Duration kBatchWindow = sim::Duration::Micros(250);

struct BurstResult {
  double sim_seconds = 0;
  uint64_t events = 0;
  uint64_t doorbells = 0;
  uint64_t dma_transfers = 0;  // DMA writes + reads; a scatter-gather write is one
  uint64_t sg_segments = 0;
  uint64_t client_flushes = 0;
  uint64_t service_flushes = 0;
  static double PerOp(uint64_t count) {
    return static_cast<double>(count) / static_cast<double>(kBurstOps);
  }
  double ops_per_sec() const { return static_cast<double>(kBurstOps) / sim_seconds; }
};

BurstResult RunBurst(bool batched) {
  core::MachineConfig machine_config;
  if (batched) {
    machine_config.fabric.batch_window = kBatchWindow;
  }
  KvsRig rig = KvsRig::Build(machine_config, kvs::KvsAppConfig{});
  rig.Preload(kBurstKeys, kBurstValueBytes);

  sim::StatsSnapshot fabric_before = rig.machine->fabric().stats().Snapshot();
  uint64_t events_before = rig.machine->simulator().events_executed();
  sim::SimTime start = rig.machine->simulator().Now();
  // Issue everything up front (the engine queues ops beyond the session's
  // slot budget), then drain.
  uint64_t completed = 0;
  for (uint64_t i = 0; i < kBurstOps; ++i) {
    const std::string key = kvs::WorkloadGenerator::KeyFor(i % kBurstKeys);
    if (i % 8 != 0) {
      rig.app->engine().Get(key, [&completed](Result<std::vector<uint8_t>> r) {
        LASTCPU_CHECK(r.ok(), "burst get failed");
        ++completed;
      });
    } else {
      rig.app->engine().Put(key, std::vector<uint8_t>(kBurstValueBytes, static_cast<uint8_t>(i)),
                            [&completed](Status s) {
                              LASTCPU_CHECK(s.ok(), "burst put failed");
                              ++completed;
                            });
    }
  }
  rig.machine->RunUntilIdle();
  LASTCPU_CHECK(completed == kBurstOps, "burst never finished");

  sim::StatsSnapshot fabric = rig.machine->fabric().stats().Snapshot().DeltaSince(fabric_before);
  BurstResult out;
  out.sim_seconds = (rig.machine->simulator().Now() - start).seconds();
  out.events = rig.machine->simulator().events_executed() - events_before;
  out.doorbells = fabric.counters["doorbells"];
  out.dma_transfers = fabric.counters["dma_writes"] + fabric.counters["dma_reads"];
  out.sg_segments = fabric.counters["dma_sg_segments"];
  out.client_flushes = rig.nic->stats().GetCounter("file_client_batch_flushes").value();
  out.service_flushes = rig.ssd->stats().GetCounter("file_service_batch_flushes").value();
  return out;
}

void Kvs_Burst(benchmark::State& state) {
  bool batched = state.range(0) == 1;
  for (auto _ : state) {
    BurstResult r = RunBurst(batched);
    state.SetIterationTime(r.sim_seconds);
    state.counters["ops_per_sec"] = r.ops_per_sec();
    state.counters["events_per_op"] = BurstResult::PerOp(r.events);
    state.counters["doorbells_per_op"] = BurstResult::PerOp(r.doorbells);
    state.counters["dma_transfers_per_op"] = BurstResult::PerOp(r.dma_transfers);
    state.counters["sg_segments"] = static_cast<double>(r.sg_segments);
    state.counters["client_flushes"] = static_cast<double>(r.client_flushes);
    state.counters["service_flushes"] = static_cast<double>(r.service_flushes);
  }
  state.counters["batched"] = batched ? 1 : 0;
}

BENCHMARK(Kvs_Burst)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->Arg(0)   // unbatched: one DMA and one doorbell per request and response
    ->Arg(1);  // batched: 250us windows on every data-plane fast path

}  // namespace

// CI bench-smoke: run the sustained-overwrite series once per device shape
// at reduced op count and fail the build when GC-active throughput collapses
// below `floor` x the GC-idle baseline, when GC never engaged (the regression
// the floor exists to guard), or when any op errored.
int RunGcSmoke(double floor) {
  g_gc_ops_per_client = 250;
  GcResult idle = RunGcWorkload(/*gc_active=*/false, g_gc_ops_per_client);
  GcResult active = RunGcWorkload(/*gc_active=*/true, g_gc_ops_per_client);
  std::printf("gc-idle:   %8.0f ops/s  put_p99 %6.1f us  waf %.2f  gc_runs %llu  stalls %llu\n",
              idle.ops_per_sec(), static_cast<double>(idle.put_p99_ns) / 1e3, idle.waf,
              static_cast<unsigned long long>(idle.gc_runs),
              static_cast<unsigned long long>(idle.write_stalls));
  std::printf("gc-active: %8.0f ops/s  put_p99 %6.1f us  waf %.2f  gc_runs %llu  stalls %llu\n",
              active.ops_per_sec(), static_cast<double>(active.put_p99_ns) / 1e3, active.waf,
              static_cast<unsigned long long>(active.gc_runs),
              static_cast<unsigned long long>(active.write_stalls));
  bool ok = true;
  if (idle.errors != 0 || active.errors != 0) {
    std::printf("FAIL: ops errored (idle=%llu active=%llu)\n",
                static_cast<unsigned long long>(idle.errors),
                static_cast<unsigned long long>(active.errors));
    ok = false;
  }
  if (active.gc_runs == 0 || active.waf <= 1.0) {
    std::printf("FAIL: GC never engaged on the small array (gc_runs=%llu waf=%.2f)\n",
                static_cast<unsigned long long>(active.gc_runs), active.waf);
    ok = false;
  }
  double ratio = active.ops_per_sec() / idle.ops_per_sec();
  if (ratio < floor) {
    std::printf("FAIL: GC-active throughput %.2fx of idle, below floor %.2f\n", ratio, floor);
    ok = false;
  } else {
    std::printf("gc-active throughput is %.2fx of gc-idle (floor %.2f)\n", ratio, floor);
  }
  return ok ? 0 : 1;
}

// CI bench-smoke: run the burst unbatched and batched, print every count,
// and fail unless batching cuts both doorbells and DMA transfers per op.
int RunBatchSmoke() {
  BurstResult unbatched = RunBurst(/*batched=*/false);
  BurstResult batched = RunBurst(/*batched=*/true);
  auto print = [](const char* name, const BurstResult& r) {
    std::printf("%-9s %.1f ops/s  events/op %.4f  doorbells/op %.4f  dma/op %.4f  "
                "sg_segments %llu  flushes %llu/%llu\n",
                name, r.ops_per_sec(), BurstResult::PerOp(r.events),
                BurstResult::PerOp(r.doorbells), BurstResult::PerOp(r.dma_transfers),
                static_cast<unsigned long long>(r.sg_segments),
                static_cast<unsigned long long>(r.client_flushes),
                static_cast<unsigned long long>(r.service_flushes));
  };
  print("unbatched", unbatched);
  print("batched", batched);
  bool ok = true;
  if (batched.doorbells >= unbatched.doorbells) {
    std::printf("FAIL: batching did not cut doorbells per op\n");
    ok = false;
  }
  if (batched.dma_transfers >= unbatched.dma_transfers) {
    std::printf("FAIL: batching did not cut DMA transfers per op\n");
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace lastcpu

// Custom main so CI can run `--gc-smoke [--gc-floor=F]` and `--batch-smoke`
// (not google-benchmark flags): a smoke path skips benchmark registration
// entirely and exits non-zero when its check fails.
int main(int argc, char** argv) {
  bool gc_smoke = false;
  bool batch_smoke = false;
  double gc_floor = 0.25;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gc-smoke") == 0) {
      gc_smoke = true;
    } else if (std::strcmp(argv[i], "--batch-smoke") == 0) {
      batch_smoke = true;
    } else if (std::strncmp(argv[i], "--gc-floor=", 11) == 0) {
      gc_floor = std::stod(std::string(argv[i] + 11));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (gc_smoke) {
    return lastcpu::RunGcSmoke(gc_floor);
  }
  if (batch_smoke) {
    return lastcpu::RunBatchSmoke();
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

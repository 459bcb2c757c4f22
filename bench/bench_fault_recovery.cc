// E-fault: recovery latency under a faulty interconnect (paper Sec. 4/5).
//
// The paper's open question is whether a machine with no CPU to clean up
// after it stays viable when things go wrong. This experiment kills the
// smart SSD in the middle of a live KVS workload — on a clean wire and on a
// lossy one (drops, delays, duplicates, reorders injected seed-
// deterministically by the FaultPlan) — and measures the time from the kill
// to full application recovery (session re-open, log re-scan, first
// successful GET). The centralized comparator pays kernel mediation for the
// failure fan-out and re-initialization, with the same per-message loss
// probability forcing timeout-priced retries on its mediated hops.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/baseline/central_kernel.h"
#include "src/memdev/shard_layout.h"
#include "src/sim/fault.h"

namespace lastcpu {
namespace {

using benchutil::KvsRig;
using benchutil::StubDevice;

// Steps the simulator until `predicate` holds; returns false on queue-drain.
bool StepUntil(sim::Simulator& simulator, const std::function<bool()>& predicate) {
  while (!predicate()) {
    if (!simulator.Step()) {
      return predicate();
    }
  }
  return true;
}

// The lossy-wire profile shared by both designs: mild but real impairment.
sim::FaultPlan LossyPlan() {
  sim::FaultPlan plan;
  plan.drop_probability = 0.01;
  plan.delay_probability = 0.05;
  plan.duplicate_probability = 0.01;
  plan.reorder_probability = 0.01;
  return plan;
}

// Kills the SSD mid-workload and measures time to first successful GET after
// recovery. state.range(0) selects the wire: 0 = clean, 1 = lossy plan.
void FaultRecovery_Decentralized(benchmark::State& state) {
  const bool lossy = state.range(0) != 0;
  uint64_t seed = LossyPlan().seed;
  for (auto _ : state) {
    core::MachineConfig machine_config;
    kvs::KvsAppConfig app_config;
    if (lossy) {
      machine_config.fault_plan = LossyPlan();
      machine_config.fault_plan.seed = seed++;  // fresh draw sequence per run
      // Doorbells may be dropped on a lossy wire; the poll backstop keeps
      // the data plane live (see FileClientConfig::completion_poll).
      app_config.engine.file_client.completion_poll = sim::Duration::Micros(200);
    }
    KvsRig rig = KvsRig::Build(machine_config, app_config);
    rig.Preload(50, 128);

    // Keep a workload in flight so the kill lands mid-exchange.
    int issued = 0;
    int settled = 0;
    for (uint64_t i = 0; i < 8; ++i) {
      ++issued;
      rig.app->engine().Get(kvs::WorkloadGenerator::KeyFor(i),
                            [&](Result<std::vector<uint8_t>>) { ++settled; });
    }
    for (int i = 0; i < 50; ++i) {
      rig.machine->simulator().Step();  // a few deliveries, then the axe falls
    }

    sim::SimTime start = rig.machine->simulator().Now();
    rig.ssd->InjectFailure();
    rig.machine->bus().ReportDeviceFailure(rig.ssd->id());
    bool stopped = StepUntil(rig.machine->simulator(),
                             [&] { return !rig.app->engine().running(); });
    LASTCPU_CHECK(stopped, "NIC never learned of the failure");
    sim::SimTime notified = rig.machine->simulator().Now();
    bool recovered = StepUntil(rig.machine->simulator(),
                               [&] { return rig.app->engine().running(); });
    LASTCPU_CHECK(recovered, "app never recovered");

    bool got = false;
    rig.app->engine().Get(kvs::WorkloadGenerator::KeyFor(7),
                          [&](Result<std::vector<uint8_t>> r) { got = r.ok(); });
    rig.machine->RunUntilIdle();
    LASTCPU_CHECK(got, "data lost across recovery");
    // The no-hangs invariant: every pre-kill request settled with a typed
    // status even though its provider died mid-exchange.
    LASTCPU_CHECK(settled == issued, "a request callback hung across the failure");

    state.SetIterationTime((rig.machine->simulator().Now() - start).seconds());
    state.counters["notify_us"] = (notified - start).seconds() * 1e6;
    state.counters["recoveries"] = static_cast<double>(rig.app->recoveries());
    if (rig.machine->fault_injector() != nullptr) {
      state.counters["faults"] =
          static_cast<double>(rig.machine->fault_injector()->dropped() +
                              rig.machine->fault_injector()->delayed() +
                              rig.machine->fault_injector()->duplicated() +
                              rig.machine->fault_injector()->reordered());
    }
  }
  state.counters["design"] = 0;
  state.counters["lossy"] = lossy ? 1 : 0;
}

// Centralized comparator: the kernel hears the failure interrupt, notifies
// `consumers` serially, then re-runs the mediated init sequence. On the
// lossy wire every mediated hop is lost with the same probability and costs
// a full 100us request timeout before the retry (there is no bus broadcast
// to amortize and no peer-to-peer retry path — the kernel is the wire).
void FaultRecovery_Centralized(benchmark::State& state) {
  const bool lossy = state.range(0) != 0;
  constexpr size_t kConsumers = 8;
  constexpr sim::Duration kRetryTimeout = sim::Duration::Micros(100);
  sim::Rng rng(LossyPlan().seed);
  const double drop = lossy ? LossyPlan().drop_probability : 0.0;
  for (auto _ : state) {
    sim::Simulator simulator;
    mem::PhysicalMemory memory(64 << 20);
    baseline::CentralKernel kernel(&simulator, &memory);
    iommu::Iommu nic_iommu(DeviceId(1));
    iommu::Iommu ssd_iommu(DeviceId(2));
    kernel.RegisterDevice(DeviceId(1), &nic_iommu);
    kernel.RegisterDevice(DeviceId(2), &ssd_iommu);

    constexpr sim::Duration kSelfTest = sim::Duration::Micros(50);
    constexpr sim::Duration kLogScan = sim::Duration::Micros(120);
    const uint64_t session_bytes = ssddev::SessionLayout::BytesRequired(64);

    // Each mediated hop pays the timeout once per loss before succeeding.
    auto hop_penalty = [&] {
      sim::Duration penalty = sim::Duration::Zero();
      while (rng.NextBool(drop)) {
        penalty = penalty + kRetryTimeout;
      }
      return penalty;
    };

    sim::SimTime start = simulator.Now();
    bool done = false;
    auto notify = std::make_shared<std::function<void(size_t)>>();
    *notify = [&, notify](size_t remaining) {
      if (remaining == 0) {
        simulator.Schedule(kSelfTest + hop_penalty(), [&] {
          kernel.MediateIo(sim::Duration::Nanos(600) + hop_penalty(), [&] {  // re-open
            kernel.AllocMemory(DeviceId(1), Pasid(1), session_bytes,
                               [&](Result<VirtAddr> vaddr) {
                                 kernel.Grant(DeviceId(1), Pasid(1), *vaddr, session_bytes,
                                              DeviceId(2), Access::kReadWrite, [&](Status) {
                                                simulator.Schedule(kLogScan,
                                                                   [&] { done = true; });
                                              });
                               });
          });
        });
        return;
      }
      kernel.MediateIo(sim::Duration::Nanos(700) + hop_penalty(),
                       [notify, remaining] { (*notify)(remaining - 1); });
    };
    kernel.MediateIo(sim::Duration::Micros(1), [notify] { (*notify)(kConsumers); });
    simulator.Run();
    LASTCPU_CHECK(done, "centralized recovery never completed");
    state.SetIterationTime((simulator.Now() - start).seconds());
  }
  state.counters["design"] = 1;
  state.counters["lossy"] = lossy ? 1 : 0;
  state.counters["consumers"] = static_cast<double>(kConsumers);
}

// Quarantine path: the SSD dies for good. Measures kill -> quarantine
// decision and kill -> the app learning retries are pointless, and checks
// that the memory controller reclaims everything the corpse owned or held.
// state.range(0) selects the failure shape: 0 = dead silicon (reset pulses
// go unanswered until the attempt budget runs out), 1 = crash loop (the
// device answers every reset but keeps dying; the sliding-window detector
// trips first).
void Quarantine_Decentralized(benchmark::State& state) {
  const bool crash_loop = state.range(0) != 0;
  for (auto _ : state) {
    core::MachineConfig machine_config;
    sim::CrashSpec kill;
    kill.device = 2;  // the SSD: memctrl/ssd/nic are added in that order
    kill.at = sim::Duration::Micros(15000);
    if (crash_loop) {
      machine_config.bus.restart_policy.max_restart_attempts = 10;
      machine_config.bus.restart_policy.crash_loop_threshold = 3;
      sim::CrashSpec again = kill;
      again.at = sim::Duration::Micros(15400);
      sim::CrashSpec third = kill;
      third.at = sim::Duration::Micros(15800);
      machine_config.crash_plan.crashes = {kill, again, third};
    } else {
      kill.respawn = sim::CrashSpec::Respawn::kNever;
      machine_config.crash_plan.crashes = {kill};
    }

    KvsRig rig = KvsRig::Build(machine_config, kvs::KvsAppConfig{});
    rig.Preload(20, 128);
    sim::Simulator& simulator = rig.machine->simulator();
    LASTCPU_CHECK(rig.machine->bus().IsAlive(rig.ssd->id()),
                  "preload ran past the scheduled kill");

    // Step to the first kill (a scheduled daemon), then through the whole
    // supervision episode: pulses, backoff, deadline timers, quarantine.
    bool killed =
        StepUntil(simulator, [&] { return !rig.machine->bus().IsAlive(rig.ssd->id()); });
    LASTCPU_CHECK(killed, "crash plan never fired");
    sim::SimTime killed_at = simulator.Now();

    const bus::DeviceSupervisor& supervisor = rig.machine->bus().supervisor();
    sim::SimTime give_up = killed_at + sim::Duration::Millis(50);
    StepUntil(simulator, [&] {
      return supervisor.IsQuarantined(rig.ssd->id()) || simulator.Now() >= give_up;
    });
    LASTCPU_CHECK(supervisor.IsQuarantined(rig.ssd->id()), "device never quarantined");
    sim::SimTime quarantined_at = simulator.Now();

    // The DevicePermanentlyFailed broadcast must reach the NIC and kill the
    // app's retry loop.
    StepUntil(simulator, [&] {
      return rig.app->provider_permanently_failed() || simulator.Now() >= give_up;
    });
    LASTCPU_CHECK(rig.app->provider_permanently_failed(), "app never learned of quarantine");
    sim::SimTime app_informed_at = simulator.Now();
    rig.machine->RunUntilIdle();

    // Reclamation: nothing left in the memory controller under the corpse's
    // name, and a post-quarantine Put settles immediately with an error
    // instead of hanging.
    LASTCPU_CHECK(rig.memctrl->AllocationsOwnedBy(rig.ssd->id()) == 0,
                  "quarantined device still owns allocations");
    LASTCPU_CHECK(rig.memctrl->GrantsHeldBy(rig.ssd->id()) == 0,
                  "quarantined device still holds grants");
    bool settled = false;
    bool failed = false;
    rig.app->engine().Put("post-quarantine", {1, 2, 3}, [&](Status s) {
      settled = true;
      failed = !s.ok();
    });
    rig.machine->RunUntilIdle();
    LASTCPU_CHECK(settled && failed, "post-quarantine put did not fast-fail");

    state.SetIterationTime((quarantined_at - killed_at).seconds());
    state.counters["app_notified_us"] = (app_informed_at - killed_at).seconds() * 1e6;
    state.counters["restart_pulses"] = static_cast<double>(
        rig.machine->bus().stats().GetCounter("supervisor_restarts").value());
    state.counters["reclaimed_grants"] = static_cast<double>(
        rig.memctrl->stats().GetCounter("stranded_grants_reclaimed").value());
  }
  state.counters["design"] = 0;
  state.counters["crash_loop"] = crash_loop ? 1 : 0;
}

// Centralized comparator: the same supervision policy runs as kernel
// software, so every pulse, deadline, and the final quarantine+reclaim each
// pay the interrupt -> run queue -> handler trip.
void Quarantine_Centralized(benchmark::State& state) {
  const bool crash_loop = state.range(0) != 0;
  constexpr sim::Duration kSelfTest = sim::Duration::Micros(50);
  for (auto _ : state) {
    sim::Simulator simulator;
    mem::PhysicalMemory memory(64 << 20);
    baseline::CentralKernelConfig config;
    if (crash_loop) {
      config.restart_policy.max_restart_attempts = 10;
      config.restart_policy.crash_loop_threshold = 3;
    }
    baseline::CentralKernel kernel(&simulator, &memory, config);
    iommu::Iommu nic_iommu(DeviceId(1));
    iommu::Iommu ssd_iommu(DeviceId(2));
    kernel.RegisterDevice(DeviceId(1), &nic_iommu);
    kernel.RegisterDevice(DeviceId(2), &ssd_iommu);

    // A live session whose memory the NIC owns and the SSD holds a grant on,
    // so quarantine has something to reclaim.
    const uint64_t session_bytes = ssddev::SessionLayout::BytesRequired(64);
    bool session_up = false;
    kernel.AllocMemory(DeviceId(1), Pasid(1), session_bytes, [&](Result<VirtAddr> vaddr) {
      LASTCPU_CHECK(vaddr.ok(), "session alloc failed");
      kernel.Grant(DeviceId(1), Pasid(1), *vaddr, session_bytes, DeviceId(2),
                   Access::kReadWrite, [&](Status s) { session_up = s.ok(); });
    });
    simulator.Run();
    LASTCPU_CHECK(session_up, "session setup failed");

    kernel.SetResetHandler([&](DeviceId device) {
      if (!crash_loop) {
        return;  // dead silicon: the pulse goes unanswered
      }
      // Crash-looping silicon: self-test passes, then it dies again shortly.
      simulator.Schedule(kSelfTest, [&, device] {
        kernel.OnDeviceAlive(device);
        simulator.Schedule(sim::Duration::Micros(100),
                           [&, device] { kernel.ReportDeviceFailure(device); });
      });
    });
    bool quarantined = false;
    sim::SimTime quarantined_at = simulator.Now();
    kernel.SetQuarantineHandler([&](DeviceId, const std::string&) {
      quarantined = true;
      quarantined_at = simulator.Now();
    });

    sim::SimTime killed_at = simulator.Now();
    kernel.ReportDeviceFailure(DeviceId(2));
    simulator.Run();
    LASTCPU_CHECK(quarantined, "kernel never quarantined the device");

    state.SetIterationTime((quarantined_at - killed_at).seconds());
    state.counters["restart_pulses"] = static_cast<double>(
        kernel.stats().GetCounter("supervisor_restarts").value());
    state.counters["reclaimed_grants"] = static_cast<double>(
        kernel.stats().GetCounter("stranded_grants_reclaimed").value());
  }
  state.counters["design"] = 1;
  state.counters["crash_loop"] = crash_loop ? 1 : 0;
}

// --- E-failover: shard failover + partition series (rack control plane) ------

struct ChurnRecord {
  sim::SimTime issued;
  sim::SimTime completed;
  bool ok = false;
  uint32_t slab = 0;    // owning VA slab of the returned address
  size_t client = 0;    // index into the churn's client vector
};

// Closed-loop alloc(16KiB)+free churn from N clients until `end`, recording
// one entry per allocation. Works over either control plane; survives mid-run
// shard kills and partitions (failed ops are recorded and the loop goes on).
class ControlChurn {
 public:
  ControlChurn(sim::Simulator* simulator, std::vector<core::ControlClient*> clients, Pasid pasid,
               sim::SimTime end, uint32_t slabs)
      : simulator_(simulator),
        clients_(std::move(clients)),
        pasid_(pasid),
        end_(end),
        slabs_(slabs) {}

  void Start() {
    for (size_t i = 0; i < clients_.size(); ++i) {
      IssueNext(i);
    }
  }

  const std::vector<ChurnRecord>& records() const { return records_; }

 private:
  void IssueNext(size_t index) {
    if (simulator_->Now() >= end_) {
      return;
    }
    sim::SimTime issued = simulator_->Now();
    clients_[index]->Alloc(pasid_, 16 * 1024, [this, index, issued](Result<VirtAddr> r) {
      ChurnRecord record;
      record.issued = issued;
      record.completed = simulator_->Now();
      record.ok = r.ok();
      record.client = index;
      if (!r.ok()) {
        records_.push_back(record);
        IssueNext(index);
        return;
      }
      record.slab = slabs_ > 1 ? memdev::ShardForVa(*r, slabs_) : 0;
      records_.push_back(record);
      clients_[index]->Free(pasid_, *r, 16 * 1024,
                            [this, index](Result<void>) { IssueNext(index); });
    });
  }

  sim::Simulator* simulator_;
  std::vector<core::ControlClient*> clients_;
  Pasid pasid_;
  sim::SimTime end_;
  uint32_t slabs_;
  std::vector<ChurnRecord> records_;
};

double PercentileUs(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t index = std::min(values.size() - 1,
                          static_cast<size_t>(p * static_cast<double>(values.size())));
  return values[index];
}

struct FailoverMeasurement {
  double blackout_us = -1.0;       // kill -> first successful op on the dead shard's slab
  double first_success_us = -1.0;  // kill -> first successful op anywhere
  double p50_recovery_us = 0.0;    // op latency percentiles over [kill, kill+2ms]
  double p99_recovery_us = 0.0;
  uint64_t ops = 0;
  uint64_t failed_ops = 0;
};

FailoverMeasurement MeasureFailover(const std::vector<ChurnRecord>& records, sim::SimTime kill_at,
                                    uint32_t dead_slab, bool slab_aware) {
  FailoverMeasurement m;
  sim::SimTime window_end = kill_at + sim::Duration::Millis(2);
  std::vector<double> window_latencies;
  for (const ChurnRecord& record : records) {
    ++m.ops;
    if (!record.ok) {
      ++m.failed_ops;
      continue;
    }
    if (record.completed >= kill_at && m.first_success_us < 0) {
      m.first_success_us = (record.completed - kill_at).seconds() * 1e6;
    }
    if (record.completed >= kill_at && m.blackout_us < 0 &&
        (!slab_aware || record.slab == dead_slab)) {
      m.blackout_us = (record.completed - kill_at).seconds() * 1e6;
    }
    if (record.issued >= kill_at && record.issued < window_end) {
      window_latencies.push_back((record.completed - record.issued).seconds() * 1e6);
    }
  }
  m.p50_recovery_us = PercentileUs(window_latencies, 0.50);
  m.p99_recovery_us = PercentileUs(window_latencies, 0.99);
  return m;
}

constexpr sim::Duration kFailoverKillAt = sim::Duration::Micros(1500);
constexpr sim::Duration kFailoverEnd = sim::Duration::Micros(5500);

// One shard of a two-shard rack is killed under load and respawns clean. The
// blackout is the window where the dead shard's VA slab serves nothing:
// clients spill fresh allocations to the survivor meanwhile, then the lease
// re-assertion protocol rebuilds the restarted shard's tables and it serves
// again. state.range(0) = client device count.
void ShardFailover_Decentralized(benchmark::State& state) {
  const int devices = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::MachineConfig config;
    config.topology.segments = 2;
    sim::CrashSpec kill;
    kill.device = MakeSegmentDeviceId(1, 1).value();
    kill.at = kFailoverKillAt;
    kill.respawn = sim::CrashSpec::Respawn::kClean;
    config.crash_plan.crashes = {kill};

    core::Machine machine(std::move(config));
    machine.AddMemoryControllerShards(2);
    std::vector<StubDevice*> stubs;
    stubs.reserve(devices);
    for (int i = 0; i < devices; ++i) {
      stubs.push_back(&machine.EmplaceOn<StubDevice>(i % 2, "churn-" + std::to_string(i)));
    }
    machine.Boot();

    std::vector<std::unique_ptr<core::ShardedControlClient>> clients;
    std::vector<core::ControlClient*> raw;
    for (StubDevice* stub : stubs) {
      clients.push_back(std::make_unique<core::ShardedControlClient>(
          stub, machine.shard_infos(), core::AllocationPolicy::kInterleave));
      raw.push_back(clients.back().get());
    }
    Pasid pasid = machine.NewApplication("churn");
    ControlChurn churn(&machine.simulator(), std::move(raw), pasid,
                       sim::SimTime::Zero() + kFailoverEnd, 2);
    churn.Start();
    machine.simulator().Run();

    FailoverMeasurement m = MeasureFailover(churn.records(), sim::SimTime::Zero() + kFailoverKillAt,
                                            /*dead_slab=*/1, /*slab_aware=*/true);
    uint64_t retries = 0;
    uint64_t reasserted = 0;
    for (const auto& client : clients) {
      retries += client->op_retries();
      reasserted += client->leases_reasserted();
    }
    state.SetIterationTime(m.blackout_us * 1e-6);
    state.counters["blackout_us"] = m.blackout_us;
    state.counters["first_success_us"] = m.first_success_us;
    state.counters["p50_recovery_us"] = m.p50_recovery_us;
    state.counters["p99_recovery_us"] = m.p99_recovery_us;
    state.counters["ops"] = static_cast<double>(m.ops);
    state.counters["failed_ops"] = static_cast<double>(m.failed_ops);
    state.counters["op_retries"] = static_cast<double>(retries);
    state.counters["leases_reasserted"] = static_cast<double>(reasserted);
  }
  state.counters["design"] = 0;
  state.counters["devices"] = static_cast<double>(devices);
}

// Centralized comparator: the kernel panics and warm-reboots at the same
// instant. The shard design's blast radius is one VA slab; here EVERY control
// op in the machine stalls for the blackout plus the table re-walk.
void ShardFailover_Centralized(benchmark::State& state) {
  const int devices = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    mem::PhysicalMemory memory(256 << 20);
    baseline::CentralKernelConfig config;
    config.cores = 4;
    baseline::CentralKernel kernel(&simulator, &memory, config);
    std::vector<std::unique_ptr<iommu::Iommu>> iommus;
    std::vector<std::unique_ptr<core::KernelControlClient>> clients;
    std::vector<core::ControlClient*> raw;
    for (int i = 0; i < devices; ++i) {
      DeviceId id(static_cast<uint32_t>(i + 1));
      iommus.push_back(std::make_unique<iommu::Iommu>(id));
      kernel.RegisterDevice(id, iommus.back().get());
      clients.push_back(std::make_unique<core::KernelControlClient>(&kernel, id));
      raw.push_back(clients.back().get());
    }
    ControlChurn churn(&simulator, std::move(raw), Pasid(1), sim::SimTime::Zero() + kFailoverEnd,
                       1);
    // Matched blackout: the shard's reset-pulse + self-test + recovery window
    // (~350us of one-slab unavailability) becomes a machine-wide stall here.
    simulator.ScheduleAt(sim::SimTime::Zero() + kFailoverKillAt, [&kernel] {
      kernel.SimulateKernelFailover(sim::Duration::Micros(350), [](Result<void>) {});
    });
    churn.Start();
    simulator.Run();

    FailoverMeasurement m = MeasureFailover(churn.records(), sim::SimTime::Zero() + kFailoverKillAt,
                                            /*dead_slab=*/0, /*slab_aware=*/false);
    state.SetIterationTime(m.blackout_us * 1e-6);
    state.counters["blackout_us"] = m.blackout_us;
    state.counters["p50_recovery_us"] = m.p50_recovery_us;
    state.counters["p99_recovery_us"] = m.p99_recovery_us;
    state.counters["ops"] = static_cast<double>(m.ops);
    state.counters["failed_ops"] = static_cast<double>(m.failed_ops);
    state.counters["rebuild_entries"] =
        static_cast<double>(kernel.stats().GetCounter("kernel_rebuild_entries").value());
  }
  state.counters["design"] = 1;
  state.counters["devices"] = static_cast<double>(devices);
  state.counters["cores"] = 4;
}

// Inter-segment partition under load: cross-segment control ops fail fast
// with kPartitioned and spill to the local shard; segment-local traffic is
// unaffected; on heal, cross-segment placement resumes. state.range(0) =
// partition width in microseconds.
void Partition_Decentralized(benchmark::State& state) {
  const int width_us = static_cast<int>(state.range(0));
  constexpr int kDevices = 64;
  for (auto _ : state) {
    core::MachineConfig config;
    config.topology.segments = 2;
    sim::PartitionSpec spec;
    spec.segment_a = 0;
    spec.segment_b = 1;
    spec.start = kFailoverKillAt;
    spec.heal = kFailoverKillAt + sim::Duration::Micros(width_us);
    config.fault_plan.partitions = {spec};

    core::Machine machine(std::move(config));
    machine.AddMemoryControllerShards(2);
    std::vector<StubDevice*> stubs;
    for (int i = 0; i < kDevices; ++i) {
      stubs.push_back(&machine.EmplaceOn<StubDevice>(i % 2, "churn-" + std::to_string(i)));
    }
    machine.Boot();

    std::vector<std::unique_ptr<core::ShardedControlClient>> clients;
    std::vector<core::ControlClient*> raw;
    for (StubDevice* stub : stubs) {
      clients.push_back(std::make_unique<core::ShardedControlClient>(
          stub, machine.shard_infos(), core::AllocationPolicy::kInterleave));
      raw.push_back(clients.back().get());
    }
    Pasid pasid = machine.NewApplication("churn");
    sim::SimTime heal = sim::SimTime::Zero() + spec.heal;
    ControlChurn churn(&machine.simulator(), std::move(raw), pasid,
                       heal + sim::Duration::Millis(2), 2);
    churn.Start();
    machine.simulator().Run();

    // Partition-window behaviour: local ops proceed, and the first
    // cross-segment placement after the heal marks reconciliation.
    sim::SimTime start = sim::SimTime::Zero() + spec.start;
    uint64_t ops_in_partition = 0;
    uint64_t failed = 0;
    double heal_resume_us = -1.0;
    std::vector<double> window_latencies;
    for (const ChurnRecord& record : churn.records()) {
      if (!record.ok) {
        ++failed;
        continue;
      }
      bool cross = (record.slab == 1) != (record.client % 2 == 1);
      if (record.completed >= start && record.completed < heal) {
        ++ops_in_partition;
        window_latencies.push_back((record.completed - record.issued).seconds() * 1e6);
      }
      if (cross && record.completed >= heal && heal_resume_us < 0) {
        heal_resume_us = (record.completed - heal).seconds() * 1e6;
      }
    }
    uint64_t spills = 0;
    for (const auto& client : clients) {
      spills += client->spills();
    }
    state.SetIterationTime(heal_resume_us * 1e-6);
    state.counters["heal_resume_us"] = heal_resume_us;
    state.counters["ops_in_partition"] = static_cast<double>(ops_in_partition);
    state.counters["p99_partition_us"] = PercentileUs(window_latencies, 0.99);
    state.counters["failed_ops"] = static_cast<double>(failed);
    state.counters["spills"] = static_cast<double>(spills);
    state.counters["fail_fast"] = static_cast<double>(
        machine.bus().stats().GetCounter("partition_fail_fast").value());
  }
  state.counters["design"] = 0;
  state.counters["devices"] = kDevices;
  state.counters["partition_us"] = static_cast<double>(width_us);
}

BENCHMARK(FaultRecovery_Decentralized)
    ->UseManualTime()
    ->Iterations(5)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(0)
    ->Arg(1);
BENCHMARK(FaultRecovery_Centralized)
    ->UseManualTime()
    ->Iterations(5)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(0)
    ->Arg(1);
BENCHMARK(Quarantine_Decentralized)
    ->UseManualTime()
    ->Iterations(5)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(0)
    ->Arg(1);
BENCHMARK(Quarantine_Centralized)
    ->UseManualTime()
    ->Iterations(5)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(0)
    ->Arg(1);
BENCHMARK(ShardFailover_Decentralized)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(64)
    ->Arg(256);
BENCHMARK(ShardFailover_Centralized)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(64)
    ->Arg(256);
BENCHMARK(Partition_Decentralized)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(500)
    ->Arg(2000);

}  // namespace

// CI smoke: run the shard-failover schedule once at a modest device count and
// assert the blackout stays under a fixed *simulated-time* bound. Catches any
// change that silently widens the failover window (lost re-assertions, a
// stuck recovery gate, clients surfacing kUnavailable instead of retrying).
int RunFailoverSmoke(double blackout_floor_us) {
  core::MachineConfig config;
  config.topology.segments = 2;
  sim::CrashSpec kill;
  kill.device = MakeSegmentDeviceId(1, 1).value();
  kill.at = kFailoverKillAt;
  kill.respawn = sim::CrashSpec::Respawn::kClean;
  config.crash_plan.crashes = {kill};

  core::Machine machine(std::move(config));
  auto shards = machine.AddMemoryControllerShards(2);
  std::vector<StubDevice*> stubs;
  for (int i = 0; i < 32; ++i) {
    stubs.push_back(&machine.EmplaceOn<StubDevice>(i % 2, "churn-" + std::to_string(i)));
  }
  machine.Boot();

  std::vector<std::unique_ptr<core::ShardedControlClient>> clients;
  std::vector<core::ControlClient*> raw;
  for (StubDevice* stub : stubs) {
    clients.push_back(std::make_unique<core::ShardedControlClient>(
        stub, machine.shard_infos(), core::AllocationPolicy::kInterleave));
    raw.push_back(clients.back().get());
  }
  Pasid pasid = machine.NewApplication("churn");
  ControlChurn churn(&machine.simulator(), std::move(raw), pasid,
                     sim::SimTime::Zero() + kFailoverEnd, 2);
  churn.Start();
  machine.simulator().Run();

  FailoverMeasurement m = MeasureFailover(churn.records(), sim::SimTime::Zero() + kFailoverKillAt,
                                          /*dead_slab=*/1, /*slab_aware=*/true);
  std::printf("failover smoke: blackout_us=%.1f first_success_us=%.1f p99_recovery_us=%.1f "
              "ops=%llu failed=%llu\n",
              m.blackout_us, m.first_success_us, m.p99_recovery_us,
              static_cast<unsigned long long>(m.ops),
              static_cast<unsigned long long>(m.failed_ops));
  if (m.blackout_us < 0) {
    std::printf("FAIL: the dead shard's slab never served again\n");
    return 1;
  }
  if (m.blackout_us > blackout_floor_us) {
    std::printf("FAIL: blackout %.1fus exceeds the %.1fus bound\n", m.blackout_us,
                blackout_floor_us);
    return 1;
  }
  if (m.failed_ops > static_cast<uint64_t>(stubs.size())) {
    std::printf("FAIL: %llu ops failed (more than one per device)\n",
                static_cast<unsigned long long>(m.failed_ops));
    return 1;
  }
  std::printf("failover smoke: OK (bound %.1fus)\n", blackout_floor_us);
  return 0;
}

}  // namespace lastcpu

// Custom main so CI can run `--failover-smoke [--blackout-bound-us=N]` (not
// google-benchmark syntax), mirroring bench_kvs's --gc-smoke.
int main(int argc, char** argv) {
  bool failover_smoke = false;
  double blackout_bound_us = 1500.0;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--failover-smoke") == 0) {
      failover_smoke = true;
    } else if (std::strncmp(argv[i], "--blackout-bound-us=", 20) == 0) {
      blackout_bound_us = std::stod(std::string(argv[i] + 20));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (failover_smoke) {
    return lastcpu::RunFailoverSmoke(blackout_bound_us);
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

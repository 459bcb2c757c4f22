// Chaos soak: seeded whole-device crash schedules (sim::CrashPlan) run
// against the full KVS machine. Each schedule kills the SSD, the NIC, or the
// memory controller at a scripted trigger — absolute time, Kth bus send, or
// mid-self-test — and scripts what the silicon does afterwards (come back
// clean, crash-loop, or never return). The soak asserts the supervised
// lifecycle end to end:
//
//   * every Put completes exactly once (no permanently-spinning retry loop),
//   * acked Puts survive crashes and match a std::map shadow store,
//   * a device that never comes back ends quarantined, with exactly one
//     DevicePermanentlyFailed notice seen by its peers and zero allocations
//     or grants left in the memory controller under its name,
//   * the same schedule replayed yields a byte-identical metrics snapshot
//     and event count (the simulation is seed-deterministic).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/control_plane.h"
#include "src/core/crash_injector.h"
#include "src/core/machine.h"
#include "src/kvs/kvs_app.h"
#include "tests/fingerprint.h"
#include "tests/test_util.h"

namespace lastcpu {
namespace {

using Respawn = sim::CrashSpec::Respawn;

// Devices are added in a fixed order, so ids are deterministic.
constexpr uint32_t kMemctrlId = 1;
constexpr uint32_t kSsdId = 2;
constexpr uint32_t kNicId = 3;
// The extra device of the magazine-holder schedule (added only there).
constexpr uint32_t kStubId = 4;

// A bare self-managing device that exists to hold a grant magazine.
class MagazineStub : public dev::Device {
 public:
  MagazineStub(DeviceId id, const dev::DeviceContext& context)
      : dev::Device(id, "magstub", context) {}
};

struct Schedule {
  const char* name = nullptr;
  sim::CrashPlan plan;
  bus::RestartPolicy policy;  // defaults unless a schedule overrides
  bool expect_ssd_quarantine = false;
  // Adds a 4th device that stocks a full grant magazine before the crash
  // schedule kills it for good: its leased regions are ordinary owned
  // allocations, so quarantine reclaim must leave nothing stranded.
  bool magazine_holder = false;
  // Power-cut schedule knobs: a tiny NAND geometry makes GC active during
  // the workload, and the extra overwrite Puts hammer a handful of hot keys
  // so victim blocks hold a valid/invalid mix when the rail drops.
  bool small_ssd = false;
  int overwrite_puts = 0;
  // The drive is expected to come back via journal replay (Ftl::Recover),
  // and — for the mid-GC schedule — with garbage collection having run.
  bool expect_recovery = false;
  bool expect_gc = false;
};

sim::CrashSpec TimeKill(uint32_t device, uint64_t at_us, Respawn respawn = Respawn::kClean,
                        uint32_t loops = 0) {
  sim::CrashSpec spec;
  spec.device = device;
  spec.at = sim::Duration::Micros(at_us);
  spec.respawn = respawn;
  spec.loop_count = loops;
  return spec;
}

sim::CrashSpec KthSendKill(uint32_t device, uint64_t kth, Respawn respawn = Respawn::kClean) {
  sim::CrashSpec spec;
  spec.device = device;
  spec.on_kth_send = kth;
  spec.respawn = respawn;
  return spec;
}

sim::CrashSpec SelfTestKill(uint32_t device, Respawn respawn = Respawn::kClean) {
  sim::CrashSpec spec;
  spec.device = device;
  spec.during_self_test = true;
  spec.respawn = respawn;
  return spec;
}

sim::CrashSpec PowerCutAt(uint32_t device, uint64_t at_us, Respawn respawn = Respawn::kClean) {
  sim::CrashSpec spec = TimeKill(device, at_us, respawn);
  spec.power_cut = true;
  return spec;
}

sim::CrashSpec PowerCutOnProgram(uint32_t device, uint64_t kth) {
  sim::CrashSpec spec;
  spec.device = device;
  spec.on_kth_program = kth;
  spec.power_cut = true;
  return spec;
}

std::vector<Schedule> Schedules() {
  std::vector<Schedule> all;
  {
    Schedule s;
    s.name = "ssd-transient";
    s.plan.crashes = {TimeKill(kSsdId, 300)};
    all.push_back(s);
  }
  {
    // Two sabotaged self-tests after the kill: the supervisor's restart
    // deadline carries the episode until the third pulse succeeds.
    Schedule s;
    s.name = "ssd-crash-loop-then-recover";
    s.plan.crashes = {TimeKill(kSsdId, 300, Respawn::kCrashLoop, 2)};
    all.push_back(s);
  }
  {
    Schedule s;
    s.name = "ssd-never-returns";
    s.plan.crashes = {TimeKill(kSsdId, 300, Respawn::kNever)};
    s.expect_ssd_quarantine = true;
    all.push_back(s);
  }
  {
    // Dead silicon halfway through the very first boot self-test.
    Schedule s;
    s.name = "ssd-dies-in-boot-self-test";
    s.plan.crashes = {SelfTestKill(kSsdId)};
    all.push_back(s);
  }
  {
    // The SSD makes only a handful of bus sends (announce, discovery and
    // session-setup replies) — the data path rides the fabric. Its third
    // send is the file-list reply, so this kill lands mid session setup.
    Schedule s;
    s.name = "ssd-dies-mid-session-setup";
    s.plan.crashes = {KthSendKill(kSsdId, 3)};
    all.push_back(s);
  }
  {
    // Fifth send is the open reply: dead before the session finishes, and
    // the silicon never comes back. The app has not bound a provider yet, so
    // it burns its bounded retry budget rather than learning of quarantine.
    Schedule s;
    s.name = "ssd-dies-early-never-returns";
    s.plan.crashes = {KthSendKill(kSsdId, 5, Respawn::kNever)};
    s.expect_ssd_quarantine = true;
    all.push_back(s);
  }
  {
    // The second kill lands inside the KVS bring-up retry window, i.e. a
    // crash during crash recovery.
    Schedule s;
    s.name = "ssd-dies-again-during-kvs-recovery";
    s.plan.crashes = {TimeKill(kSsdId, 300), TimeKill(kSsdId, 850)};
    all.push_back(s);
  }
  {
    Schedule s;
    s.name = "nic-transient";
    s.plan.crashes = {TimeKill(kNicId, 400)};
    all.push_back(s);
  }
  {
    Schedule s;
    s.name = "memctrl-transient";
    s.plan.crashes = {TimeKill(kMemctrlId, 500)};
    all.push_back(s);
  }
  {
    // Each episode recovers, but the third failure inside the sliding window
    // trips the crash-loop detector rather than the attempt budget.
    Schedule s;
    s.name = "ssd-crash-loops-into-quarantine";
    s.plan.crashes = {TimeKill(kSsdId, 300), TimeKill(kSsdId, 600), TimeKill(kSsdId, 900),
                      TimeKill(kSsdId, 1200)};
    s.policy.max_restart_attempts = 10;
    s.policy.crash_loop_threshold = 3;
    s.expect_ssd_quarantine = true;
    all.push_back(s);
  }
  {
    // The power rail drops mid-traffic: all volatile FTL/FlashFs/session
    // state is gone, in-flight NAND programs tear, and the drive must come
    // back by replaying its on-media mapping journal. Every acked Put must
    // survive the replay; un-acked ones must complete (failed), not hang.
    Schedule s;
    s.name = "ssd-power-cut-transient";
    s.plan.crashes = {PowerCutAt(kSsdId, 300)};
    s.expect_recovery = true;
    all.push_back(s);
  }
  {
    // Power cut 1ns after the Kth NAND program on a tiny drive under
    // sustained hot-key overwrite: garbage collection is active by then, so
    // the cut lands among GC relocations and meta flushes mid-page — the
    // window where a mapping legitimately exists in two places at once.
    Schedule s;
    s.name = "ssd-power-cut-mid-gc";
    s.plan.crashes = {PowerCutOnProgram(kSsdId, 100)};
    s.small_ssd = true;
    s.overwrite_puts = 160;
    s.expect_recovery = true;
    s.expect_gc = true;
    all.push_back(s);
  }
  {
    // Two rail drops, the second landing inside the KVS bring-up retry
    // window: a power cut during power-cut recovery.
    Schedule s;
    s.name = "ssd-power-cut-double";
    s.plan.crashes = {PowerCutAt(kSsdId, 300), PowerCutAt(kSsdId, 850)};
    s.expect_recovery = true;
    all.push_back(s);
  }
  {
    // A device dies for good while holding a fully stocked grant magazine.
    // The magazine's regions are leases (owned allocations in the memory
    // controller's table), so the quarantine reclaim path must free every
    // one of them — zero stranded grants, zero stranded allocations.
    Schedule s;
    s.name = "magazine-holder-never-returns";
    s.plan.crashes = {TimeKill(kStubId, 600, Respawn::kNever)};
    s.magazine_holder = true;
    all.push_back(s);
  }
  return all;
}

struct RunOutcome {
  uint64_t events = 0;
  std::string metrics;
  std::map<std::string, std::vector<uint8_t>> acked;
  uint64_t ssd_permanent_notices_at_nic = 0;
  uint32_t outstanding_puts = 0;
  bool ssd_quarantined = false;
  bool engine_running = false;
  bool provider_gone = false;
  uint64_t stranded_allocs = 0;
  uint64_t stranded_grants = 0;
  uint64_t recovery_abandoned = 0;
  bool stub_quarantined = false;
  uint64_t stub_stranded_allocs = 0;
  uint64_t stub_stranded_grants = 0;
  uint64_t ftl_recoveries = 0;
  uint64_t gc_runs = 0;
};

// When true, every schedule runs with the data-plane batching window on
// (doorbell coalescing, staged file requests and completions): it must not
// change any lifecycle outcome (only timings).
RunOutcome RunSchedule(const Schedule& sched, bool batched) {
  core::MachineConfig config;
  config.bus.restart_policy = sched.policy;
  config.crash_plan = sched.plan;
  if (batched) {
    config.fabric.batch_window = sim::Duration::Micros(2);
  }
  core::Machine machine(config);
  auto& memctrl = machine.AddMemoryController();
  ssddev::SmartSsdConfig ssd_config;
  ssd_config.host_auth_service = false;
  if (sched.small_ssd) {
    ssd_config.nand.dies = 2;
    ssd_config.nand.blocks_per_die = 8;
    ssd_config.nand.pages_per_block = 8;
  }
  auto& ssd = machine.AddSmartSsd(ssd_config);
  auto& nic = machine.AddSmartNic();
  EXPECT_EQ(memctrl.id().value(), kMemctrlId);
  EXPECT_EQ(ssd.id().value(), kSsdId);
  EXPECT_EQ(nic.id().value(), kNicId);
  MagazineStub* stub = nullptr;
  if (sched.magazine_holder) {
    stub = &machine.Emplace<MagazineStub>();
    EXPECT_EQ(stub->id().value(), kStubId);
  }
  ssd.ProvisionFile("kv.log", {});
  Pasid pasid = machine.NewApplication("kvs");
  auto app_owner = std::make_unique<kvs::KvsApp>(&nic, pasid);
  kvs::KvsApp* app = app_owner.get();
  nic.LoadApp(std::move(app_owner));

  RunOutcome out;
  nic.AddPeerPermanentlyFailedHook([&out](DeviceId dead) {
    if (dead.value() == kSsdId) {
      ++out.ssd_permanent_notices_at_nic;
    }
  });

  machine.Boot();

  // Stock the stub's magazine before the schedule kills it: one Alloc misses
  // and pulls a full refill batch; freeing the region recycles it locally, so
  // the magazine ends holding a full batch of 32 leased regions.
  std::unique_ptr<core::BusControlClient> stub_inner;
  std::unique_ptr<core::MagazineClient> stub_magazine;
  if (stub != nullptr) {
    Pasid stub_pasid = machine.NewApplication("magstub");
    stub_inner = std::make_unique<core::BusControlClient>(stub, memctrl.id());
    stub_magazine = std::make_unique<core::MagazineClient>(stub_inner.get(), stub, memctrl.id());
    Result<VirtAddr> lease = stub_magazine->AllocSync(stub_pasid, 4 * kPageSize);
    EXPECT_TRUE(lease.ok()) << lease.status().ToString();
    if (lease.ok()) {
      EXPECT_TRUE(stub_magazine->FreeSync(stub_pasid, *lease, 4 * kPageSize).ok());
    }
    EXPECT_GT(stub_magazine->cached_regions(), 0u);
    EXPECT_GT(memctrl.AllocationsOwnedBy(stub->id()), 0u);
  }

  // Deterministic workload: one Put every 50us, spanning every crash in the
  // schedules above (quarantine completes by ~2.5ms; puts run to 4ms, so
  // post-quarantine fast-fail is exercised too).
  uint32_t outstanding = 0;
  for (int i = 0; i < 80; ++i) {
    machine.RunFor(sim::Duration::Micros(50));
    std::string key = "k" + std::to_string(i);
    std::vector<uint8_t> value(32);
    for (size_t b = 0; b < value.size(); ++b) {
      value[b] = static_cast<uint8_t>((i * 7 + b) & 0xff);
    }
    ++outstanding;
    app->engine().Put(key, value, [&out, &outstanding, key, value](Status s) {
      --outstanding;
      if (s.ok()) {
        out.acked[key] = value;
      }
    });
  }
  // Power-cut schedules append a sustained hot-key overwrite phase: eight
  // keys rewritten in rotation, so the small drive fills and its GC runs
  // before the crash plan cuts the rail out from under it. The puts come
  // 450us apart, a little more than one NAND program: closer ones would
  // share the log's tail-page programs, and the drive would fill too slowly
  // for GC to run before the run ends.
  for (int i = 0; i < sched.overwrite_puts; ++i) {
    machine.RunFor(sim::Duration::Micros(450));
    std::string key = "hot" + std::to_string(i % 8);
    std::vector<uint8_t> value(48);
    for (size_t b = 0; b < value.size(); ++b) {
      value[b] = static_cast<uint8_t>((i * 13 + b) & 0xff);
    }
    ++outstanding;
    app->engine().Put(key, value, [&out, &outstanding, key, value](Status s) {
      --outstanding;
      if (s.ok()) {
        out.acked[key] = value;
      }
    });
  }
  machine.RunUntilIdle();
  // Let heartbeats, watchdog sweeps, and any in-flight supervision episode
  // play out, then drain what they scheduled.
  machine.RunFor(sim::Duration::Millis(20));
  machine.RunUntilIdle();

  out.outstanding_puts = outstanding;
  out.engine_running = app->engine().running();
  out.provider_gone = app->provider_permanently_failed();
  out.ssd_quarantined = machine.bus().supervisor().IsQuarantined(ssd.id());
  out.stranded_allocs = memctrl.AllocationsOwnedBy(ssd.id());
  out.stranded_grants = memctrl.GrantsHeldBy(ssd.id());
  out.recovery_abandoned = nic.stats().GetCounter("kvs_recovery_abandoned").value();
  if (stub != nullptr) {
    out.stub_quarantined = machine.bus().supervisor().IsQuarantined(stub->id());
    out.stub_stranded_allocs = memctrl.AllocationsOwnedBy(stub->id());
    out.stub_stranded_grants = memctrl.GrantsHeldBy(stub->id());
  }
  out.ftl_recoveries = ssd.ftl().recoveries();
  out.gc_runs = ssd.ftl().gc_runs();
  out.events = machine.simulator().events_executed();
  std::ostringstream metrics;
  machine.MetricsJson(metrics);
  out.metrics = metrics.str();

  // Acked means durable: whatever survived the schedule must read back.
  if (out.engine_running) {
    for (const auto& [key, expected] : out.acked) {
      std::optional<Result<std::vector<uint8_t>>> got;
      app->engine().Get(key, [&got](Result<std::vector<uint8_t>> r) { got = std::move(r); });
      machine.RunUntilIdle();
      EXPECT_TRUE(got.has_value()) << key;
      if (got.has_value()) {
        EXPECT_TRUE(got->ok()) << key << ": " << got->status().ToString();
        if (got->ok()) {
          EXPECT_EQ(**got, expected) << key;
        }
      }
    }
  }
  return out;
}

// Param encodes (schedule, batched): the full suite runs once with every
// fast path off and once with batching enabled — the supervised-lifecycle
// guarantees must hold identically in both machines.
class ChaosSoak : public ::testing::TestWithParam<size_t> {};

TEST_P(ChaosSoak, SurvivesCrashScheduleDeterministically) {
  const std::vector<Schedule> schedules = Schedules();
  const Schedule sched = schedules[GetParam() % schedules.size()];
  const bool batched = GetParam() >= schedules.size();
  SCOPED_TRACE(std::string(sched.name) + (batched ? " [batched]" : ""));

  RunOutcome first = RunSchedule(sched, batched);
  RunOutcome second = RunSchedule(sched, batched);

  // No Put may hang: a callback that never fires is a spinning retry loop or
  // a dropped completion.
  EXPECT_EQ(first.outstanding_puts, 0u);
  EXPECT_EQ(second.outstanding_puts, 0u);

  // Same plan, same machine -> byte-identical evolution.
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.acked, second.acked);
  // ...and the same evolution as the committed fingerprint.
  testutil::ExpectFingerprint(std::string("ChaosSoak/") + sched.name + (batched ? "/batched" : ""),
                              testutil::RunFingerprint(first.events, first.metrics));

  EXPECT_EQ(first.ssd_quarantined, sched.expect_ssd_quarantine);
  if (sched.expect_ssd_quarantine) {
    // Exactly one terminal broadcast, nothing left behind in the memory
    // controller, and the app knows retrying is pointless.
    EXPECT_EQ(first.ssd_permanent_notices_at_nic, 1u);
    EXPECT_EQ(first.stranded_allocs, 0u);
    EXPECT_EQ(first.stranded_grants, 0u);
    // The app either learned its provider is gone (post-bring-up kill) or
    // exhausted its bounded retry budget (pre-bring-up kill) — never a live
    // retry loop against quarantined silicon.
    EXPECT_TRUE(first.provider_gone || first.recovery_abandoned > 0);
    EXPECT_FALSE(first.engine_running);
  } else {
    EXPECT_EQ(first.ssd_permanent_notices_at_nic, 0u);
    // The app must not end the schedule wedged: it either runs, or it gave
    // up after the bounded retry budget.
    EXPECT_TRUE(first.engine_running || first.recovery_abandoned > 0) << sched.name;
  }

  if (sched.magazine_holder) {
    // The magazine holder never returns: quarantined, and every leased
    // region it stockpiled reclaimed — nothing stranded in the controller.
    EXPECT_TRUE(first.stub_quarantined);
    EXPECT_EQ(first.stub_stranded_allocs, 0u);
    EXPECT_EQ(first.stub_stranded_grants, 0u);
    EXPECT_EQ(second.stub_stranded_allocs, 0u);
  }

  if (sched.expect_recovery) {
    // The drive came back by replaying its on-media journal (not a clean
    // boot): the recovery counter proves the power-loss path actually ran.
    EXPECT_GE(first.ftl_recoveries, 1u) << sched.name;
    EXPECT_EQ(first.ftl_recoveries, second.ftl_recoveries);
  }
  if (sched.expect_gc) {
    EXPECT_GT(first.gc_runs, 0u) << sched.name;
  }
}

// 14 schedules x {unbatched, batched}.
INSTANTIATE_TEST_SUITE_P(Schedules, ChaosSoak, ::testing::Range<size_t>(0, 28));

}  // namespace
}  // namespace lastcpu

// Control-plane robustness tests: shard registration epochs fencing stale
// MapDirectives, directory repointing after a shard quarantine, lease
// re-assertion across a shard restart (including the re-registration /
// fresh-allocation race), partition fail-fast semantics with parked one-ways
// released on heal, and three seeded chaos schedules (shard restart
// mid-burst, partition-then-heal, partition with in-flight cross-segment
// traffic) asserting byte-identical reruns, zero stranded grants, zero
// double-owned slabs, and durability of every acked allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/bus/system_bus.h"
#include "src/core/control_plane.h"
#include "src/core/machine.h"
#include "src/iommu/iommu.h"
#include "src/memdev/shard_layout.h"
#include "src/proto/message.h"
#include "src/sim/fault.h"
#include "src/sim/simulator.h"
#include "tests/fingerprint.h"

namespace lastcpu {
namespace {

using Respawn = sim::CrashSpec::Respawn;

// A bare self-managing device for issuing control traffic from a segment.
class Stub : public dev::Device {
 public:
  Stub(DeviceId id, const dev::DeviceContext& context, std::string name = "stub")
      : dev::Device(id, std::move(name), context) {}
};

struct Probe {
  std::vector<proto::Message> received;
  std::vector<sim::SimTime> at;
  bus::BusPort* port = nullptr;

  bus::SystemBus::Receiver Receiver(sim::Simulator* simulator) {
    return [this, simulator](proto::Message m) {
      received.push_back(std::move(m));
      at.push_back(simulator->Now());
    };
  }
};

// --- lease epoch fencing ------------------------------------------------------

TEST(EpochFencing, StaleDirectiveFencedAfterReannounce) {
  sim::Simulator simulator;
  bus::SystemBus bus(&simulator, {});
  iommu::Iommu shard_iommu{DeviceId(2)}, target_iommu{DeviceId(3)};
  Probe shard, target;
  shard.port = bus.Attach(DeviceId(2), "shard", shard.Receiver(&simulator), &shard_iommu);
  target.port = bus.Attach(DeviceId(3), "target", target.Receiver(&simulator), &target_iommu);
  for (Probe* probe : {&shard, &target}) {
    probe->port->Send(
        proto::Message{DeviceId(), kBusDevice, RequestId(), proto::AliveAnnounce{}});
  }
  simulator.Run();

  // The shard registers at epoch 2: a restarted controller's re-announce.
  proto::ShardRecord record;
  record.device = DeviceId(2);
  record.va_base = 0;
  record.va_limit = uint64_t{1} << 40;
  record.capacity_bytes = 1 << 20;
  record.epoch = 2;
  shard.port->Send(
      proto::Message{DeviceId(), kBusDevice, RequestId(), proto::MemShardAnnounce{record}});
  simulator.Run();

  // A directive computed before the restart (epoch 1) is a straggler from the
  // superseded incarnation: the bus must fence it, not program translations.
  proto::MapDirective stale;
  stale.target = DeviceId(3);
  stale.pasid = Pasid(7);
  stale.entries = {proto::MapEntry{16, 4, Access::kReadWrite}};
  stale.epoch = 1;
  shard.port->Send(proto::Message{DeviceId(), kBusDevice, RequestId(11), stale});
  simulator.Run();

  ASSERT_EQ(shard.received.size(), 1u);
  ASSERT_EQ(shard.received.back().type(), proto::MessageType::kErrorResponse);
  EXPECT_EQ(shard.received.back().As<proto::ErrorResponse>().code,
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(bus.stats().GetCounter("stale_directives_fenced").value(), 1u);

  // The current incarnation's directive (epoch 2) programs normally.
  proto::MapDirective fresh = stale;
  fresh.epoch = 2;
  shard.port->Send(proto::Message{DeviceId(), kBusDevice, RequestId(12), fresh});
  simulator.Run();
  ASSERT_EQ(shard.received.size(), 2u);
  EXPECT_EQ(shard.received.back().type(), proto::MessageType::kMapConfirm);
  EXPECT_EQ(bus.stats().GetCounter("stale_directives_fenced").value(), 1u);
}

// --- shard failover -----------------------------------------------------------

TEST(Failover, ClientRidesOutShardRestartAndReassertsLeases) {
  // One shard, killed mid-run and respawned clean: its tables are wiped and
  // its epoch bumps. The client must ride out the blackout (retrying instead
  // of surfacing kUnavailable) and rebuild the shard's state from its lease
  // ledger — including the race where a fresh allocation arrives while
  // re-registration is still in flight.
  core::MachineConfig config;
  sim::CrashSpec kill;
  kill.device = MakeSegmentDeviceId(0, 1).value();
  kill.at = sim::Duration::Micros(500);
  kill.respawn = Respawn::kClean;
  config.crash_plan.crashes = {kill};

  core::Machine machine(std::move(config));
  auto shards = machine.AddMemoryControllerShards(1);
  auto& stub = machine.Emplace<Stub>();
  ASSERT_EQ(shards[0]->id(), MakeSegmentDeviceId(0, 1));
  machine.Boot();

  core::ShardedControlClient client(&stub, machine.shard_infos());
  Pasid pasid = machine.NewApplication("app");
  auto before = client.AllocSync(pasid, 4 * kPageSize);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(client.lease_count(), 1u);
  EXPECT_EQ(shards[0]->epoch(), 1u);

  machine.RunFor(sim::Duration::Micros(520));
  // The kill has landed: the shard is dead or rebuilding. This allocation
  // races the lease re-registration and must still complete — the client
  // retries through kUnavailable (dead endpoint, then the recovery window).
  auto during = client.AllocSync(pasid, 4 * kPageSize);
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_GE(client.op_retries(), 1u);

  machine.RunFor(sim::Duration::Millis(10));
  machine.RunUntilIdle();

  // The restarted incarnation: epoch bumped, recovery window exercised.
  EXPECT_EQ(shards[0]->epoch(), 2u);
  EXPECT_GE(shards[0]->stats().GetCounter("shard_state_resets").value(), 1u);
  EXPECT_GE(shards[0]->stats().GetCounter("recovery_rejections").value(), 1u);
  EXPECT_GE(shards[0]->stats().GetCounter("lease_reasserts_accepted").value(), 1u);
  EXPECT_GE(client.reasserts_sent(), 1u);
  EXPECT_GE(client.leases_reasserted(), 1u);
  EXPECT_EQ(client.leases_lost(), 0u);

  // The pre-kill lease survived the table wipe, the racing allocation is
  // durable too, and they landed on distinct addresses (no double-placement).
  EXPECT_TRUE(shards[0]->HasAllocationAt(pasid, *before));
  EXPECT_TRUE(shards[0]->HasAllocationAt(pasid, *during));
  EXPECT_NE(before->raw, during->raw);
  EXPECT_EQ(client.lease_count(), 2u);
}

TEST(Failover, TakeoverRepointsDirectoryAndAdoptsLeases) {
  // Kill the seg-1 shard for good: after quarantine the bus repoints its VA
  // slab to the surviving shard, the client re-fetches the directory, and the
  // survivor adopts the dead shard's leases (foreign frames, overlap-checked).
  core::MachineConfig config;
  config.topology.segments = 2;
  sim::CrashSpec kill;
  kill.device = MakeSegmentDeviceId(1, 1).value();
  kill.at = sim::Duration::Micros(500);
  kill.respawn = Respawn::kNever;
  config.crash_plan.crashes = {kill};

  core::Machine machine(std::move(config));
  auto shards = machine.AddMemoryControllerShards(2);
  auto& seg0 = machine.EmplaceOn<Stub>(0, "seg0-stub");
  auto& seg1 = machine.EmplaceOn<Stub>(1, "seg1-stub");
  machine.Boot();

  core::ShardedControlClient client(&seg1, machine.shard_infos(),
                                    core::AllocationPolicy::kHomeNode);
  Pasid pasid = machine.NewApplication("app");
  // Home-node placement: the lease lives on the doomed seg-1 shard, with a
  // cross-segment grant that must survive the takeover.
  auto va = client.AllocSync(pasid, 4 * kPageSize);
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(memdev::ShardForVa(*va, 2), 1u);
  ASSERT_TRUE(client.GrantSync(pasid, *va, 4 * kPageSize, seg0.id(), Access::kRead).ok());

  machine.RunFor(sim::Duration::Millis(20));
  machine.RunUntilIdle();

  ASSERT_TRUE(machine.bus().supervisor().IsQuarantined(shards[1]->id()));
  // Directory repoint: both slabs now name the survivor, at its epoch.
  const auto& directory = machine.bus().shard_directory();
  ASSERT_EQ(directory.size(), 2u);
  for (const auto& shard_record : directory) {
    EXPECT_EQ(shard_record.device, shards[0]->id());
    EXPECT_EQ(shard_record.epoch, shards[0]->epoch());
  }
  EXPECT_EQ(machine.bus().stats().GetCounter("shard_takeovers").value(), 1u);

  // The client re-resolved and re-asserted; the survivor adopted the foreign
  // frame range and the grant rode along in the lease record.
  EXPECT_GE(client.directory_refreshes(), 1u);
  EXPECT_GE(client.leases_reasserted(), 1u);
  EXPECT_EQ(client.leases_lost(), 0u);
  EXPECT_TRUE(shards[0]->HasAllocationAt(pasid, *va));
  EXPECT_EQ(shards[0]->foreign_frame_ranges(), 1u);
  EXPECT_EQ(shards[0]->GrantsHeldBy(seg0.id()), 1u);

  // New allocations flow to the survivor without surfacing kUnavailable...
  auto post = client.AllocSync(pasid, 4 * kPageSize);
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  // ...and freeing the adopted lease routes by address to its new owner.
  ASSERT_TRUE(client.FreeSync(pasid, *va, 4 * kPageSize).ok());
  EXPECT_EQ(shards[0]->stats().GetCounter("foreign_frames_released").value(), 1u);
  EXPECT_EQ(shards[0]->foreign_frame_ranges(), 0u);
}

// --- partition tolerance ------------------------------------------------------

TEST(PartitionTolerance, RequestsFailFastOneWaysParkUntilHeal) {
  sim::Simulator simulator;
  bus::BusConfig config;
  config.segments = 2;
  bus::SystemBus bus(&simulator, config);
  sim::FaultPlan plan;
  sim::PartitionSpec spec;
  spec.segment_a = 0;
  spec.segment_b = 1;
  spec.start = sim::Duration::Micros(100);
  spec.heal = sim::Duration::Micros(400);
  plan.partitions = {spec};
  sim::FaultInjector injector(plan);
  bus.SetFaultInjector(&injector);

  iommu::Iommu iommu_a{DeviceId(2)}, iommu_c{MakeSegmentDeviceId(1, 1)};
  Probe a, c;
  a.port = bus.Attach(DeviceId(2), "a", a.Receiver(&simulator), &iommu_a);
  c.port = bus.Attach(MakeSegmentDeviceId(1, 1), "c", c.Receiver(&simulator), &iommu_c);
  for (Probe* probe : {&a, &c}) {
    probe->port->Send(
        proto::Message{DeviceId(), kBusDevice, RequestId(), proto::AliveAnnounce{}});
  }
  simulator.Run();
  ASSERT_LT(simulator.Now(), sim::SimTime::FromNanos(100'000));

  // Inside the window: a request bounces immediately with kPartitioned...
  simulator.ScheduleAt(sim::SimTime::FromNanos(150'000), [&] {
    a.port->Send(proto::Message{DeviceId(), MakeSegmentDeviceId(1, 1), RequestId(21),
                                proto::Notify{InstanceId(1), 0}});
  });
  // ...while a one-way parks on the router and crosses after the heal.
  simulator.ScheduleAt(sim::SimTime::FromNanos(160'000), [&] {
    a.port->Send(proto::Message{DeviceId(), MakeSegmentDeviceId(1, 1), RequestId(),
                                proto::Notify{InstanceId(2), 0}});
  });
  simulator.Run();

  ASSERT_EQ(a.received.size(), 1u);
  ASSERT_EQ(a.received.back().type(), proto::MessageType::kErrorResponse);
  EXPECT_EQ(a.received.back().As<proto::ErrorResponse>().code, StatusCode::kPartitioned);
  ASSERT_EQ(c.received.size(), 1u);
  EXPECT_EQ(c.received.back().As<proto::Notify>().instance, InstanceId(2));
  EXPECT_GE(c.at.back(), sim::SimTime::FromNanos(400'000));
  EXPECT_EQ(bus.stats().GetCounter("partition_fail_fast").value(), 1u);
  EXPECT_EQ(bus.stats().GetCounter("partition_queued").value(), 1u);
  EXPECT_EQ(bus.stats().GetCounter("partition_released").value(), 1u);
  EXPECT_EQ(bus.stats().GetCounter("partition_dropped").value(), 0u);
}

TEST(PartitionTolerance, SegmentLocalTrafficProceedsCrossSegmentSpills) {
  core::MachineConfig config;
  config.topology.segments = 2;
  sim::PartitionSpec spec;
  spec.segment_a = 0;
  spec.segment_b = 1;
  spec.start = sim::Duration::Micros(400);
  spec.heal = sim::Duration::Micros(3400);
  config.fault_plan.partitions = {spec};

  core::Machine machine(std::move(config));
  auto shards = machine.AddMemoryControllerShards(2);
  auto& seg0 = machine.EmplaceOn<Stub>(0, "seg0-stub");
  machine.EmplaceOn<Stub>(1, "seg1-stub");
  machine.Boot();

  core::ShardedControlClient client(&seg0, machine.shard_infos(),
                                    core::AllocationPolicy::kInterleave);
  Pasid pasid = machine.NewApplication("app");
  machine.RunFor(sim::Duration::Micros(450));  // inside the partition window

  // A raw cross-segment request surfaces the distinct kPartitioned status,
  // not a generic timeout.
  std::optional<Status> raw;
  proto::MemAllocRequest request;
  request.pasid = pasid;
  request.bytes = 4 * kPageSize;
  seg0.rpc().Call<proto::MemAllocResponse>(
      shards[1]->id(), request,
      [&](Result<proto::MemAllocResponse> r) { raw = r.status(); });
  machine.RunFor(sim::Duration::Micros(100));
  ASSERT_TRUE(raw.has_value());
  EXPECT_EQ(raw->code(), StatusCode::kPartitioned);

  // Segment-local control traffic proceeds: the interleave client spills the
  // unreachable seg-1 shard and lands every allocation on its own segment.
  for (int i = 0; i < 4; ++i) {
    auto va = client.AllocSync(pasid, 4 * kPageSize);
    ASSERT_TRUE(va.ok()) << i << ": " << va.status().ToString();
    EXPECT_EQ(memdev::ShardForVa(*va, 2), 0u) << i;
  }
  EXPECT_GE(client.spills(), 1u);
  EXPECT_GE(machine.bus().stats().GetCounter("partition_fail_fast").value(), 1u);

  // After the heal, cross-segment placement resumes.
  machine.RunFor(sim::Duration::Millis(3));
  std::vector<uint32_t> owners;
  for (int i = 0; i < 2; ++i) {
    auto va = client.AllocSync(pasid, 4 * kPageSize);
    ASSERT_TRUE(va.ok()) << va.status().ToString();
    owners.push_back(memdev::ShardForVa(*va, 2));
  }
  EXPECT_NE(std::find(owners.begin(), owners.end(), 1u), owners.end());
}

// --- sharded ops: spill and retry budget ---------------------------------------
//
// Every ShardedControlClient op spills to its next target on a full, offline
// or unreachable shard and retries the whole op after a 50 us back-off when
// every target bounced, at most 20 times. These pin the exact simulated
// outcome of each op kind.

TEST(ShardedOps, AllocBatchSpillsPastAFullHomeShard) {
  core::MachineConfig config;
  config.topology.segments = 2;
  config.memory_bytes = 64 * kPageSize;  // 32 frames per shard
  core::Machine machine(std::move(config));
  auto shards = machine.AddMemoryControllerShards(2);
  auto& seg0 = machine.EmplaceOn<Stub>(0, "seg0-stub");
  machine.Boot();

  core::ShardedControlClient client(&seg0, machine.shard_infos(),
                                    core::AllocationPolicy::kHomeNode);
  Pasid pasid = machine.NewApplication("app");
  auto full = client.AllocBatchSync(pasid, 4 * kPageSize, 8);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  for (VirtAddr va : *full) {
    EXPECT_EQ(memdev::ShardForVa(va, 2), 0u);
  }
  // The home shard has no frame left: the batch spills whole to shard 1.
  auto spilled = client.AllocBatchSync(pasid, 4 * kPageSize, 2);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  for (VirtAddr va : *spilled) {
    EXPECT_EQ(memdev::ShardForVa(va, 2), 1u);
  }
  EXPECT_EQ(client.spills(), 1u);
  EXPECT_EQ(client.op_retries(), 0u);
  EXPECT_EQ(client.lease_count(), 10u);
  EXPECT_EQ(shards[0]->allocation_count(), 8u);
  EXPECT_EQ(shards[1]->allocation_count(), 2u);
}

TEST(ShardedOps, EveryOpGivesUpAfterTheRetryBudget) {
  // The only shard dies for good at 500 us. Each op kind retries 20 times
  // and then surfaces kUnavailable: first the dead endpoint's bounce (alloc)
  // or the bus's (grant, free, routed by address). Once the supervisor has
  // quarantined the shard and the directory refresh has named no successor,
  // no candidate is left at all, and an allocation fails at once.
  core::MachineConfig config;
  sim::CrashSpec kill;
  kill.device = MakeSegmentDeviceId(0, 1).value();
  kill.at = sim::Duration::Micros(500);
  kill.respawn = Respawn::kNever;
  config.crash_plan.crashes = {kill};

  core::Machine machine(std::move(config));
  auto shards = machine.AddMemoryControllerShards(1);
  auto& stub = machine.Emplace<Stub>();
  auto& peer = machine.Emplace<Stub>("peer");
  ASSERT_EQ(shards[0]->id(), MakeSegmentDeviceId(0, 1));
  machine.Boot();

  core::ShardedControlClient client(&stub, machine.shard_infos());
  Pasid pasid = machine.NewApplication("app");
  auto va = client.AllocSync(pasid, 4 * kPageSize);
  ASSERT_TRUE(va.ok());
  machine.RunFor(sim::Duration::Micros(520));

  auto now = [&machine] { return machine.simulator().Now().nanos(); };
  auto alloc = client.AllocSync(pasid, 4 * kPageSize);
  ASSERT_FALSE(alloc.ok());
  EXPECT_EQ(alloc.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(alloc.status().message(), "destination not alive");
  EXPECT_EQ(now(), 1'582'127u);

  Status granted =
      client.GrantSync(pasid, *va, 4 * kPageSize, peer.id(), Access::kRead).status();
  EXPECT_EQ(granted.code(), StatusCode::kUnavailable);
  EXPECT_EQ(granted.message(), "no memory controller");
  EXPECT_EQ(now(), 2'592'102u);

  Status freed = client.FreeSync(pasid, *va, 4 * kPageSize).status();
  EXPECT_EQ(freed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(freed.message(), "no memory controller");
  EXPECT_EQ(now(), 3'602'014u);
  EXPECT_EQ(client.lease_count(), 1u);  // a failed free keeps the lease

  ASSERT_TRUE(machine.bus().supervisor().IsQuarantined(shards[0]->id()));
  uint64_t issued = now();
  auto batch = client.AllocBatchSync(pasid, 4 * kPageSize, 2);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(batch.status().message(), "no live memory shards");
  EXPECT_EQ(now(), 3'602'014u);
  EXPECT_EQ(now(), issued);

  machine.RunFor(sim::Duration::Millis(5));
  auto late = client.AllocSync(pasid, 4 * kPageSize);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().message(), "no live memory shards");
  EXPECT_EQ(now(), 8'602'014u);

  EXPECT_EQ(client.op_retries(), 60u);
  EXPECT_EQ(client.spills(), 0u);
}

// Two segments, cut from each other from 400 to 900 us.
core::MachineConfig PartitionedPairConfig() {
  core::MachineConfig config;
  config.topology.segments = 2;
  sim::PartitionSpec spec;
  spec.segment_a = 0;
  spec.segment_b = 1;
  spec.start = sim::Duration::Micros(400);
  spec.heal = sim::Duration::Micros(900);
  config.fault_plan.partitions = {spec};
  return config;
}

TEST(ShardedOps, GrantAndFreeRideOutAPartition) {
  // The client's region lives on the seg-1 shard, and segments 0 and 1 are
  // cut from 400 to 900 us. A grant issued inside the window bounces
  // kPartitioned at the router and retries until the heal; the free that
  // follows goes straight through.
  core::Machine machine(PartitionedPairConfig());
  auto shards = machine.AddMemoryControllerShards(2);
  auto& seg0 = machine.EmplaceOn<Stub>(0, "seg0-stub");
  auto& seg1 = machine.EmplaceOn<Stub>(1, "seg1-stub");
  machine.Boot();

  core::ShardedControlClient client(&seg0, machine.shard_infos(),
                                    core::AllocationPolicy::kInterleave);
  Pasid pasid = machine.NewApplication("app");
  auto home = client.AllocSync(pasid, 4 * kPageSize);
  auto remote = client.AllocSync(pasid, 4 * kPageSize);
  ASSERT_TRUE(home.ok());
  ASSERT_TRUE(remote.ok());
  ASSERT_EQ(memdev::ShardForVa(*remote, 2), 1u);
  machine.RunFor(sim::Duration::Micros(450));  // inside the partition window

  auto now = [&machine] { return machine.simulator().Now().nanos(); };
  ASSERT_TRUE(client.GrantSync(pasid, *remote, 4 * kPageSize, seg1.id(), Access::kRead).ok());
  EXPECT_EQ(now(), 910'852u);
  EXPECT_EQ(client.op_retries(), 8u);
  EXPECT_EQ(shards[1]->GrantsHeldBy(seg1.id()), 1u);

  ASSERT_TRUE(client.FreeSync(pasid, *remote, 4 * kPageSize).ok());
  EXPECT_EQ(now(), 913'580u);
  EXPECT_EQ(client.op_retries(), 8u);
  EXPECT_EQ(client.spills(), 0u);
  EXPECT_EQ(client.lease_count(), 1u);
  EXPECT_EQ(shards[1]->allocation_count(), 0u);
  EXPECT_EQ(shards[1]->GrantsHeldBy(seg1.id()), 0u);
}

TEST(ShardedOps, FreeBatchRidesOutAPartition) {
  // One batch frees a region on each shard inside the partition window. The
  // bus cannot route a batch by address, so each shard gets its own group:
  // the seg-0 group frees at once, and the seg-1 group bounces kPartitioned
  // and retries at its owning shard until the heal.
  core::Machine machine(PartitionedPairConfig());
  auto shards = machine.AddMemoryControllerShards(2);
  auto& seg0 = machine.EmplaceOn<Stub>(0, "seg0-stub");
  machine.EmplaceOn<Stub>(1, "seg1-stub");
  machine.Boot();

  core::ShardedControlClient client(&seg0, machine.shard_infos(),
                                    core::AllocationPolicy::kInterleave);
  Pasid pasid = machine.NewApplication("app");
  auto home = client.AllocSync(pasid, 4 * kPageSize);
  auto remote = client.AllocSync(pasid, 4 * kPageSize);
  ASSERT_TRUE(home.ok());
  ASSERT_TRUE(remote.ok());
  ASSERT_EQ(memdev::ShardForVa(*home, 2), 0u);
  ASSERT_EQ(memdev::ShardForVa(*remote, 2), 1u);
  machine.RunFor(sim::Duration::Micros(450));  // inside the partition window

  auto freed = client.FreeBatchSync(pasid, {*home, *remote}, 4 * kPageSize);
  ASSERT_TRUE(freed.ok()) << freed.status().ToString();
  EXPECT_EQ(machine.simulator().Now().nanos(), 911'117u);
  EXPECT_EQ(client.op_retries(), 8u);
  EXPECT_EQ(client.spills(), 0u);
  EXPECT_EQ(client.lease_count(), 0u);
  EXPECT_EQ(shards[0]->allocation_count(), 0u);
  EXPECT_EQ(shards[1]->allocation_count(), 0u);
}

// --- chaos schedules ----------------------------------------------------------

struct ChaosOutcome {
  uint64_t events = 0;
  std::string metrics;
  uint64_t ok_ops = 0;
  uint64_t failed_ops = 0;
  uint64_t durable = 0;       // acked allocations found on exactly one shard
  uint64_t double_owned = 0;  // acked allocations found on more than one
  uint64_t surviving_grants = 0;
  uint64_t stranded_grants = 0;
};

// Every acked allocation must live on exactly one shard: lost acks break
// durability, two owners break the exclusive-ownership invariant.
void SweepDurability(const std::vector<memdev::MemoryController*>& shards, Pasid pasid,
                     const std::vector<VirtAddr>& acked, ChaosOutcome& out) {
  for (VirtAddr va : acked) {
    int owners = 0;
    for (auto* shard : shards) {
      owners += shard->HasAllocationAt(pasid, va) ? 1 : 0;
    }
    if (owners == 1) ++out.durable;
    if (owners > 1) ++out.double_owned;
  }
}

// Kill one controller shard mid-burst; it respawns clean (tables wiped,
// epoch bumped) and the client's lease ledger restores its state.
ChaosOutcome RunShardRestartBurstSchedule() {
  core::MachineConfig config;
  config.topology.segments = 2;
  sim::CrashSpec kill;
  kill.device = MakeSegmentDeviceId(1, 1).value();
  kill.at = sim::Duration::Micros(700);
  kill.respawn = Respawn::kClean;
  config.crash_plan.crashes = {kill};

  core::Machine machine(std::move(config));
  auto shards = machine.AddMemoryControllerShards(2);
  auto& seg0 = machine.EmplaceOn<Stub>(0, "seg0-stub");
  auto& seg1 = machine.EmplaceOn<Stub>(1, "seg1-stub");
  machine.Boot();

  core::ShardedControlClient client(&seg0, machine.shard_infos(),
                                    core::AllocationPolicy::kInterleave);
  Pasid pasid = machine.NewApplication("app");
  std::vector<VirtAddr> acked;

  auto lease = client.AllocSync(pasid, 4 * kPageSize);
  EXPECT_TRUE(lease.ok());
  if (lease.ok()) {
    acked.push_back(*lease);
    EXPECT_TRUE(client.GrantSync(pasid, *lease, 4 * kPageSize, seg1.id(), Access::kRead).ok());
  }

  // A 16-op burst straddling the kill: half the interleaved targets hit the
  // dying shard while it is down or still refusing allocs in recovery.
  ChaosOutcome out;
  std::vector<Result<VirtAddr>> results;
  results.reserve(16);
  for (int i = 0; i < 16; ++i) {
    machine.simulator().ScheduleAt(sim::SimTime::FromNanos(200'000 + 100'000 * i),
                                   [&client, &results, pasid] {
                                     client.Alloc(pasid, 4 * kPageSize,
                                                  [&results](Result<VirtAddr> r) {
                                                    results.push_back(std::move(r));
                                                  });
                                   });
  }
  machine.RunFor(sim::Duration::Millis(30));
  machine.RunUntilIdle();

  for (const auto& r : results) {
    if (r.ok()) {
      ++out.ok_ops;
      acked.push_back(*r);
    } else {
      ++out.failed_ops;
    }
  }
  SweepDurability(shards, pasid, acked, out);
  out.surviving_grants = shards[0]->GrantsHeldBy(seg1.id());
  out.events = machine.simulator().events_executed();
  std::ostringstream metrics;
  machine.MetricsJson(metrics);
  out.metrics = metrics.str();
  return out;
}

TEST(RackChaos, ShardRestartMidBurstRerunsByteIdentical) {
  ChaosOutcome first = RunShardRestartBurstSchedule();
  ChaosOutcome second = RunShardRestartBurstSchedule();

  // The failover window is survivable: the overwhelming majority of the burst
  // completes (spilled or retried), and every acked op is durable on exactly
  // one shard — nothing lost, nothing double-owned.
  EXPECT_GE(first.ok_ops, 14u);
  EXPECT_EQ(first.durable, first.ok_ops + 1);  // +1: the pre-burst lease
  EXPECT_EQ(first.double_owned, 0u);
  EXPECT_EQ(first.surviving_grants, 1u);

  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.ok_ops, second.ok_ops);
  EXPECT_EQ(first.failed_ops, second.failed_ops);
  EXPECT_EQ(first.metrics, second.metrics);
  testutil::ExpectFingerprint("RackChaos.ShardRestartMidBurstRerunsByteIdentical",
                              testutil::RunFingerprint(first.events, first.metrics));
}

// Partition the inter-segment link mid-burst, then heal it: traffic stays
// segment-local through the window and both sides reconcile afterwards.
ChaosOutcome RunPartitionHealSchedule() {
  core::MachineConfig config;
  config.topology.segments = 2;
  sim::PartitionSpec spec;
  spec.segment_a = 0;
  spec.segment_b = 1;
  spec.start = sim::Duration::Micros(600);
  spec.heal = sim::Duration::Micros(2600);
  config.fault_plan.partitions = {spec};

  core::Machine machine(std::move(config));
  auto shards = machine.AddMemoryControllerShards(2);
  auto& seg0 = machine.EmplaceOn<Stub>(0, "seg0-stub");
  auto& seg1 = machine.EmplaceOn<Stub>(1, "seg1-stub");
  machine.Boot();

  core::ShardedControlClient client(&seg0, machine.shard_infos(),
                                    core::AllocationPolicy::kInterleave);
  Pasid pasid = machine.NewApplication("app");
  std::vector<VirtAddr> acked;

  auto lease = client.AllocSync(pasid, 4 * kPageSize);
  EXPECT_TRUE(lease.ok());
  if (lease.ok()) {
    acked.push_back(*lease);
    EXPECT_TRUE(client.GrantSync(pasid, *lease, 4 * kPageSize, seg1.id(), Access::kRead).ok());
  }

  ChaosOutcome out;
  std::vector<Result<VirtAddr>> results;
  results.reserve(20);
  // 16 ops spanning [200us, 1700us] (the partition opens at 600us), then 4
  // more after the heal.
  for (int i = 0; i < 16; ++i) {
    machine.simulator().ScheduleAt(sim::SimTime::FromNanos(200'000 + 100'000 * i),
                                   [&client, &results, pasid] {
                                     client.Alloc(pasid, 4 * kPageSize,
                                                  [&results](Result<VirtAddr> r) {
                                                    results.push_back(std::move(r));
                                                  });
                                   });
  }
  for (int i = 0; i < 4; ++i) {
    machine.simulator().ScheduleAt(sim::SimTime::FromNanos(2'700'000 + 100'000 * i),
                                   [&client, &results, pasid] {
                                     client.Alloc(pasid, 4 * kPageSize,
                                                  [&results](Result<VirtAddr> r) {
                                                    results.push_back(std::move(r));
                                                  });
                                   });
  }
  machine.RunFor(sim::Duration::Millis(30));
  machine.RunUntilIdle();

  for (const auto& r : results) {
    if (r.ok()) {
      ++out.ok_ops;
      acked.push_back(*r);
    } else {
      ++out.failed_ops;
    }
  }
  SweepDurability(shards, pasid, acked, out);
  out.surviving_grants = shards[0]->GrantsHeldBy(seg1.id());
  out.events = machine.simulator().events_executed();
  std::ostringstream metrics;
  machine.MetricsJson(metrics);
  out.metrics = metrics.str();
  return out;
}

TEST(RackChaos, PartitionThenHealReconcilesByteIdentical) {
  ChaosOutcome first = RunPartitionHealSchedule();
  ChaosOutcome second = RunPartitionHealSchedule();

  // Every op completes: mid-partition targets spill to the local shard, and
  // after the heal both sides agree — all acked ops durable on exactly one
  // shard, the cross-segment grant intact, nothing double-owned.
  EXPECT_EQ(first.failed_ops, 0u);
  EXPECT_EQ(first.ok_ops, 20u);
  EXPECT_EQ(first.durable, first.ok_ops + 1);
  EXPECT_EQ(first.double_owned, 0u);
  EXPECT_EQ(first.surviving_grants, 1u);

  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.ok_ops, second.ok_ops);
  EXPECT_EQ(first.metrics, second.metrics);
  testutil::ExpectFingerprint("RackChaos.PartitionThenHealReconcilesByteIdentical",
                              testutil::RunFingerprint(first.events, first.metrics));
}

// Kill the inter-segment router with traffic in flight: a cross-segment
// control response parks on the router until the heal while a cross-segment
// DMA — the data plane — proceeds through the partition untouched.
ChaosOutcome RunPartitionInFlightSchedule(sim::SimTime* dma_done_at, sim::SimTime* rpc_done_at) {
  core::MachineConfig config;
  config.topology.segments = 2;
  sim::PartitionSpec spec;
  spec.segment_a = 0;
  spec.segment_b = 1;
  spec.start = sim::Duration::Micros(501);
  spec.heal = sim::Duration::Micros(2001);
  config.fault_plan.partitions = {spec};

  core::Machine machine(std::move(config));
  auto shards = machine.AddMemoryControllerShards(2);
  auto& seg0 = machine.EmplaceOn<Stub>(0, "seg0-stub");
  auto& seg1 = machine.EmplaceOn<Stub>(1, "seg1-stub");
  machine.Boot();

  core::ShardedControlClient client(&seg0, machine.shard_infos(),
                                    core::AllocationPolicy::kInterleave);
  Pasid pasid = machine.NewApplication("app");
  std::vector<VirtAddr> acked;

  // The DMA target: seg-0 owned, granted writeable to the seg-1 stub.
  auto lease = client.AllocSync(pasid, 4 * kPageSize);
  EXPECT_TRUE(lease.ok());
  if (lease.ok()) {
    acked.push_back(*lease);
    EXPECT_TRUE(
        client.GrantSync(pasid, *lease, 4 * kPageSize, seg1.id(), Access::kReadWrite).ok());
  }

  ChaosOutcome out;
  std::vector<Result<VirtAddr>> results;
  results.reserve(4);
  auto collect = [&results](Result<VirtAddr> r) { results.push_back(std::move(r)); };
  // At 500us the interleave client targets the seg-1 shard: the request
  // crosses before the cut at 501us, so the *response* is the in-flight
  // casualty — parked on the router, released at the heal.
  machine.simulator().ScheduleAt(sim::SimTime::FromNanos(500'000),
                                 [&client, pasid, collect, rpc_done_at, &machine] {
                                   client.Alloc(pasid, 4 * kPageSize,
                                                [collect, rpc_done_at,
                                                 &machine](Result<VirtAddr> r) {
                                                  *rpc_done_at = machine.simulator().Now();
                                                  collect(std::move(r));
                                                });
                                 });
  // Mid-partition, the seg-1 stub DMAs into its cross-segment grant: the data
  // plane does not ride the control router and must complete before the heal.
  Status dma_status = Aborted("never ran");
  machine.simulator().ScheduleAt(
      sim::SimTime::FromNanos(600'000), [&machine, &seg1, pasid, &lease, &dma_status, dma_done_at] {
        std::vector<uint8_t> payload(1024, 0xAB);
        machine.fabric().DmaWrite(seg1.id(), pasid, *lease, std::move(payload),
                                  [&dma_status, dma_done_at, &machine](Status s) {
                                    dma_status = std::move(s);
                                    *dma_done_at = machine.simulator().Now();
                                  });
      });
  // Post-heal ops confirm the control plane reconciled.
  for (int i = 0; i < 2; ++i) {
    machine.simulator().ScheduleAt(sim::SimTime::FromNanos(2'100'000 + 100'000 * i),
                                   [&client, pasid, collect] {
                                     client.Alloc(pasid, 4 * kPageSize, collect);
                                   });
  }
  machine.RunFor(sim::Duration::Millis(30));
  machine.RunUntilIdle();

  EXPECT_TRUE(dma_status.ok()) << dma_status.ToString();
  for (const auto& r : results) {
    if (r.ok()) {
      ++out.ok_ops;
      acked.push_back(*r);
    } else {
      ++out.failed_ops;
    }
  }
  SweepDurability(shards, pasid, acked, out);
  out.surviving_grants = shards[0]->GrantsHeldBy(seg1.id());
  out.events = machine.simulator().events_executed();
  std::ostringstream metrics;
  machine.MetricsJson(metrics);
  out.metrics = metrics.str();
  return out;
}

TEST(RackChaos, RouterKillWithInFlightTrafficRerunsByteIdentical) {
  sim::SimTime first_dma, first_rpc, second_dma, second_rpc;
  ChaosOutcome first = RunPartitionInFlightSchedule(&first_dma, &first_rpc);
  ChaosOutcome second = RunPartitionInFlightSchedule(&second_dma, &second_rpc);

  // The data plane crossed during the partition; the parked control response
  // only completed after the heal.
  EXPECT_GT(first_dma, sim::SimTime::FromNanos(600'000));
  EXPECT_LT(first_dma, sim::SimTime::FromNanos(2'001'000));
  EXPECT_GE(first_rpc, sim::SimTime::FromNanos(2'001'000));

  EXPECT_EQ(first.failed_ops, 0u);
  EXPECT_EQ(first.ok_ops, 3u);
  EXPECT_EQ(first.durable, first.ok_ops + 1);
  EXPECT_EQ(first.double_owned, 0u);
  EXPECT_EQ(first.surviving_grants, 1u);

  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.metrics, second.metrics);
  testutil::ExpectFingerprint("RackChaos.RouterKillWithInFlightTrafficRerunsByteIdentical",
                              testutil::RunFingerprint(first.events, first.metrics));
  EXPECT_EQ(first_dma, second_dma);
  EXPECT_EQ(first_rpc, second_rpc);
}

}  // namespace
}  // namespace lastcpu

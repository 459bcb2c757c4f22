// Rack-scale topology tests: segment-qualified device ids, shard VA slabs,
// the bus shard directory and vaddr routing, allocation policies of the
// ShardedControlClient, cross-segment hop costing, segment-scoped failure
// notices, and a seeded chaos schedule that kills one controller shard and
// asserts quarantine + cross-segment grant reclamation reruns byte-identical.
#include <gtest/gtest.h>

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

TEST(SegmentIds, HelpersRoundTrip) {
  DeviceId flat(7);
  EXPECT_EQ(SegmentOf(flat), 0u);
  EXPECT_EQ(LocalDeviceId(flat), 7u);
  DeviceId rack = MakeSegmentDeviceId(3, 12);
  EXPECT_EQ(SegmentOf(rack), 3u);
  EXPECT_EQ(LocalDeviceId(rack), 12u);
  EXPECT_FALSE(IsReservedDevice(rack));
  // Pseudo-devices carry no segment: they live on the management ring.
  EXPECT_TRUE(IsReservedDevice(kBusDevice));
  EXPECT_TRUE(IsReservedDevice(kBroadcastDevice));
  EXPECT_EQ(SegmentOf(kBusDevice), 0u);
}

TEST(ShardVaLayout, SlabsAndClamping) {
  EXPECT_EQ(memdev::ShardVaBase(0), 0u);
  EXPECT_EQ(memdev::ShardVaLimit(0), memdev::kShardVaStride);
  EXPECT_EQ(memdev::ShardVaBase(3), 3 * memdev::kShardVaStride);
  EXPECT_EQ(memdev::ShardForVa(VirtAddr(uint64_t{1} << 32), 4), 0u);
  EXPECT_EQ(memdev::ShardForVa(VirtAddr(memdev::ShardVaBase(2) + 4096), 4), 2u);
  // Addresses past the last slab clamp to the last shard.
  EXPECT_EQ(memdev::ShardForVa(VirtAddr(memdev::ShardVaBase(9)), 4), 3u);
}

TEST(RackMachine, BootAssemblesShardsAndDirectory) {
  core::MachineConfig config;
  config.topology.segments = 2;
  config.topology.memory_shards = 4;
  core::Machine machine(config);
  machine.Boot();

  ASSERT_EQ(machine.shard_controllers().size(), 4u);
  ASSERT_EQ(machine.shard_infos().size(), 4u);
  const auto& directory = machine.bus().shard_directory();
  ASSERT_EQ(directory.size(), 4u);
  uint64_t total_capacity = 0;
  for (size_t i = 0; i < directory.size(); ++i) {
    EXPECT_EQ(directory[i].va_base, memdev::ShardVaBase(static_cast<uint32_t>(i)));
    EXPECT_EQ(directory[i].va_limit, memdev::ShardVaLimit(static_cast<uint32_t>(i)));
    EXPECT_EQ(directory[i].device, machine.shard_infos()[i].device);
    total_capacity += directory[i].capacity_bytes;
  }
  // Shards 0,1 on segment 0; shards 2,3 on segment 1. Every frame is owned.
  EXPECT_EQ(directory[0].segment, 0u);
  EXPECT_EQ(directory[1].segment, 0u);
  EXPECT_EQ(directory[2].segment, 1u);
  EXPECT_EQ(directory[3].segment, 1u);
  EXPECT_EQ(total_capacity, machine.memory().num_frames() * kPageSize);
}

TEST(RackMachine, ShardDirectoryRpc) {
  core::MachineConfig config;
  config.topology.segments = 2;
  config.topology.memory_shards = 2;
  core::Machine machine(config);
  auto& stub = machine.Emplace<Stub>();
  machine.Boot();

  std::optional<Result<proto::ShardDirectoryResponse>> got;
  stub.rpc().Call<proto::ShardDirectoryResponse>(
      kBusDevice, proto::ShardDirectoryRequest{},
      [&](Result<proto::ShardDirectoryResponse> r) { got = std::move(r); });
  machine.RunUntilIdle();
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->status().ToString();
  EXPECT_EQ((*got)->shards.size(), 2u);
}

TEST(RackMachine, FlatMachineSynthesizesSingleRecordDirectory) {
  core::Machine machine;
  auto& memctrl = machine.AddMemoryController();
  auto& stub = machine.Emplace<Stub>();
  machine.Boot();

  EXPECT_TRUE(machine.bus().shard_directory().empty());
  std::optional<Result<proto::ShardDirectoryResponse>> got;
  stub.rpc().Call<proto::ShardDirectoryResponse>(
      kBusDevice, proto::ShardDirectoryRequest{},
      [&](Result<proto::ShardDirectoryResponse> r) { got = std::move(r); });
  machine.RunUntilIdle();
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(got->ok()) << got->status().ToString();
  ASSERT_EQ((*got)->shards.size(), 1u);
  EXPECT_EQ((*got)->shards[0].device, memctrl.id());
  EXPECT_EQ((*got)->shards[0].va_limit, 0u);  // unbounded: the whole space
}

TEST(RackMachine, SingleShardMatchesFlatVaLayout) {
  VirtAddr flat_va;
  {
    core::Machine machine;
    machine.AddMemoryController();
    auto& stub = machine.Emplace<Stub>();
    machine.Boot();
    core::BusControlClient client(&stub, machine.bus().memory_controller());
    Pasid pasid = machine.NewApplication("app");
    auto va = client.AllocSync(pasid, 4 * kPageSize);
    ASSERT_TRUE(va.ok());
    flat_va = *va;
  }
  core::MachineConfig config;
  config.topology.memory_shards = 1;
  core::Machine machine(config);
  auto& stub = machine.Emplace<Stub>();
  machine.Boot();
  core::ShardedControlClient client(&stub, machine.shard_infos());
  Pasid pasid = machine.NewApplication("app");
  auto va = client.AllocSync(pasid, 4 * kPageSize);
  ASSERT_TRUE(va.ok());
  // Shard 0's slab starts at 0 and bumps from the classic base, so a one-shard
  // rack hands out exactly the flat machine's addresses.
  EXPECT_EQ(*va, flat_va);
  EXPECT_EQ(va->raw, uint64_t{1} << 32);
}

// Builds the standard two-segment rig: 2 shards (one per segment) added
// first so ids are deterministic, then one stub per segment.
struct RackRig {
  std::unique_ptr<core::Machine> machine;
  memdev::MemoryController* shard0 = nullptr;
  memdev::MemoryController* shard1 = nullptr;
  Stub* seg0 = nullptr;
  Stub* seg1 = nullptr;

  static RackRig Build(core::MachineConfig config = {}) {
    config.topology.segments = 2;
    RackRig rig;
    rig.machine = std::make_unique<core::Machine>(std::move(config));
    auto shards = rig.machine->AddMemoryControllerShards(2);
    rig.shard0 = shards[0];
    rig.shard1 = shards[1];
    rig.seg0 = &rig.machine->EmplaceOn<Stub>(0, "seg0-stub");
    rig.seg1 = &rig.machine->EmplaceOn<Stub>(1, "seg1-stub");
    rig.machine->Boot();
    return rig;
  }
};

TEST(AllocationPolicy, HomeNodePrefersLocalShard) {
  RackRig rig = RackRig::Build();
  EXPECT_EQ(SegmentOf(rig.seg1->id()), 1u);
  core::ShardedControlClient local(rig.seg0, rig.machine->shard_infos(),
                                   core::AllocationPolicy::kHomeNode);
  core::ShardedControlClient remote(rig.seg1, rig.machine->shard_infos(),
                                    core::AllocationPolicy::kHomeNode);
  Pasid pasid = rig.machine->NewApplication("app");
  auto va0 = local.AllocSync(pasid, 4 * kPageSize);
  auto va1 = remote.AllocSync(pasid, 4 * kPageSize);
  ASSERT_TRUE(va0.ok());
  ASSERT_TRUE(va1.ok()) << va1.status().ToString();
  EXPECT_EQ(memdev::ShardForVa(*va0, 2), 0u);
  EXPECT_EQ(memdev::ShardForVa(*va1, 2), 1u);
  EXPECT_EQ(local.spills(), 0u);
  EXPECT_EQ(remote.spills(), 0u);
}

TEST(AllocationPolicy, InterleaveRoundRobinsAcrossShards) {
  RackRig rig = RackRig::Build();
  core::ShardedControlClient client(rig.seg0, rig.machine->shard_infos(),
                                    core::AllocationPolicy::kInterleave);
  Pasid pasid = rig.machine->NewApplication("app");
  std::vector<uint32_t> owners;
  for (int i = 0; i < 4; ++i) {
    auto va = client.AllocSync(pasid, 4 * kPageSize);
    ASSERT_TRUE(va.ok()) << va.status().ToString();
    owners.push_back(memdev::ShardForVa(*va, 2));
  }
  EXPECT_EQ(owners, (std::vector<uint32_t>{0, 1, 0, 1}));
}

TEST(AllocationPolicy, HomeNodeSpillsWhenLocalShardIsFull) {
  core::MachineConfig config;
  config.memory_bytes = 64 * kPageSize;  // 32 frames per shard
  RackRig rig = RackRig::Build(std::move(config));
  core::ShardedControlClient client(rig.seg0, rig.machine->shard_infos(),
                                    core::AllocationPolicy::kHomeNode);
  Pasid pasid = rig.machine->NewApplication("app");
  // 8 allocations of 4 pages exhaust the home shard; the 9th must spill to
  // the remote shard instead of failing.
  for (int i = 0; i < 8; ++i) {
    auto va = client.AllocSync(pasid, 4 * kPageSize);
    ASSERT_TRUE(va.ok()) << i;
    EXPECT_EQ(memdev::ShardForVa(*va, 2), 0u) << i;
  }
  auto spilled = client.AllocSync(pasid, 4 * kPageSize);
  ASSERT_TRUE(spilled.ok());
  EXPECT_EQ(memdev::ShardForVa(*spilled, 2), 1u);
  EXPECT_GE(client.spills(), 1u);
  EXPECT_EQ(rig.machine->shard_controllers()[0]->stats()
                .GetCounter("va_slab_rejections").value(), 0u);
}

TEST(RackMachine, FreeRoutesByVaddrToOwningShard) {
  RackRig rig = RackRig::Build();
  core::ShardedControlClient client(rig.seg0, rig.machine->shard_infos(),
                                    core::AllocationPolicy::kHomeNode);
  Pasid pasid = rig.machine->NewApplication("app");
  auto va = client.AllocSync(pasid, 4 * kPageSize);
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(client.FreeSync(pasid, *va, 4 * kPageSize).ok());
  // The bus routed the free (addressed to kBusDevice) to shard 0 by address.
  EXPECT_EQ(rig.shard0->stats().GetCounter("frees").value(), 1u);
  EXPECT_EQ(rig.shard1->stats().GetCounter("frees").value(), 0u);
}

TEST(RackMachine, MagazineRidesShardedClientUnchanged) {
  RackRig rig = RackRig::Build();
  core::ShardedControlClient inner(rig.seg1, rig.machine->shard_infos(),
                                   core::AllocationPolicy::kHomeNode);
  core::MagazineClient magazine(&inner, rig.seg1, rig.shard1->id());
  Pasid pasid = rig.machine->NewApplication("app");
  auto va = magazine.AllocSync(pasid, 4 * kPageSize);
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(magazine.FreeSync(pasid, *va, 4 * kPageSize).ok());
  auto again = magazine.AllocSync(pasid, 4 * kPageSize);
  ASSERT_TRUE(again.ok());
  EXPECT_GE(magazine.hits(), 1u);  // recycled locally, zero bus messages
  EXPECT_TRUE(magazine.FlushSync().ok());
}

// --- segmented bus routing (raw bus, no machine) -----------------------------

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

TEST(SegmentedBus, CrossSegmentUnicastPaysOneHop) {
  sim::Simulator simulator;
  bus::BusConfig config;
  config.segments = 2;
  bus::SystemBus bus(&simulator, config);
  iommu::Iommu iommu_a{DeviceId(2)}, iommu_b{DeviceId(3)},
      iommu_c{MakeSegmentDeviceId(1, 1)};
  Probe a, b, c;
  a.port = bus.Attach(DeviceId(2), "a", a.Receiver(&simulator), &iommu_a);
  b.port = bus.Attach(DeviceId(3), "b", b.Receiver(&simulator), &iommu_b);
  c.port = bus.Attach(MakeSegmentDeviceId(1, 1), "c", c.Receiver(&simulator), &iommu_c);
  for (Probe* probe : {&a, &b, &c}) {
    probe->port->Send(
        proto::Message{DeviceId(), kBusDevice, RequestId(), proto::AliveAnnounce{}});
  }
  simulator.Run();

  sim::SimTime sent_local = simulator.Now();
  a.port->Send(proto::Message{DeviceId(), DeviceId(3), RequestId(1),
                              proto::Notify{InstanceId(1), 0}});
  simulator.Run();
  ASSERT_EQ(b.at.size(), 1u);
  sim::Duration local_delay = b.at.back() - sent_local;

  sim::SimTime sent_cross = simulator.Now();
  a.port->Send(proto::Message{DeviceId(), MakeSegmentDeviceId(1, 1), RequestId(2),
                              proto::Notify{InstanceId(1), 0}});
  simulator.Run();
  ASSERT_EQ(c.at.size(), 1u);
  sim::Duration cross_delay = c.at.back() - sent_cross;

  // Identical payloads, so the only difference is the inter-segment router.
  EXPECT_EQ(cross_delay - local_delay, bus::kInterSegmentLatency);
  ASSERT_EQ(bus.segment_counters().size(), 2u);
  EXPECT_EQ(bus.segment_counters()[0].routed_out, 1u);
  EXPECT_EQ(bus.segment_counters()[1].routed_in, 1u);
  EXPECT_GE(bus.segment_counters()[0].delivered_local, 1u);
}

TEST(SegmentedBus, BroadcastCopiesAreCountedPerSegment) {
  sim::Simulator simulator;
  bus::BusConfig config;
  config.segments = 2;
  bus::SystemBus bus(&simulator, config);
  iommu::Iommu iommu_a{DeviceId(2)}, iommu_b{DeviceId(3)},
      iommu_c{MakeSegmentDeviceId(1, 1)};
  Probe a, b, c;
  a.port = bus.Attach(DeviceId(2), "a", a.Receiver(&simulator), &iommu_a);
  b.port = bus.Attach(DeviceId(3), "b", b.Receiver(&simulator), &iommu_b);
  c.port = bus.Attach(MakeSegmentDeviceId(1, 1), "c", c.Receiver(&simulator), &iommu_c);
  for (Probe* probe : {&a, &b, &c}) {
    probe->port->Send(
        proto::Message{DeviceId(), kBusDevice, RequestId(), proto::AliveAnnounce{}});
  }
  simulator.Run();

  uint64_t broadcast_before = bus.stats().GetCounter("broadcast_msgs").value();
  uint64_t copies_seg1_before = bus.segment_counters()[1].broadcast_copies;
  a.port->Send(proto::Message{DeviceId(), kBroadcastDevice, RequestId(3),
                              proto::DiscoverRequest{proto::ServiceType::kCompute, ""}});
  simulator.Run();
  // Two alive receivers -> two counted copies, one landing on segment 1.
  EXPECT_EQ(bus.stats().GetCounter("broadcast_msgs").value() - broadcast_before, 2u);
  EXPECT_EQ(bus.segment_counters()[1].broadcast_copies - copies_seg1_before, 1u);
}

TEST(RackMachine, FailureNoticesStaySegmentLocal) {
  RackRig rig = RackRig::Build();
  auto& victim = rig.machine->EmplaceOn<Stub>(0, "victim");
  victim.PowerOn();
  rig.machine->RunUntilIdle();

  std::vector<uint32_t> seen_at_seg0, seen_at_seg1;
  rig.seg0->AddPeerFailedHook([&](DeviceId d) { seen_at_seg0.push_back(d.value()); });
  rig.seg1->AddPeerFailedHook([&](DeviceId d) { seen_at_seg1.push_back(d.value()); });

  uint64_t suppressed_before =
      rig.machine->bus().stats().GetCounter("failure_notices_suppressed").value();
  rig.machine->bus().ReportDeviceFailure(victim.id());
  rig.machine->RunFor(sim::Duration::Millis(5));
  rig.machine->RunUntilIdle();

  // The same-segment peer hears about it; the other chassis does not.
  EXPECT_EQ(seen_at_seg0, std::vector<uint32_t>{victim.id().value()});
  EXPECT_TRUE(seen_at_seg1.empty());
  EXPECT_GE(rig.machine->bus().stats().GetCounter("failure_notices_suppressed").value(),
            suppressed_before + 1);
}

TEST(RackMachine, ControllerFailureBroadcastsMachineWide) {
  RackRig rig = RackRig::Build();
  std::vector<uint32_t> seen_at_seg1;
  rig.seg1->AddPeerFailedHook([&](DeviceId d) { seen_at_seg1.push_back(d.value()); });

  // A memory-controller shard failing is everyone's problem (clients must
  // stop targeting it), so the segment scoping is bypassed.
  rig.machine->bus().ReportDeviceFailure(rig.shard0->id());
  rig.machine->RunFor(sim::Duration::Millis(5));
  rig.machine->RunUntilIdle();
  EXPECT_EQ(seen_at_seg1, std::vector<uint32_t>{rig.shard0->id().value()});
}

TEST(RackMachine, FlatMetricsCarryNoTopologySections) {
  core::Machine machine;
  machine.AddMemoryController();
  machine.Boot();
  std::ostringstream metrics;
  machine.MetricsJson(metrics);
  EXPECT_EQ(metrics.str().find("\"segments\":["), std::string::npos);
  EXPECT_EQ(metrics.str().find("\"memory_shards\":["), std::string::npos);
}

TEST(RackMachine, RackMetricsExposePerSegmentSections) {
  RackRig rig = RackRig::Build();
  core::ShardedControlClient client(rig.seg1, rig.machine->shard_infos(),
                                    core::AllocationPolicy::kHomeNode);
  Pasid pasid = rig.machine->NewApplication("app");
  ASSERT_TRUE(client.AllocSync(pasid, 4 * kPageSize).ok());
  std::ostringstream metrics;
  rig.machine->MetricsJson(metrics);
  EXPECT_NE(metrics.str().find("\"segments\":["), std::string::npos);
  EXPECT_NE(metrics.str().find("\"memory_shards\":["), std::string::npos);
  EXPECT_NE(metrics.str().find("\"routed_out\""), std::string::npos);
}

// --- chaos: killing one controller shard -------------------------------------

struct ShardKillOutcome {
  uint64_t events = 0;
  std::string metrics;
  bool grantee_quarantined = false;
  bool shard1_quarantined = false;
  uint64_t stranded_grants = 0;
  uint64_t post_quarantine_spills = 0;
  std::vector<uint32_t> post_quarantine_owners;
};

ShardKillOutcome RunShardKillSchedule() {
  core::MachineConfig config;
  config.topology.segments = 2;
  // The seg-1 grantee dies for good mid-run; the seg-1 controller shard dies
  // shortly after and never returns either.
  sim::CrashSpec kill_grantee;
  kill_grantee.device = MakeSegmentDeviceId(1, 2).value();
  kill_grantee.at = sim::Duration::Micros(500);
  kill_grantee.respawn = Respawn::kNever;
  sim::CrashSpec kill_shard;
  kill_shard.device = MakeSegmentDeviceId(1, 1).value();
  kill_shard.at = sim::Duration::Micros(900);
  kill_shard.respawn = Respawn::kNever;
  config.crash_plan.crashes = {kill_grantee, kill_shard};

  core::Machine machine(std::move(config));
  auto shards = machine.AddMemoryControllerShards(2);
  auto& seg0 = machine.EmplaceOn<Stub>(0, "seg0-stub");
  auto& seg1 = machine.EmplaceOn<Stub>(1, "seg1-stub");
  EXPECT_EQ(shards[1]->id(), MakeSegmentDeviceId(1, 1));
  EXPECT_EQ(seg1.id(), MakeSegmentDeviceId(1, 2));
  machine.Boot();

  core::ShardedControlClient client(&seg0, machine.shard_infos(),
                                    core::AllocationPolicy::kInterleave);
  Pasid pasid = machine.NewApplication("app");
  // Cross-segment lease: the seg-0 shard owns the region, the seg-1 stub
  // holds the grant. When the grantee is quarantined, the controller (a
  // different chassis) must still hear about it and strip the grant.
  auto va = client.AllocSync(pasid, 4 * kPageSize);
  EXPECT_TRUE(va.ok());
  if (va.ok()) {
    EXPECT_EQ(memdev::ShardForVa(*va, 2), 0u);
    EXPECT_TRUE(client.GrantSync(pasid, *va, 4 * kPageSize, seg1.id(), Access::kRead).ok());
    EXPECT_EQ(shards[0]->GrantsHeldBy(seg1.id()), 1u);
  }

  // Let both kills land and the supervised episodes run to quarantine.
  machine.RunFor(sim::Duration::Millis(20));
  machine.RunUntilIdle();

  ShardKillOutcome out;
  out.grantee_quarantined = machine.bus().supervisor().IsQuarantined(seg1.id());
  out.shard1_quarantined = machine.bus().supervisor().IsQuarantined(shards[1]->id());
  out.stranded_grants = shards[0]->GrantsHeldBy(seg1.id());

  // The interleave client would alternate shards, but the permanent-failure
  // notice pruned shard 1 from the candidate set: every post-quarantine
  // allocation lands on shard 0 without a single spill round trip.
  uint64_t spills_before = client.spills();
  for (int i = 0; i < 4; ++i) {
    auto post = client.AllocSync(pasid, 4 * kPageSize);
    EXPECT_TRUE(post.ok()) << i;
    if (post.ok()) {
      out.post_quarantine_owners.push_back(memdev::ShardForVa(*post, 2));
    }
  }
  out.post_quarantine_spills = client.spills() - spills_before;

  out.events = machine.simulator().events_executed();
  std::ostringstream metrics;
  machine.MetricsJson(metrics);
  out.metrics = metrics.str();
  return out;
}

TEST(RackChaos, ShardKillQuarantinesReclaimsAndRerunsByteIdentical) {
  ShardKillOutcome first = RunShardKillSchedule();
  ShardKillOutcome second = RunShardKillSchedule();

  EXPECT_TRUE(first.grantee_quarantined);
  EXPECT_TRUE(first.shard1_quarantined);
  // Cross-segment grant reclamation: the surviving seg-0 shard stripped the
  // dead seg-1 grantee's grant.
  EXPECT_EQ(first.stranded_grants, 0u);
  EXPECT_EQ(first.post_quarantine_owners, (std::vector<uint32_t>{0, 0, 0, 0}));
  EXPECT_EQ(first.post_quarantine_spills, 0u);

  // Same seeded schedule -> byte-identical machine evolution.
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.metrics, second.metrics);
  testutil::ExpectFingerprint("RackChaos.ShardKillQuarantinesReclaimsAndRerunsByteIdentical",
                              testutil::RunFingerprint(first.events, first.metrics));
}

}  // namespace
}  // namespace lastcpu

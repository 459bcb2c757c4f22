// Central-kernel baseline tests: policy parity with the memory controller
// (one LeaseTable under both designs), CPU cost model (interrupts, run-queue
// serialization, core scaling), supervision timings, the ControlClient
// abstraction over both designs, and the kernel's byte-identity fingerprint.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/baseline/central_kernel.h"
#include "src/core/control_plane.h"
#include "src/core/machine.h"
#include "tests/alloc_counter.h"
#include "tests/fingerprint.h"
#include "tests/test_util.h"

namespace lastcpu::baseline {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  KernelTest()
      : memory_(64 << 20),
        kernel_(&simulator_, &memory_),
        nic_iommu_(DeviceId(1)),
        ssd_iommu_(DeviceId(2)) {
    kernel_.RegisterDevice(DeviceId(1), &nic_iommu_);
    kernel_.RegisterDevice(DeviceId(2), &ssd_iommu_);
  }

  // The ControlClient sync wrappers drive the simulator for us; ops issue on
  // behalf of the NIC (DeviceId 1).
  Result<VirtAddr> AllocSync(Pasid pasid, uint64_t bytes) {
    return client_.AllocSync(pasid, bytes);
  }

  sim::Simulator simulator_;
  mem::PhysicalMemory memory_;
  CentralKernel kernel_;
  iommu::Iommu nic_iommu_;
  iommu::Iommu ssd_iommu_;
  core::KernelControlClient client_{&kernel_, DeviceId(1)};
};

TEST_F(KernelTest, AllocMapsRequester) {
  auto vaddr = AllocSync(Pasid(7), 3 * kPageSize);
  ASSERT_TRUE(vaddr.ok());
  EXPECT_EQ(nic_iommu_.mapped_pages(Pasid(7)), 3u);
  EXPECT_EQ(ssd_iommu_.mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(kernel_.AllocatedBytes(Pasid(7)), 3 * kPageSize);
}

TEST_F(KernelTest, OperationsTakeCpuTime) {
  sim::SimTime before = simulator_.Now();
  ASSERT_TRUE(AllocSync(Pasid(7), kPageSize).ok());
  // At least interrupt + entry + service.
  EXPECT_GE((simulator_.Now() - before).nanos(), 2000u + 300u + 1000u);
  EXPECT_EQ(kernel_.ops_completed(), 1u);
  EXPECT_GT(kernel_.op_latency().count(), 0u);
}

TEST_F(KernelTest, SingleCoreSerializesOperations) {
  // Two allocs issued together on one core: total completion ~2x service.
  int completed = 0;
  sim::SimTime last;
  for (int i = 0; i < 2; ++i) {
    kernel_.AllocMemory(DeviceId(1), Pasid(7), kPageSize, [&](Result<VirtAddr> r) {
      ASSERT_TRUE(r.ok());
      ++completed;
      last = simulator_.Now();
    });
  }
  simulator_.Run();
  EXPECT_EQ(completed, 2);
  // Second op waited for the first: > interrupt + 2 * (entry + service).
  EXPECT_GE(last.nanos(), 2000u + 2 * (300u + 1000u));
  EXPECT_GT(kernel_.stats().GetHistogram("queue_wait").max(), 0u);
}

TEST_F(KernelTest, MoreCoresReduceQueueing) {
  auto run_with_cores = [](uint32_t cores) {
    sim::Simulator simulator;
    mem::PhysicalMemory memory(64 << 20);
    CentralKernelConfig config;
    config.cores = cores;
    CentralKernel kernel(&simulator, &memory, config);
    iommu::Iommu iommu(DeviceId(1));
    kernel.RegisterDevice(DeviceId(1), &iommu);
    sim::SimTime last;
    for (int i = 0; i < 16; ++i) {
      kernel.AllocMemory(DeviceId(1), Pasid(7), kPageSize,
                         [&, i](Result<VirtAddr>) { last = simulator.Now(); });
    }
    simulator.Run();
    return last.nanos();
  };
  EXPECT_LT(run_with_cores(8), run_with_cores(1) / 3);
}

TEST_F(KernelTest, GrantRequiresOwnership) {
  auto vaddr = AllocSync(Pasid(7), kPageSize);
  ASSERT_TRUE(vaddr.ok());
  std::optional<Status> denied;
  kernel_.Grant(DeviceId(2), Pasid(7), *vaddr, kPageSize, DeviceId(2), Access::kRead,
                [&](Status s) { denied = s; });
  simulator_.Run();
  EXPECT_EQ(denied->code(), StatusCode::kPermissionDenied);

  std::optional<Status> granted;
  kernel_.Grant(DeviceId(1), Pasid(7), *vaddr, kPageSize, DeviceId(2), Access::kRead,
                [&](Status s) { granted = s; });
  simulator_.Run();
  ASSERT_TRUE(granted->ok());
  EXPECT_EQ(ssd_iommu_.mapped_pages(Pasid(7)), 1u);
}

TEST_F(KernelTest, RevokeUnmapsGrantee) {
  auto vaddr = AllocSync(Pasid(7), kPageSize);
  std::optional<Status> status;
  kernel_.Grant(DeviceId(1), Pasid(7), *vaddr, kPageSize, DeviceId(2), Access::kRead,
                [&](Status s) { status = s; });
  simulator_.Run();
  ASSERT_TRUE(status->ok());
  kernel_.Revoke(DeviceId(1), Pasid(7), *vaddr, kPageSize, DeviceId(2),
                 [&](Status s) { status = s; });
  simulator_.Run();
  ASSERT_TRUE(status->ok());
  EXPECT_EQ(ssd_iommu_.mapped_pages(Pasid(7)), 0u);
}

TEST_F(KernelTest, FreeChecksOwnerAndReclaims) {
  auto vaddr = AllocSync(Pasid(7), 2 * kPageSize);
  std::optional<Status> status;
  kernel_.FreeMemory(DeviceId(2), Pasid(7), *vaddr, 2 * kPageSize,
                     [&](Status s) { status = s; });
  simulator_.Run();
  EXPECT_EQ(status->code(), StatusCode::kPermissionDenied);
  kernel_.FreeMemory(DeviceId(1), Pasid(7), *vaddr, 2 * kPageSize,
                     [&](Status s) { status = s; });
  simulator_.Run();
  ASSERT_TRUE(status->ok());
  EXPECT_EQ(kernel_.AllocatedBytes(Pasid(7)), 0u);
  EXPECT_EQ(nic_iommu_.mapped_pages(Pasid(7)), 0u);
}

TEST_F(KernelTest, TeardownDropsEverything) {
  auto a = AllocSync(Pasid(7), kPageSize);
  ASSERT_TRUE(a.ok());
  std::optional<Status> status;
  kernel_.Grant(DeviceId(1), Pasid(7), *a, kPageSize, DeviceId(2), Access::kRead,
                [&](Status s) { status = s; });
  simulator_.Run();
  kernel_.Teardown(Pasid(7), [&](Status s) { status = s; });
  simulator_.Run();
  ASSERT_TRUE(status->ok());
  EXPECT_EQ(kernel_.AllocatedBytes(Pasid(7)), 0u);
  EXPECT_EQ(nic_iommu_.mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(ssd_iommu_.mapped_pages(Pasid(7)), 0u);
}

// With tracing off a kernel op formats no span detail. A warmed-up
// Alloc/Grant/Free makes the same allocations whatever the lengths of the
// numbers a detail would print: "pasid=7 bytes=1" fits the 15-character
// small-string buffer, and "pasid=7 bytes=4095" would not.
TEST_F(KernelTest, UntracedOpsFormatNoSpanDetail) {
  auto cycle = [&](uint64_t bytes) -> uint64_t {
    const uint64_t before = alloc_counter::Calls();
    auto vaddr = client_.AllocSync(Pasid(7), bytes);
    EXPECT_TRUE(vaddr.ok());
    EXPECT_TRUE(client_.GrantSync(Pasid(7), *vaddr, bytes, DeviceId(2), Access::kRead).ok());
    EXPECT_TRUE(client_.FreeSync(Pasid(7), *vaddr, bytes).ok());
    return alloc_counter::Calls() - before;
  };
  cycle(1);
  cycle(kPageSize - 1);
  EXPECT_EQ(cycle(1), cycle(kPageSize - 1));
}

TEST_F(KernelTest, MediateIoCostsCpuTime) {
  sim::SimTime before = simulator_.Now();
  bool done = false;
  kernel_.MediateIo(sim::Duration::Micros(1), [&] { done = true; });
  simulator_.Run();
  EXPECT_TRUE(done);
  EXPECT_GE((simulator_.Now() - before).nanos(), 2000u + 300u + 800u + 1000u);
}

// --- ControlClient parity over both designs -----------------------------------

TEST(ControlClientTest, BothDesignsImplementTheSamePolicy) {
  // Decentralized machine.
  core::Machine machine;
  auto& memctrl = machine.AddMemoryController();
  testutil::TestDevice nic(machine.NextDeviceId(), "nic", machine.Context());
  testutil::TestDevice ssd(machine.NextDeviceId(), "ssd", machine.Context());
  nic.PowerOn();
  ssd.PowerOn();
  machine.Boot();
  core::BusControlClient bus_client(&nic, memctrl.id());

  // Centralized baseline with the same devices.
  sim::Simulator kernel_simulator;
  mem::PhysicalMemory kernel_memory(256 << 20);
  baseline::CentralKernel kernel(&kernel_simulator, &kernel_memory);
  iommu::Iommu knic(DeviceId(1));
  iommu::Iommu kssd(DeviceId(2));
  kernel.RegisterDevice(DeviceId(1), &knic);
  kernel.RegisterDevice(DeviceId(2), &kssd);
  core::KernelControlClient kernel_client(&kernel, DeviceId(1));

  // The identical sequence must succeed identically in both designs. The
  // sync wrappers drive each client's own simulator until completion.
  auto run_sequence = [](core::ControlClient& client, DeviceId grantee) {
    Result<VirtAddr> vaddr = client.AllocSync(Pasid(7), 2 * kPageSize);
    ASSERT_TRUE(vaddr.ok()) << vaddr.status().ToString();
    Result<void> granted = client.GrantSync(Pasid(7), *vaddr, 2 * kPageSize, grantee,
                                            Access::kRead);
    EXPECT_TRUE(granted.ok()) << granted.status().ToString();
    Result<void> freed = client.FreeSync(Pasid(7), *vaddr, 2 * kPageSize);
    EXPECT_TRUE(freed.ok()) << freed.status().ToString();
  };

  run_sequence(bus_client, ssd.id());
  run_sequence(kernel_client, DeviceId(2));

  EXPECT_EQ(nic.iommu().mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(knic.mapped_pages(Pasid(7)), 0u);
}

// --- One lease table under both designs --------------------------------------
//
// The same operations on the decentralized machine (a memory controller
// behind the bus) and on the centralized kernel must end in the same
// statuses, counters and table state. Device 0 issues the operations;
// devices 1 and 2 are its peers. A design built with `doomed` set can kill
// that device for good with Quarantine().

class StubDevice : public dev::Device {
 public:
  StubDevice(DeviceId id, const dev::DeviceContext& context) : dev::Device(id, "stub", context) {}
};

class BusDesign {
 public:
  explicit BusDesign(int doomed = -1) : machine_(Config(doomed)) {
    memctrl_ = &machine_.AddMemoryController();
    for (int i = 0; i < 3; ++i) {
      devices_.push_back(&machine_.Emplace<StubDevice>());
    }
    machine_.Boot();
    for (StubDevice* device : devices_) {
      clients_.push_back(std::make_unique<core::BusControlClient>(device, memctrl_->id()));
    }
  }

  core::ControlClient& client(int i) { return *clients_[i]; }
  DeviceId id(int i) const { return devices_[i]->id(); }
  iommu::Iommu& iommu(int i) { return devices_[i]->iommu(); }
  uint64_t GrantsHeldBy(DeviceId device) const { return memctrl_->GrantsHeldBy(device); }
  uint64_t AllocatedBytes(Pasid pasid) const { return memctrl_->AllocatedBytes(pasid); }
  uint64_t Counter(std::string_view name) { return memctrl_->stats().GetCounter(name).value(); }
  // Device `owner` revokes `grantee`'s grant on [vaddr, vaddr + bytes).
  Result<void> Revoke(int owner, Pasid pasid, VirtAddr vaddr, uint64_t bytes, int grantee) {
    std::optional<Result<void>> out;
    devices_[owner]->rpc().Call<void>(kBusDevice,
                                      proto::RevokeRequest{pasid, vaddr, bytes, id(grantee)},
                                      [&out](Result<void> result) { out = std::move(result); });
    while (!out && machine_.simulator().Step()) {
    }
    return out.value_or(TimedOut("revoke never completed"));
  }
  // The bus broadcasts the application's teardown; the controller unmaps
  // every holder and drops the table.
  void Teardown(Pasid pasid) {
    machine_.TeardownApplication(pasid);
    machine_.RunUntilIdle();
  }
  // The crash plan kills the doomed device at 2ms; let its supervised
  // episode run out.
  void Quarantine(int i) {
    machine_.RunFor(sim::Duration::Millis(20));
    machine_.RunUntilIdle();
    EXPECT_TRUE(machine_.bus().supervisor().IsQuarantined(id(i)));
  }

 private:
  static core::MachineConfig Config(int doomed) {
    core::MachineConfig config;
    if (doomed >= 0) {
      sim::CrashSpec kill;
      kill.device = 2 + doomed;  // the memory controller is device 1
      kill.at = sim::Duration::Millis(2);
      kill.respawn = sim::CrashSpec::Respawn::kNever;
      config.crash_plan.crashes = {kill};
    }
    return config;
  }

  core::Machine machine_;
  memdev::MemoryController* memctrl_ = nullptr;
  std::vector<StubDevice*> devices_;
  std::vector<std::unique_ptr<core::BusControlClient>> clients_;
};

class KernelDesign {
 public:
  explicit KernelDesign(int /*doomed*/ = -1) : memory_(64 << 20), kernel_(&simulator_, &memory_) {
    for (uint32_t i = 0; i < 3; ++i) {
      iommus_.push_back(std::make_unique<iommu::Iommu>(DeviceId(i + 2)));
      kernel_.RegisterDevice(DeviceId(i + 2), iommus_.back().get());
      clients_.push_back(std::make_unique<core::KernelControlClient>(&kernel_, DeviceId(i + 2)));
    }
  }

  core::ControlClient& client(int i) { return *clients_[i]; }
  DeviceId id(int i) const { return DeviceId(i + 2); }
  iommu::Iommu& iommu(int i) { return *iommus_[i]; }
  uint64_t GrantsHeldBy(DeviceId device) const { return kernel_.leases().GrantsHeldBy(device); }
  uint64_t AllocatedBytes(Pasid pasid) const { return kernel_.AllocatedBytes(pasid); }
  uint64_t Counter(std::string_view name) { return kernel_.stats().GetCounter(name).value(); }
  Result<void> Revoke(int owner, Pasid pasid, VirtAddr vaddr, uint64_t bytes, int grantee) {
    std::optional<Result<void>> out;
    kernel_.Revoke(id(owner), pasid, vaddr, bytes, id(grantee),
                   [&out](Result<void> result) { out = std::move(result); });
    while (!out && simulator_.Step()) {
    }
    return out.value_or(TimedOut("revoke never completed"));
  }
  void Teardown(Pasid pasid) {
    kernel_.Teardown(pasid, [](Result<void> result) { EXPECT_TRUE(result.ok()); });
    simulator_.Run();
  }
  // Dead silicon: the reset pulses go unanswered until the kernel gives up.
  void Quarantine(int i) {
    kernel_.ReportDeviceFailure(id(i));
    simulator_.Run();
    EXPECT_TRUE(kernel_.IsQuarantined(id(i)));
  }

 private:
  sim::Simulator simulator_;
  mem::PhysicalMemory memory_;
  CentralKernel kernel_;
  std::vector<std::unique_ptr<iommu::Iommu>> iommus_;
  std::vector<std::unique_ptr<core::KernelControlClient>> clients_;
};

template <typename Design>
class LeaseParityTest : public ::testing::Test {};
using Designs = ::testing::Types<BusDesign, KernelDesign>;
TYPED_TEST_SUITE(LeaseParityTest, Designs);

TYPED_TEST(LeaseParityTest, SelfGrantIsInvalidArgument) {
  TypeParam design;
  auto vaddr = design.client(0).AllocSync(Pasid(7), 2 * kPageSize);
  ASSERT_TRUE(vaddr.ok()) << vaddr.status().ToString();
  auto granted =
      design.client(0).GrantSync(Pasid(7), *vaddr, 2 * kPageSize, design.id(0), Access::kRead);
  EXPECT_EQ(granted.status().code(), StatusCode::kInvalidArgument) << granted.status().ToString();
  EXPECT_EQ(design.GrantsHeldBy(design.id(0)), 0u);
}

TYPED_TEST(LeaseParityTest, QuarantinedGranteeOnlyLosesItsGrant) {
  TypeParam design(/*doomed=*/1);
  auto vaddr = design.client(0).AllocSync(Pasid(7), 2 * kPageSize);
  ASSERT_TRUE(vaddr.ok()) << vaddr.status().ToString();
  ASSERT_TRUE(
      design.client(0).GrantSync(Pasid(7), *vaddr, 2 * kPageSize, design.id(1), Access::kRead).ok());
  design.Quarantine(1);
  // The grant it held is dropped; the survivor's region stays. Nothing was
  // stranded: no survivor held a grant into the corpse's memory.
  EXPECT_EQ(design.GrantsHeldBy(design.id(1)), 0u);
  EXPECT_EQ(design.AllocatedBytes(Pasid(7)), 2 * kPageSize);
  EXPECT_EQ(design.Counter("stranded_grants_reclaimed"), 0u);
  EXPECT_EQ(design.Counter("permanent_reclaims"), 0u);
}

TYPED_TEST(LeaseParityTest, QuarantinedOwnerStrandsItsGranteesGrant) {
  TypeParam design(/*doomed=*/1);
  auto vaddr = design.client(1).AllocSync(Pasid(7), 3 * kPageSize);
  ASSERT_TRUE(vaddr.ok()) << vaddr.status().ToString();
  ASSERT_TRUE(
      design.client(1).GrantSync(Pasid(7), *vaddr, 3 * kPageSize, design.id(0), Access::kRead).ok());
  EXPECT_EQ(design.iommu(0).mapped_pages(Pasid(7)), 3u);
  design.Quarantine(1);
  // The corpse's region is released and unmapped from the survivor it was
  // granted to: one stranded grant, one reclaimed allocation.
  EXPECT_EQ(design.GrantsHeldBy(design.id(0)), 0u);
  EXPECT_EQ(design.AllocatedBytes(Pasid(7)), 0u);
  EXPECT_EQ(design.iommu(0).mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(design.Counter("stranded_grants_reclaimed"), 1u);
  EXPECT_EQ(design.Counter("permanent_reclaims"), 1u);
}

TYPED_TEST(LeaseParityTest, FailedGrantLeavesNoRecord) {
  TypeParam design;
  auto vaddr = design.client(0).AllocSync(Pasid(7), 2 * kPageSize);
  ASSERT_TRUE(vaddr.ok()) << vaddr.status().ToString();
  // Nothing is attached under this id, so mapping the grantee fails.
  const DeviceId detached(77);
  auto granted =
      design.client(0).GrantSync(Pasid(7), *vaddr, 2 * kPageSize, detached, Access::kRead);
  EXPECT_EQ(granted.status().code(), StatusCode::kNotFound) << granted.status().ToString();
  EXPECT_EQ(design.GrantsHeldBy(detached), 0u);
  EXPECT_TRUE(design.client(0).FreeSync(Pasid(7), *vaddr, 2 * kPageSize).ok());
  EXPECT_EQ(design.AllocatedBytes(Pasid(7)), 0u);
}

// A grant overlapping one the grantee already holds would map its first
// pages and then fail on the overlap, leaving those pages mapped with no
// grant record behind them; after the revoke and the free, the grantee
// would still reach freed frames. The table refuses it before any mapping.
TYPED_TEST(LeaseParityTest, OverlappingGrantIsRefusedBeforeMapping) {
  TypeParam design;
  auto vaddr = design.client(0).AllocSync(Pasid(7), 4 * kPageSize);
  ASSERT_TRUE(vaddr.ok()) << vaddr.status().ToString();
  VirtAddr upper(vaddr->raw + 2 * kPageSize);
  ASSERT_TRUE(
      design.client(0).GrantSync(Pasid(7), upper, 2 * kPageSize, design.id(1), Access::kRead).ok());
  auto whole =
      design.client(0).GrantSync(Pasid(7), *vaddr, 4 * kPageSize, design.id(1), Access::kRead);
  EXPECT_EQ(whole.status().code(), StatusCode::kAlreadyExists) << whole.status().ToString();
  EXPECT_EQ(design.iommu(1).mapped_pages(Pasid(7)), 2u);
  EXPECT_EQ(design.GrantsHeldBy(design.id(1)), 1u);

  Result<void> revoked = design.Revoke(0, Pasid(7), upper, 2 * kPageSize, 1);
  EXPECT_TRUE(revoked.ok()) << revoked.status().ToString();
  EXPECT_TRUE(design.client(0).FreeSync(Pasid(7), *vaddr, 4 * kPageSize).ok());
  EXPECT_EQ(design.iommu(1).mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(design.GrantsHeldBy(design.id(1)), 0u);
  EXPECT_EQ(design.AllocatedBytes(Pasid(7)), 0u);
}

// A grant of part of an allocation must be unmapped on exactly its own pages
// when the allocation goes: the bus stops a directive at the first page its
// target does not map, so an unmap from the allocation's first page would
// leave the grantee mapping freed frames. Device `owner` allocates 4 pages
// and grants the upper 2 to `grantee`; each case then releases the
// allocation a different way.
template <typename Design>
Result<VirtAddr> AllocAndGrantUpperHalf(Design& design, int owner, int grantee) {
  auto vaddr = design.client(owner).AllocSync(Pasid(7), 4 * kPageSize);
  if (!vaddr.ok()) {
    return vaddr.status();
  }
  Result<void> granted = design.client(owner).GrantSync(
      Pasid(7), VirtAddr(vaddr->raw + 2 * kPageSize), 2 * kPageSize, design.id(grantee),
      Access::kRead);
  if (!granted.ok()) {
    return granted.status();
  }
  EXPECT_EQ(design.iommu(grantee).mapped_pages(Pasid(7)), 2u);
  return vaddr;
}

TYPED_TEST(LeaseParityTest, FreeUnmapsAPartialGrant) {
  TypeParam design;
  auto vaddr = AllocAndGrantUpperHalf(design, 0, 1);
  ASSERT_TRUE(vaddr.ok()) << vaddr.status().ToString();
  EXPECT_TRUE(design.client(0).FreeSync(Pasid(7), *vaddr, 4 * kPageSize).ok());
  EXPECT_EQ(design.iommu(1).mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(design.iommu(0).mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(design.AllocatedBytes(Pasid(7)), 0u);
}

TYPED_TEST(LeaseParityTest, BatchFreeUnmapsAPartialGrant) {
  TypeParam design;
  auto vaddr = AllocAndGrantUpperHalf(design, 0, 1);
  ASSERT_TRUE(vaddr.ok()) << vaddr.status().ToString();
  EXPECT_TRUE(design.client(0).FreeBatchSync(Pasid(7), {*vaddr}, 4 * kPageSize).ok());
  EXPECT_EQ(design.iommu(1).mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(design.iommu(0).mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(design.AllocatedBytes(Pasid(7)), 0u);
}

TYPED_TEST(LeaseParityTest, TeardownUnmapsAPartialGrant) {
  TypeParam design;
  auto vaddr = AllocAndGrantUpperHalf(design, 0, 1);
  ASSERT_TRUE(vaddr.ok()) << vaddr.status().ToString();
  design.Teardown(Pasid(7));
  EXPECT_EQ(design.iommu(1).mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(design.iommu(0).mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(design.AllocatedBytes(Pasid(7)), 0u);
}

TYPED_TEST(LeaseParityTest, QuarantinedOwnerUnmapsAPartialGrant) {
  TypeParam design(/*doomed=*/1);
  auto vaddr = AllocAndGrantUpperHalf(design, 1, 0);
  ASSERT_TRUE(vaddr.ok()) << vaddr.status().ToString();
  design.Quarantine(1);
  EXPECT_EQ(design.iommu(0).mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(design.GrantsHeldBy(design.id(0)), 0u);
  EXPECT_EQ(design.AllocatedBytes(Pasid(7)), 0u);
}

// A revoke names one grant by its exact range. Revoking the upper of two
// grants one grantee holds must drop that record, not the first one: then
// the table and the IOMMU agree, and the upper half can be granted again.
TYPED_TEST(LeaseParityTest, RevokeDropsTheNamedGrant) {
  TypeParam design;
  auto vaddr = design.client(0).AllocSync(Pasid(7), 4 * kPageSize);
  ASSERT_TRUE(vaddr.ok()) << vaddr.status().ToString();
  VirtAddr upper(vaddr->raw + 2 * kPageSize);
  for (VirtAddr half : {*vaddr, upper}) {
    ASSERT_TRUE(design.client(0)
                    .GrantSync(Pasid(7), half, 2 * kPageSize, design.id(1), Access::kRead)
                    .ok());
  }
  ASSERT_EQ(design.iommu(1).mapped_pages(Pasid(7)), 4u);

  Result<void> revoked = design.Revoke(0, Pasid(7), upper, 2 * kPageSize, 1);
  EXPECT_TRUE(revoked.ok()) << revoked.status().ToString();
  EXPECT_EQ(design.iommu(1).mapped_pages(Pasid(7)), 2u);
  EXPECT_TRUE(design.iommu(1).Translate(Pasid(7), *vaddr, Access::kRead).ok());
  EXPECT_FALSE(design.iommu(1).Translate(Pasid(7), upper, Access::kRead).ok());
  EXPECT_EQ(design.GrantsHeldBy(design.id(1)), 1u);

  auto regranted =
      design.client(0).GrantSync(Pasid(7), upper, 2 * kPageSize, design.id(1), Access::kRead);
  EXPECT_TRUE(regranted.ok()) << regranted.status().ToString();
  EXPECT_EQ(design.iommu(1).mapped_pages(Pasid(7)), 4u);
  EXPECT_EQ(design.GrantsHeldBy(design.id(1)), 2u);
  // A range that is not exactly one grant names none.
  Result<void> inexact = design.Revoke(0, Pasid(7), *vaddr, kPageSize, 1);
  EXPECT_EQ(inexact.status().code(), StatusCode::kNotFound) << inexact.status().ToString();
  EXPECT_EQ(design.iommu(1).mapped_pages(Pasid(7)), 4u);
  EXPECT_TRUE(design.client(0).FreeSync(Pasid(7), *vaddr, 4 * kPageSize).ok());
  EXPECT_EQ(design.iommu(1).mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(design.GrantsHeldBy(design.id(1)), 0u);
}

TEST_F(KernelTest, BatchedSyscallsLeaseAndSettle) {
  auto leased = client_.AllocBatchSync(Pasid(7), 2 * kPageSize, 8);
  ASSERT_TRUE(leased.ok()) << leased.status().ToString();
  ASSERT_EQ(leased->size(), 8u);
  EXPECT_EQ(nic_iommu_.mapped_pages(Pasid(7)), 16u);
  EXPECT_EQ(kernel_.AllocatedBytes(Pasid(7)), 16 * kPageSize);

  ASSERT_TRUE(client_.FreeBatchSync(Pasid(7), *leased, 2 * kPageSize).ok());
  EXPECT_EQ(nic_iommu_.mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(kernel_.AllocatedBytes(Pasid(7)), 0u);
  EXPECT_EQ(kernel_.stats().GetCounter("batch_allocs").value(), 1u);
  EXPECT_EQ(kernel_.stats().GetCounter("batch_frees").value(), 1u);
}

TEST_F(KernelTest, BatchPaysOneInterruptNotN) {
  // N singles: N interrupts + N syscall entries. One batch of N: one of each,
  // with the same per-allocation service work. The batch must be cheaper.
  sim::SimTime start = simulator_.Now();
  std::vector<VirtAddr> singles;
  for (int i = 0; i < 8; ++i) {
    auto vaddr = AllocSync(Pasid(7), kPageSize);
    ASSERT_TRUE(vaddr.ok());
    singles.push_back(*vaddr);
  }
  sim::Duration singles_cost = simulator_.Now() - start;

  start = simulator_.Now();
  auto leased = client_.AllocBatchSync(Pasid(8), kPageSize, 8);
  ASSERT_TRUE(leased.ok());
  sim::Duration batch_cost = simulator_.Now() - start;
  EXPECT_LT(batch_cost.nanos(), singles_cost.nanos());
}

TEST_F(KernelTest, BatchFreeValidatesAsOneUnit) {
  auto leased = client_.AllocBatchSync(Pasid(7), kPageSize, 2);
  ASSERT_TRUE(leased.ok());
  // One bad vaddr poisons the whole batch: nothing is freed.
  std::vector<VirtAddr> mixed = *leased;
  mixed.push_back(VirtAddr(0xdead << kPageShift));
  auto freed = client_.FreeBatchSync(Pasid(7), mixed, kPageSize);
  EXPECT_FALSE(freed.ok());
  EXPECT_EQ(kernel_.AllocatedBytes(Pasid(7)), 2 * kPageSize);
}

// --- Device supervision as kernel software -----------------------------------
//
// Every decision is a CPU trip: interrupt (2us) + syscall entry (300ns) +
// io_service (800ns) = 3.1us on an idle core. The expected times below are
// exact simulated nanoseconds.

class KernelSupervisionTest : public ::testing::Test {
 protected:
  explicit KernelSupervisionTest(CentralKernelConfig config = {})
      : memory_(64 << 20), kernel_(&simulator_, &memory_, config), nic_(DeviceId(1)),
        ssd_(DeviceId(2)) {
    kernel_.RegisterDevice(DeviceId(1), &nic_);
    kernel_.RegisterDevice(DeviceId(2), &ssd_);
    kernel_.SetResetHandler([this](DeviceId device) {
      pulses_.push_back(simulator_.Now().nanos());
      if (on_reset_) {
        on_reset_(device);
      }
    });
    kernel_.SetQuarantineHandler([this](DeviceId, const std::string&) {
      quarantined_at_.push_back(simulator_.Now().nanos());
      if (on_quarantine_) {
        on_quarantine_();
      }
    });
  }

  uint64_t Counter(std::string_view name) { return kernel_.stats().GetCounter(name).value(); }

  sim::Simulator simulator_;
  mem::PhysicalMemory memory_;
  CentralKernel kernel_;
  iommu::Iommu nic_;
  iommu::Iommu ssd_;
  std::function<void(DeviceId)> on_reset_;
  std::function<void()> on_quarantine_;
  std::vector<uint64_t> pulses_;
  std::vector<uint64_t> quarantined_at_;
};

TEST_F(KernelSupervisionTest, UnansweredPulsesEndInQuarantine) {
  kernel_.ReportDeviceFailure(DeviceId(2));
  simulator_.Run();
  // Pulse 1 right after the failure trip; each later one after a missed
  // 500us deadline, a CPU trip, and a 50/100/200us backoff.
  EXPECT_EQ(pulses_, (std::vector<uint64_t>{3'100, 556'200, 1'159'300, 1'862'400}));
  EXPECT_EQ(quarantined_at_, (std::vector<uint64_t>{2'365'500}));
  EXPECT_TRUE(kernel_.IsQuarantined(DeviceId(2)));
  EXPECT_FALSE(kernel_.IsQuarantined(DeviceId(1)));
  EXPECT_EQ(kernel_.RestartAttempts(DeviceId(2)), 4u);
  EXPECT_EQ(Counter("device_failures"), 1u);
  EXPECT_EQ(Counter("supervisor_restarts"), 4u);
  EXPECT_EQ(Counter("supervisor_restart_timeouts"), 4u);
  EXPECT_EQ(Counter("supervisor_quarantines"), 1u);
}

TEST_F(KernelSupervisionTest, CrashLoopWindowTripsQuarantine) {
  // The silicon passes self-test 50us after each pulse and dies 100us later:
  // every episode recovers, but the eighth failure inside the 5ms window
  // quarantines it.
  on_reset_ = [this](DeviceId device) {
    simulator_.Schedule(sim::Duration::Micros(50), [this, device] {
      kernel_.OnDeviceAlive(device);
      simulator_.Schedule(sim::Duration::Micros(100),
                          [this, device] { kernel_.ReportDeviceFailure(device); });
    });
  };
  kernel_.ReportDeviceFailure(DeviceId(2));
  simulator_.Run();
  EXPECT_EQ(pulses_, (std::vector<uint64_t>{3'100, 156'200, 309'300, 462'400, 615'500, 768'600,
                                            921'700}));
  EXPECT_EQ(quarantined_at_, (std::vector<uint64_t>{1'074'800}));
  EXPECT_TRUE(kernel_.IsQuarantined(DeviceId(2)));
  EXPECT_EQ(Counter("device_failures"), 8u);
  EXPECT_EQ(Counter("supervisor_recoveries"), 7u);
  EXPECT_EQ(Counter("supervisor_quarantines"), 1u);
  EXPECT_EQ(Counter("supervisor_restart_timeouts"), 0u);
}

TEST_F(KernelSupervisionTest, DuplicateReportDuringEpisodeIsCounted) {
  kernel_.ReportDeviceFailure(DeviceId(2));
  kernel_.ReportDeviceFailure(DeviceId(2));  // while the failure trip is queued
  simulator_.Schedule(sim::Duration::Micros(100),
                      [this] { kernel_.ReportDeviceFailure(DeviceId(2)); });  // restarting
  simulator_.Run();
  kernel_.ReportDeviceFailure(DeviceId(2));  // quarantined
  simulator_.Run();
  EXPECT_EQ(Counter("duplicate_failure_reports"), 3u);
  EXPECT_EQ(Counter("device_failures"), 1u);
  EXPECT_EQ(pulses_, (std::vector<uint64_t>{3'100, 556'200, 1'159'300, 1'862'400}));
  EXPECT_EQ(quarantined_at_, (std::vector<uint64_t>{2'365'500}));
}

TEST_F(KernelSupervisionTest, AliveEndsEpisodeAndResetsAttempts) {
  kernel_.ReportDeviceFailure(DeviceId(2));
  simulator_.RunUntil(sim::SimTime::FromNanos(600'000));
  EXPECT_EQ(pulses_, (std::vector<uint64_t>{3'100, 556'200}));
  EXPECT_EQ(kernel_.RestartAttempts(DeviceId(2)), 2u);

  kernel_.OnDeviceAlive(DeviceId(2));
  EXPECT_EQ(kernel_.RestartAttempts(DeviceId(2)), 0u);
  EXPECT_EQ(Counter("supervisor_recoveries"), 1u);
  simulator_.Run();  // the armed deadline is gone: no further pulse
  EXPECT_EQ(pulses_.size(), 2u);
  EXPECT_TRUE(quarantined_at_.empty());

  // A fresh failure opens a fresh episode: its first pulse is immediate.
  uint64_t reported = simulator_.Now().nanos();
  kernel_.ReportDeviceFailure(DeviceId(2));
  simulator_.RunUntil(simulator_.Now() + sim::Duration::Micros(10));
  ASSERT_EQ(pulses_.size(), 3u);
  EXPECT_EQ(pulses_[2] - reported, 3'100u);
  EXPECT_EQ(kernel_.RestartAttempts(DeviceId(2)), 1u);
  EXPECT_EQ(Counter("duplicate_failure_reports"), 0u);
}

class UnsupervisedKernelTest : public KernelSupervisionTest {
 protected:
  static CentralKernelConfig Unsupervised() {
    CentralKernelConfig config;
    config.restart_policy.max_restart_attempts = 0;
    return config;
  }
  UnsupervisedKernelTest() : KernelSupervisionTest(Unsupervised()) {}
};

TEST_F(UnsupervisedKernelTest, PulsesOncePerReport) {
  kernel_.ReportDeviceFailure(DeviceId(2));
  kernel_.ReportDeviceFailure(DeviceId(2));  // same report, trip still queued
  simulator_.Run();
  simulator_.Schedule(sim::Duration::Micros(10),
                      [this] { kernel_.ReportDeviceFailure(DeviceId(2)); });
  simulator_.Run();
  simulator_.Schedule(sim::Duration::Micros(10),
                      [this] { kernel_.ReportDeviceFailure(DeviceId(2)); });
  simulator_.Run();
  EXPECT_EQ(pulses_, (std::vector<uint64_t>{3'100, 16'200, 29'300}));
  EXPECT_TRUE(quarantined_at_.empty());
  EXPECT_FALSE(kernel_.IsQuarantined(DeviceId(2)));
  EXPECT_EQ(Counter("device_failures"), 3u);
  EXPECT_EQ(Counter("duplicate_failure_reports"), 1u);
  EXPECT_EQ(Counter("supervisor_restarts"), 0u);
}

TEST_F(KernelSupervisionTest, QuarantineReclaimsAndBillsPerPage) {
  // The NIC owns a 2-page region granted to the SSD; the SSD owns a 3-page
  // region granted to the NIC.
  core::KernelControlClient nic_client(&kernel_, DeviceId(1));
  core::KernelControlClient ssd_client(&kernel_, DeviceId(2));
  auto nic_region = nic_client.AllocSync(Pasid(7), 2 * kPageSize);
  auto ssd_region = ssd_client.AllocSync(Pasid(7), 3 * kPageSize);
  ASSERT_TRUE(nic_region.ok());
  ASSERT_TRUE(ssd_region.ok());
  ASSERT_TRUE(
      nic_client.GrantSync(Pasid(7), *nic_region, 2 * kPageSize, DeviceId(2), Access::kRead).ok());
  ASSERT_TRUE(
      ssd_client.GrantSync(Pasid(7), *ssd_region, 3 * kPageSize, DeviceId(1), Access::kRead).ok());
  EXPECT_EQ(nic_.mapped_pages(Pasid(7)), 5u);
  uint64_t start = simulator_.Now().nanos();

  // Right after the quarantine decision, queue one zero-work mediation: it
  // waits behind the reclaim trip that bills 3 pages x 60ns on the one core.
  uint64_t mediated_at = 0;
  on_quarantine_ = [this, &mediated_at] {
    kernel_.MediateIo(sim::Duration::Zero(),
                      [this, &mediated_at] { mediated_at = simulator_.Now().nanos(); });
  };
  kernel_.ReportDeviceFailure(DeviceId(2));
  simulator_.Run();
  ASSERT_EQ(quarantined_at_.size(), 1u);
  EXPECT_EQ(quarantined_at_[0] - start, 2'365'500u);
  // Reclaim trip: 2us + 300ns + 180ns; then the mediation: 300ns + 800ns.
  EXPECT_EQ(mediated_at - quarantined_at_[0], 2'000u + 300u + 180u + 300u + 800u);

  // The SSD's region is gone and unmapped from the NIC; the NIC's region
  // survives, still mapped in the NIC.
  EXPECT_EQ(kernel_.AllocatedBytes(Pasid(7)), 2 * kPageSize);
  EXPECT_EQ(nic_.mapped_pages(Pasid(7)), 2u);
  EXPECT_EQ(Counter("permanent_reclaims"), 1u);
  std::optional<Status> freed;
  kernel_.FreeMemory(DeviceId(2), Pasid(7), *ssd_region, 3 * kPageSize,
                     [&](Status s) { freed = s; });
  simulator_.Run();
  EXPECT_EQ(freed->code(), StatusCode::kNotFound);
}

// --- Byte-identity fingerprint of the kernel's cost model --------------------
//
// One scripted run per core count, hashing every operation's completion time
// and status code plus the op_latency and queue_wait histograms. Counter
// names stay out of the hash so bookkeeping counters may change; a timing or
// status change anywhere in the script moves it.

uint64_t KernelScriptFingerprint(uint32_t cores) {
  sim::Simulator simulator;
  mem::PhysicalMemory memory(64 << 20);
  CentralKernelConfig config;
  config.cores = cores;
  config.cross_segment_interrupt_extra = sim::Duration::Micros(3);
  CentralKernel kernel(&simulator, &memory, config);
  // a and d survive; b dies for good; c crash-loops. b and d sit on segment
  // 1 and c on segment 2, so their interrupts pay the surcharge.
  const DeviceId a = MakeSegmentDeviceId(0, 1);
  const DeviceId b = MakeSegmentDeviceId(1, 1);
  const DeviceId c = MakeSegmentDeviceId(2, 1);
  const DeviceId d = MakeSegmentDeviceId(1, 2);
  std::vector<std::unique_ptr<iommu::Iommu>> iommus;
  for (DeviceId device : {a, b, c, d}) {
    iommus.push_back(std::make_unique<iommu::Iommu>(device));
    kernel.RegisterDevice(device, iommus.back().get());
  }

  testutil::Fnv1a hash;
  auto stamp = [&](uint64_t tag) {
    hash.Add(simulator.Now().nanos());
    hash.Add(tag);
  };
  auto status = [&](Status s) { stamp(static_cast<uint64_t>(s.code())); };
  std::map<int, VirtAddr> va;
  std::vector<VirtAddr> batch;
  auto alloc = [&](DeviceId device, Pasid pasid, uint64_t bytes, int slot) {
    kernel.AllocMemory(device, pasid, bytes, [&, slot](Result<VirtAddr> r) {
      status(r.status());
      if (r.ok()) {
        va[slot] = *r;
      }
    });
  };
  auto mediate = [&](uint64_t micros) {
    kernel.MediateIo(sim::Duration::Micros(micros), [&] { stamp(100); });
  };

  // Phase 1: a burst of singles and batches, two of them malformed.
  alloc(a, Pasid(7), 3 * kPageSize, 1);
  alloc(a, Pasid(7), kPageSize, 2);
  alloc(b, Pasid(7), 2 * kPageSize, 3);
  alloc(d, Pasid(8), 4 * kPageSize, 4);
  alloc(c, Pasid(8), kPageSize, 5);
  alloc(a, Pasid(7), 0, 6);
  kernel.AllocMemoryBatch(a, Pasid(9), 2 * kPageSize, 4, [&](Result<std::vector<VirtAddr>> r) {
    status(r.status());
    if (r.ok()) {
      batch = *r;
    }
  });
  kernel.AllocMemoryBatch(b, Pasid(7), kPageSize, 0,
                          [&](Result<std::vector<VirtAddr>> r) { status(r.status()); });
  mediate(1);
  simulator.Run();
  EXPECT_EQ(va.size(), 5u);
  EXPECT_EQ(batch.size(), 4u);
  if (batch.size() != 4) {
    return 0;
  }

  // Phase 2: grants in every direction, a batch free, and denied requests.
  kernel.Grant(a, Pasid(7), va[1], 3 * kPageSize, b, Access::kReadWrite, status);
  kernel.Grant(a, Pasid(7), va[2], kPageSize, d, Access::kRead, status);
  kernel.Grant(b, Pasid(7), va[3], 2 * kPageSize, a, Access::kReadWrite, status);
  kernel.Grant(b, Pasid(7), va[3], kPageSize, d, Access::kRead, status);
  kernel.Grant(d, Pasid(8), va[4], 4 * kPageSize, c, Access::kRead, status);
  kernel.Grant(c, Pasid(8), va[5], kPageSize, a, Access::kRead, status);
  kernel.Grant(b, Pasid(7), va[1], kPageSize, d, Access::kRead, status);  // not b's
  kernel.Grant(a, Pasid(7), VirtAddr(0x40000000), kPageSize, d, Access::kRead, status);
  kernel.FreeMemoryBatch(a, Pasid(9), {batch[0], batch[1]}, 2 * kPageSize, status);
  kernel.FreeMemoryBatch(a, Pasid(9), {batch[2], VirtAddr(0x50000000)}, 2 * kPageSize, status);
  kernel.FreeMemory(d, Pasid(7), va[1], 3 * kPageSize, status);  // not d's
  mediate(2);
  simulator.Run();

  // Phase 3: revokes, frees and teardowns.
  kernel.Revoke(a, Pasid(7), va[2], kPageSize, d, status);
  kernel.Revoke(a, Pasid(7), va[2], kPageSize, d, status);  // already revoked
  kernel.FreeMemory(a, Pasid(7), va[2], kPageSize, status);
  kernel.FreeMemory(a, Pasid(7), va[2], kPageSize, status);  // already freed
  kernel.Teardown(Pasid(9), status);
  kernel.Teardown(Pasid(42), status);
  simulator.Run();

  // Phase 4: b is dead silicon; c crash-loops (self-test passes 50us after
  // each pulse, then it dies again 100us later). Both end in quarantine and
  // reclaim while allocations keep arriving.
  kernel.SetResetHandler([&](DeviceId device) {
    stamp(200 + device.value());
    if (device == c) {
      simulator.Schedule(sim::Duration::Micros(50), [&, device] {
        kernel.OnDeviceAlive(device);
        simulator.Schedule(sim::Duration::Micros(100),
                           [&, device] { kernel.ReportDeviceFailure(device); });
      });
    }
  });
  kernel.SetQuarantineHandler([&](DeviceId device, const std::string&) {
    stamp(300 + device.value());
    mediate(0);
  });
  kernel.ReportDeviceFailure(b);
  kernel.ReportDeviceFailure(c);
  kernel.ReportDeviceFailure(b);  // duplicate
  alloc(a, Pasid(7), 2 * kPageSize, 7);
  simulator.Schedule(sim::Duration::Micros(700), [&] {
    alloc(d, Pasid(8), kPageSize, 8);
    kernel.ReportDeviceFailure(b);  // duplicate mid-episode
  });
  simulator.Run();
  EXPECT_TRUE(kernel.IsQuarantined(b));
  EXPECT_TRUE(kernel.IsQuarantined(c));
  EXPECT_FALSE(kernel.IsQuarantined(a));

  // Phase 5: the kernel panics and warm-reboots with work queued behind it.
  kernel.SimulateKernelFailover(sim::Duration::Micros(200), status);
  alloc(a, Pasid(7), kPageSize, 9);
  kernel.FreeMemory(d, Pasid(8), va[4], 4 * kPageSize, status);
  mediate(1);
  simulator.Run();
  kernel.Teardown(Pasid(7), status);
  kernel.Teardown(Pasid(8), status);
  simulator.Run();

  const sim::Histogram& queue_wait = kernel.stats().GetHistogram("queue_wait");
  for (const sim::Histogram* histogram : {&kernel.op_latency(), &queue_wait}) {
    hash.Add(histogram->count());
    hash.Add(histogram->min());
    hash.Add(histogram->max());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      hash.Add(histogram->ValueAtQuantile(q));
    }
  }
  return hash.value();
}

TEST(KernelFingerprint, OneCore) {
  testutil::ExpectFingerprint("KernelFingerprint/1core", KernelScriptFingerprint(1));
}

TEST(KernelFingerprint, FourCores) {
  testutil::ExpectFingerprint("KernelFingerprint/4cores", KernelScriptFingerprint(4));
}

}  // namespace
}  // namespace lastcpu::baseline

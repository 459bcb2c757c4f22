// Memory controller tests: the full Figure-2 memory path — allocation with
// bus-programmed IOMMU mappings, grants with owner authorization, revoke,
// free, quota, teardown — verified end to end with real DMA through the
// fabric.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "src/memdev/memory_controller.h"
#include "tests/test_util.h"

namespace lastcpu::memdev {
namespace {

using testutil::Harness;
using testutil::TestDevice;

class MemoryControllerTest : public ::testing::Test {
 protected:
  MemoryControllerTest()
      : controller_(DeviceId(3), harness_.Context(), &harness_.memory),
        nic_(DeviceId(1), "nic", harness_.Context()),
        ssd_(DeviceId(2), "ssd", harness_.Context()) {
    controller_.PowerOn();
    nic_.PowerOn();
    ssd_.PowerOn();
    harness_.simulator.Run();
  }

  // Issues a MemAllocRequest from `device` and runs to completion.
  Result<proto::MemAllocResponse> Alloc(testutil::TestDevice& device, Pasid pasid, uint64_t bytes,
                                        VirtAddr hint = VirtAddr(0),
                                        Access access = Access::kReadWrite) {
    std::optional<Result<proto::MemAllocResponse>> outcome;
    device.rpc().Call<proto::MemAllocResponse>(
        DeviceId(3), proto::MemAllocRequest{pasid, bytes, hint, access},
        [&](Result<proto::MemAllocResponse> result) { outcome = std::move(result); });
    harness_.simulator.Run();
    LASTCPU_CHECK(outcome.has_value(), "alloc never completed");
    return *outcome;
  }

  // Sends a grant/revoke/free via the bus and returns the terminal status.
  Status RoundTrip(testutil::TestDevice& device, proto::Payload payload) {
    std::optional<Status> outcome;
    device.rpc().Call<void>(kBusDevice, std::move(payload),
                            [&](Result<void> result) { outcome = result.status(); });
    harness_.simulator.Run();
    LASTCPU_CHECK(outcome.has_value(), "request never completed");
    return *outcome;
  }

  Harness harness_;
  MemoryController controller_;
  TestDevice nic_;
  TestDevice ssd_;
};

TEST_F(MemoryControllerTest, ControllerIsElectedByBus) {
  EXPECT_EQ(harness_.bus.memory_controller(), DeviceId(3));
}

TEST_F(MemoryControllerTest, AllocMapsRequesterIommu) {
  auto response = Alloc(nic_, Pasid(7), 3 * kPageSize);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->bytes, 3 * kPageSize);
  // The NIC's IOMMU translates the new region without any local programming.
  EXPECT_EQ(nic_.iommu().mapped_pages(Pasid(7)), 3u);
  auto t = nic_.iommu().Translate(Pasid(7), response->vaddr, Access::kWrite);
  EXPECT_TRUE(t.ok());
  // The SSD's IOMMU knows nothing of it (isolation).
  EXPECT_EQ(ssd_.iommu().mapped_pages(Pasid(7)), 0u);
}

TEST_F(MemoryControllerTest, AllocatedMemoryIsUsableForDma) {
  auto response = Alloc(nic_, Pasid(7), 2 * kPageSize);
  ASSERT_TRUE(response.ok());
  std::vector<uint8_t> data{1, 2, 3, 4, 5, 6, 7, 8};
  bool wrote = false;
  harness_.fabric.DmaWrite(DeviceId(1), Pasid(7), response->vaddr, data, [&](Status s) {
    ASSERT_TRUE(s.ok());
    wrote = true;
  });
  harness_.simulator.Run();
  EXPECT_TRUE(wrote);
}

TEST_F(MemoryControllerTest, AllocZeroFillsMemory) {
  // Write garbage into the first allocation, free it, re-allocate, and verify
  // the new owner sees zeros.
  auto first = Alloc(nic_, Pasid(7), kPageSize);
  ASSERT_TRUE(first.ok());
  harness_.fabric.DmaWrite(DeviceId(1), Pasid(7), first->vaddr,
                           std::vector<uint8_t>(64, 0xAB), [](Status) {});
  harness_.simulator.Run();
  ASSERT_TRUE(RoundTrip(nic_, proto::MemFreeRequest{Pasid(7), first->vaddr, kPageSize}).ok());

  auto second = Alloc(ssd_, Pasid(8), kPageSize);
  ASSERT_TRUE(second.ok());
  std::vector<uint8_t> seen;
  harness_.fabric.DmaRead(DeviceId(2), Pasid(8), second->vaddr, 64,
                          [&](Result<std::vector<uint8_t>> r) {
                            ASSERT_TRUE(r.ok());
                            seen = *r;
                          });
  harness_.simulator.Run();
  ASSERT_EQ(seen.size(), 64u);
  for (uint8_t b : seen) {
    EXPECT_EQ(b, 0);
  }
}

TEST_F(MemoryControllerTest, HintedPlacementHonored) {
  VirtAddr hint(uint64_t{0x200} << kPageShift);
  auto response = Alloc(nic_, Pasid(7), kPageSize, hint);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->vaddr, hint);
}

TEST_F(MemoryControllerTest, OverlappingHintRejected) {
  VirtAddr hint(uint64_t{0x200} << kPageShift);
  ASSERT_TRUE(Alloc(nic_, Pasid(7), 4 * kPageSize, hint).ok());
  auto overlap = Alloc(nic_, Pasid(7), kPageSize, VirtAddr(hint.raw + kPageSize));
  EXPECT_FALSE(overlap.ok());
  EXPECT_EQ(overlap.status().code(), StatusCode::kAlreadyExists);
  // Same hint in a different PASID is fine (address spaces are independent).
  EXPECT_TRUE(Alloc(ssd_, Pasid(8), kPageSize, hint).ok());
}

TEST_F(MemoryControllerTest, MisalignedHintRejected) {
  auto response = Alloc(nic_, Pasid(7), kPageSize, VirtAddr(0x1001));
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MemoryControllerTest, ZeroByteAllocRejected) {
  auto response = Alloc(nic_, Pasid(7), 0);
  EXPECT_FALSE(response.ok());
}

TEST_F(MemoryControllerTest, QuotaEnforced) {
  Harness harness(64 << 20);
  MemoryControllerConfig config;
  config.max_bytes_per_pasid = 4 * kPageSize;
  MemoryController controller(DeviceId(3), harness.Context(), &harness.memory, config);
  TestDevice nic(DeviceId(1), "nic", harness.Context());
  controller.PowerOn();
  nic.PowerOn();
  harness.simulator.Run();

  std::optional<StatusCode> code;
  int ok = 0;
  for (int i = 0; i < 3; ++i) {
    nic.rpc().Call<proto::MemAllocResponse>(
        DeviceId(3), proto::MemAllocRequest{Pasid(7), 2 * kPageSize, VirtAddr(0),
                                            Access::kReadWrite},
        [&](Result<proto::MemAllocResponse> result) {
          if (result.ok()) {
            ++ok;
          } else {
            code = result.status().code();
          }
        });
    harness.simulator.Run();
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(code, StatusCode::kResourceExhausted);
  // A different application is unaffected by the first one's quota.
  bool other_ok = false;
  nic.rpc().Call<proto::MemAllocResponse>(
      DeviceId(3), proto::MemAllocRequest{Pasid(8), 2 * kPageSize, VirtAddr(0),
                                          Access::kReadWrite},
      [&](Result<proto::MemAllocResponse> result) { other_ok = result.ok(); });
  harness.simulator.Run();
  EXPECT_TRUE(other_ok);
}

TEST_F(MemoryControllerTest, OutOfMemorySurfacesCleanly) {
  Harness harness(1 << 20);  // 256 frames
  MemoryController controller(DeviceId(3), harness.Context(), &harness.memory);
  TestDevice nic(DeviceId(1), "nic", harness.Context());
  controller.PowerOn();
  nic.PowerOn();
  harness.simulator.Run();
  std::optional<StatusCode> code;
  nic.rpc().Call<proto::MemAllocResponse>(
      DeviceId(3), proto::MemAllocRequest{Pasid(7), 2 << 20, VirtAddr(0), Access::kReadWrite},
      [&](Result<proto::MemAllocResponse> result) { code = result.status().code(); });
  harness.simulator.Run();
  EXPECT_EQ(code, StatusCode::kResourceExhausted);
}

TEST_F(MemoryControllerTest, GrantMapsGranteeAndDataFlows) {
  // Figure 2 steps 5-7: NIC allocates shared memory, grants it to the SSD.
  auto response = Alloc(nic_, Pasid(7), 2 * kPageSize);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(RoundTrip(nic_, proto::GrantRequest{Pasid(7), response->vaddr, 2 * kPageSize,
                                                  DeviceId(2), Access::kReadWrite})
                  .ok());
  EXPECT_EQ(ssd_.iommu().mapped_pages(Pasid(7)), 2u);

  // NIC writes, SSD reads the same bytes at the same virtual address.
  std::vector<uint8_t> data{0xCA, 0xFE, 0xBA, 0xBE};
  harness_.fabric.DmaWrite(DeviceId(1), Pasid(7), response->vaddr, data, [](Status) {});
  harness_.simulator.Run();
  std::vector<uint8_t> seen;
  harness_.fabric.DmaRead(DeviceId(2), Pasid(7), response->vaddr, 4,
                          [&](Result<std::vector<uint8_t>> r) {
                            ASSERT_TRUE(r.ok());
                            seen = *r;
                          });
  harness_.simulator.Run();
  EXPECT_EQ(seen, data);
}

TEST_F(MemoryControllerTest, GrantByNonOwnerDenied) {
  auto response = Alloc(nic_, Pasid(7), kPageSize);
  ASSERT_TRUE(response.ok());
  // The SSD (not the owner) tries to grant the NIC's region to itself.
  Status status = RoundTrip(ssd_, proto::GrantRequest{Pasid(7), response->vaddr, kPageSize,
                                                      DeviceId(2), Access::kReadWrite});
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(ssd_.iommu().mapped_pages(Pasid(7)), 0u);
}

TEST_F(MemoryControllerTest, GrantCannotExceedOwnerAccess) {
  auto response = Alloc(nic_, Pasid(7), kPageSize, VirtAddr(0), Access::kRead);
  ASSERT_TRUE(response.ok());
  Status status = RoundTrip(nic_, proto::GrantRequest{Pasid(7), response->vaddr, kPageSize,
                                                      DeviceId(2), Access::kReadWrite});
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
}

TEST_F(MemoryControllerTest, GrantOfUnallocatedRegionDenied) {
  Status status = RoundTrip(nic_, proto::GrantRequest{Pasid(7), VirtAddr(0x123000), kPageSize,
                                                      DeviceId(2), Access::kRead});
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(MemoryControllerTest, RevokeUnmapsGrantee) {
  auto response = Alloc(nic_, Pasid(7), kPageSize);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(RoundTrip(nic_, proto::GrantRequest{Pasid(7), response->vaddr, kPageSize,
                                                  DeviceId(2), Access::kRead})
                  .ok());
  ASSERT_EQ(ssd_.iommu().mapped_pages(Pasid(7)), 1u);
  ASSERT_TRUE(
      RoundTrip(nic_, proto::RevokeRequest{Pasid(7), response->vaddr, kPageSize, DeviceId(2)})
          .ok());
  EXPECT_EQ(ssd_.iommu().mapped_pages(Pasid(7)), 0u);
  // Grantee access now faults.
  bool faulted = false;
  harness_.fabric.DmaRead(DeviceId(2), Pasid(7), response->vaddr, 4,
                          [&](Result<std::vector<uint8_t>> r) { faulted = !r.ok(); });
  harness_.simulator.Run();
  EXPECT_TRUE(faulted);
}

TEST_F(MemoryControllerTest, FreeUnmapsOwnerAndGrantees) {
  auto response = Alloc(nic_, Pasid(7), kPageSize);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(RoundTrip(nic_, proto::GrantRequest{Pasid(7), response->vaddr, kPageSize,
                                                  DeviceId(2), Access::kRead})
                  .ok());
  uint64_t frames_before = controller_.allocator().free_frames();
  ASSERT_TRUE(RoundTrip(nic_, proto::MemFreeRequest{Pasid(7), response->vaddr, kPageSize}).ok());
  EXPECT_EQ(nic_.iommu().mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(ssd_.iommu().mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(controller_.allocator().free_frames(), frames_before + 1);
  EXPECT_EQ(controller_.AllocatedBytes(Pasid(7)), 0u);
}

TEST_F(MemoryControllerTest, FreeByNonOwnerDenied) {
  auto response = Alloc(nic_, Pasid(7), kPageSize);
  ASSERT_TRUE(response.ok());
  Status status = RoundTrip(ssd_, proto::MemFreeRequest{Pasid(7), response->vaddr, kPageSize});
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(nic_.iommu().mapped_pages(Pasid(7)), 1u);
}

TEST_F(MemoryControllerTest, TeardownFreesEverything) {
  auto a = Alloc(nic_, Pasid(7), 2 * kPageSize);
  auto b = Alloc(nic_, Pasid(7), 4 * kPageSize);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(RoundTrip(nic_, proto::GrantRequest{Pasid(7), a->vaddr, kPageSize, DeviceId(2),
                                                  Access::kRead})
                  .ok());
  uint64_t total = harness_.memory.num_frames();
  nic_.SendOneWay(kBusDevice, proto::TeardownApp{Pasid(7)});
  harness_.simulator.Run();
  EXPECT_EQ(controller_.allocator().free_frames(), total);
  EXPECT_EQ(controller_.AllocatedBytes(Pasid(7)), 0u);
  EXPECT_EQ(controller_.allocation_count(), 0u);
  EXPECT_EQ(nic_.iommu().mapped_pages(Pasid(7)), 0u);
  EXPECT_EQ(ssd_.iommu().mapped_pages(Pasid(7)), 0u);
}

TEST_F(MemoryControllerTest, AllocationsAccumulateStats) {
  ASSERT_TRUE(Alloc(nic_, Pasid(7), kPageSize).ok());
  ASSERT_TRUE(Alloc(nic_, Pasid(7), kPageSize).ok());
  EXPECT_EQ(controller_.stats().GetCounter("allocations").value(), 2u);
  EXPECT_EQ(controller_.allocation_count(), 2u);
  EXPECT_EQ(controller_.AllocatedBytes(Pasid(7)), 2 * kPageSize);
}

// --- LeaseTable: the ranges each operation hands its caller ------------------

class LeaseTableTest : public ::testing::Test {
 protected:
  static constexpr DeviceId kOwner{1};
  static constexpr DeviceId kGrantee{2};
  static constexpr DeviceId kOther{3};

  mem::PhysicalMemory memory_{1 << 20};  // 256 frames
  sim::StatsRegistry stats_;
  LeaseTable table_{&memory_, &stats_};
};

TEST_F(LeaseTableTest, AllocateBatchOutOfMemoryPartwayTakesNothing) {
  // 16 frames held; of the 240 left, three 64-frame regions fit, a fourth
  // does not.
  ASSERT_TRUE(table_.Allocate(kOwner, Pasid(7), 16, Access::kReadWrite).ok());
  const uint64_t free_frames = table_.allocator().free_frames();
  const uint64_t bytes = table_.AllocatedBytes(Pasid(7));

  auto batch = table_.AllocateBatch(kOwner, Pasid(7), 64, 4, Access::kReadWrite);
  EXPECT_EQ(batch.status().code(), StatusCode::kResourceExhausted) << batch.status().ToString();
  EXPECT_EQ(table_.allocator().free_frames(), free_frames);
  EXPECT_EQ(table_.AllocatedBytes(Pasid(7)), bytes);
  EXPECT_EQ(table_.allocation_count(), 1u);
  EXPECT_EQ(stats_.GetCounter("oom_rejections").value(), 1u);

  // The frames really came back: three regions still fit.
  auto fits = table_.AllocateBatch(kOwner, Pasid(7), 64, 3, Access::kReadWrite);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  ASSERT_EQ(fits->size(), 3u);
  for (const Range& range : *fits) {
    EXPECT_EQ(range.device, kOwner);
    EXPECT_EQ(range.pages, 64u);
  }
  EXPECT_EQ(table_.allocation_count(), 4u);
}

TEST_F(LeaseTableTest, RevokeAndDropGrantRemoveOnlyTheExactGrant) {
  auto owned = table_.Allocate(kOwner, Pasid(7), 4, Access::kReadWrite);
  ASSERT_TRUE(owned.ok());
  const VirtAddr lower = owned->vaddr();
  const VirtAddr upper(lower.raw + 2 * kPageSize);
  ASSERT_TRUE(table_.Grant(kOwner, Pasid(7), lower, 2 * kPageSize, kGrantee, Access::kRead).ok());
  auto granted =
      table_.Grant(kOwner, Pasid(7), upper, 2 * kPageSize, kGrantee, Access::kReadWrite);
  ASSERT_TRUE(granted.ok());
  EXPECT_EQ(granted->vpage, upper.page());
  EXPECT_EQ(granted->first_frame, owned->first_frame + 2);
  ASSERT_TRUE(table_.Grant(kOwner, Pasid(7), lower, 4 * kPageSize, kOther, Access::kRead).ok());

  // Ranges that are not exactly one of the grantee's grants remove nothing.
  EXPECT_EQ(table_.Revoke(kOwner, Pasid(7), lower, kPageSize, kGrantee).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(table_.Revoke(kOwner, Pasid(7), lower, 4 * kPageSize, kGrantee).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(table_.DropGrant(Pasid(7), upper, kPageSize, kGrantee).has_value());
  EXPECT_EQ(table_.GrantsHeldBy(kGrantee), 2u);

  auto revoked = table_.Revoke(kOwner, Pasid(7), upper, 2 * kPageSize, kGrantee);
  ASSERT_TRUE(revoked.ok()) << revoked.status().ToString();
  EXPECT_EQ(revoked->device, kGrantee);
  EXPECT_EQ(revoked->vpage, upper.page());
  EXPECT_EQ(revoked->first_frame, owned->first_frame + 2);
  EXPECT_EQ(revoked->pages, 2u);
  EXPECT_EQ(revoked->access, Access::kReadWrite);
  const Allocation& allocation = table_.TableOf(Pasid(7))->at(lower.page());
  ASSERT_EQ(allocation.grants.size(), 2u);
  EXPECT_EQ(allocation.grants[0].device, kGrantee);
  EXPECT_EQ(allocation.grants[0].vpage, lower.page());
  EXPECT_EQ(allocation.grants[1].device, kOther);

  auto dropped = table_.DropGrant(Pasid(7), lower, 4 * kPageSize, kOther);
  ASSERT_TRUE(dropped.has_value());
  EXPECT_EQ(dropped->device, kOther);
  EXPECT_EQ(dropped->pages, 4u);
  EXPECT_EQ(table_.GrantsHeldBy(kOther), 0u);
  EXPECT_EQ(table_.GrantsHeldBy(kGrantee), 1u);
}

TEST_F(LeaseTableTest, TeardownAndReclaimUnmapEachHoldersOwnRange) {
  // The owner allocates 4 pages and grants the upper 2.
  auto lease = [&]() -> Result<Range> {
    auto owned = table_.Allocate(kOwner, Pasid(7), 4, Access::kReadWrite);
    if (!owned.ok()) {
      return owned;
    }
    return table_.Grant(kOwner, Pasid(7), VirtAddr(owned->vaddr().raw + 2 * kPageSize),
                        2 * kPageSize, kGrantee, Access::kRead);
  };
  auto upper = lease();
  ASSERT_TRUE(upper.ok()) << upper.status().ToString();

  std::vector<Range> unmapped;
  auto record = [&](Pasid, const Range& range) { unmapped.push_back(range); };
  // The dead owner's own IOMMU is scrubbed elsewhere: only the grantee's
  // range is unmapped.
  LeaseTable::Reclaimed reclaimed = table_.Reclaim(kOwner, record);
  EXPECT_EQ(reclaimed.allocations, 1u);
  ASSERT_EQ(unmapped.size(), 1u);
  EXPECT_EQ(unmapped[0].device, kGrantee);
  EXPECT_EQ(unmapped[0].vpage, upper->vpage);
  EXPECT_EQ(unmapped[0].pages, 2u);

  unmapped.clear();
  upper = lease();
  ASSERT_TRUE(upper.ok()) << upper.status().ToString();
  table_.Teardown(Pasid(7), record);
  ASSERT_EQ(unmapped.size(), 2u);
  EXPECT_EQ(unmapped[0].device, kOwner);
  EXPECT_EQ(unmapped[0].vpage, upper->vpage - 2);
  EXPECT_EQ(unmapped[0].pages, 4u);
  EXPECT_EQ(unmapped[1].device, kGrantee);
  EXPECT_EQ(unmapped[1].vpage, upper->vpage);
  EXPECT_EQ(unmapped[1].pages, 2u);
  EXPECT_EQ(table_.allocator().free_frames(), table_.allocator().total_frames());
}

}  // namespace
}  // namespace lastcpu::memdev

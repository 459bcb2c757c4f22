// IOMMU, page table, and TLB tests: translation, isolation between PASIDs,
// fault delivery, permission enforcement, TLB shootdown on unmap.
#include <gtest/gtest.h>

#include <vector>

#include "src/iommu/iommu.h"
#include "src/iommu/page_table.h"
#include "src/iommu/tlb.h"
#include "src/sim/rng.h"
#include "tests/alloc_counter.h"

namespace lastcpu::iommu {
namespace {

TEST(PageTableTest, MapLookupUnmap) {
  PageTable table;
  ASSERT_TRUE(table.Map(0x1234, 0x99, Access::kReadWrite).ok());
  auto pte = table.Lookup(0x1234);
  ASSERT_TRUE(pte.ok());
  EXPECT_EQ(pte->pframe, 0x99u);
  EXPECT_EQ(table.mapped_pages(), 1u);
  ASSERT_TRUE(table.Unmap(0x1234).ok());
  EXPECT_FALSE(table.Lookup(0x1234).ok());
  EXPECT_EQ(table.mapped_pages(), 0u);
}

TEST(PageTableTest, RemapRejectedUntilUnmapped) {
  PageTable table;
  ASSERT_TRUE(table.Map(5, 10, Access::kRead).ok());
  EXPECT_EQ(table.Map(5, 11, Access::kRead).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(table.Unmap(5).ok());
  EXPECT_TRUE(table.Map(5, 11, Access::kRead).ok());
}

TEST(PageTableTest, UnmapMissingPageFails) {
  PageTable table;
  EXPECT_EQ(table.Unmap(42).code(), StatusCode::kNotFound);
  ASSERT_TRUE(table.Map(43, 1, Access::kRead).ok());
  EXPECT_EQ(table.Unmap(42).code(), StatusCode::kNotFound);
}

TEST(PageTableTest, RejectsOutOfRangeVpage) {
  PageTable table;
  EXPECT_FALSE(table.Map(PageTable::kMaxVpage + 1, 0, Access::kRead).ok());
  EXPECT_TRUE(table.Map(PageTable::kMaxVpage, 0, Access::kRead).ok());
}

TEST(PageTableTest, RejectsNoAccessMapping) {
  PageTable table;
  EXPECT_FALSE(table.Map(1, 2, Access::kNone).ok());
}

TEST(PageTableTest, NodesPrunedOnUnmap) {
  PageTable table;
  uint64_t baseline_nodes = table.node_count();
  // Two pages in far-apart regions force separate interior nodes.
  ASSERT_TRUE(table.Map(0, 1, Access::kRead).ok());
  ASSERT_TRUE(table.Map(uint64_t{5} << 18, 2, Access::kRead).ok());
  EXPECT_GT(table.node_count(), baseline_nodes);
  ASSERT_TRUE(table.Unmap(0).ok());
  ASSERT_TRUE(table.Unmap(uint64_t{5} << 18).ok());
  EXPECT_EQ(table.node_count(), baseline_nodes);
}

TEST(PageTableTest, RefilledTableMatchesFreshOne) {
  PageTable table;
  uint64_t baseline_nodes = table.node_count();
  uint64_t far = uint64_t{5} << 18;
  uint64_t filled_nodes = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(table.Map(0, 1, Access::kRead).ok());
    ASSERT_TRUE(table.Map(far, 2, Access::kReadWrite).ok());
    if (cycle == 0) {
      filled_nodes = table.node_count();
    }
    EXPECT_EQ(table.node_count(), filled_nodes);
    EXPECT_EQ(table.mapped_pages(), 2u);
    EXPECT_EQ(table.Lookup(far)->pframe, 2u);
    EXPECT_EQ(table.Lookup(far)->access, Access::kReadWrite);
    EXPECT_EQ(table.Map(far, 3, Access::kRead).code(), StatusCode::kAlreadyExists);
    ASSERT_TRUE(table.Unmap(0).ok());
    ASSERT_TRUE(table.Unmap(far).ok());
    EXPECT_EQ(table.node_count(), baseline_nodes);
    EXPECT_EQ(table.mapped_pages(), 0u);
    // Recycled nodes hold no stale entries.
    EXPECT_EQ(table.Lookup(far).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(table.Lookup(far + 1).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(table.Unmap(far).code(), StatusCode::kNotFound);
  }
}

TEST(PageTableTest, SetAccessNarrowsPermissions) {
  PageTable table;
  ASSERT_TRUE(table.Map(7, 8, Access::kReadWrite).ok());
  ASSERT_TRUE(table.SetAccess(7, Access::kRead).ok());
  EXPECT_EQ(table.Lookup(7)->access, Access::kRead);
  EXPECT_FALSE(table.SetAccess(99, Access::kRead).ok());
}

TEST(PageTableTest, DenseRegionSweep) {
  PageTable table;
  for (uint64_t v = 0; v < 2000; ++v) {
    ASSERT_TRUE(table.Map(v, v + 10000, Access::kReadWrite).ok());
  }
  EXPECT_EQ(table.mapped_pages(), 2000u);
  for (uint64_t v = 0; v < 2000; ++v) {
    auto pte = table.Lookup(v);
    ASSERT_TRUE(pte.ok());
    EXPECT_EQ(pte->pframe, v + 10000);
  }
  for (uint64_t v = 0; v < 2000; ++v) {
    ASSERT_TRUE(table.Unmap(v).ok());
  }
  EXPECT_EQ(table.mapped_pages(), 0u);
}

TEST(TlbTest, HitAfterInsert) {
  Tlb tlb(TlbConfig{16, 4});
  EXPECT_FALSE(tlb.Lookup(Pasid(1), 100).has_value());
  tlb.Insert(Pasid(1), 100, PteValue{55, Access::kRead});
  auto hit = tlb.Lookup(Pasid(1), 100);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->pframe, 55u);
  EXPECT_EQ(tlb.hits(), 1u);
  EXPECT_EQ(tlb.misses(), 1u);
}

TEST(TlbTest, PasidsAreDistinct) {
  Tlb tlb(TlbConfig{16, 4});
  tlb.Insert(Pasid(1), 100, PteValue{55, Access::kRead});
  EXPECT_FALSE(tlb.Lookup(Pasid(2), 100).has_value());
}

TEST(TlbTest, LruEvictionWithinSet) {
  // One set, 2 ways: the third insert evicts the least recently used.
  Tlb tlb(TlbConfig{1, 2});
  tlb.Insert(Pasid(1), 1, PteValue{1, Access::kRead});
  tlb.Insert(Pasid(1), 2, PteValue{2, Access::kRead});
  EXPECT_TRUE(tlb.Lookup(Pasid(1), 1).has_value());  // refresh page 1
  tlb.Insert(Pasid(1), 3, PteValue{3, Access::kRead});
  EXPECT_TRUE(tlb.Lookup(Pasid(1), 1).has_value());
  EXPECT_FALSE(tlb.Lookup(Pasid(1), 2).has_value());  // page 2 evicted
  EXPECT_TRUE(tlb.Lookup(Pasid(1), 3).has_value());
}

TEST(TlbTest, InvalidatePage) {
  Tlb tlb(TlbConfig{16, 4});
  tlb.Insert(Pasid(1), 100, PteValue{55, Access::kRead});
  tlb.InvalidatePage(Pasid(1), 100);
  EXPECT_FALSE(tlb.Lookup(Pasid(1), 100).has_value());
}

TEST(TlbTest, InvalidatePasidLeavesOthers) {
  Tlb tlb(TlbConfig{16, 4});
  tlb.Insert(Pasid(1), 100, PteValue{55, Access::kRead});
  tlb.Insert(Pasid(2), 100, PteValue{66, Access::kRead});
  tlb.InvalidatePasid(Pasid(1));
  EXPECT_FALSE(tlb.Lookup(Pasid(1), 100).has_value());
  EXPECT_TRUE(tlb.Lookup(Pasid(2), 100).has_value());
}

TEST(TlbTest, InsertExistingUpdatesInPlace) {
  Tlb tlb(TlbConfig{1, 2});
  tlb.Insert(Pasid(1), 1, PteValue{1, Access::kRead});
  tlb.Insert(Pasid(1), 1, PteValue{9, Access::kReadWrite});
  auto hit = tlb.Lookup(Pasid(1), 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->pframe, 9u);
}

class IommuTest : public ::testing::Test {
 protected:
  IommuTest() : iommu_(DeviceId(7)) {}

  ProgrammingKey key_ = ProgrammingKey::CreateForTesting();
  Iommu iommu_;
};

TEST_F(IommuTest, TranslateMappedPage) {
  ASSERT_TRUE(iommu_.Map(key_, Pasid(1), 0x10, 0x99, Access::kReadWrite).ok());
  auto t = iommu_.Translate(Pasid(1), VirtAddr((0x10 << kPageShift) + 0x123), Access::kRead);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->paddr.raw, (uint64_t{0x99} << kPageShift) + 0x123);
  EXPECT_FALSE(t->tlb_hit);
  EXPECT_EQ(t->levels_walked, PageTable::kLevels);
}

TEST_F(IommuTest, SecondTranslationHitsTlb) {
  ASSERT_TRUE(iommu_.Map(key_, Pasid(1), 0x10, 0x99, Access::kRead).ok());
  VirtAddr va(0x10 << kPageShift);
  ASSERT_TRUE(iommu_.Translate(Pasid(1), va, Access::kRead).ok());
  auto t = iommu_.Translate(Pasid(1), va, Access::kRead);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->tlb_hit);
  EXPECT_EQ(t->levels_walked, 0);
}

TEST_F(IommuTest, UnmappedPageFaults) {
  FaultInfo last_fault{};
  int fault_count = 0;
  iommu_.SetFaultHandler([&](const FaultInfo& info) {
    last_fault = info;
    ++fault_count;
  });
  auto t = iommu_.Translate(Pasid(1), VirtAddr(0x5000), Access::kRead);
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(fault_count, 1);
  EXPECT_EQ(last_fault.kind, FaultInfo::Kind::kNotMapped);
  EXPECT_EQ(last_fault.vaddr.raw, 0x5000u);
  EXPECT_EQ(iommu_.faults(), 1u);
}

TEST_F(IommuTest, PermissionFaultOnWriteToReadOnly) {
  ASSERT_TRUE(iommu_.Map(key_, Pasid(1), 0x10, 0x99, Access::kRead).ok());
  FaultInfo last_fault{};
  iommu_.SetFaultHandler([&](const FaultInfo& info) { last_fault = info; });
  auto t = iommu_.Translate(Pasid(1), VirtAddr(0x10 << kPageShift), Access::kWrite);
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(last_fault.kind, FaultInfo::Kind::kPermission);
}

TEST_F(IommuTest, PermissionCheckedOnTlbHitToo) {
  ASSERT_TRUE(iommu_.Map(key_, Pasid(1), 0x10, 0x99, Access::kRead).ok());
  VirtAddr va(0x10 << kPageShift);
  ASSERT_TRUE(iommu_.Translate(Pasid(1), va, Access::kRead).ok());  // warm TLB
  EXPECT_FALSE(iommu_.Translate(Pasid(1), va, Access::kWrite).ok());
}

TEST_F(IommuTest, PasidsAreIsolated) {
  ASSERT_TRUE(iommu_.Map(key_, Pasid(1), 0x10, 0x99, Access::kReadWrite).ok());
  EXPECT_FALSE(iommu_.Translate(Pasid(2), VirtAddr(0x10 << kPageShift), Access::kRead).ok());
  EXPECT_EQ(iommu_.mapped_pages(Pasid(1)), 1u);
  EXPECT_EQ(iommu_.mapped_pages(Pasid(2)), 0u);
}

TEST_F(IommuTest, UnmapShootsDownTlb) {
  ASSERT_TRUE(iommu_.Map(key_, Pasid(1), 0x10, 0x99, Access::kRead).ok());
  VirtAddr va(0x10 << kPageShift);
  ASSERT_TRUE(iommu_.Translate(Pasid(1), va, Access::kRead).ok());  // cached
  ASSERT_TRUE(iommu_.Unmap(key_, Pasid(1), 0x10).ok());
  // Must fault, not serve the stale TLB entry.
  EXPECT_FALSE(iommu_.Translate(Pasid(1), va, Access::kRead).ok());
}

TEST_F(IommuTest, EmptiedAddressSpaceBehavesLikeFreshOne) {
  std::vector<FaultInfo::Kind> faults;
  iommu_.SetFaultHandler([&](const FaultInfo& info) { faults.push_back(info.kind); });
  VirtAddr va(0x10 << kPageShift);
  // Pasid 2 was never mapped; pasid 1 is mapped, cached in the TLB, emptied.
  ASSERT_TRUE(iommu_.Map(key_, Pasid(1), 0x10, 0x99, Access::kRead).ok());
  ASSERT_TRUE(iommu_.Translate(Pasid(1), va, Access::kRead).ok());
  ASSERT_TRUE(iommu_.Unmap(key_, Pasid(1), 0x10).ok());

  for (Pasid pasid : {Pasid(1), Pasid(2)}) {
    SCOPED_TRACE(pasid.value());
    EXPECT_EQ(iommu_.mapped_pages(pasid), 0u);
    Status unmapped = iommu_.Unmap(key_, pasid, 0x10);
    EXPECT_EQ(unmapped.code(), StatusCode::kNotFound);
    EXPECT_EQ(unmapped.message(), "no such address space");
    faults.clear();
    auto translated = iommu_.Translate(pasid, va, Access::kRead);
    ASSERT_FALSE(translated.ok());
    EXPECT_EQ(translated.status().code(), StatusCode::kPermissionDenied);
    EXPECT_EQ(faults, std::vector<FaultInfo::Kind>{FaultInfo::Kind::kNotMapped});
  }

  // Refilled: the new frame is served, by a walk, not the shot-down entry.
  ASSERT_TRUE(iommu_.Map(key_, Pasid(1), 0x10, 0x77, Access::kReadWrite).ok());
  EXPECT_EQ(iommu_.mapped_pages(Pasid(1)), 1u);
  auto t = iommu_.Translate(Pasid(1), va, Access::kWrite);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->paddr.raw, uint64_t{0x77} << kPageShift);
  EXPECT_FALSE(t->tlb_hit);
  EXPECT_EQ(iommu_.Unmap(key_, Pasid(1), 0x11).message(), "page not mapped");
  EXPECT_EQ(iommu_.mapped_pages(Pasid(2)), 0u);
}

TEST_F(IommuTest, RefillAfterEmptyingAllocatesNoTableNodes) {
  uint64_t far = uint64_t{5} << 18;
  auto fill_and_empty = [&](Pasid pasid) {
    ASSERT_TRUE(iommu_.Map(key_, pasid, 0x10, 0x99, Access::kReadWrite).ok());
    ASSERT_TRUE(iommu_.Map(key_, pasid, far, 0x9A, Access::kRead).ok());
    ASSERT_TRUE(iommu_.Unmap(key_, pasid, 0x10).ok());
    ASSERT_TRUE(iommu_.Unmap(key_, pasid, far).ok());
  };
  uint64_t before_first = alloc_counter::LargeBlocks();
  fill_and_empty(Pasid(1));
  ASSERT_GT(alloc_counter::LargeBlocks(), before_first);  // the counter sees table nodes
  uint64_t before_second = alloc_counter::LargeBlocks();
  fill_and_empty(Pasid(1));
  fill_and_empty(Pasid(2));  // an emptied table serves another address space
  EXPECT_EQ(alloc_counter::LargeBlocks(), before_second);
}

TEST_F(IommuTest, RemoveAddressSpaceDropsEverything) {
  ASSERT_TRUE(iommu_.Map(key_, Pasid(1), 0x10, 0x99, Access::kRead).ok());
  ASSERT_TRUE(iommu_.Map(key_, Pasid(1), 0x11, 0x9A, Access::kRead).ok());
  ASSERT_TRUE(iommu_.Translate(Pasid(1), VirtAddr(0x10 << kPageShift), Access::kRead).ok());
  iommu_.RemoveAddressSpace(key_, Pasid(1));
  EXPECT_EQ(iommu_.mapped_pages(Pasid(1)), 0u);
  EXPECT_FALSE(iommu_.Translate(Pasid(1), VirtAddr(0x10 << kPageShift), Access::kRead).ok());
}

TEST_F(IommuTest, BadAddressFaults) {
  auto t = iommu_.Translate(Pasid(1), VirtAddr(uint64_t{1} << 45), Access::kRead);
  EXPECT_FALSE(t.ok());
}

// Property sweep over TLB geometries: translations must be correct (same
// physical frame) regardless of cache shape, and hit rate must be perfect for
// a working set that fits.
struct TlbGeometry {
  uint32_t sets;
  uint32_t ways;
};

class IommuTlbGeometryTest : public ::testing::TestWithParam<TlbGeometry> {};

TEST_P(IommuTlbGeometryTest, TranslationCorrectUnderAnyGeometry) {
  Iommu iommu(DeviceId(1), TlbConfig{GetParam().sets, GetParam().ways});
  ProgrammingKey key = ProgrammingKey::CreateForTesting();
  constexpr uint64_t kPages = 128;
  for (uint64_t v = 0; v < kPages; ++v) {
    ASSERT_TRUE(iommu.Map(key, Pasid(1), v, 1000 + v, Access::kReadWrite).ok());
  }
  sim::Rng rng(GetParam().sets * 1000 + GetParam().ways);
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = rng.NextBelow(kPages);
    auto t = iommu.Translate(Pasid(1), VirtAddr(v << kPageShift), Access::kRead);
    ASSERT_TRUE(t.ok());
    ASSERT_EQ(t->paddr.frame(), 1000 + v);
  }
  if (GetParam().sets * GetParam().ways >= kPages) {
    // Working set fits: after warmup, everything hits.
    EXPECT_GT(iommu.tlb().HitRate(), 0.95);
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, IommuTlbGeometryTest,
                         ::testing::Values(TlbGeometry{1, 1}, TlbGeometry{1, 4},
                                           TlbGeometry{16, 4}, TlbGeometry{64, 8},
                                           TlbGeometry{128, 2}));

}  // namespace
}  // namespace lastcpu::iommu

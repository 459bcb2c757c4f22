// Virtqueue tests: layout math, submit/pop/complete round trips through two
// IOMMU-translated views of the same physical pages, exhaustion, recycling,
// and a parameterized sweep over queue depths.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/iommu/iommu.h"
#include "src/mem/physical_memory.h"
#include "src/sim/simulator.h"
#include "src/virtio/virtqueue.h"
#include "tests/hex.h"

namespace lastcpu::virtio {
namespace {

constexpr DeviceId kClient{1};
constexpr DeviceId kServer{2};
constexpr Pasid kApp{3};

// Two devices that map the same physical pages at the same addresses.
class SharedRingTest : public ::testing::Test {
 protected:
  SharedRingTest()
      : memory_(16 << 20),
        fabric_(&simulator_, &memory_),
        client_iommu_(kClient),
        server_iommu_(kServer),
        key_(iommu::ProgrammingKey::CreateForTesting()) {
    fabric_.AttachDevice(kClient, &client_iommu_);
    fabric_.AttachDevice(kServer, &server_iommu_);
  }

  // Maps `pages` pages at the same vaddr into both devices' IOMMUs (the
  // shared application address space), backed by frames starting at 16.
  void MapShared(uint64_t vpage_base, uint64_t pages) {
    for (uint64_t i = 0; i < pages; ++i) {
      ASSERT_TRUE(
          client_iommu_.Map(key_, kApp, vpage_base + i, 16 + i, Access::kReadWrite).ok());
      ASSERT_TRUE(
          server_iommu_.Map(key_, kApp, vpage_base + i, 16 + i, Access::kReadWrite).ok());
    }
  }

  sim::Simulator simulator_;
  mem::PhysicalMemory memory_;
  fabric::Fabric fabric_;
  iommu::Iommu client_iommu_;
  iommu::Iommu server_iommu_;
  iommu::ProgrammingKey key_;
};

class VirtqueueTest : public SharedRingTest, public ::testing::WithParamInterface<uint16_t> {};

TEST(VirtqueueLayoutTest, BytesRequiredGrowsWithDepth) {
  EXPECT_GT(VirtqueueLayout::BytesRequired(256), VirtqueueLayout::BytesRequired(8));
  // depth 8: desc 128 + avail 20 -> align8(148) = 152, + used 68 = 220.
  EXPECT_EQ(VirtqueueLayout::BytesRequired(8), 220u);
}

TEST(VirtqueueLayoutTest, RegionsDoNotOverlap) {
  VirtqueueLayout layout(VirtAddr(0x1000), 16);
  EXPECT_GE(layout.AvailFlags().raw, layout.DescAddr(15).raw + 16);
  EXPECT_GE(layout.UsedFlags().raw, layout.AvailRing(15).raw + 2);
}

TEST_P(VirtqueueTest, SubmitPopCompleteRoundTrip) {
  const uint16_t depth = GetParam();
  const uint64_t ring_pages = PagesForBytes(VirtqueueLayout::BytesRequired(depth)) + 2;
  MapShared(0x100, ring_pages);
  VirtAddr base(0x100 << kPageShift);
  VirtAddr data_va((0x100 + ring_pages - 2) << kPageShift);

  VirtqueueDriver driver(&fabric_, kClient, kApp, base, depth);
  VirtqueueDevice device(&fabric_, kServer, kApp, base, depth);
  ASSERT_TRUE(driver.Initialize().ok());

  // Client submits a two-buffer chain: request (read-only) + response slot.
  auto head = driver.Submit({BufferDesc{data_va, 64, false},
                             BufferDesc{data_va + 64, 128, true}});
  ASSERT_TRUE(head.ok());

  // Server pops it and sees both buffers with the right roles.
  auto chain = device.PopAvail();
  ASSERT_TRUE(chain.ok());
  ASSERT_TRUE(chain->has_value());
  EXPECT_EQ((*chain)->head, *head);
  ASSERT_EQ((*chain)->buffers.size(), 2u);
  EXPECT_FALSE((*chain)->buffers[0].device_writes);
  EXPECT_TRUE((*chain)->buffers[1].device_writes);
  EXPECT_EQ((*chain)->buffers[0].addr, data_va);
  EXPECT_EQ((*chain)->buffers[1].len, 128u);

  // Nothing else pending.
  auto empty = device.PopAvail();
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->has_value());

  // Server completes; client sees the completion exactly once.
  ASSERT_TRUE(device.PushUsed(*head, 99).ok());
  auto used = driver.PollUsed();
  ASSERT_TRUE(used.ok());
  ASSERT_TRUE(used->has_value());
  EXPECT_EQ((*used)->head, *head);
  EXPECT_EQ((*used)->written, 99u);
  auto used2 = driver.PollUsed();
  ASSERT_TRUE(used2.ok());
  EXPECT_FALSE(used2->has_value());
}

TEST_P(VirtqueueTest, DescriptorsRecycleAfterCompletion) {
  const uint16_t depth = GetParam();
  const uint64_t ring_pages = PagesForBytes(VirtqueueLayout::BytesRequired(depth)) + 2;
  MapShared(0x100, ring_pages);
  VirtAddr base(0x100 << kPageShift);
  VirtAddr data_va((0x100 + ring_pages - 1) << kPageShift);

  VirtqueueDriver driver(&fabric_, kClient, kApp, base, depth);
  VirtqueueDevice device(&fabric_, kServer, kApp, base, depth);
  ASSERT_TRUE(driver.Initialize().ok());

  // Run 4x depth single-buffer requests through the queue.
  for (int round = 0; round < 4 * depth; ++round) {
    auto head = driver.Submit({BufferDesc{data_va, 32, true}});
    ASSERT_TRUE(head.ok()) << "round " << round;
    auto chain = device.PopAvail();
    ASSERT_TRUE(chain.ok() && chain->has_value());
    ASSERT_TRUE(device.PushUsed((*chain)->head, 32).ok());
    auto used = driver.PollUsed();
    ASSERT_TRUE(used.ok() && used->has_value());
  }
  EXPECT_EQ(driver.FreeDescriptors(), depth);
}

TEST_P(VirtqueueTest, QueueFullWhenDescriptorsExhausted) {
  const uint16_t depth = GetParam();
  const uint64_t ring_pages = PagesForBytes(VirtqueueLayout::BytesRequired(depth)) + 2;
  MapShared(0x100, ring_pages);
  VirtAddr base(0x100 << kPageShift);
  VirtAddr data_va((0x100 + ring_pages - 1) << kPageShift);

  VirtqueueDriver driver(&fabric_, kClient, kApp, base, depth);
  ASSERT_TRUE(driver.Initialize().ok());
  for (uint16_t i = 0; i < depth; ++i) {
    ASSERT_TRUE(driver.Submit({BufferDesc{data_va, 16, false}}).ok());
  }
  auto overflow = driver.Submit({BufferDesc{data_va, 16, false}});
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
}

INSTANTIATE_TEST_SUITE_P(Depths, VirtqueueTest, ::testing::Values(2, 8, 64, 256));

// PollUsed recycles a finished chain by reading its links back from the
// descriptor table, which the device can write. A link that leaves the table
// or names a free descriptor is refused and puts nothing on the free stack,
// so every index the next Submit claims is one it can write.
TEST_F(SharedRingTest, PollUsedRefusesCorruptedLinks) {
  constexpr uint16_t kDepth = 8;
  MapShared(0x100, 1);
  const VirtAddr base(0x100 << kPageShift);
  const VirtqueueLayout layout(base, kDepth);
  VirtqueueDriver driver(&fabric_, kClient, kApp, base, kDepth);
  VirtqueueDevice device(&fabric_, kServer, kApp, base, kDepth);
  ASSERT_TRUE(driver.Initialize().ok());

  // 200 lies past the table; 5 is free when the chain completes.
  for (uint16_t bad_next : {uint16_t{200}, uint16_t{5}}) {
    SCOPED_TRACE(bad_next);
    auto head = driver.Submit({BufferDesc{VirtAddr(0x9000), 16, false},
                               BufferDesc{VirtAddr(0xA000), 16, true}});
    ASSERT_TRUE(head.ok());
    auto chain = device.PopAvail();
    ASSERT_TRUE(chain.ok() && chain->has_value());
    // The device rewrites the head's `next` link, then completes the chain.
    const uint8_t next[] = {static_cast<uint8_t>(bad_next), static_cast<uint8_t>(bad_next >> 8)};
    ASSERT_TRUE(fabric_.MemWrite(kServer, kApp, layout.DescAddr(*head) + 14, next).status.ok());
    ASSERT_TRUE(device.PushUsed(*head, 0).ok());
    const uint16_t free_before = driver.FreeDescriptors();
    auto used = driver.PollUsed();
    EXPECT_EQ(used.status().code(), StatusCode::kDataLoss);
    // The head comes back; the rejected link adds nothing.
    EXPECT_EQ(driver.FreeDescriptors(), free_before + 1);
  }
  // Every free descriptor is usable: the queue fills up without aborting.
  while (driver.FreeDescriptors() > 0) {
    auto head = driver.Submit({BufferDesc{VirtAddr(0x9000), 16, false}});
    ASSERT_TRUE(head.ok()) << head.status().ToString();
    EXPECT_LT(*head, kDepth);
  }
  EXPECT_EQ(driver.Submit({BufferDesc{VirtAddr(0x9000), 16, false}}).status().code(),
            StatusCode::kResourceExhausted);
}

// The exact 220 bytes of a depth-8 ring after a fixed sequence: chains A (two
// buffers) and B (one) submitted, A popped, completed and polled, C (one
// buffer) submitted into A's recycled descriptors, B popped and completed.
// Every field holds a distinct value, so a field at the wrong offset, of the
// wrong width or in the wrong byte order changes the bytes even when both
// queue ends agree.
TEST_F(SharedRingTest, RingGoldenBytes) {
  constexpr uint16_t kDepth = 8;
  ASSERT_EQ(VirtqueueLayout::BytesRequired(kDepth), 220u);
  MapShared(0x100, 1);  // frame 16
  const VirtAddr base(0x100 << kPageShift);
  VirtqueueDriver driver(&fabric_, kClient, kApp, base, kDepth);
  VirtqueueDevice device(&fabric_, kServer, kApp, base, kDepth);
  ASSERT_TRUE(driver.Initialize().ok());

  auto a = driver.Submit({BufferDesc{VirtAddr(0x1122334455667788), 0x01020304, false},
                          BufferDesc{VirtAddr(0x2122232425262728), 0x0A0B, true}});
  auto b = driver.Submit({BufferDesc{VirtAddr(0x3132333435363738), 0x40, true}});
  ASSERT_TRUE(a.ok() && b.ok());
  auto popped_a = device.PopAvail();
  ASSERT_TRUE(popped_a.ok() && popped_a->has_value());
  ASSERT_TRUE(device.PushUsed(*a, 0x51525354).ok());
  auto used_a = driver.PollUsed();
  ASSERT_TRUE(used_a.ok() && used_a->has_value());
  auto c = driver.Submit({BufferDesc{VirtAddr(0x4142434445464748), 0x99, false}});
  ASSERT_TRUE(c.ok());
  auto popped_b = device.PopAvail();
  ASSERT_TRUE(popped_b.ok() && popped_b->has_value());
  ASSERT_TRUE(device.PushUsed(*b, 0x61626364).ok());
  EXPECT_EQ(*a, 0);
  EXPECT_EQ(*b, 2);
  EXPECT_EQ(*c, 1);

  std::vector<uint8_t> ring(VirtqueueLayout::BytesRequired(kDepth));
  memory_.Read(PhysAddr(16 << kPageShift), ring);
  // Descriptors {addr u64, len u32, flags u16, next u16}: C overwrote A's
  // second descriptor (1); 3-7 were never written.
  std::string expected =
      "8877665544332211" "04030201" "0100" "0100"
      "4847464544434241" "99000000" "0000" "0000"
      "3837363534333231" "40000000" "0200" "0000";
  expected += std::string(5 * 32, '0');
  // Avail: flags u16, idx u16, ring[8] u16.
  expected += "0000" "0300" "0000" "0200" "0100" + std::string(5 * 4, '0');
  // Padding to the 8-byte-aligned used ring.
  expected += "0000" "0000";
  // Used: flags u16, idx u16, ring[8] {id u32, len u32}.
  expected += "0000" "0200" "00000000" "54535251" "02000000" "64636261" +
              std::string(6 * 16, '0');
  EXPECT_EQ(testutil::BytesToHex(ring), expected);
}

TEST(VirtqueueEdgeTest, EmptyChainRejected) {
  sim::Simulator simulator;
  mem::PhysicalMemory memory(1 << 20);
  fabric::Fabric fabric(&simulator, &memory);
  iommu::Iommu iommu(kClient);
  fabric.AttachDevice(kClient, &iommu);
  VirtqueueDriver driver(&fabric, kClient, kApp, VirtAddr(0), 8);
  EXPECT_FALSE(driver.Submit({}).ok());
}

TEST(VirtqueueEdgeTest, UnmappedRingSurfacesFault) {
  sim::Simulator simulator;
  mem::PhysicalMemory memory(1 << 20);
  fabric::Fabric fabric(&simulator, &memory);
  iommu::Iommu iommu(kClient);
  fabric.AttachDevice(kClient, &iommu);
  // No mapping installed: initialization must fail, not crash.
  VirtqueueDriver driver(&fabric, kClient, kApp, VirtAddr(0x5000), 8);
  EXPECT_FALSE(driver.Initialize().ok());
}

TEST(VirtqueueEdgeTest, AccruedCostIsNonZeroAndResets) {
  sim::Simulator simulator;
  mem::PhysicalMemory memory(1 << 20);
  fabric::Fabric fabric(&simulator, &memory);
  iommu::Iommu client(kClient);
  fabric.AttachDevice(kClient, &client);
  auto key = iommu::ProgrammingKey::CreateForTesting();
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.Map(key, kApp, i, i, Access::kReadWrite).ok());
  }
  VirtqueueDriver driver(&fabric, kClient, kApp, VirtAddr(0), 8);
  ASSERT_TRUE(driver.Initialize().ok());
  EXPECT_GT(driver.TakeAccruedCost().nanos(), 0u);
  EXPECT_EQ(driver.TakeAccruedCost().nanos(), 0u);
}

}  // namespace
}  // namespace lastcpu::virtio

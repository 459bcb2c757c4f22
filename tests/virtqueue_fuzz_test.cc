// Seeded mutation fuzzer for the virtqueue's peer-written bytes. The driver
// (client device) and the device (service) share the descriptor table and
// both rings, and each end reads what the other wrote: the device reads the
// avail ring and the descriptors, and the driver reads the used ring and
// reads each finished chain's links back from the descriptor table to
// recycle them. Between queue steps the fuzzer rewrites descriptor, avail
// and used bytes behind both ends' backs. No mutant may abort either end or
// trip a sanitizer, the driver's free descriptors never exceed the depth, and
// every head and chain either end hands back stays inside the table. The
// mutants come from fixed seeds, so a failure reproduces exactly; the
// sanitizer build runs the same cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "src/base/bytes.h"
#include "src/fabric/fabric.h"
#include "src/iommu/iommu.h"
#include "src/mem/physical_memory.h"
#include "src/sim/simulator.h"
#include "src/virtio/virtqueue.h"

namespace lastcpu::virtio {
namespace {

constexpr DeviceId kClient{1};
constexpr DeviceId kServer{2};
constexpr Pasid kApp{3};
constexpr uint64_t kRingVpage = 0x100;
constexpr uint64_t kRingFrame = 16;
constexpr uint64_t kSeedsPerDepth = 100;
constexpr int kStepsPerSeed = 400;

// How often each end accepted and refused, so a run is known to reach past
// the happy path.
struct Tally {
  int popped = 0;
  int pop_rejected = 0;
  int polled = 0;
  int poll_rejected = 0;
};

void FuzzOneQueue(uint16_t depth, uint64_t seed, Tally& tally) {
  sim::Simulator simulator;
  mem::PhysicalMemory memory(1 << 20);
  fabric::Fabric fabric(&simulator, &memory);
  iommu::Iommu client(kClient);
  iommu::Iommu server(kServer);
  fabric.AttachDevice(kClient, &client);
  fabric.AttachDevice(kServer, &server);
  auto key = iommu::ProgrammingKey::CreateForTesting();
  const uint64_t ring_bytes = VirtqueueLayout::BytesRequired(depth);
  for (uint64_t i = 0; i < PagesForBytes(ring_bytes); ++i) {
    ASSERT_TRUE(client.Map(key, kApp, kRingVpage + i, kRingFrame + i, Access::kReadWrite).ok());
    ASSERT_TRUE(server.Map(key, kApp, kRingVpage + i, kRingFrame + i, Access::kReadWrite).ok());
  }
  const VirtAddr base(kRingVpage << kPageShift);
  const VirtqueueLayout layout(base, depth);
  VirtqueueDriver driver(&fabric, kClient, kApp, base, depth);
  VirtqueueDevice device(&fabric, kServer, kApp, base, depth);
  ASSERT_TRUE(driver.Initialize().ok());

  std::mt19937_64 rng(seed);
  // Overwrites the `width`-byte field at `field` in physical memory, as a
  // peer writing the shared ring would.
  auto poke = [&](VirtAddr field, size_t width, uint64_t value) {
    uint8_t bytes[8];
    StoreLe(bytes, 0, value);
    memory.Write(PhysAddr((kRingFrame << kPageShift) + (field.raw - base.raw)),
                 std::span<const uint8_t>(bytes, width));
  };
  // An index near the table half the time, any u16 otherwise.
  auto index = [&]() -> uint64_t { return rng() % 2 ? rng() % (2 * depth) : rng() & 0xFFFF; };
  auto slot = [&]() { return static_cast<uint16_t>(rng() % depth); };

  std::vector<uint16_t> popped;  // heads the device holds, to complete in any order
  for (int step = 0; step < kStepsPerSeed; ++step) {
    switch (rng() % 8) {
      case 0:
      case 1: {
        // The driver submits a chain of one to three buffers.
        BufferDesc chain[3];
        const size_t n = 1 + rng() % 3;
        for (size_t i = 0; i < n; ++i) {
          chain[i] = BufferDesc{VirtAddr(0x200000 + 0x1000 * i), 64, i + 1 == n};
        }
        auto head = driver.Submit(std::span<const BufferDesc>(chain, n));
        if (head.ok()) {
          ASSERT_LT(*head, depth);
        } else {
          ASSERT_EQ(head.status().code(), StatusCode::kResourceExhausted);
        }
        break;
      }
      case 2: {
        auto chain = device.PopAvail();
        if (!chain.ok()) {
          ASSERT_EQ(chain.status().code(), StatusCode::kInvalidArgument);
          ++tally.pop_rejected;
        } else if (chain->has_value()) {
          ++tally.popped;
          ASSERT_LT((*chain)->head, depth);
          ASSERT_GE((*chain)->buffers.size(), 1u);
          ASSERT_LE((*chain)->buffers.size(), depth);
          popped.push_back((*chain)->head);
        }
        break;
      }
      case 3:
        if (!popped.empty()) {
          auto it = popped.begin() + static_cast<ptrdiff_t>(rng() % popped.size());
          ASSERT_TRUE(device.PushUsed(*it, 64).ok());
          popped.erase(it);
        }
        break;
      case 4: {
        const uint16_t free_before = driver.FreeDescriptors();
        auto used = driver.PollUsed();
        if (!used.ok()) {
          ASSERT_EQ(used.status().code(), StatusCode::kDataLoss);
          ++tally.poll_rejected;
        } else if (used->has_value()) {
          ++tally.polled;
          // A head outside the table is returned as read, but recycles nothing.
          if (driver.FreeDescriptors() > free_before) {
            ASSERT_LT((*used)->head, depth);
          }
        }
        break;
      }
      case 5:
        // One to four bytes anywhere in the ring.
        for (uint64_t flips = 1 + rng() % 4; flips > 0; --flips) {
          poke(base + rng() % ring_bytes, 1, 1 + rng() % 255);
        }
        break;
      case 6:
        // A descriptor's link or flags.
        if (rng() % 2) {
          poke(layout.DescAddr(slot()) + 14, 2, index());
        } else {
          poke(layout.DescAddr(slot()) + 12, 2, rng() & 0xFFFF);
        }
        break;
      default:
        // An avail or used entry, or either ring's index.
        switch (rng() % 4) {
          case 0:
            poke(layout.AvailRing(slot()), 2, index());
            break;
          case 1:
            poke(layout.UsedRing(slot()), 4, index());
            break;
          case 2:
            poke(layout.AvailIdx(), 2, rng() & 0xFFFF);
            break;
          default:
            poke(layout.UsedIdx(), 2, rng() & 0xFFFF);
            break;
        }
        break;
    }
    ASSERT_LE(driver.FreeDescriptors(), depth) << "step " << step;
  }
}

TEST(VirtqueueFuzz, MutatedRingBytes) {
  for (uint16_t depth : {uint16_t{2}, uint16_t{8}, uint16_t{64}}) {
    SCOPED_TRACE(testing::Message() << "depth " << depth);
    Tally tally;
    for (uint64_t seed = 0; seed < kSeedsPerDepth; ++seed) {
      SCOPED_TRACE(testing::Message() << "seed " << seed);
      FuzzOneQueue(depth, 0x76697274696f0000 + seed, tally);
      if (HasFatalFailure()) {
        return;
      }
    }
    // Both ends both accepted and refused, so the mutants reach the checks.
    EXPECT_GT(tally.popped, 0);
    EXPECT_GT(tally.pop_rejected, 0);
    EXPECT_GT(tally.polled, 0);
    EXPECT_GT(tally.poll_rejected, 0);
  }
}

}  // namespace
}  // namespace lastcpu::virtio

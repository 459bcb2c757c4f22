// Physical memory and buddy allocator tests, including property-style sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <set>
#include <span>
#include <vector>

#include "src/base/bytes.h"
#include "src/mem/buddy_allocator.h"
#include "src/mem/physical_memory.h"
#include "src/sim/rng.h"
#include "tests/fingerprint.h"

namespace lastcpu::mem {
namespace {

TEST(PhysicalMemoryTest, RoundsUpToPages) {
  PhysicalMemory memory(kPageSize + 1);
  EXPECT_EQ(memory.size_bytes(), 2 * kPageSize);
  EXPECT_EQ(memory.num_frames(), 2u);
}

TEST(PhysicalMemoryTest, ReadBackWrites) {
  PhysicalMemory memory(1 << 20);
  std::vector<uint8_t> data{1, 2, 3, 4, 5};
  memory.Write(PhysAddr(100), data);
  std::vector<uint8_t> out(5);
  memory.Read(PhysAddr(100), out);
  EXPECT_EQ(out, data);
}

TEST(PhysicalMemoryTest, ZeroFrameClears) {
  PhysicalMemory memory(1 << 16);
  const uint8_t written[] = {0xAB};
  memory.Write(PhysAddr(kPageSize + 5), written);
  memory.ZeroFrame(1);
  uint8_t read[] = {0xFF};
  memory.Read(PhysAddr(kPageSize + 5), read);
  EXPECT_EQ(read[0], 0);
}

TEST(PhysicalMemoryTest, OutOfRangeAborts) {
  PhysicalMemory memory(kPageSize);
  std::vector<uint8_t> data(16);
  EXPECT_DEATH(memory.Write(PhysAddr(kPageSize - 8), data), "out of range");
}

TEST(PhysicalMemoryTest, AccessWrappingPastTopOfAddressSpaceAborts) {
  // addr + len wraps to 4 here, which a naive end-address check accepts.
  PhysicalMemory memory(kPageSize);
  std::vector<uint8_t> data(8);
  EXPECT_DEATH(memory.Write(PhysAddr(UINT64_MAX - 3), data), "out of range");
  EXPECT_DEATH(memory.Read(PhysAddr(UINT64_MAX - 3), data), "out of range");
}

// Property test: writes of every shape, against a plain byte-vector shadow. A
// write that failed to mark its frame as written would let ZeroFrame skip
// it, leaking one application's bytes to the frame's next owner.
class PhysicalMemoryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PhysicalMemoryPropertyTest, MatchesByteShadowAcrossWritesAndZeroing) {
  sim::Rng rng(GetParam());
  constexpr uint64_t kFrames = 16;
  PhysicalMemory memory(kFrames * kPageSize);
  std::vector<uint8_t> shadow(kFrames * kPageSize, 0);
  std::vector<uint8_t> seen(shadow.size());

  for (int step = 0; step < 3000; ++step) {
    uint64_t kind = rng.NextBelow(4);
    if (kind == 0) {
      // Usually a short run; one in four spans up to two frame boundaries.
      uint64_t max_len = rng.NextBool(0.25) ? 2 * kPageSize : 64;
      uint64_t addr = rng.NextBelow(shadow.size());
      uint64_t len = std::min(rng.NextInRange(1, max_len), shadow.size() - addr);
      std::vector<uint8_t> data(len);
      rng.Fill(data);
      memory.Write(PhysAddr(addr), data);
      std::copy(data.begin(), data.end(), shadow.begin() + static_cast<ptrdiff_t>(addr));
    } else if (kind == 1) {
      // One byte: the smallest write, inside a single frame.
      uint64_t addr = rng.NextBelow(shadow.size());
      const uint8_t value[] = {static_cast<uint8_t>(rng.NextInRange(1, 255))};
      memory.Write(PhysAddr(addr), value);
      shadow[addr] = value[0];
    } else if (kind == 2) {
      // One little-endian word, which may straddle a frame boundary.
      uint64_t addr = rng.NextBelow(shadow.size() - 7);
      uint8_t word[8];
      StoreLe(word, 0, rng.NextU64());
      memory.Write(PhysAddr(addr), word);
      std::copy(std::begin(word), std::end(word), shadow.begin() + static_cast<ptrdiff_t>(addr));
    } else {
      uint64_t frame = rng.NextBelow(kFrames);
      memory.ZeroFrame(frame);
      std::fill_n(shadow.begin() + static_cast<ptrdiff_t>(frame * kPageSize), kPageSize, 0);
    }
    memory.Read(PhysAddr(0), seen);
    ASSERT_EQ(seen, shadow) << "diverged at step " << step;
    uint64_t probe = rng.NextBelow(shadow.size() - 7);
    uint8_t byte[1];
    memory.Read(PhysAddr(probe), byte);
    ASSERT_EQ(byte[0], shadow[probe]);
    uint8_t word[8];
    memory.Read(PhysAddr(probe), word);
    ASSERT_EQ(LoadLe<uint64_t>(word, 0),
              LoadLe<uint64_t>(std::span<const uint8_t>(shadow).subspan(probe, 8), 0));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhysicalMemoryPropertyTest, ::testing::Values(1, 7, 42, 1234));

TEST(BuddyTest, AllocatesDistinctBlocks) {
  BuddyAllocator buddy(64);
  auto a = buddy.Allocate(1);
  auto b = buddy.Allocate(1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(buddy.allocated_frames(), 2u);
}

TEST(BuddyTest, RoundsToPowerOfTwo) {
  BuddyAllocator buddy(64);
  ASSERT_TRUE(buddy.Allocate(3).ok());
  EXPECT_EQ(buddy.allocated_frames(), 4u);  // 3 -> 4
  ASSERT_TRUE(buddy.Allocate(5).ok());
  EXPECT_EQ(buddy.allocated_frames(), 12u);  // +8
}

TEST(BuddyTest, ExhaustionReturnsError) {
  BuddyAllocator buddy(8);
  ASSERT_TRUE(buddy.Allocate(8).ok());
  auto more = buddy.Allocate(1);
  EXPECT_FALSE(more.ok());
  EXPECT_EQ(more.status().code(), StatusCode::kResourceExhausted);
}

TEST(BuddyTest, OversizeRequestRejected) {
  BuddyAllocator buddy(8);
  EXPECT_FALSE(buddy.Allocate(16).ok());
}

TEST(BuddyTest, FreeEnablesReuse) {
  BuddyAllocator buddy(8);
  auto a = buddy.Allocate(8);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(buddy.Free(*a, 8).ok());
  EXPECT_EQ(buddy.free_frames(), 8u);
  EXPECT_TRUE(buddy.Allocate(8).ok());
}

TEST(BuddyTest, CoalescingRestoresLargestBlock) {
  BuddyAllocator buddy(16);
  std::vector<uint64_t> frames;
  for (int i = 0; i < 16; ++i) {
    auto f = buddy.Allocate(1);
    ASSERT_TRUE(f.ok());
    frames.push_back(*f);
  }
  EXPECT_EQ(buddy.LargestFreeBlock(), 0u);
  for (uint64_t f : frames) {
    ASSERT_TRUE(buddy.Free(f, 1).ok());
  }
  EXPECT_EQ(buddy.LargestFreeBlock(), 16u);
  EXPECT_DOUBLE_EQ(buddy.FragmentationRatio(), 0.0);
}

TEST(BuddyTest, DoubleFreeRejected) {
  BuddyAllocator buddy(8);
  auto a = buddy.Allocate(2);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(buddy.Free(*a, 2).ok());
  EXPECT_FALSE(buddy.Free(*a, 2).ok());
}

TEST(BuddyTest, FreeWithWrongSizeRejected) {
  BuddyAllocator buddy(8);
  auto a = buddy.Allocate(4);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(buddy.Free(*a, 2).ok());
  EXPECT_TRUE(buddy.Free(*a, 4).ok());
}

TEST(BuddyTest, NonPowerOfTwoTotalFrames) {
  BuddyAllocator buddy(100);
  EXPECT_EQ(buddy.total_frames(), 100u);
  EXPECT_EQ(buddy.free_frames(), 100u);
  uint64_t allocated = 0;
  std::vector<std::pair<uint64_t, uint64_t>> blocks;
  for (;;) {
    auto f = buddy.Allocate(4);
    if (!f.ok()) {
      break;
    }
    EXPECT_LE(*f + 4, 100u);  // never hands out frames past the end
    blocks.emplace_back(*f, 4);
    allocated += 4;
  }
  EXPECT_EQ(allocated, 100u);  // 100 = 64+32+4, all divisible into 4s
  for (auto [frame, count] : blocks) {
    ASSERT_TRUE(buddy.Free(frame, count).ok());
  }
  EXPECT_EQ(buddy.free_frames(), 100u);
}

TEST(BuddyTest, FragmentationRatioReflectsScatter) {
  BuddyAllocator buddy(16);
  // Allocate all singles, free every other one: free memory is fragmented.
  std::vector<uint64_t> frames;
  for (int i = 0; i < 16; ++i) {
    frames.push_back(*buddy.Allocate(1));
  }
  for (size_t i = 0; i < frames.size(); i += 2) {
    ASSERT_TRUE(buddy.Free(frames[i], 1).ok());
  }
  EXPECT_EQ(buddy.free_frames(), 8u);
  EXPECT_EQ(buddy.LargestFreeBlock(), 1u);
  EXPECT_GT(buddy.FragmentationRatio(), 0.8);
}

// Property test: random alloc/free sequences never hand out overlapping
// blocks, and accounting stays exact.
class BuddyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BuddyPropertyTest, RandomAllocFreeNeverOverlaps) {
  sim::Rng rng(GetParam());
  constexpr uint64_t kFrames = 1024;
  BuddyAllocator buddy(kFrames);
  struct Block {
    uint64_t frame;
    uint64_t count;
  };
  std::vector<Block> live;
  std::set<uint64_t> owned;  // every frame owned by a live block

  for (int step = 0; step < 2000; ++step) {
    bool do_alloc = live.empty() || rng.NextBool(0.55);
    if (do_alloc) {
      uint64_t count = rng.NextInRange(1, 32);
      auto f = buddy.Allocate(count);
      if (!f.ok()) {
        continue;
      }
      uint64_t rounded = uint64_t{1} << (64 - std::countl_zero(count - 1));
      if (count == 1) {
        rounded = 1;
      }
      for (uint64_t i = 0; i < rounded; ++i) {
        auto [it, inserted] = owned.insert(*f + i);
        ASSERT_TRUE(inserted) << "frame " << *f + i << " double-allocated";
        ASSERT_LT(*f + i, kFrames);
      }
      live.push_back(Block{*f, count});
    } else {
      size_t index = rng.NextBelow(live.size());
      Block block = live[index];
      live.erase(live.begin() + static_cast<ptrdiff_t>(index));
      ASSERT_TRUE(buddy.Free(block.frame, block.count).ok());
      uint64_t rounded = uint64_t{1} << (64 - std::countl_zero(block.count - 1));
      if (block.count == 1) {
        rounded = 1;
      }
      for (uint64_t i = 0; i < rounded; ++i) {
        owned.erase(block.frame + i);
      }
    }
    ASSERT_EQ(buddy.allocated_frames(), owned.size());
  }
  for (const Block& block : live) {
    ASSERT_TRUE(buddy.Free(block.frame, block.count).ok());
  }
  EXPECT_EQ(buddy.free_frames(), kFrames);
  EXPECT_EQ(buddy.LargestFreeBlock(), kFrames);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyPropertyTest, ::testing::Values(1, 2, 3, 17, 99));

// Placement is part of the model: a frame number reaches the IOMMUs, the
// lease receipts and every fingerprinted run. A seeded mix of allocs, frees
// and reserves over a range that is not a power of two hashes every outcome,
// so any change to which frame a call returns moves the pinned hash.
TEST(BuddyTest, SeededSequencePlacesFramesAsPinned) {
  sim::Rng rng(2021);
  BuddyAllocator buddy(1000);
  struct Block {
    uint64_t frame;
    uint64_t count;
  };
  std::vector<Block> live;
  testutil::Fnv1a hash;
  for (int step = 0; step < 4000; ++step) {
    uint64_t roll = rng.NextBelow(10);
    if (roll < 5 || live.empty()) {
      uint64_t count = rng.NextInRange(1, 16);
      auto frame = buddy.Allocate(count);
      hash.Add(frame.ok() ? *frame : ~uint64_t{0});
      if (frame.ok()) {
        live.push_back(Block{*frame, count});
      }
    } else if (roll < 9) {
      size_t index = rng.NextBelow(live.size());
      ASSERT_TRUE(buddy.Free(live[index].frame, live[index].count).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(index));
    } else {
      uint64_t count = rng.NextInRange(1, 8);
      uint64_t size = std::bit_ceil(count);
      uint64_t frame = rng.NextBelow(1000 / size) * size;
      bool reserved = buddy.Reserve(frame, count).ok();
      hash.Add(reserved ? frame : ~frame);
      if (reserved) {
        live.push_back(Block{frame, count});
      }
    }
    hash.Add(buddy.free_frames());
  }
  hash.Add(buddy.LargestFreeBlock());
  EXPECT_EQ(hash.value(), 0x509b6cdfb0573e22ull) << std::hex << "0x" << hash.value();
}

}  // namespace
}  // namespace lastcpu::mem

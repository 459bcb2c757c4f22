// Binary buddy allocator over physical page frames.
//
// The memory controller device uses this to manage DRAM. Classic power-of-two
// buddy scheme: O(log n) alloc/free, aggressive coalescing, exact accounting.
// An alloc/free pair splits and re-coalesces the same blocks over and over,
// so the nodes of erased free-list and allocation entries are kept and
// reused: traffic at a steady level allocates nothing on the host.
#ifndef SRC_MEM_BUDDY_ALLOCATOR_H_
#define SRC_MEM_BUDDY_ALLOCATOR_H_

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"

namespace lastcpu::mem {

class BuddyAllocator {
 public:
  // Manages frames [0, num_frames). num_frames need not be a power of two;
  // the range is tiled with maximal power-of-two blocks.
  explicit BuddyAllocator(uint64_t num_frames);

  // Allocates `count` contiguous frames (rounded up to the next power of
  // two). Returns the first frame number.
  Result<uint64_t> Allocate(uint64_t count);

  // Frees a block previously returned by Allocate with the same count.
  Status Free(uint64_t first_frame, uint64_t count);

  // Claims the specific block [first_frame, first_frame + 2^order(count)) —
  // the lease-rebuild path: a restarted controller re-admits regions its
  // clients still hold at their original addresses. `first_frame` must be
  // naturally aligned for the rounded count (as every Allocate result is).
  // Fails with kFailedPrecondition if any part of the block is allocated.
  Status Reserve(uint64_t first_frame, uint64_t count);

  uint64_t total_frames() const { return num_frames_; }
  uint64_t free_frames() const { return free_frames_; }
  uint64_t allocated_frames() const { return num_frames_ - free_frames_; }

  // Largest contiguous block currently allocatable, in frames.
  uint64_t LargestFreeBlock() const;

  // External fragmentation in [0,1]: 1 - largest_free_block / free_frames.
  double FragmentationRatio() const;

 private:
  static constexpr int kMaxOrder = 32;

  using FreeList = std::set<uint64_t>;
  using AllocatedMap = std::unordered_map<uint64_t, int>;

  static int OrderForCount(uint64_t count);

  // Splits blocks until one of exactly `order` is free; returns its frame.
  Result<uint64_t> AllocateOrder(int order);

  // Free-list and allocation-map edits through the spare nodes.
  void AddFree(int order, uint64_t frame);
  void RemoveFree(int order, FreeList::iterator it);
  void MarkAllocated(uint64_t frame, int order);

  uint64_t num_frames_;
  uint64_t free_frames_;
  // free_lists_[order] holds first-frame numbers of free blocks of 2^order
  // frames; ordered sets give deterministic (lowest-address-first) placement.
  std::vector<FreeList> free_lists_;
  // Allocated block -> order, for Free() validation.
  AllocatedMap allocated_;
  // Nodes of erased entries, waiting for the next insert.
  std::vector<FreeList::node_type> spare_free_nodes_;
  std::vector<AllocatedMap::node_type> spare_allocated_nodes_;
};

}  // namespace lastcpu::mem

#endif  // SRC_MEM_BUDDY_ALLOCATOR_H_

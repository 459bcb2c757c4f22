#include "src/mem/buddy_allocator.h"

#include <bit>
#include <utility>

#include "src/base/check.h"

namespace lastcpu::mem {

BuddyAllocator::BuddyAllocator(uint64_t num_frames)
    : num_frames_(num_frames), free_frames_(num_frames), free_lists_(kMaxOrder + 1) {
  LASTCPU_CHECK(num_frames > 0, "empty buddy allocator");
  LASTCPU_CHECK(num_frames < (uint64_t{1} << kMaxOrder), "buddy range too large");
  // Tile [0, num_frames) with maximal naturally-aligned power-of-two blocks.
  uint64_t frame = 0;
  while (frame < num_frames_) {
    int align_order = frame == 0 ? kMaxOrder : std::countr_zero(frame);
    uint64_t remaining = num_frames_ - frame;
    int fit_order = 63 - std::countl_zero(remaining);
    int order = std::min(align_order, fit_order);
    if (order > kMaxOrder) {
      order = kMaxOrder;
    }
    free_lists_[static_cast<size_t>(order)].insert(frame);
    frame += uint64_t{1} << order;
  }
}

void BuddyAllocator::AddFree(int order, uint64_t frame) {
  FreeList& list = free_lists_[static_cast<size_t>(order)];
  if (spare_free_nodes_.empty()) {
    list.insert(frame);
    return;
  }
  FreeList::node_type node = std::move(spare_free_nodes_.back());
  spare_free_nodes_.pop_back();
  node.value() = frame;
  list.insert(std::move(node));
}

void BuddyAllocator::RemoveFree(int order, FreeList::iterator it) {
  spare_free_nodes_.push_back(free_lists_[static_cast<size_t>(order)].extract(it));
}

void BuddyAllocator::MarkAllocated(uint64_t frame, int order) {
  if (spare_allocated_nodes_.empty()) {
    allocated_.emplace(frame, order);
    return;
  }
  AllocatedMap::node_type node = std::move(spare_allocated_nodes_.back());
  spare_allocated_nodes_.pop_back();
  node.key() = frame;
  node.mapped() = order;
  allocated_.insert(std::move(node));
}

int BuddyAllocator::OrderForCount(uint64_t count) {
  LASTCPU_CHECK(count > 0, "allocating zero frames");
  return std::bit_width(count - 1);
}

Result<uint64_t> BuddyAllocator::AllocateOrder(int order) {
  int available = order;
  while (available <= kMaxOrder && free_lists_[static_cast<size_t>(available)].empty()) {
    ++available;
  }
  if (available > kMaxOrder) {
    return ResourceExhausted("out of physical memory");
  }
  // Pop the lowest-address block of the available order.
  auto it = free_lists_[static_cast<size_t>(available)].begin();
  uint64_t frame = *it;
  RemoveFree(available, it);
  // Split down to the requested order, returning upper halves to free lists.
  while (available > order) {
    --available;
    AddFree(available, frame + (uint64_t{1} << available));
  }
  return frame;
}

Result<uint64_t> BuddyAllocator::Allocate(uint64_t count) {
  int order = OrderForCount(count);
  if (order > kMaxOrder || (uint64_t{1} << order) > num_frames_) {
    return ResourceExhausted("request exceeds memory size");
  }
  auto frame = AllocateOrder(order);
  if (!frame.ok()) {
    return frame.status();
  }
  MarkAllocated(*frame, order);
  free_frames_ -= uint64_t{1} << order;
  return *frame;
}

Status BuddyAllocator::Free(uint64_t first_frame, uint64_t count) {
  auto it = allocated_.find(first_frame);
  if (it == allocated_.end()) {
    return InvalidArgument("freeing unallocated block");
  }
  int order = it->second;
  if (OrderForCount(count) != order) {
    return InvalidArgument("free size does not match allocation");
  }
  spare_allocated_nodes_.push_back(allocated_.extract(it));
  free_frames_ += uint64_t{1} << order;

  // Coalesce with the buddy while it is free and within range.
  uint64_t frame = first_frame;
  while (order < kMaxOrder) {
    uint64_t buddy = frame ^ (uint64_t{1} << order);
    auto& list = free_lists_[static_cast<size_t>(order)];
    auto buddy_it = list.find(buddy);
    if (buddy_it == list.end() || buddy + (uint64_t{1} << order) > num_frames_) {
      break;
    }
    RemoveFree(order, buddy_it);
    frame = std::min(frame, buddy);
    ++order;
  }
  AddFree(order, frame);
  return OkStatus();
}

Status BuddyAllocator::Reserve(uint64_t first_frame, uint64_t count) {
  int order = OrderForCount(count);
  uint64_t size = uint64_t{1} << order;
  if (first_frame % size != 0 || first_frame + size > num_frames_) {
    return InvalidArgument("reserve target misaligned or out of range");
  }
  // Find the free block containing the target: walk up through the orders a
  // covering block could sit at.
  int found = -1;
  uint64_t found_frame = 0;
  for (int o = order; o <= kMaxOrder; ++o) {
    uint64_t candidate = first_frame & ~((uint64_t{1} << o) - 1);
    auto it = free_lists_[static_cast<size_t>(o)].find(candidate);
    if (it != free_lists_[static_cast<size_t>(o)].end()) {
      found = o;
      found_frame = candidate;
      RemoveFree(o, it);
      break;
    }
  }
  if (found < 0) {
    return FailedPrecondition("reserve target not free");
  }
  // Split down, keeping the half that contains the target and freeing the
  // other half, until the block is exactly the requested order.
  while (found > order) {
    --found;
    uint64_t half = uint64_t{1} << found;
    if (first_frame >= found_frame + half) {
      AddFree(found, found_frame);
      found_frame += half;
    } else {
      AddFree(found, found_frame + half);
    }
  }
  MarkAllocated(found_frame, order);
  free_frames_ -= size;
  return OkStatus();
}

uint64_t BuddyAllocator::LargestFreeBlock() const {
  for (int order = kMaxOrder; order >= 0; --order) {
    if (!free_lists_[static_cast<size_t>(order)].empty()) {
      return uint64_t{1} << order;
    }
  }
  return 0;
}

double BuddyAllocator::FragmentationRatio() const {
  if (free_frames_ == 0) {
    return 0.0;
  }
  return 1.0 - static_cast<double>(LargestFreeBlock()) / static_cast<double>(free_frames_);
}

}  // namespace lastcpu::mem

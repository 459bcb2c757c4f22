// VIRTIO 1.1-style split virtqueues over shared memory (paper Sec. 2.1).
//
// The paper proposes VIRTIO as the standard interface for exposing services
// from self-managing devices. We implement the split-queue *semantics*
// faithfully: a descriptor table plus avail/used rings living in shared
// memory, with the driver (client device) and device (service provider) each
// accessing them through their own IOMMU mapping of the same physical pages.
// The PCI transport is out of scope (DESIGN.md non-goals); notification rides
// the fabric doorbell.
//
// Ring layout at `base` for depth N (N a power of two):
//   [0,            16N)  descriptor table: {addr u64, len u32, flags u16, next u16}
//   [16N,          16N + 4 + 2N)  avail: flags u16, idx u16, ring[N] u16
//   [A,            A + 4 + 8N)    used:  flags u16, idx u16, ring[N] {id u32, len u32}
// where A = align8(16N + 4 + 2N).
#ifndef SRC_VIRTIO_VIRTQUEUE_H_
#define SRC_VIRTIO_VIRTQUEUE_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/fabric/fabric.h"
#include "src/sim/time.h"

namespace lastcpu::virtio {

// Descriptor flags (VIRTIO spec values).
inline constexpr uint16_t kDescFlagNext = 1;   // chain continues at `next`
inline constexpr uint16_t kDescFlagWrite = 2;  // device writes this buffer

// One buffer in a request chain, in the client's virtual address space.
struct BufferDesc {
  VirtAddr addr;
  uint32_t len = 0;
  bool device_writes = false;  // true for response buffers
};

// Completion record from the used ring.
struct UsedElem {
  uint16_t head = 0;     // head descriptor index of the completed chain
  uint32_t written = 0;  // bytes the device wrote into writable buffers
};

// Shared geometry helpers for both queue ends.
class VirtqueueLayout {
 public:
  VirtqueueLayout(VirtAddr base, uint16_t depth);

  // Total shared-memory bytes a queue of `depth` needs.
  static uint64_t BytesRequired(uint16_t depth);

  uint16_t depth() const { return depth_; }
  VirtAddr DescAddr(uint16_t index) const;
  VirtAddr AvailFlags() const { return avail_; }
  VirtAddr AvailIdx() const { return avail_ + 2; }
  VirtAddr AvailRing(uint16_t slot) const { return avail_ + 4 + uint64_t{2} * slot; }
  VirtAddr UsedFlags() const { return used_; }
  VirtAddr UsedIdx() const { return used_ + 2; }
  VirtAddr UsedRing(uint16_t slot) const { return used_ + 4 + uint64_t{8} * slot; }

 private:
  VirtAddr base_;
  VirtAddr avail_;
  VirtAddr used_;
  uint16_t depth_;
};

// What both queue ends share: the ring geometry, one IOMMU-translated path
// to the shared ring memory, the descriptor layout, and the modeled cost the
// accesses accrue.
class RingAccess {
 public:
  // Modeled time spent on ring/descriptor accesses since the last call.
  // Callers fold this into their own scheduling.
  sim::Duration TakeAccruedCost();

 protected:
  // One descriptor-table entry as it sits in shared memory.
  struct Desc {
    uint64_t addr = 0;
    uint32_t len = 0;
    uint16_t flags = 0;
    uint16_t next = 0;
  };

  // `self` is the accessing device (its IOMMU translates every ring access);
  // `pasid` selects the shared application address space.
  RingAccess(fabric::Fabric* fabric, DeviceId self, Pasid pasid, VirtAddr base, uint16_t depth);

  const VirtqueueLayout& layout() const { return layout_; }

  Status Read(VirtAddr addr, std::span<uint8_t> out);
  Status Write(VirtAddr addr, std::span<const uint8_t> bytes);
  Status ReadU16(VirtAddr addr, uint16_t* out);
  Status WriteU16(VirtAddr addr, uint16_t value);
  Status ReadDesc(uint16_t index, Desc* out);
  Status WriteDesc(uint16_t index, const Desc& desc);

 private:
  fabric::Fabric* fabric_;
  DeviceId self_;
  Pasid pasid_;
  VirtqueueLayout layout_;
  sim::Duration accrued_ = sim::Duration::Zero();
};

// The request-submitting end (lives in the client device, e.g. the NIC's KVS
// engine submitting file reads to the SSD).
class VirtqueueDriver : public RingAccess {
 public:
  VirtqueueDriver(fabric::Fabric* fabric, DeviceId self, Pasid pasid, VirtAddr base,
                  uint16_t depth);

  // Zeroes ring indices; call once after the shared memory is mapped.
  Status Initialize();

  // Writes descriptors for `chain` and publishes it on the avail ring.
  // Returns the head descriptor index (the completion correlator).
  // Takes a span so the per-request descriptor list never forces a heap
  // allocation; the initializer_list overload keeps `Submit({a, b})` call
  // sites working from stack-backed storage.
  Result<uint16_t> Submit(std::span<const BufferDesc> chain);
  Result<uint16_t> Submit(std::initializer_list<BufferDesc> chain) {
    return Submit(std::span<const BufferDesc>(chain.begin(), chain.size()));
  }

  // Consumes one completion from the used ring, if present, and recycles its
  // chain's descriptors by reading the links back from the table, which the
  // device can also write: a link that leaves the table or names a free
  // descriptor fails with kDataLoss and recycles nothing from there on.
  Result<std::optional<UsedElem>> PollUsed();

  // Free descriptors remaining (each chain consumes chain.size() of them).
  uint16_t FreeDescriptors() const { return static_cast<uint16_t>(free_list_.size()); }

 private:
  // Puts `index` back on the free stack.
  void Release(uint16_t index);

  std::vector<uint16_t> free_list_;
  // Whether each descriptor is on free_list_, so none goes on it twice.
  std::vector<bool> free_;
  // Reused across Submit calls (capacity persists) so claiming a chain's
  // descriptors costs no allocation in steady state.
  std::vector<uint16_t> scratch_indices_;
  // Shadow copies of ring state (the driver owns avail.idx).
  uint16_t avail_idx_ = 0;
  uint16_t last_used_seen_ = 0;
  // Chain length per head, to recycle descriptors on completion.
  std::vector<uint16_t> chain_length_;
};

// The buffers of a popped chain, in chain order. A request chain is short
// (the file protocol's has two), so the first kInline buffers sit in the
// chain itself and only a longer chain puts the rest on the heap.
class ChainBuffers {
 public:
  static constexpr size_t kInline = 2;

  size_t size() const { return size_; }
  const BufferDesc& operator[](size_t i) const {
    return i < kInline ? first_[i] : more_[i - kInline];
  }
  void push_back(const BufferDesc& buffer) {
    if (size_ < kInline) {
      first_[size_] = buffer;
    } else {
      more_.push_back(buffer);
    }
    ++size_;
  }

 private:
  std::array<BufferDesc, kInline> first_{};
  std::vector<BufferDesc> more_;
  size_t size_ = 0;
};

// A chain popped from the avail ring, resolved into buffers.
struct Chain {
  uint16_t head = 0;
  ChainBuffers buffers;
};

// The service-provider end (lives in the serving device, e.g. the SSD's file
// service popping requests).
class VirtqueueDevice : public RingAccess {
 public:
  VirtqueueDevice(fabric::Fabric* fabric, DeviceId self, Pasid pasid, VirtAddr base,
                  uint16_t depth);

  // Pops the next pending chain from the avail ring, reading its descriptors.
  // The driver writes both, so a head or link outside the table and a chain
  // that loops fail with kInvalidArgument.
  Result<std::optional<Chain>> PopAvail();

  // Publishes a completion for `head` on the used ring.
  Status PushUsed(uint16_t head, uint32_t written);

 private:
  uint16_t last_avail_seen_ = 0;
  uint16_t used_idx_ = 0;
};

}  // namespace lastcpu::virtio

#endif  // SRC_VIRTIO_VIRTQUEUE_H_

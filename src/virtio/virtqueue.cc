#include "src/virtio/virtqueue.h"

#include <utility>

#include "src/base/bytes.h"
#include "src/base/check.h"

namespace lastcpu::virtio {
namespace {

// Descriptor {addr u64, len u32, flags u16, next u16}; used element
// {id u32, len u32}.
constexpr size_t kDescBytes = 16;
constexpr size_t kUsedElemBytes = 8;

constexpr uint64_t Align8(uint64_t v) { return (v + 7) & ~uint64_t{7}; }

bool IsPowerOfTwo(uint16_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

VirtqueueLayout::VirtqueueLayout(VirtAddr base, uint16_t depth) : base_(base), depth_(depth) {
  LASTCPU_CHECK(IsPowerOfTwo(depth), "virtqueue depth must be a power of two, got %u", depth);
  uint64_t desc_bytes = kDescBytes * depth;
  avail_ = base_ + desc_bytes;
  used_ = VirtAddr(Align8(avail_.raw + 4 + uint64_t{2} * depth));
}

uint64_t VirtqueueLayout::BytesRequired(uint16_t depth) {
  LASTCPU_CHECK(IsPowerOfTwo(depth), "virtqueue depth must be a power of two, got %u", depth);
  uint64_t desc_bytes = kDescBytes * depth;
  uint64_t avail_bytes = 4 + uint64_t{2} * depth;
  uint64_t used_bytes = 4 + kUsedElemBytes * depth;
  return Align8(desc_bytes + avail_bytes) + used_bytes;
}

VirtAddr VirtqueueLayout::DescAddr(uint16_t index) const {
  LASTCPU_CHECK(index < depth_, "descriptor index out of range");
  return base_ + kDescBytes * index;
}

// --- shared ring access --------------------------------------------------------

RingAccess::RingAccess(fabric::Fabric* fabric, DeviceId self, Pasid pasid, VirtAddr base,
                       uint16_t depth)
    : fabric_(fabric), self_(self), pasid_(pasid), layout_(base, depth) {}

Status RingAccess::Read(VirtAddr addr, std::span<uint8_t> out) {
  fabric::AccessResult r = fabric_->MemRead(self_, pasid_, addr, out);
  accrued_ += r.cost;
  return r.status;
}

Status RingAccess::Write(VirtAddr addr, std::span<const uint8_t> bytes) {
  fabric::AccessResult r = fabric_->MemWrite(self_, pasid_, addr, bytes);
  accrued_ += r.cost;
  return r.status;
}

Status RingAccess::ReadU16(VirtAddr addr, uint16_t* out) {
  uint8_t buf[2];
  LASTCPU_RETURN_IF_ERROR(Read(addr, buf));
  *out = LoadLe<uint16_t>(buf, 0);
  return OkStatus();
}

Status RingAccess::WriteU16(VirtAddr addr, uint16_t value) {
  uint8_t buf[2];
  StoreLe(buf, 0, value);
  return Write(addr, buf);
}

Status RingAccess::ReadDesc(uint16_t index, Desc* out) {
  uint8_t buf[kDescBytes];
  LASTCPU_RETURN_IF_ERROR(Read(layout_.DescAddr(index), buf));
  *out = Desc{LoadLe<uint64_t>(buf, 0), LoadLe<uint32_t>(buf, 8), LoadLe<uint16_t>(buf, 12),
              LoadLe<uint16_t>(buf, 14)};
  return OkStatus();
}

Status RingAccess::WriteDesc(uint16_t index, const Desc& desc) {
  uint8_t buf[kDescBytes];
  StoreLe(buf, 0, desc.addr);
  StoreLe(buf, 8, desc.len);
  StoreLe(buf, 12, desc.flags);
  StoreLe(buf, 14, desc.next);
  return Write(layout_.DescAddr(index), buf);
}

sim::Duration RingAccess::TakeAccruedCost() {
  sim::Duration out = accrued_;
  accrued_ = sim::Duration::Zero();
  return out;
}

// --- driver side -------------------------------------------------------------

VirtqueueDriver::VirtqueueDriver(fabric::Fabric* fabric, DeviceId self, Pasid pasid, VirtAddr base,
                                 uint16_t depth)
    : RingAccess(fabric, self, pasid, base, depth), free_(depth, true), chain_length_(depth, 0) {
  free_list_.reserve(depth);
  // Stack of free descriptors, lowest index on top for determinism.
  for (uint16_t i = depth; i > 0; --i) {
    free_list_.push_back(static_cast<uint16_t>(i - 1));
  }
}

void VirtqueueDriver::Release(uint16_t index) {
  free_list_.push_back(index);
  free_[index] = true;
}

Status VirtqueueDriver::Initialize() {
  LASTCPU_RETURN_IF_ERROR(WriteU16(layout().AvailFlags(), 0));
  LASTCPU_RETURN_IF_ERROR(WriteU16(layout().AvailIdx(), 0));
  LASTCPU_RETURN_IF_ERROR(WriteU16(layout().UsedFlags(), 0));
  LASTCPU_RETURN_IF_ERROR(WriteU16(layout().UsedIdx(), 0));
  avail_idx_ = 0;
  last_used_seen_ = 0;
  return OkStatus();
}

Result<uint16_t> VirtqueueDriver::Submit(std::span<const BufferDesc> chain) {
  if (chain.empty()) {
    return InvalidArgument("empty descriptor chain");
  }
  if (chain.size() > free_list_.size()) {
    return ResourceExhausted("virtqueue full");
  }
  // Claim descriptors.
  std::vector<uint16_t>& indices = scratch_indices_;
  indices.resize(chain.size());
  for (auto& index : indices) {
    index = free_list_.back();
    free_list_.pop_back();
    free_[index] = false;
  }
  // Write the chain back-to-front so `next` links are known.
  for (size_t i = 0; i < chain.size(); ++i) {
    Desc desc{chain[i].addr.raw, chain[i].len,
              static_cast<uint16_t>(chain[i].device_writes ? kDescFlagWrite : 0), 0};
    if (i + 1 < chain.size()) {
      desc.flags |= kDescFlagNext;
      desc.next = indices[i + 1];
    }
    Status wrote = WriteDesc(indices[i], desc);
    if (!wrote.ok()) {
      // Return claimed descriptors before surfacing the fault.
      for (uint16_t index : indices) {
        Release(index);
      }
      return wrote;
    }
  }
  uint16_t head = indices[0];
  chain_length_[head] = static_cast<uint16_t>(chain.size());
  // Publish: ring slot, then the index increment (the device reads idx first).
  uint16_t slot = static_cast<uint16_t>(avail_idx_ & (layout().depth() - 1));
  LASTCPU_RETURN_IF_ERROR(WriteU16(layout().AvailRing(slot), head));
  ++avail_idx_;
  LASTCPU_RETURN_IF_ERROR(WriteU16(layout().AvailIdx(), avail_idx_));
  return head;
}

Result<std::optional<UsedElem>> VirtqueueDriver::PollUsed() {
  uint16_t device_used_idx = 0;
  LASTCPU_RETURN_IF_ERROR(ReadU16(layout().UsedIdx(), &device_used_idx));
  if (device_used_idx == last_used_seen_) {
    return std::optional<UsedElem>();
  }
  uint16_t slot = static_cast<uint16_t>(last_used_seen_ & (layout().depth() - 1));
  uint8_t used[kUsedElemBytes];
  LASTCPU_RETURN_IF_ERROR(Read(layout().UsedRing(slot), used));
  // The id is a u32 whose upper half PushUsed leaves zero: heads are u16.
  UsedElem elem{LoadLe<uint16_t>(used, 0), LoadLe<uint32_t>(used, 4)};
  ++last_used_seen_;
  // Recycle the chain's descriptors.
  if (elem.head < layout().depth() && chain_length_[elem.head] > 0) {
    // The chain indices were claimed contiguously off the free stack; we only
    // recorded the head and length, so walk the descriptor table to recover
    // the links.
    uint16_t count = std::exchange(chain_length_[elem.head], 0);
    uint16_t current = elem.head;
    for (uint16_t i = 0; i < count; ++i) {
      if (free_[current]) {
        return DataLoss("used chain names a free descriptor");
      }
      Release(current);
      if (i + 1 < count) {
        Desc desc;
        LASTCPU_RETURN_IF_ERROR(ReadDesc(current, &desc));
        if (desc.next >= layout().depth()) {
          return DataLoss("used chain links past the descriptor table");
        }
        current = desc.next;
      }
    }
  }
  return std::optional<UsedElem>(elem);
}

// --- device side -------------------------------------------------------------

VirtqueueDevice::VirtqueueDevice(fabric::Fabric* fabric, DeviceId self, Pasid pasid, VirtAddr base,
                                 uint16_t depth)
    : RingAccess(fabric, self, pasid, base, depth) {}

Result<std::optional<Chain>> VirtqueueDevice::PopAvail() {
  uint16_t driver_avail_idx = 0;
  LASTCPU_RETURN_IF_ERROR(ReadU16(layout().AvailIdx(), &driver_avail_idx));
  if (driver_avail_idx == last_avail_seen_) {
    return std::optional<Chain>();
  }
  uint16_t slot = static_cast<uint16_t>(last_avail_seen_ & (layout().depth() - 1));
  uint16_t head = 0;
  LASTCPU_RETURN_IF_ERROR(ReadU16(layout().AvailRing(slot), &head));
  ++last_avail_seen_;

  Chain chain;
  chain.head = head;
  uint16_t current = head;
  for (uint16_t hops = 0; hops <= layout().depth(); ++hops) {
    if (current >= layout().depth()) {
      return InvalidArgument("descriptor index out of range");
    }
    Desc desc;
    LASTCPU_RETURN_IF_ERROR(ReadDesc(current, &desc));
    chain.buffers.push_back(
        BufferDesc{VirtAddr(desc.addr), desc.len, (desc.flags & kDescFlagWrite) != 0});
    if ((desc.flags & kDescFlagNext) == 0) {
      return std::optional<Chain>(std::move(chain));
    }
    current = desc.next;
  }
  return InvalidArgument("descriptor chain loops");
}

Status VirtqueueDevice::PushUsed(uint16_t head, uint32_t written) {
  uint16_t slot = static_cast<uint16_t>(used_idx_ & (layout().depth() - 1));
  uint8_t used[kUsedElemBytes];
  StoreLe<uint32_t>(used, 0, head);
  StoreLe(used, 4, written);
  LASTCPU_RETURN_IF_ERROR(Write(layout().UsedRing(slot), used));
  ++used_idx_;
  return WriteU16(layout().UsedIdx(), used_idx_);
}

}  // namespace lastcpu::virtio

#include "src/mem/physical_memory.h"

#include <cstring>

#include "src/base/check.h"

namespace lastcpu::mem {

PhysicalMemory::PhysicalMemory(uint64_t bytes)
    : size_(PageCeil(bytes)),
      storage_(static_cast<uint8_t*>(std::calloc(size_, 1))),
      written_(size_ >> kPageShift, false) {
  LASTCPU_CHECK(bytes > 0, "zero-size physical memory");
  LASTCPU_CHECK(storage_ != nullptr, "cannot allocate %llu bytes of physical memory",
                static_cast<unsigned long long>(size_));
}

void PhysicalMemory::Write(PhysAddr addr, std::span<const uint8_t> data) {
  LASTCPU_CHECK(InRange(addr.raw, data.size()), "physical write out of range: addr=%llx len=%zu",
                static_cast<unsigned long long>(addr.raw), data.size());
  if (data.empty()) {
    return;
  }
  std::memcpy(storage_.get() + addr.raw, data.data(), data.size());
  uint64_t last = (addr.raw + data.size() - 1) >> kPageShift;
  for (uint64_t frame = addr.raw >> kPageShift; frame <= last; ++frame) {
    written_[frame] = true;
  }
}

void PhysicalMemory::Read(PhysAddr addr, std::span<uint8_t> out) const {
  LASTCPU_CHECK(InRange(addr.raw, out.size()), "physical read out of range: addr=%llx len=%zu",
                static_cast<unsigned long long>(addr.raw), out.size());
  std::memcpy(out.data(), storage_.get() + addr.raw, out.size());
}

void PhysicalMemory::ZeroFrame(uint64_t frame) {
  LASTCPU_CHECK(frame < num_frames(), "zeroing frame out of range");
  if (written_[frame]) {
    std::memset(storage_.get() + (frame << kPageShift), 0, kPageSize);
    written_[frame] = false;
  }
}

}  // namespace lastcpu::mem

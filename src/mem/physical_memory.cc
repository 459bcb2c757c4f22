#include "src/mem/physical_memory.h"

#include <algorithm>
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

uint8_t PhysicalMemory::ReadByte(PhysAddr addr) const {
  LASTCPU_CHECK(addr.raw < size_, "byte read out of range");
  return storage_[addr.raw];
}

void PhysicalMemory::WriteByte(PhysAddr addr, uint8_t value) {
  LASTCPU_CHECK(addr.raw < size_, "byte write out of range");
  storage_[addr.raw] = value;
  written_[addr.raw >> kPageShift] = true;
}

uint64_t PhysicalMemory::ReadU64(PhysAddr addr) const {
  uint8_t buf[8];
  Read(addr, buf);
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | buf[i];
  }
  return v;
}

void PhysicalMemory::WriteU64(PhysAddr addr, uint64_t value) {
  uint8_t buf[8];
  for (auto& b : buf) {
    b = static_cast<uint8_t>(value);
    value >>= 8;
  }
  Write(addr, buf);
}

}  // namespace lastcpu::mem

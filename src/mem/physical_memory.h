// The machine's DRAM: a flat physical address space with byte-level access.
//
// All data-plane traffic (VIRTIO rings, file contents, KVS records) ultimately
// lands here, always via IOMMU-translated accesses — no component other than
// the memory controller touches physical addresses directly.
#ifndef SRC_MEM_PHYSICAL_MEMORY_H_
#define SRC_MEM_PHYSICAL_MEMORY_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"

namespace lastcpu::mem {

// Storage comes from calloc, which serves a machine-sized request from a
// fresh anonymous mapping: a page of host memory is materialized only when
// the model first writes it. One bit per frame records "written since last
// zeroed", so zeroing a frame nobody wrote costs nothing. Every write path
// sets the bit; ZeroFrame alone reads and clears it.
class PhysicalMemory {
 public:
  // Size is rounded up to whole pages.
  explicit PhysicalMemory(uint64_t bytes);

  uint64_t size_bytes() const { return size_; }
  uint64_t num_frames() const { return size_ >> kPageShift; }

  // Bounds-checked raw access. Out-of-range is a wiring bug, so it aborts
  // rather than returning a status: hardware cannot address past the DIMMs.
  void Write(PhysAddr addr, std::span<const uint8_t> data);
  void Read(PhysAddr addr, std::span<uint8_t> out) const;

  // Zero-fills a frame (done on allocation so applications never observe
  // another application's stale data).
  void ZeroFrame(uint64_t frame);

 private:
  struct FreeDeleter {
    void operator()(uint8_t* bytes) const { std::free(bytes); }
  };

  // Whether [addr, addr + len) lies inside the DIMMs, without wrapping.
  bool InRange(uint64_t addr, uint64_t len) const { return len <= size_ && addr <= size_ - len; }

  uint64_t size_;
  std::unique_ptr<uint8_t[], FreeDeleter> storage_;
  std::vector<bool> written_;  // per frame
};

}  // namespace lastcpu::mem

#endif  // SRC_MEM_PHYSICAL_MEMORY_H_

// Wire format of file-service requests inside virtqueue buffers.
//
// A request chain is two buffers in the shared application address space:
//   buffer 0 (device-readable): FileRequestHeader + inline write payload
//   buffer 1 (device-writable): FileResponseHeader + read payload
// Both ends compute the shared-memory session layout from the same constants
// here, so the OpenResponse only needs to carry depth and total size.
#ifndef SRC_SSDDEV_FILE_PROTOCOL_H_
#define SRC_SSDDEV_FILE_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/virtio/virtqueue.h"

namespace lastcpu::ssddev {

enum class FileOp : uint8_t {
  kRead = 1,
  kWrite = 2,
  kAppend = 3,
  kStat = 4,
};

// Fixed 16-byte request header; a write/append payload follows immediately.
struct FileRequestHeader {
  FileOp op = FileOp::kRead;
  uint64_t offset = 0;  // ignored for append/stat
  uint32_t length = 0;  // payload bytes (write/append) or wanted bytes (read)

  static constexpr uint64_t kWireBytes = 16;
  void EncodeTo(std::span<uint8_t> out) const;
  // The service decodes bytes the client device wrote: rejects a short
  // buffer, an unknown op and nonzero reserved bytes (kInvalidArgument).
  static Result<FileRequestHeader> DecodeFrom(std::span<const uint8_t> in);
};

// Fixed 16-byte response header; read payload follows immediately.
struct FileResponseHeader {
  StatusCode status = StatusCode::kOk;
  uint32_t length = 0;      // payload bytes following the header
  uint64_t file_size = 0;   // current size (stat; append reports write offset)

  static constexpr uint64_t kWireBytes = 16;
  void EncodeTo(std::span<uint8_t> out) const;
  // The client decodes bytes the service device wrote: rejects a short
  // buffer and nonzero reserved bytes (kInvalidArgument), and a length above
  // kMaxReadBytes, which would overrun the response slot (kDataLoss).
  static Result<FileResponseHeader> DecodeFrom(std::span<const uint8_t> in);
};

// Per-request slot sizes in the shared session area. A session of depth N
// occupies: virtqueue rings + N request slots + N response slots.
inline constexpr uint64_t kRequestSlotBytes = 4096;
inline constexpr uint64_t kResponseSlotBytes = 16384;
// Largest write payload per request.
inline constexpr uint64_t kMaxWriteBytes = kRequestSlotBytes - FileRequestHeader::kWireBytes;
// Largest read payload per request.
inline constexpr uint64_t kMaxReadBytes = kResponseSlotBytes - FileResponseHeader::kWireBytes;

// Layout of a session's shared memory, computed identically on both ends.
struct SessionLayout {
  explicit SessionLayout(VirtAddr base, uint16_t depth);

  static uint64_t BytesRequired(uint16_t depth);

  VirtAddr ring_base;
  uint16_t depth;
  VirtAddr RequestSlot(uint16_t index) const;
  VirtAddr ResponseSlot(uint16_t index) const;

 private:
  VirtAddr request_area_;
  VirtAddr response_area_;
};

}  // namespace lastcpu::ssddev

#endif  // SRC_SSDDEV_FILE_PROTOCOL_H_

#include "src/ssddev/file_protocol.h"

#include "src/base/bytes.h"
#include "src/base/check.h"

namespace lastcpu::ssddev {
namespace {

// Bytes 1-3 of both headers are reserved and always encoded as zero.
bool ReservedBytesZero(std::span<const uint8_t> in) { return (in[1] | in[2] | in[3]) == 0; }

}  // namespace

void FileRequestHeader::EncodeTo(std::span<uint8_t> out) const {
  LASTCPU_CHECK(out.size() >= kWireBytes, "request header buffer too small");
  out[0] = static_cast<uint8_t>(op);
  out[1] = out[2] = out[3] = 0;
  StoreLe<uint64_t>(out, 4, offset);
  StoreLe<uint32_t>(out, 12, length);
}

Result<FileRequestHeader> FileRequestHeader::DecodeFrom(std::span<const uint8_t> in) {
  if (in.size() < kWireBytes) {
    return InvalidArgument("truncated file request header");
  }
  if (in[0] < static_cast<uint8_t>(FileOp::kRead) || in[0] > static_cast<uint8_t>(FileOp::kStat)) {
    return InvalidArgument("unknown file op");
  }
  if (!ReservedBytesZero(in)) {
    return InvalidArgument("reserved file request header bytes set");
  }
  FileRequestHeader header;
  header.op = static_cast<FileOp>(in[0]);
  header.offset = LoadLe<uint64_t>(in, 4);
  header.length = LoadLe<uint32_t>(in, 12);
  return header;
}

void FileResponseHeader::EncodeTo(std::span<uint8_t> out) const {
  LASTCPU_CHECK(out.size() >= kWireBytes, "response header buffer too small");
  out[0] = static_cast<uint8_t>(status);
  out[1] = out[2] = out[3] = 0;
  StoreLe<uint32_t>(out, 4, length);
  StoreLe<uint64_t>(out, 8, file_size);
}

Result<FileResponseHeader> FileResponseHeader::DecodeFrom(std::span<const uint8_t> in) {
  if (in.size() < kWireBytes) {
    return InvalidArgument("truncated file response header");
  }
  if (!ReservedBytesZero(in)) {
    return InvalidArgument("reserved file response header bytes set");
  }
  FileResponseHeader header;
  header.status = static_cast<StatusCode>(in[0]);
  header.length = LoadLe<uint32_t>(in, 4);
  header.file_size = LoadLe<uint64_t>(in, 8);
  // The client DMA-reads `length` bytes after the header, so a longer claim
  // would read past the response slot.
  if (header.length > kMaxReadBytes) {
    return DataLoss("file response longer than its slot");
  }
  return header;
}

SessionLayout::SessionLayout(VirtAddr base, uint16_t queue_depth)
    : ring_base(base), depth(queue_depth) {
  uint64_t ring_bytes = PageCeil(virtio::VirtqueueLayout::BytesRequired(queue_depth));
  request_area_ = base + ring_bytes;
  response_area_ = request_area_ + kRequestSlotBytes * queue_depth;
}

uint64_t SessionLayout::BytesRequired(uint16_t depth) {
  return PageCeil(virtio::VirtqueueLayout::BytesRequired(depth)) +
         depth * (kRequestSlotBytes + kResponseSlotBytes);
}

VirtAddr SessionLayout::RequestSlot(uint16_t index) const {
  LASTCPU_CHECK(index < depth, "slot index out of range");
  return request_area_ + static_cast<uint64_t>(index) * kRequestSlotBytes;
}

VirtAddr SessionLayout::ResponseSlot(uint16_t index) const {
  LASTCPU_CHECK(index < depth, "slot index out of range");
  return response_area_ + static_cast<uint64_t>(index) * kResponseSlotBytes;
}

}  // namespace lastcpu::ssddev

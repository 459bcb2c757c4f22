#include "src/kvs/kvs_protocol.h"

#include <utility>

#include "src/base/bytes.h"

namespace lastcpu::kvs {

std::vector<uint8_t> KvsRequest::Encode() const {
  ByteWriter w(EncodedBytes());
  w.PutU8(static_cast<uint8_t>(op));
  w.PutU64(sequence);
  w.PutU16(static_cast<uint16_t>(key.size()));
  w.PutU32(static_cast<uint32_t>(value.size()));
  w.PutBytes(key);
  w.PutBytes(value);
  return w.Take();
}

Result<KvsRequest> KvsRequest::Decode(std::span<const uint8_t> wire) {
  if (wire.size() < kHeaderBytes) {
    return InvalidArgument("truncated KVS request");
  }
  if (wire[0] < static_cast<uint8_t>(KvsOp::kGet) || wire[0] > static_cast<uint8_t>(KvsOp::kDelete)) {
    return InvalidArgument("unknown KVS op");
  }
  KvsRequest request;
  request.op = static_cast<KvsOp>(wire[0]);
  request.sequence = LoadLe<uint64_t>(wire, 1);
  uint16_t key_len = LoadLe<uint16_t>(wire, 9);
  uint32_t value_len = LoadLe<uint32_t>(wire, 11);
  // In 64 bits: a 32-bit sum wraps for a value length near 2^32.
  uint64_t end = kHeaderBytes + key_len + uint64_t{value_len};
  if (wire.size() < end) {
    return InvalidArgument("truncated KVS request body");
  }
  request.key.assign(reinterpret_cast<const char*>(wire.data() + kHeaderBytes), key_len);
  request.value.assign(wire.begin() + static_cast<ptrdiff_t>(kHeaderBytes + key_len),
                       wire.begin() + static_cast<ptrdiff_t>(end));
  return request;
}

std::vector<uint8_t> KvsResponse::Encode() const {
  ByteWriter w(EncodedBytes());
  w.PutU8(static_cast<uint8_t>(status));
  w.PutU64(sequence);
  w.PutU32(static_cast<uint32_t>(value.size()));
  w.PutBytes(value);
  return w.Take();
}

Result<KvsResponse> KvsResponse::Decode(std::span<const uint8_t> wire) {
  if (wire.size() < kHeaderBytes) {
    return InvalidArgument("truncated KVS response");
  }
  KvsResponse response;
  response.status = static_cast<StatusCode>(wire[0]);
  response.sequence = LoadLe<uint64_t>(wire, 1);
  uint32_t value_len = LoadLe<uint32_t>(wire, 9);
  uint64_t end = kHeaderBytes + uint64_t{value_len};
  if (wire.size() < end) {
    return InvalidArgument("truncated KVS response body");
  }
  response.value.assign(wire.begin() + static_cast<ptrdiff_t>(kHeaderBytes),
                        wire.begin() + static_cast<ptrdiff_t>(end));
  return response;
}

std::vector<uint8_t> LogRecord::Encode() const {
  ByteWriter w(EncodedBytes());
  w.PutU16(kMagic);
  w.PutU16(static_cast<uint16_t>(key.size()));
  w.PutU32(static_cast<uint32_t>(value.size()));
  w.PutU8(tombstone ? 1 : 0);
  w.PutBytes(key);
  w.PutBytes(value);
  return w.Take();
}

Result<std::pair<LogRecord, uint64_t>> LogRecord::Decode(std::span<const uint8_t> wire) {
  if (wire.size() < kHeaderBytes) {
    return InvalidArgument("truncated log record header");
  }
  if (LoadLe<uint16_t>(wire, 0) != kMagic) {
    return DataLoss("bad log record magic");
  }
  uint16_t key_len = LoadLe<uint16_t>(wire, 2);
  uint32_t value_len = LoadLe<uint32_t>(wire, 4);
  uint64_t total = kHeaderBytes + key_len + value_len;
  if (wire.size() < total) {
    return InvalidArgument("truncated log record body");
  }
  if (wire[8] > 1) {
    return DataLoss("bad log record tombstone flag");
  }
  LogRecord record;
  record.tombstone = wire[8] != 0;
  record.key.assign(reinterpret_cast<const char*>(wire.data() + kHeaderBytes), key_len);
  record.value.assign(wire.begin() + static_cast<ptrdiff_t>(kHeaderBytes + key_len),
                      wire.begin() + static_cast<ptrdiff_t>(total));
  return std::make_pair(std::move(record), total);
}

}  // namespace lastcpu::kvs

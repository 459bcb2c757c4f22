#include "src/kvs/kvs_protocol.h"

#include <utility>

namespace lastcpu::kvs {
namespace {

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint16_t GetU16(std::span<const uint8_t> in, size_t at) {
  return static_cast<uint16_t>(in[at] | (in[at + 1] << 8));
}

uint32_t GetU32(std::span<const uint8_t> in, size_t at) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | in[at + static_cast<size_t>(i)];
  }
  return v;
}

uint64_t GetU64(std::span<const uint8_t> in, size_t at) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | in[at + static_cast<size_t>(i)];
  }
  return v;
}

}  // namespace

std::vector<uint8_t> KvsRequest::Encode() const {
  std::vector<uint8_t> out;
  out.reserve(13 + key.size() + value.size());
  out.push_back(static_cast<uint8_t>(op));
  PutU64(out, sequence);
  PutU16(out, static_cast<uint16_t>(key.size()));
  PutU32(out, static_cast<uint32_t>(value.size()));
  out.insert(out.end(), key.begin(), key.end());
  out.insert(out.end(), value.begin(), value.end());
  return out;
}

Result<KvsRequest> KvsRequest::Decode(std::span<const uint8_t> wire) {
  if (wire.size() < 15) {
    return InvalidArgument("truncated KVS request");
  }
  if (wire[0] < static_cast<uint8_t>(KvsOp::kGet) || wire[0] > static_cast<uint8_t>(KvsOp::kDelete)) {
    return InvalidArgument("unknown KVS op");
  }
  KvsRequest request;
  request.op = static_cast<KvsOp>(wire[0]);
  request.sequence = GetU64(wire, 1);
  uint16_t key_len = GetU16(wire, 9);
  uint32_t value_len = GetU32(wire, 11);
  // In 64 bits: a 32-bit sum wraps for a value length near 2^32.
  uint64_t end = 15 + uint64_t{key_len} + value_len;
  if (wire.size() < end) {
    return InvalidArgument("truncated KVS request body");
  }
  request.key.assign(reinterpret_cast<const char*>(wire.data() + 15), key_len);
  request.value.assign(wire.begin() + 15 + key_len, wire.begin() + static_cast<ptrdiff_t>(end));
  return request;
}

std::vector<uint8_t> KvsResponse::Encode() const {
  std::vector<uint8_t> out;
  out.reserve(13 + value.size());
  out.push_back(static_cast<uint8_t>(status));
  PutU64(out, sequence);
  PutU32(out, static_cast<uint32_t>(value.size()));
  out.insert(out.end(), value.begin(), value.end());
  return out;
}

Result<KvsResponse> KvsResponse::Decode(std::span<const uint8_t> wire) {
  if (wire.size() < 13) {
    return InvalidArgument("truncated KVS response");
  }
  KvsResponse response;
  response.status = static_cast<StatusCode>(wire[0]);
  response.sequence = GetU64(wire, 1);
  uint32_t value_len = GetU32(wire, 9);
  uint64_t end = 13 + uint64_t{value_len};
  if (wire.size() < end) {
    return InvalidArgument("truncated KVS response body");
  }
  response.value.assign(wire.begin() + 13, wire.begin() + static_cast<ptrdiff_t>(end));
  return response;
}

std::vector<uint8_t> LogRecord::Encode() const {
  std::vector<uint8_t> out;
  out.reserve(EncodedBytes());
  PutU16(out, kMagic);
  PutU16(out, static_cast<uint16_t>(key.size()));
  PutU32(out, static_cast<uint32_t>(value.size()));
  out.push_back(tombstone ? 1 : 0);
  out.insert(out.end(), key.begin(), key.end());
  out.insert(out.end(), value.begin(), value.end());
  return out;
}

Result<std::pair<LogRecord, uint64_t>> LogRecord::Decode(std::span<const uint8_t> wire) {
  if (wire.size() < kHeaderBytes) {
    return InvalidArgument("truncated log record header");
  }
  if (GetU16(wire, 0) != kMagic) {
    return DataLoss("bad log record magic");
  }
  uint16_t key_len = GetU16(wire, 2);
  uint32_t value_len = GetU32(wire, 4);
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

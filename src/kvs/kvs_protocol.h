// KVS network protocol and on-flash log record format (paper Sec. 3).
//
// Requests arrive at the smart NIC over the external network; data lives in a
// log file on the smart SSD. Both formats are length-prefixed little-endian.
#ifndef SRC_KVS_KVS_PROTOCOL_H_
#define SRC_KVS_KVS_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/base/status.h"

namespace lastcpu::kvs {

enum class KvsOp : uint8_t {
  kGet = 1,
  kPut = 2,
  kDelete = 3,
};

// One client request datagram.
struct KvsRequest {
  KvsOp op = KvsOp::kGet;
  uint64_t sequence = 0;  // echoed in the response for client-side matching
  std::string key;
  std::vector<uint8_t> value;  // put only

  static constexpr uint64_t kHeaderBytes = 15;  // op u8 + seq u64 + key u16 + val u32

  uint64_t EncodedBytes() const { return kHeaderBytes + key.size() + value.size(); }
  std::vector<uint8_t> Encode() const;
  static Result<KvsRequest> Decode(std::span<const uint8_t> wire);
};

// One response datagram.
struct KvsResponse {
  StatusCode status = StatusCode::kOk;
  uint64_t sequence = 0;
  std::vector<uint8_t> value;  // get only

  static constexpr uint64_t kHeaderBytes = 13;  // status u8 + seq u64 + val u32

  uint64_t EncodedBytes() const { return kHeaderBytes + value.size(); }
  std::vector<uint8_t> Encode() const;
  static Result<KvsResponse> Decode(std::span<const uint8_t> wire);
};

// On-flash log record: every put/delete appends one. The index maps keys to
// (offset, length) of their latest record; recovery rescans the log.
struct LogRecord {
  std::string key;
  std::vector<uint8_t> value;
  bool tombstone = false;  // true for deletes

  static constexpr uint16_t kMagic = 0x4B56;  // "KV"
  static constexpr uint64_t kHeaderBytes = 9;  // magic u16 + key u16 + val u32 + tomb u8

  uint64_t EncodedBytes() const { return kHeaderBytes + key.size() + value.size(); }
  std::vector<uint8_t> Encode() const;
  // Decodes one record at the front of `wire`; reports bytes consumed.
  // DataLoss on a bad magic or a tombstone flag other than 0 or 1.
  static Result<std::pair<LogRecord, uint64_t>> Decode(std::span<const uint8_t> wire);
};

}  // namespace lastcpu::kvs

#endif  // SRC_KVS_KVS_PROTOCOL_H_

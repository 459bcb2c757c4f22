// Binary wire codec for bus messages.
//
// A real system-management bus moves bytes, not C++ objects; the codec defines
// that wire format (little-endian, length-prefixed strings and lists). Each
// payload encodes as its Fields() in order (see message.h), so the format
// follows from the struct declarations. The emulated bus routes in-memory
// `Message` objects for speed but uses EncodedSize() to model serialization
// latency; the codec goldens pin every payload kind's bytes.
#ifndef SRC_PROTO_CODEC_H_
#define SRC_PROTO_CODEC_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/proto/message.h"

namespace lastcpu::proto {

// Little-endian append-only byte sink.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  // Length-prefixed (u32) string.
  void PutString(const std::string& s);

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> Take() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  std::vector<uint8_t> bytes_;
};

// Bounds-checked little-endian byte source.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<std::string> GetString();

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

// Serializes a message (header + payload) to wire bytes.
std::vector<uint8_t> EncodeMessage(const Message& message);

// Parses wire bytes back into a message. Fails on truncation, bad magic,
// unknown type, out-of-range enum fields, impossible element counts, or
// trailing garbage.
Result<Message> DecodeMessage(std::span<const uint8_t> wire);

// Wire size without materializing the bytes (used for bus latency modeling).
size_t EncodedSize(const Message& message);

}  // namespace lastcpu::proto

#endif  // SRC_PROTO_CODEC_H_

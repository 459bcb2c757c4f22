// Little-endian byte order, once, for every format devices exchange: bus
// messages, KVS datagrams and log records, file-ring headers, virtqueue
// descriptors and rings, and FTL journal pages.
//
// Fixed layouts store and load each field at its offset with StoreLe/LoadLe,
// after one bounds check by the caller. Variable layouts append through
// ByteWriter and read back through ByteReader, which checks every read.
#ifndef SRC_BASE_BYTES_H_
#define SRC_BASE_BYTES_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/status.h"

namespace lastcpu {

// Writes `v` to out[at, at + sizeof(T)), least significant byte first.
template <std::unsigned_integral T>
constexpr void StoreLe(std::span<uint8_t> out, size_t at, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    out[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

// Reads the T that StoreLe wrote at `at`.
template <std::unsigned_integral T>
constexpr T LoadLe(std::span<const uint8_t> in, size_t at) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v | static_cast<T>(in[at + i]) << (8 * i));
  }
  return v;
}

// Little-endian append-only byte sink.
class ByteWriter {
 public:
  ByteWriter() = default;
  // Reserves `capacity` bytes, so a writer sized for its output allocates once.
  explicit ByteWriter(size_t capacity) { bytes_.reserve(capacity); }

  void PutU8(uint8_t v) { bytes_.push_back(v); }
  void PutU16(uint16_t v) { Put(v); }
  void PutU32(uint32_t v) { Put(v); }
  void PutU64(uint64_t v) { Put(v); }
  // A string after its length as a Len (u32 on the bus, u16 in journal pages).
  template <std::unsigned_integral Len = uint32_t>
  void PutString(std::string_view s) {
    Put(static_cast<Len>(s.size()));
    PutBytes(s);
  }
  // Raw bytes, without a length.
  template <typename Bytes>
  void PutBytes(const Bytes& bytes) {
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> Take() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  template <std::unsigned_integral T>
  void Put(T v) {
    size_t at = bytes_.size();
    bytes_.resize(at + sizeof(T));
    StoreLe(bytes_, at, v);
  }

  std::vector<uint8_t> bytes_;
};

// Bounds-checked little-endian byte source.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  Result<uint8_t> GetU8() { return Get<uint8_t>(); }
  Result<uint16_t> GetU16() { return Get<uint16_t>(); }
  Result<uint32_t> GetU32() { return Get<uint32_t>(); }
  Result<uint64_t> GetU64() { return Get<uint64_t>(); }
  // What PutString<Len> wrote.
  template <std::unsigned_integral Len = uint32_t>
  Result<std::string> GetString() {
    auto len = Get<Len>();
    if (!len.ok()) {
      return len.status();
    }
    if (remaining() < *len) {
      return InvalidArgument("truncated string");
    }
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), *len);
    pos_ += *len;
    return s;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  template <std::unsigned_integral T>
  Result<T> Get() {
    if (remaining() < sizeof(T)) {
      return InvalidArgument("truncated message");
    }
    T v = LoadLe<T>(data_, pos_);
    pos_ += sizeof(T);
    return v;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace lastcpu

#endif  // SRC_BASE_BYTES_H_

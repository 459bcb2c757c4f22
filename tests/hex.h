// Lowercase hex for byte goldens: a format's exact bytes, written where a
// reader can check them field by field.
#ifndef TESTS_HEX_H_
#define TESTS_HEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lastcpu::testutil {

inline std::vector<uint8_t> HexToBytes(std::string_view hex) {
  auto nibble = [](char c) -> uint8_t {
    return static_cast<uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  std::vector<uint8_t> bytes;
  bytes.reserve(hex.size() / 2);
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<uint8_t>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return bytes;
}

inline std::string BytesToHex(std::span<const uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  return hex;
}

}  // namespace lastcpu::testutil

#endif  // TESTS_HEX_H_

// Byte-identity gate: committed 64-bit FNV-1a hashes of deterministic runs.
//
// A refactor that means to keep the model unchanged must leave every entry
// in tests/fingerprint.cc alone. A change that means to move the model
// updates the entries it moves and says why in CHANGES.md. On a mismatch the
// failing test prints the entry name, both hashes, and the table line to
// paste in.
//
// The hashed runs use only integer and basic IEEE arithmetic (no libm
// transcendental calls, no exponential or Zipf draws), so the hashes should
// not depend on the standard library or the libm the tests are built with.
#ifndef TESTS_FINGERPRINT_H_
#define TESTS_FINGERPRINT_H_

#include <cstdint>
#include <string_view>

namespace lastcpu::testutil {

// Incremental 64-bit FNV-1a.
class Fnv1a {
 public:
  void Add(std::string_view bytes) {
    for (char c : bytes) {
      hash_ = (hash_ ^ static_cast<uint8_t>(c)) * kPrime;
    }
  }
  // Hashes the value's eight bytes, least significant first.
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((value >> (8 * i)) & 0xff)) * kPrime;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  static constexpr uint64_t kPrime = 0x100000001b3ull;
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

// Hash of a machine run: its executed-event count, then its MetricsJson.
inline uint64_t RunFingerprint(uint64_t events, std::string_view metrics_json) {
  Fnv1a hash;
  hash.Add(events);
  hash.Add(metrics_json);
  return hash.value();
}

// Fails the current test unless the committed table holds `hash` under
// `name`.
void ExpectFingerprint(std::string_view name, uint64_t hash);

}  // namespace lastcpu::testutil

#endif  // TESTS_FINGERPRINT_H_

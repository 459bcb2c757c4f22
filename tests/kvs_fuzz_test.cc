// Seeded mutation fuzzer for the KVS decoders. KvsRequest::Decode reads
// datagrams straight off the network, KvsResponse::Decode reads the server's
// answers, and LogRecord::Decode reads flash that a power cut may have torn.
// No input may crash a decoder, read past its buffer, or make it copy bytes
// that are not there. A mutant that decodes must re-encode to exactly the
// bytes it consumed. The mutants come from fixed seeds, so a failure
// reproduces exactly; the sanitizer build runs the same cases.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "src/kvs/kvs_protocol.h"

namespace lastcpu::kvs {
namespace {

constexpr int kFlipMutantsPerGolden = 2000;

// What a decoder that accepts a mutant hands back: its re-encoding and the
// number of input bytes it consumed.
struct Decoded {
  std::vector<uint8_t> reencoded;
  uint64_t consumed = 0;
};

// One decoder under test, its valid encodings, and where their length
// fields sit.
struct Codec {
  std::string name;
  std::vector<std::vector<uint8_t>> goldens;
  std::function<Result<Decoded>(std::span<const uint8_t>)> decode;
  std::vector<size_t> u16_lengths;  // offsets of u16 length fields
  std::vector<size_t> u32_lengths;  // offsets of u32 length fields
};

std::vector<uint8_t> Bytes(size_t n, uint8_t seed) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + 31 * i);
  }
  return out;
}

std::vector<Codec> Codecs() {
  Codec request{"KvsRequest", {}, nullptr, {9}, {11}};
  for (const KvsRequest& golden : {KvsRequest{KvsOp::kGet, 1, "user1000007", {}},
                                   KvsRequest{KvsOp::kPut, 0x0102030405060708, "k", Bytes(100, 7)},
                                   KvsRequest{KvsOp::kDelete, 42, "user42", {}},
                                   KvsRequest{KvsOp::kPut, 9, "", Bytes(3, 1)}}) {
    request.goldens.push_back(golden.Encode());
  }
  request.decode = [](std::span<const uint8_t> wire) -> Result<Decoded> {
    auto decoded = KvsRequest::Decode(wire);
    if (!decoded.ok()) {
      return decoded.status();
    }
    return Decoded{decoded->Encode(), 15 + decoded->key.size() + decoded->value.size()};
  };

  Codec response{"KvsResponse", {}, nullptr, {}, {9}};
  for (const KvsResponse& golden :
       {KvsResponse{StatusCode::kOk, 1, Bytes(64, 3)}, KvsResponse{StatusCode::kNotFound, 7, {}},
        KvsResponse{StatusCode::kInvalidArgument, 0xFFFFFFFFFFFFFFFF, Bytes(1, 9)}}) {
    response.goldens.push_back(golden.Encode());
  }
  response.decode = [](std::span<const uint8_t> wire) -> Result<Decoded> {
    auto decoded = KvsResponse::Decode(wire);
    if (!decoded.ok()) {
      return decoded.status();
    }
    return Decoded{decoded->Encode(), 13 + decoded->value.size()};
  };

  Codec record{"LogRecord", {}, nullptr, {2}, {4}};
  for (const LogRecord& golden : {LogRecord{"alpha", Bytes(40, 5), false},
                                  LogRecord{"user1000007", {}, true}, LogRecord{"", {0}, false}}) {
    record.goldens.push_back(golden.Encode());
  }
  record.decode = [](std::span<const uint8_t> wire) -> Result<Decoded> {
    auto decoded = LogRecord::Decode(wire);
    if (!decoded.ok()) {
      return decoded.status();
    }
    return Decoded{decoded->first.Encode(), decoded->second};
  };
  return {request, response, record};
}

struct Tally {
  int decoded = 0;
  int rejected = 0;
};

// Decodes one mutant and checks what the decoder promises about it.
void CheckMutant(const Codec& codec, const std::vector<uint8_t>& wire, Tally& tally) {
  Result<Decoded> decoded = codec.decode(wire);
  if (!decoded.ok()) {
    StatusCode code = decoded.status().code();
    EXPECT_TRUE(code == StatusCode::kInvalidArgument || code == StatusCode::kDataLoss)
        << decoded.status().ToString();
    ++tally.rejected;
    return;
  }
  ++tally.decoded;
  ASSERT_LE(decoded->consumed, wire.size());
  std::vector<uint8_t> consumed(wire.begin(),
                                wire.begin() + static_cast<ptrdiff_t>(decoded->consumed));
  EXPECT_EQ(decoded->reencoded, consumed);
}

void SetLittleEndian(std::vector<uint8_t>& bytes, size_t offset, size_t width, uint64_t v) {
  for (size_t i = 0; i < width; ++i) {
    bytes[offset + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint64_t GetLittleEndian(const std::vector<uint8_t>& bytes, size_t offset, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(bytes[offset + i]) << (8 * i);
  }
  return v;
}

// One to four bytes XORed with random nonzero values.
TEST(KvsCodecFuzz, ByteFlips) {
  std::mt19937_64 rng(0x6b767366757a7a31);
  for (const Codec& codec : Codecs()) {
    SCOPED_TRACE(codec.name);
    Tally tally;
    for (const std::vector<uint8_t>& wire : codec.goldens) {
      for (int i = 0; i < kFlipMutantsPerGolden; ++i) {
        std::vector<uint8_t> mutant = wire;
        const uint64_t flips = 1 + rng() % 4;
        for (uint64_t f = 0; f < flips; ++f) {
          mutant[rng() % mutant.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
        }
        CheckMutant(codec, mutant, tally);
      }
    }
    // Both outcomes occur, so the mutants reach past the header checks.
    EXPECT_GT(tally.decoded, 0);
    EXPECT_GT(tally.rejected, 0);
  }
}

// Every strict prefix of a valid encoding fails.
TEST(KvsCodecFuzz, Truncations) {
  for (const Codec& codec : Codecs()) {
    SCOPED_TRACE(codec.name);
    for (const std::vector<uint8_t>& wire : codec.goldens) {
      for (size_t len = 0; len < wire.size(); ++len) {
        std::vector<uint8_t> prefix(wire.begin(), wire.begin() + static_cast<ptrdiff_t>(len));
        EXPECT_FALSE(codec.decode(prefix).ok()) << "decoded from " << len << " bytes";
      }
    }
  }
}

// Every length field raised to larger values in turn, up to its type's
// maximum: a bounds check summed in too narrow a type wraps here.
TEST(KvsCodecFuzz, InflatedLengths) {
  for (const Codec& codec : Codecs()) {
    SCOPED_TRACE(codec.name);
    Tally tally;
    for (const std::vector<uint8_t>& wire : codec.goldens) {
      auto inflate = [&](size_t offset, size_t width, std::vector<uint64_t> values) {
        const uint64_t v = GetLittleEndian(wire, offset, width);
        values.insert(values.end(), {v + 1, 2 * v + 1, v + 0x100});
        const uint64_t max = (uint64_t{1} << (8 * width)) - 1;
        for (uint64_t inflated : values) {
          std::vector<uint8_t> mutant = wire;
          SetLittleEndian(mutant, offset, width, inflated & max);
          CheckMutant(codec, mutant, tally);
        }
      };
      for (size_t offset : codec.u16_lengths) {
        inflate(offset, 2, {0x7FFF, 0xFFF0, 0xFFFF});
      }
      for (size_t offset : codec.u32_lengths) {
        inflate(offset, 4, {0x10000, 0x7FFFFFFF, 0xFFFFFFF1, 0xFFFFFFFF});
      }
    }
    EXPECT_GT(tally.rejected, 0);
  }
}

}  // namespace
}  // namespace lastcpu::kvs

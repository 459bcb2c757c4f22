// Seeded mutation fuzzer for the file-ring headers. The file service decodes
// each FileRequestHeader from a request slot the client device wrote, and the
// client decodes each FileResponseHeader from a response slot the service
// device wrote, so both decoders read bytes a peer controls. No input may
// crash a decoder, a header that decodes must re-encode to exactly the 16
// bytes it came from, and a response may not claim more payload than its slot
// holds. The mutants come from fixed seeds, so a failure reproduces exactly;
// the sanitizer build runs the same cases.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "src/ssddev/file_protocol.h"

namespace lastcpu::ssddev {
namespace {

constexpr int kFlipMutantsPerGolden = 2000;
constexpr size_t kLengthOffsetRequest = 12;
constexpr size_t kLengthOffsetResponse = 4;

// One header type under test: its valid encodings, a decoder that hands back
// the re-encoding of what it accepted, and where its u32 length field sits.
struct Codec {
  std::string name;
  std::vector<std::vector<uint8_t>> goldens;
  std::function<Result<std::vector<uint8_t>>(std::span<const uint8_t>)> decode;
  size_t length_offset = 0;
};

template <typename Header>
std::vector<uint8_t> Encode(const Header& header) {
  std::vector<uint8_t> wire(Header::kWireBytes);
  header.EncodeTo(wire);
  return wire;
}

std::vector<Codec> Codecs() {
  Codec request{"FileRequestHeader", {}, nullptr, kLengthOffsetRequest};
  for (const FileRequestHeader& golden :
       {FileRequestHeader{FileOp::kRead, 0, 4096},
        FileRequestHeader{FileOp::kWrite, 0x0102030405060708, 100},
        FileRequestHeader{FileOp::kAppend, 0, static_cast<uint32_t>(kMaxWriteBytes)},
        FileRequestHeader{FileOp::kStat, 0, 0}}) {
    request.goldens.push_back(Encode(golden));
  }
  request.decode = [](std::span<const uint8_t> wire) -> Result<std::vector<uint8_t>> {
    auto decoded = FileRequestHeader::DecodeFrom(wire);
    if (!decoded.ok()) {
      return decoded.status();
    }
    return Encode(*decoded);
  };

  Codec response{"FileResponseHeader", {}, nullptr, kLengthOffsetResponse};
  for (const FileResponseHeader& golden :
       {FileResponseHeader{StatusCode::kOk, 0, 0},
        FileResponseHeader{StatusCode::kOk, static_cast<uint32_t>(kMaxReadBytes), 1ull << 40},
        FileResponseHeader{StatusCode::kNotFound, 0, 7},
        FileResponseHeader{StatusCode::kOk, 100, 12345}}) {
    response.goldens.push_back(Encode(golden));
  }
  response.decode = [](std::span<const uint8_t> wire) -> Result<std::vector<uint8_t>> {
    auto decoded = FileResponseHeader::DecodeFrom(wire);
    if (!decoded.ok()) {
      return decoded.status();
    }
    EXPECT_LE(decoded->length, kMaxReadBytes);
    return Encode(*decoded);
  };
  return {request, response};
}

struct Tally {
  int decoded = 0;
  int rejected = 0;
};

// Decodes one mutant and checks what the decoder promises about it.
void CheckMutant(const Codec& codec, const std::vector<uint8_t>& wire, Tally& tally) {
  Result<std::vector<uint8_t>> decoded = codec.decode(wire);
  if (!decoded.ok()) {
    StatusCode code = decoded.status().code();
    EXPECT_TRUE(code == StatusCode::kInvalidArgument || code == StatusCode::kDataLoss)
        << decoded.status().ToString();
    ++tally.rejected;
    return;
  }
  ++tally.decoded;
  EXPECT_EQ(*decoded, wire);
}

void SetU32(std::vector<uint8_t>& bytes, size_t offset, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint32_t GetU32(const std::vector<uint8_t>& bytes, size_t offset) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(bytes[offset + i]) << (8 * i);
  }
  return v;
}

// One to four bytes XORed with random nonzero values.
TEST(FileHeaderFuzz, ByteFlips) {
  std::mt19937_64 rng(0x66696c6568647231);
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
TEST(FileHeaderFuzz, Truncations) {
  for (const Codec& codec : Codecs()) {
    SCOPED_TRACE(codec.name);
    for (const std::vector<uint8_t>& wire : codec.goldens) {
      for (size_t len = 0; len < wire.size(); ++len) {
        std::vector<uint8_t> prefix(wire.begin(), wire.begin() + static_cast<ptrdiff_t>(len));
        auto decoded = codec.decode(prefix);
        ASSERT_FALSE(decoded.ok()) << "decoded from " << len << " bytes";
        EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
      }
    }
  }
}

// The length field raised in turn to larger values, up to the u32 maximum,
// on both sides of the response slot's bound.
TEST(FileHeaderFuzz, InflatedLengths) {
  for (const Codec& codec : Codecs()) {
    SCOPED_TRACE(codec.name);
    Tally tally;
    for (const std::vector<uint8_t>& wire : codec.goldens) {
      const uint32_t v = GetU32(wire, codec.length_offset);
      for (uint32_t inflated :
           {v + 1, 2 * v + 1, v + 0x100, static_cast<uint32_t>(kMaxReadBytes),
            static_cast<uint32_t>(kMaxReadBytes + 1), 0x10000u, 0x7FFFFFFFu, 0xFFFFFFFFu}) {
        std::vector<uint8_t> mutant = wire;
        SetU32(mutant, codec.length_offset, inflated);
        CheckMutant(codec, mutant, tally);
      }
    }
    EXPECT_GT(tally.decoded, 0);
  }
}

TEST(FileHeaderBounds, ResponseLengthMustFitItsSlot) {
  std::vector<uint8_t> wire =
      Encode(FileResponseHeader{StatusCode::kOk, static_cast<uint32_t>(kMaxReadBytes), 0});
  ASSERT_TRUE(FileResponseHeader::DecodeFrom(wire).ok());
  SetU32(wire, kLengthOffsetResponse, static_cast<uint32_t>(kMaxReadBytes + 1));
  EXPECT_EQ(FileResponseHeader::DecodeFrom(wire).status().code(), StatusCode::kDataLoss);
}

TEST(FileHeaderBounds, ReservedBytesMustBeZero) {
  for (size_t reserved = 1; reserved <= 3; ++reserved) {
    std::vector<uint8_t> request = Encode(FileRequestHeader{FileOp::kWrite, 8, 16});
    request[reserved] = 1;
    EXPECT_EQ(FileRequestHeader::DecodeFrom(request).status().code(),
              StatusCode::kInvalidArgument)
        << reserved;
    std::vector<uint8_t> response = Encode(FileResponseHeader{StatusCode::kOk, 16, 8});
    response[reserved] = 0x80;
    EXPECT_EQ(FileResponseHeader::DecodeFrom(response).status().code(),
              StatusCode::kInvalidArgument)
        << reserved;
  }
}

}  // namespace
}  // namespace lastcpu::ssddev

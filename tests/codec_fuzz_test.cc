// Seeded mutation fuzzer for proto::DecodeMessage. A device decodes bus bytes
// that another device wrote, so no input may crash the decoder, read past the
// buffer, or make it allocate for elements that are not there. Every mutant
// of every codec golden must come back as a Status. A mutant that decodes
// must re-encode to bytes that decode to the same message, with EncodedSize
// equal to the encoded length. The mutants come from fixed seeds, so a
// failure reproduces exactly; the sanitizer build runs the same cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "src/proto/codec.h"
#include "tests/codec_goldens.h"

namespace lastcpu::proto {
namespace {

constexpr size_t kHeaderBytes = 25;
constexpr size_t kPayloadLengthOffset = 21;
constexpr int kFlipMutantsPerGolden = 2000;

struct Tally {
  int decoded = 0;
  int rejected = 0;
};

uint32_t U32At(const std::vector<uint8_t>& bytes, size_t offset) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(bytes[offset + i]) << (8 * i);
  }
  return v;
}

void SetU32At(std::vector<uint8_t>& bytes, size_t offset, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

// Decodes one mutant and checks what the codec promises about it.
void CheckMutant(const std::vector<uint8_t>& wire, Tally& tally) {
  Result<Message> decoded = DecodeMessage(wire);
  if (!decoded.ok()) {
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << BytesToHex(wire);
    ++tally.rejected;
    return;
  }
  ++tally.decoded;
  std::vector<uint8_t> reencoded = EncodeMessage(*decoded);
  EXPECT_EQ(EncodedSize(*decoded), reencoded.size()) << BytesToHex(wire);
  Result<Message> again = DecodeMessage(reencoded);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << " for " << BytesToHex(wire);
  EXPECT_TRUE(SameWireMessage(*again, *decoded)) << BytesToHex(wire);
}

// One to four bytes XORed with random nonzero values, three times in four
// inside the payload, so most mutants get past the envelope checks.
TEST(CodecFuzz, ByteFlips) {
  std::mt19937_64 rng(0x6c61737463707531);
  Tally tally;
  for (const CodecGolden& golden : CodecGoldens()) {
    SCOPED_TRACE(MessageTypeName(golden.message.type()));
    const std::vector<uint8_t> wire = HexToBytes(golden.hex);
    const size_t payload_bytes = wire.size() - kHeaderBytes;
    for (int i = 0; i < kFlipMutantsPerGolden; ++i) {
      std::vector<uint8_t> mutant = wire;
      const uint64_t flips = 1 + rng() % 4;
      for (uint64_t f = 0; f < flips; ++f) {
        size_t at = payload_bytes > 0 && rng() % 4 != 0 ? kHeaderBytes + rng() % payload_bytes
                                                          : rng() % wire.size();
        mutant[at] ^= static_cast<uint8_t>(1 + rng() % 255);
      }
      CheckMutant(mutant, tally);
    }
  }
  // Both outcomes occur, so the mutants reach the payload decoders.
  EXPECT_GT(tally.decoded, 0);
  EXPECT_GT(tally.rejected, 0);
}

// Every strict prefix fails: cut inside the envelope, or cut inside the
// payload with the length prefix rewritten to match the cut.
TEST(CodecFuzz, Truncations) {
  for (const CodecGolden& golden : CodecGoldens()) {
    SCOPED_TRACE(MessageTypeName(golden.message.type()));
    const std::vector<uint8_t> wire = HexToBytes(golden.hex);
    for (size_t len = 0; len < wire.size(); ++len) {
      std::vector<uint8_t> prefix(wire.begin(), wire.begin() + static_cast<ptrdiff_t>(len));
      EXPECT_FALSE(DecodeMessage(prefix).ok()) << "decoded from " << len << " bytes";
    }
    for (size_t len = kHeaderBytes; len < wire.size(); ++len) {
      std::vector<uint8_t> prefix(wire.begin(), wire.begin() + static_cast<ptrdiff_t>(len));
      SetU32At(prefix, kPayloadLengthOffset, static_cast<uint32_t>(len - kHeaderBytes));
      EXPECT_FALSE(DecodeMessage(prefix).ok())
          << "decoded a payload cut to " << len - kHeaderBytes << " bytes";
    }
  }
}

// Every u32 from the payload length prefix on, element counts and string
// lengths among them, is raised to larger values in turn.
TEST(CodecFuzz, InflatedCounts) {
  Tally tally;
  for (const CodecGolden& golden : CodecGoldens()) {
    SCOPED_TRACE(MessageTypeName(golden.message.type()));
    const std::vector<uint8_t> wire = HexToBytes(golden.hex);
    for (size_t offset = kPayloadLengthOffset; offset + 4 <= wire.size(); ++offset) {
      const uint32_t v = U32At(wire, offset);
      for (uint32_t inflated : {v + 1, 2 * v + 1, v + 0x100, 0x10000u, 0x7FFFFFFFu, 0xFFFFFFFFu}) {
        std::vector<uint8_t> mutant = wire;
        SetU32At(mutant, offset, inflated);
        CheckMutant(mutant, tally);
      }
    }
  }
  EXPECT_GT(tally.rejected, 0);
}

}  // namespace
}  // namespace lastcpu::proto

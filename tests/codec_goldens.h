// Pinned wire bytes for the bus codec: one populated message per payload
// kind, with the exact bytes EncodeMessage produces for it. The golden test
// checks the codec against these bytes, and the decoder fuzzer mutates them.
#ifndef TESTS_CODEC_GOLDENS_H_
#define TESTS_CODEC_GOLDENS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/proto/message.h"
#include "tests/hex.h"

namespace lastcpu::proto {

struct CodecGolden {
  Message message;
  // EncodeMessage(message) as lowercase hex: the 25-byte header, then the
  // payload.
  std::string_view hex;
};

// One entry per Payload alternative, in variant order.
std::vector<CodecGolden> CodecGoldens();

using testutil::BytesToHex;
using testutil::HexToBytes;

// Equal in every field the wire carries (the trace context is not encoded).
bool SameWireMessage(const Message& a, const Message& b);

}  // namespace lastcpu::proto

#endif  // TESTS_CODEC_GOLDENS_H_

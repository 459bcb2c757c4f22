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
#include <vector>

#include "src/base/status.h"
#include "src/proto/message.h"

namespace lastcpu::proto {

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

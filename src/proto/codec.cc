#include "src/proto/codec.h"

#include <array>
#include <tuple>
#include <type_traits>
#include <utility>

#include "src/base/bytes.h"

namespace lastcpu::proto {
namespace {

// Wire magic: "LC" + protocol version 1.
constexpr uint8_t kMagic0 = 0x4C;
constexpr uint8_t kMagic1 = 0x43;
constexpr uint8_t kVersion = 1;

// Header: magic(2) + version(1) + type(2) + src(4) + dst(4) + reqid(8) +
// payload length prefix(4).
constexpr size_t kHeaderBytes = 25;

// --- field codecs -------------------------------------------------------------
//
// A payload is its Fields() in order, with nothing in between. Each field type
// has one Put and one Get below:
//   - fixed-width unsigned ints, little-endian; bool as one byte (0 or 1);
//   - one-byte enums, range-checked on decode;
//   - TypedId as its integer, VirtAddr as its u64;
//   - std::string as a u32 length plus the bytes;
//   - std::vector<T> as a u32 count plus the elements;
//   - nested structs as their own Fields().
// Put writes to a ByteWriter, or to a ByteCounter to size a message without
// building it. Get rejects truncation, out-of-range enums, and element counts
// the remaining bytes cannot hold.

// Counts the bytes a ByteWriter would receive.
class ByteCounter {
 public:
  constexpr void PutU8(uint8_t) { size_ += 1; }
  constexpr void PutU16(uint16_t) { size_ += 2; }
  constexpr void PutU32(uint32_t) { size_ += 4; }
  constexpr void PutU64(uint64_t) { size_ += 8; }
  constexpr void PutString(const std::string& s) { size_ += 4 + s.size(); }

  constexpr size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

template <typename T>
concept WireStruct = requires(T& value) { T::Fields(value); };

// The largest valid value of each enum field, and the error for a larger one.
struct EnumRange {
  uint8_t max;
  const char* error;
};
constexpr EnumRange WireRange(Access) { return {0x7, "bad access bits"}; }
constexpr EnumRange WireRange(ServiceType) {
  return {static_cast<uint8_t>(ServiceType::kKeyValue), "bad service type"};
}
constexpr EnumRange WireRange(StatusCode) {
  return {static_cast<uint8_t>(StatusCode::kPartitioned), "bad status code"};
}

// Structs and lists nest in each other, so these are declared ahead.
template <typename Sink, WireStruct T>
constexpr void Put(Sink& w, const T& value);
template <WireStruct T>
Status Get(ByteReader& r, T& value);

template <typename Sink>
constexpr void Put(Sink& w, uint8_t v) { w.PutU8(v); }
template <typename Sink>
constexpr void Put(Sink& w, uint16_t v) { w.PutU16(v); }
template <typename Sink>
constexpr void Put(Sink& w, uint32_t v) { w.PutU32(v); }
template <typename Sink>
constexpr void Put(Sink& w, uint64_t v) { w.PutU64(v); }
template <typename Sink>
constexpr void Put(Sink& w, bool v) { w.PutU8(v ? 1 : 0); }
template <typename Sink, typename E>
  requires std::is_enum_v<E>
constexpr void Put(Sink& w, E v) {
  static_assert(sizeof(E) == 1, "enum fields travel as one byte");
  w.PutU8(static_cast<uint8_t>(v));
}
template <typename Sink, typename Tag, typename Int>
constexpr void Put(Sink& w, TypedId<Tag, Int> id) { Put(w, id.value()); }
template <typename Sink>
constexpr void Put(Sink& w, VirtAddr v) { w.PutU64(v.raw); }
template <typename Sink>
constexpr void Put(Sink& w, const std::string& s) { w.PutString(s); }
template <typename Sink, typename T>
constexpr void Put(Sink& w, const std::vector<T>& values) {
  w.PutU32(static_cast<uint32_t>(values.size()));
  for (const T& value : values) {
    Put(w, value);
  }
}
template <typename Sink, WireStruct T>
constexpr void Put(Sink& w, const T& value) {
  std::apply([&](const auto&... fields) { (Put(w, fields), ...); }, T::Fields(value));
}

// The fewest bytes a T occupies on the wire: its encoding with every string
// and list empty.
template <typename T>
constexpr size_t kMinBytes = [] {
  ByteCounter counter;
  Put(counter, T{});
  return counter.size();
}();

Status Get(ByteReader& r, uint8_t& v) { return Assign(r.GetU8(), v); }
Status Get(ByteReader& r, uint16_t& v) { return Assign(r.GetU16(), v); }
Status Get(ByteReader& r, uint32_t& v) { return Assign(r.GetU32(), v); }
Status Get(ByteReader& r, uint64_t& v) { return Assign(r.GetU64(), v); }
Status Get(ByteReader& r, std::string& s) { return Assign(r.GetString(), s); }

Status Get(ByteReader& r, bool& v) {
  uint8_t raw = 0;
  LASTCPU_RETURN_IF_ERROR(Get(r, raw));
  v = raw != 0;
  return OkStatus();
}

template <typename E>
  requires std::is_enum_v<E>
Status Get(ByteReader& r, E& v) {
  uint8_t raw = 0;
  LASTCPU_RETURN_IF_ERROR(Get(r, raw));
  constexpr EnumRange kRange = WireRange(E{});
  if (raw > kRange.max) {
    return InvalidArgument(kRange.error);
  }
  v = static_cast<E>(raw);
  return OkStatus();
}

template <typename Tag, typename Int>
Status Get(ByteReader& r, TypedId<Tag, Int>& id) {
  Int raw = 0;
  LASTCPU_RETURN_IF_ERROR(Get(r, raw));
  id = TypedId<Tag, Int>(raw);
  return OkStatus();
}

Status Get(ByteReader& r, VirtAddr& v) { return Get(r, v.raw); }

template <typename T>
Status Get(ByteReader& r, std::vector<T>& values) {
  static_assert(kMinBytes<T> > 0, "a count must bound the bytes its elements need");
  uint32_t count = 0;
  LASTCPU_RETURN_IF_ERROR(Get(r, count));
  // Reject counts the buffer cannot possibly hold before allocating for them.
  if (static_cast<size_t>(count) * kMinBytes<T> > r.remaining()) {
    return InvalidArgument("element count exceeds buffer");
  }
  values.resize(count);
  for (T& value : values) {
    LASTCPU_RETURN_IF_ERROR(Get(r, value));
  }
  return OkStatus();
}

template <WireStruct T>
Status Get(ByteReader& r, T& value) {
  Status status;
  std::apply([&](auto&... fields) { (void)((status = Get(r, fields)).ok() && ...); },
             T::Fields(value));
  return status;
}

// --- payloads -------------------------------------------------------------------

template <typename Sink>
void PutPayload(Sink& w, const Payload& payload) {
  std::visit([&w](const auto& p) { Put(w, p); }, payload);
}

size_t PayloadSize(const Payload& payload) {
  ByteCounter counter;
  PutPayload(counter, payload);
  return counter.size();
}

// Indexed by type tag: each decoder makes its alternative the active one and
// reads it in place.
using PayloadDecoder = Status (*)(ByteReader&, Payload&);

template <size_t... I>
constexpr std::array<PayloadDecoder, sizeof...(I)> PayloadDecoders(std::index_sequence<I...>) {
  return {[](ByteReader& r, Payload& payload) { return Get(r, payload.emplace<I>()); }...};
}

constexpr auto kPayloadDecoders =
    PayloadDecoders(std::make_index_sequence<std::variant_size_v<Payload>>());

}  // namespace

std::vector<uint8_t> EncodeMessage(const Message& message) {
  ByteWriter w;
  w.PutU8(kMagic0);
  w.PutU8(kMagic1);
  w.PutU8(kVersion);
  w.PutU16(static_cast<uint16_t>(message.type()));
  Put(w, message.src);
  Put(w, message.dst);
  Put(w, message.request_id);
  w.PutU32(static_cast<uint32_t>(PayloadSize(message.payload)));
  PutPayload(w, message.payload);
  return w.Take();
}

Result<Message> DecodeMessage(std::span<const uint8_t> wire) {
  ByteReader r(wire);
  uint8_t magic0 = 0;
  uint8_t magic1 = 0;
  uint8_t version = 0;
  if (!Get(r, magic0).ok() || !Get(r, magic1).ok() || !Get(r, version).ok()) {
    return InvalidArgument("truncated header");
  }
  if (magic0 != kMagic0 || magic1 != kMagic1) {
    return InvalidArgument("bad magic");
  }
  if (version != kVersion) {
    return InvalidArgument("unsupported protocol version");
  }
  uint16_t type = 0;
  LASTCPU_RETURN_IF_ERROR(Get(r, type));
  if (type >= kPayloadDecoders.size()) {
    return InvalidArgument("unknown message type");
  }
  Message message;
  uint32_t payload_bytes = 0;
  LASTCPU_RETURN_IF_ERROR(Get(r, message.src));
  LASTCPU_RETURN_IF_ERROR(Get(r, message.dst));
  LASTCPU_RETURN_IF_ERROR(Get(r, message.request_id));
  LASTCPU_RETURN_IF_ERROR(Get(r, payload_bytes));
  if (r.remaining() < payload_bytes) {
    return InvalidArgument("truncated payload");
  }
  if (r.remaining() > payload_bytes) {
    return InvalidArgument("trailing bytes after message");
  }
  LASTCPU_RETURN_IF_ERROR(kPayloadDecoders[type](r, message.payload));
  if (!r.AtEnd()) {
    return InvalidArgument("trailing bytes after payload");
  }
  return message;
}

size_t EncodedSize(const Message& message) { return kHeaderBytes + PayloadSize(message.payload); }

}  // namespace lastcpu::proto

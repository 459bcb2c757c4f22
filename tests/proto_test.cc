// Wire codec and message tests: every payload kind round-trips and encodes to
// pinned bytes, malformed input is rejected, and envelope helpers correlate.
#include <gtest/gtest.h>

#include <set>
#include <variant>
#include <vector>

#include "src/base/bytes.h"
#include "src/proto/codec.h"
#include "src/proto/message.h"
#include "tests/codec_goldens.h"

namespace lastcpu::proto {
namespace {

Message Envelope(Payload payload) {
  return MakeRequest(DeviceId(1), DeviceId(2), RequestId(77), std::move(payload));
}

// Round-trips a message through the codec and checks full equality.
void ExpectRoundTrip(const Message& message) {
  std::vector<uint8_t> wire = EncodeMessage(message);
  EXPECT_EQ(wire.size(), EncodedSize(message));
  auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->src, message.src);
  EXPECT_EQ(decoded->dst, message.dst);
  EXPECT_EQ(decoded->request_id, message.request_id);
  EXPECT_EQ(decoded->type(), message.type());
  EXPECT_EQ(decoded->payload, message.payload);
}

TEST(CodecTest, ByteWriterLittleEndian) {
  ByteWriter w;
  w.PutU32(0x11223344);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x44);
  EXPECT_EQ(w.bytes()[3], 0x11);
}

TEST(CodecTest, StoreLoadLittleEndianAtOffset) {
  std::vector<uint8_t> buf(16, 0xEE);
  StoreLe<uint16_t>(buf, 1, 0x1122);
  StoreLe<uint32_t>(buf, 3, 0x33445566);
  StoreLe<uint64_t>(buf, 7, 0x778899AABBCCDDEE);
  EXPECT_EQ(buf, (std::vector<uint8_t>{0xEE, 0x22, 0x11, 0x66, 0x55, 0x44, 0x33, 0xEE, 0xDD,
                                       0xCC, 0xBB, 0xAA, 0x99, 0x88, 0x77, 0xEE}));
  EXPECT_EQ(LoadLe<uint16_t>(buf, 1), 0x1122);
  EXPECT_EQ(LoadLe<uint32_t>(buf, 3), 0x33445566u);
  EXPECT_EQ(LoadLe<uint64_t>(buf, 7), 0x778899AABBCCDDEEu);
}

TEST(CodecTest, ByteReaderRejectsTruncation) {
  std::vector<uint8_t> buf{1, 2, 3};
  ByteReader r(buf);
  EXPECT_TRUE(r.GetU16().ok());
  EXPECT_FALSE(r.GetU32().ok());
}

TEST(CodecTest, StringRoundTrip) {
  ByteWriter w;
  w.PutString("hello");
  w.PutString("");
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_EQ(*r.GetString(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(MessageTest, TypeMatchesVariantIndex) {
  Message m = Envelope(DiscoverRequest{ServiceType::kFile, "kv.log"});
  EXPECT_EQ(m.type(), MessageType::kDiscoverRequest);
  EXPECT_TRUE(m.Is<DiscoverRequest>());
  EXPECT_FALSE(m.Is<OpenRequest>());
  EXPECT_EQ(m.As<DiscoverRequest>().resource, "kv.log");
}

TEST(MessageTest, MakeResponseCorrelates) {
  Message request = Envelope(CloseRequest{InstanceId(9)});
  Message response = MakeResponse(request, DeviceId(2), CloseResponse{});
  EXPECT_EQ(response.dst, request.src);
  EXPECT_EQ(response.src, DeviceId(2));
  EXPECT_EQ(response.request_id, request.request_id);
}

TEST(MessageTest, MakeErrorCarriesStatus) {
  Message request = Envelope(CloseRequest{InstanceId(9)});
  Message error = MakeError(request, DeviceId(2), NotFound("no such instance"));
  ASSERT_TRUE(error.Is<ErrorResponse>());
  EXPECT_EQ(error.As<ErrorResponse>().code, StatusCode::kNotFound);
  EXPECT_EQ(error.As<ErrorResponse>().message, "no such instance");
}

TEST(MessageTest, EveryMessageTypeHasName) {
  for (size_t t = 0; t < std::variant_size_v<Payload>; ++t) {
    EXPECT_NE(MessageTypeName(static_cast<MessageType>(t)), "Unknown") << t;
  }
  EXPECT_EQ(MessageTypeName(static_cast<MessageType>(std::variant_size_v<Payload>)), "Unknown");
}

// A kind missing from the response set falls into the request path and its
// RPC never completes; that hung the machine for the batch and lease-reassert
// replies.
TEST(MessageTest, IsResponseHoldsForExactlyTheResponseKinds) {
  const std::set<MessageType> responses = {
      MessageType::kDiscoverResponse,
      MessageType::kOpenResponse,
      MessageType::kCloseResponse,
      MessageType::kMemAllocResponse,
      MessageType::kMemFreeResponse,
      MessageType::kGrantResponse,
      MessageType::kRevokeResponse,
      MessageType::kLoadImageResponse,
      MessageType::kAuthResponse,
      MessageType::kErrorResponse,
      MessageType::kMapConfirm,
      MessageType::kAttachQueueResponse,
      MessageType::kFileAdminResponse,
      MessageType::kFileListResponse,
      MessageType::kMemAllocBatchResponse,
      MessageType::kMemFreeBatchResponse,
      MessageType::kShardDirectoryResponse,
      MessageType::kLeaseReassertResponse,
  };
  ASSERT_EQ(responses.size(), 18u);
  for (size_t t = 0; t < std::variant_size_v<Payload>; ++t) {
    MessageType type = static_cast<MessageType>(t);
    EXPECT_EQ(IsResponse(type), responses.contains(type)) << MessageTypeName(type);
  }
  EXPECT_FALSE(IsResponse(static_cast<MessageType>(std::variant_size_v<Payload>)));
}

TEST(MessageTest, EveryServiceTypeHasName) {
  for (uint8_t t = 0; t <= static_cast<uint8_t>(ServiceType::kKeyValue); ++t) {
    EXPECT_NE(ServiceTypeName(static_cast<ServiceType>(t)), "unknown");
  }
}

// --- round trips for all payload kinds --------------------------------------

TEST(CodecRoundTrip, AliveAnnounce) {
  AliveAnnounce p;
  p.device_name = "smart-ssd0";
  p.services.push_back({DeviceId(4), ServiceType::kFile, "flashfs", 8});
  p.services.push_back({DeviceId(4), ServiceType::kLoader, "loader", 1});
  ExpectRoundTrip(Envelope(p));
}

TEST(CodecRoundTrip, DiscoverRequestAndResponse) {
  ExpectRoundTrip(Envelope(DiscoverRequest{ServiceType::kFile, "kv.log"}));
  ExpectRoundTrip(
      Envelope(DiscoverResponse{ServiceDescriptor{DeviceId(4), ServiceType::kFile, "flashfs", 0}}));
}

TEST(CodecRoundTrip, OpenCloseLifecycle) {
  ExpectRoundTrip(Envelope(OpenRequest{"flashfs", "kv.log", 0xDEADBEEF, Pasid(3)}));
  ExpectRoundTrip(Envelope(OpenResponse{InstanceId(11), 1 << 20, 256}));
  ExpectRoundTrip(Envelope(CloseRequest{InstanceId(11)}));
  ExpectRoundTrip(Envelope(CloseResponse{}));
}

TEST(CodecRoundTrip, MemoryOperations) {
  ExpectRoundTrip(
      Envelope(MemAllocRequest{Pasid(3), 4096 * 4, VirtAddr(0x10000), Access::kReadWrite}));
  ExpectRoundTrip(Envelope(MemAllocResponse{VirtAddr(0x10000), 4096 * 4}));
  ExpectRoundTrip(Envelope(MemFreeRequest{Pasid(3), VirtAddr(0x10000), 4096 * 4}));
  ExpectRoundTrip(Envelope(MemFreeResponse{}));
}

TEST(CodecRoundTrip, BatchedMemoryOperations) {
  ExpectRoundTrip(Envelope(MemAllocBatchRequest{Pasid(3), 4096 * 4, 32, Access::kReadWrite}));
  MemAllocBatchResponse alloc;
  alloc.vaddrs = {VirtAddr(0x10000), VirtAddr(0x20000), VirtAddr(0x30000)};
  alloc.bytes = 4096 * 4;
  ExpectRoundTrip(Envelope(alloc));
  MemFreeBatchRequest free_req;
  free_req.pasid = Pasid(3);
  free_req.vaddrs = {VirtAddr(0x10000), VirtAddr(0x30000)};
  free_req.bytes = 4096 * 4;
  ExpectRoundTrip(Envelope(free_req));
  ExpectRoundTrip(Envelope(MemFreeBatchResponse{}));
  // Empty vaddr lists survive too (a drain of zero regions is never sent,
  // but the codec must not care).
  ExpectRoundTrip(Envelope(MemAllocBatchResponse{}));
}

TEST(CodecRoundTrip, MapDirectiveWithEntries) {
  MapDirective p;
  p.target = DeviceId(7);
  p.pasid = Pasid(3);
  p.entries = {{0x10, 0x999, Access::kReadWrite}, {0x11, 0x99A, Access::kRead}};
  p.unmap = false;
  ExpectRoundTrip(Envelope(p));
  p.unmap = true;
  ExpectRoundTrip(Envelope(p));
}

TEST(CodecRoundTrip, GrantRevoke) {
  ExpectRoundTrip(
      Envelope(GrantRequest{Pasid(3), VirtAddr(0x10000), 8192, DeviceId(4), Access::kRead}));
  ExpectRoundTrip(Envelope(GrantResponse{}));
  ExpectRoundTrip(Envelope(RevokeRequest{Pasid(3), VirtAddr(0x10000), 8192, DeviceId(4)}));
  ExpectRoundTrip(Envelope(RevokeResponse{}));
}

TEST(CodecRoundTrip, NotificationsAndFailures) {
  ExpectRoundTrip(Envelope(Notify{InstanceId(5), 42}));
  ExpectRoundTrip(Envelope(ResourceFailed{"flashfs", InstanceId(5), "media error"}));
  ExpectRoundTrip(Envelope(DeviceFailed{DeviceId(4)}));
  ExpectRoundTrip(Envelope(DevicePermanentlyFailed{DeviceId(4), "crash loop"}));
  ExpectRoundTrip(Envelope(DevicePermanentlyFailed{DeviceId(9), ""}));
  ExpectRoundTrip(Envelope(ResetSignal{}));
  ExpectRoundTrip(Envelope(TeardownApp{Pasid(3)}));
}

TEST(CodecRoundTrip, LoaderAndAuth) {
  LoadImage p;
  p.app_name = "kvs-frontend";
  p.image = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01};
  p.auth_token = 123456789;
  ExpectRoundTrip(Envelope(p));
  ExpectRoundTrip(Envelope(LoadImageResponse{}));
  ExpectRoundTrip(Envelope(AuthRequest{"operator", "hunter2"}));
  ExpectRoundTrip(Envelope(AuthResponse{0xFEED, 1'000'000'000}));
}

TEST(CodecRoundTrip, ErrorResponse) {
  ExpectRoundTrip(Envelope(ErrorResponse{StatusCode::kPermissionDenied, "bad token"}));
}

TEST(CodecRoundTrip, MapConfirm) {
  ExpectRoundTrip(Envelope(MapConfirm{DeviceId(7), Pasid(3)}));
}

TEST(CodecRoundTrip, AttachQueue) {
  ExpectRoundTrip(Envelope(AttachQueue{InstanceId(5), VirtAddr(0x40000)}));
  ExpectRoundTrip(Envelope(AttachQueueResponse{}));
}

TEST(CodecRoundTrip, Heartbeat) {
  ExpectRoundTrip(Envelope(Heartbeat{}));
}

TEST(CodecRoundTrip, FileAdmin) {
  ExpectRoundTrip(Envelope(FileCreate{"new.log", 0xFEED}));
  ExpectRoundTrip(Envelope(FileDelete{"old.log", 0xFEED}));
  ExpectRoundTrip(Envelope(FileAdminResponse{}));
  ExpectRoundTrip(Envelope(FileList{0xFEED}));
  ExpectRoundTrip(Envelope(FileListResponse{{"a.log", "b.log"}}));
}

TEST(CodecRoundTrip, ShardDirectory) {
  ShardRecord shard0{DeviceId(2), 0, 0, uint64_t{1} << 40, 64 << 20};
  ShardRecord shard1{DeviceId((1u << 20) | 2), 1, uint64_t{1} << 40, uint64_t{2} << 40, 64 << 20};
  ExpectRoundTrip(Envelope(MemShardAnnounce{shard1}));
  ExpectRoundTrip(Envelope(ShardDirectoryRequest{}));
  ShardDirectoryResponse directory;
  directory.shards = {shard0, shard1};
  ExpectRoundTrip(Envelope(directory));
  ExpectRoundTrip(Envelope(ShardDirectoryResponse{}));
}

// --- wire goldens ------------------------------------------------------------
//
// The round trips above only check the codec against itself; these pin the
// exact bytes, so a reordered or resized field fails here.

TEST(CodecGolden, CoversEveryPayloadKindInVariantOrder) {
  std::vector<CodecGolden> goldens = CodecGoldens();
  ASSERT_EQ(goldens.size(), std::variant_size_v<Payload>);
  for (size_t i = 0; i < goldens.size(); ++i) {
    EXPECT_EQ(goldens[i].message.payload.index(), i);
  }
}

TEST(CodecGolden, EncodesToPinnedBytes) {
  for (const CodecGolden& golden : CodecGoldens()) {
    SCOPED_TRACE(MessageTypeName(golden.message.type()));
    EXPECT_EQ(BytesToHex(EncodeMessage(golden.message)), golden.hex);
    EXPECT_EQ(EncodedSize(golden.message), golden.hex.size() / 2);
  }
}

TEST(CodecGolden, PinnedBytesDecodeToTheirMessage) {
  for (const CodecGolden& golden : CodecGoldens()) {
    SCOPED_TRACE(MessageTypeName(golden.message.type()));
    auto decoded = DecodeMessage(HexToBytes(golden.hex));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(SameWireMessage(*decoded, golden.message));
  }
}

// --- malformed input ---------------------------------------------------------

TEST(CodecReject, BadMagic) {
  std::vector<uint8_t> wire = EncodeMessage(Envelope(ResetSignal{}));
  wire[0] = 0x00;
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

TEST(CodecReject, BadVersion) {
  std::vector<uint8_t> wire = EncodeMessage(Envelope(ResetSignal{}));
  wire[2] = 99;
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

TEST(CodecReject, UnknownType) {
  std::vector<uint8_t> wire = EncodeMessage(Envelope(ResetSignal{}));
  wire[3] = 0xFF;
  wire[4] = 0xFF;
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

TEST(CodecReject, TruncationAtEveryLength) {
  std::vector<uint8_t> wire =
      EncodeMessage(Envelope(OpenRequest{"flashfs", "kv.log", 7, Pasid(3)}));
  for (size_t len = 0; len < wire.size(); ++len) {
    auto truncated = DecodeMessage(std::span<const uint8_t>(wire.data(), len));
    EXPECT_FALSE(truncated.ok()) << "decoded from only " << len << " bytes";
  }
}

TEST(CodecReject, TrailingGarbage) {
  std::vector<uint8_t> wire = EncodeMessage(Envelope(ResetSignal{}));
  wire.push_back(0xAB);
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

TEST(CodecReject, OversizedMapEntryCount) {
  MapDirective p;
  p.target = DeviceId(7);
  p.pasid = Pasid(3);
  p.entries = {{1, 2, Access::kRead}};
  std::vector<uint8_t> wire = EncodeMessage(Envelope(p));
  // The entry-count field sits right after target(4) + pasid(4) in the
  // payload, which begins at header offset 25.
  size_t count_offset = 25 + 8;
  wire[count_offset] = 0xFF;
  wire[count_offset + 1] = 0xFF;
  wire[count_offset + 2] = 0xFF;
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

TEST(CodecReject, BadAccessBits) {
  std::vector<uint8_t> wire = EncodeMessage(
      Envelope(MemAllocRequest{Pasid(1), 4096, VirtAddr(0), Access::kReadWrite}));
  wire.back() = 0xFF;  // access byte is last in MemAllocRequest
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

// The payload begins at header offset 25; both kinds lead with their enum.
TEST(CodecReject, BadServiceType) {
  std::vector<uint8_t> wire = EncodeMessage(Envelope(DiscoverRequest{ServiceType::kKeyValue, ""}));
  ASSERT_TRUE(DecodeMessage(wire).ok());
  wire[25] = static_cast<uint8_t>(ServiceType::kKeyValue) + 1;
  EXPECT_FALSE(DecodeMessage(wire).ok());
  wire[25] = 0xFF;
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

TEST(CodecReject, BadStatusCode) {
  std::vector<uint8_t> wire =
      EncodeMessage(Envelope(ErrorResponse{StatusCode::kPartitioned, "unreachable"}));
  ASSERT_TRUE(DecodeMessage(wire).ok());
  wire[25] = static_cast<uint8_t>(StatusCode::kPartitioned) + 1;
  EXPECT_FALSE(DecodeMessage(wire).ok());
  wire[25] = 0xFF;
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

}  // namespace
}  // namespace lastcpu::proto

#include "tests/codec_goldens.h"

#include <utility>

namespace lastcpu::proto {
namespace {

// Every field holds a distinct value, so encoding two fields in swapped order
// changes the bytes.
Message Envelope(Payload payload) {
  return MakeRequest(DeviceId(0x00010203), DeviceId(0x00040506), RequestId(0x0708090A0B0C0D0E),
                     std::move(payload));
}

ShardRecord Shard(uint32_t segment) {
  return ShardRecord{MakeSegmentDeviceId(segment, 2), segment, uint64_t{segment} << 40,
                     uint64_t{segment + 1} << 40, uint64_t{64 + segment} << 20, 3 + segment};
}

}  // namespace

std::vector<CodecGolden> CodecGoldens() {
  return {
      {Envelope(AliveAnnounce{"ssd0",
                              {{DeviceId(0x11), ServiceType::kFile, "flashfs", 8},
                               {DeviceId(0x12), ServiceType::kLoader, "loader", 1}}}),
       "4c4301000003020100060504000e0d0c0b0a09080733000000"
       "040000007373643002000000110000000107000000666c617368667308000000"
       "1200000005060000006c6f6164657201000000"},
      {Envelope(DiscoverRequest{ServiceType::kKeyValue, "kv.log"}),
       "4c4301010003020100060504000e0d0c0b0a0908070b000000"
       "08060000006b762e6c6f67"},
      {Envelope(DiscoverResponse{{DeviceId(0x13), ServiceType::kAuth, "auth", 2}}),
       "4c4301020003020100060504000e0d0c0b0a09080711000000"
       "1300000006040000006175746802000000"},
      {Envelope(OpenRequest{"flashfs", "kv.log", 0xDEADBEEFCAFEF00D, Pasid(0x21)}),
       "4c4301030003020100060504000e0d0c0b0a09080721000000"
       "07000000666c6173686673060000006b762e6c6f670df0fecaefbeadde210000"
       "00"},
      {Envelope(OpenResponse{InstanceId(0x3132333435), 1 << 20, 256}),
       "4c4301040003020100060504000e0d0c0b0a09080712000000"
       "353433323100000000001000000000000001"},
      {Envelope(CloseRequest{InstanceId(0x41)}),
       "4c4301050003020100060504000e0d0c0b0a09080708000000"
       "4100000000000000"},
      {Envelope(CloseResponse{}),
       "4c4301060003020100060504000e0d0c0b0a09080700000000"},
      {Envelope(MemAllocRequest{Pasid(0x22), 0x4000, VirtAddr(0x7F0000001000), Access::kReadWrite}),
       "4c4301070003020100060504000e0d0c0b0a09080715000000"
       "22000000004000000000000000100000007f000003"},
      {Envelope(MemAllocResponse{VirtAddr(0x7F0000002000), 0x8000, 0x1234}),
       "4c4301080003020100060504000e0d0c0b0a09080718000000"
       "00200000007f000000800000000000003412000000000000"},
      {Envelope(MapDirective{DeviceId(0x14),
                             Pasid(0x23),
                             {{0x10, 0x999, Access::kReadWrite}, {0x11, 0x99A, Access::kRead}},
                             true,
                             7}),
       "4c4301090003020100060504000e0d0c0b0a09080737000000"
       "1400000023000000020000001000000000000000990900000000000003110000"
       "00000000009a0900000000000001010700000000000000"},
      {Envelope(MemFreeRequest{Pasid(0x24), VirtAddr(0x7F0000003000), 0xC000}),
       "4c43010a0003020100060504000e0d0c0b0a09080714000000"
       "2400000000300000007f000000c0000000000000"},
      {Envelope(MemFreeResponse{}),
       "4c43010b0003020100060504000e0d0c0b0a09080700000000"},
      {Envelope(GrantRequest{Pasid(0x25), VirtAddr(0x7F0000004000), 0x2000, DeviceId(0x15),
                             Access::kRead}),
       "4c43010c0003020100060504000e0d0c0b0a09080719000000"
       "2500000000400000007f000000200000000000001500000001"},
      {Envelope(GrantResponse{}),
       "4c43010d0003020100060504000e0d0c0b0a09080700000000"},
      {Envelope(RevokeRequest{Pasid(0x26), VirtAddr(0x7F0000005000), 0x3000, DeviceId(0x16)}),
       "4c43010e0003020100060504000e0d0c0b0a09080718000000"
       "2600000000500000007f0000003000000000000016000000"},
      {Envelope(RevokeResponse{}),
       "4c43010f0003020100060504000e0d0c0b0a09080700000000"},
      {Envelope(Notify{InstanceId(0x42), 0x5152535455565758}),
       "4c4301100003020100060504000e0d0c0b0a09080710000000"
       "42000000000000005857565554535251"},
      {Envelope(ResourceFailed{"flashfs", InstanceId(0x43), "media error"}),
       "4c4301110003020100060504000e0d0c0b0a09080722000000"
       "07000000666c617368667343000000000000000b0000006d6564696120657272"
       "6f72"},
      {Envelope(DeviceFailed{DeviceId(0x17)}),
       "4c4301120003020100060504000e0d0c0b0a09080704000000"
       "17000000"},
      {Envelope(ResetSignal{}),
       "4c4301130003020100060504000e0d0c0b0a09080700000000"},
      {Envelope(TeardownApp{Pasid(0x27)}),
       "4c4301140003020100060504000e0d0c0b0a09080704000000"
       "27000000"},
      {Envelope(
           LoadImage{"kvs-frontend", {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}, 0x6162636465666768}),
       "4c4301150003020100060504000e0d0c0b0a09080722000000"
       "0c0000006b76732d66726f6e74656e6406000000deadbeef0001686766656463"
       "6261"},
      {Envelope(LoadImageResponse{}),
       "4c4301160003020100060504000e0d0c0b0a09080700000000"},
      {Envelope(AuthRequest{"operator", "hunter2"}),
       "4c4301170003020100060504000e0d0c0b0a09080717000000"
       "080000006f70657261746f720700000068756e74657232"},
      {Envelope(AuthResponse{0xFEED, 1'000'000'000}),
       "4c4301180003020100060504000e0d0c0b0a09080710000000"
       "edfe00000000000000ca9a3b00000000"},
      {Envelope(ErrorResponse{StatusCode::kPartitioned, "segment 2 unreachable"}),
       "4c4301190003020100060504000e0d0c0b0a0908071a000000"
       "0d150000007365676d656e74203220756e726561636861626c65"},
      {Envelope(MapConfirm{DeviceId(0x18), Pasid(0x28)}),
       "4c43011a0003020100060504000e0d0c0b0a09080708000000"
       "1800000028000000"},
      {Envelope(AttachQueue{InstanceId(0x44), VirtAddr(0x7F0000006000)}),
       "4c43011b0003020100060504000e0d0c0b0a09080710000000"
       "440000000000000000600000007f0000"},
      {Envelope(AttachQueueResponse{}),
       "4c43011c0003020100060504000e0d0c0b0a09080700000000"},
      {Envelope(Heartbeat{}),
       "4c43011d0003020100060504000e0d0c0b0a09080700000000"},
      {Envelope(FileCreate{"new.log", 0x71}),
       "4c43011e0003020100060504000e0d0c0b0a09080713000000"
       "070000006e65772e6c6f677100000000000000"},
      {Envelope(FileDelete{"old.log", 0x72}),
       "4c43011f0003020100060504000e0d0c0b0a09080713000000"
       "070000006f6c642e6c6f677200000000000000"},
      {Envelope(FileAdminResponse{}),
       "4c4301200003020100060504000e0d0c0b0a09080700000000"},
      {Envelope(FileList{0x73}),
       "4c4301210003020100060504000e0d0c0b0a09080708000000"
       "7300000000000000"},
      {Envelope(FileListResponse{{"a.log", "bb.log", ""}}),
       "4c4301220003020100060504000e0d0c0b0a0908071b000000"
       "0300000005000000612e6c6f670600000062622e6c6f6700000000"},
      {Envelope(DevicePermanentlyFailed{DeviceId(0x19), "crash loop"}),
       "4c4301230003020100060504000e0d0c0b0a09080712000000"
       "190000000a0000006372617368206c6f6f70"},
      {Envelope(MemAllocBatchRequest{Pasid(0x29), 0x1000, 32, Access::kWrite}),
       "4c4301240003020100060504000e0d0c0b0a09080711000000"
       "2900000000100000000000002000000002"},
      {Envelope(
           MemAllocBatchResponse{{VirtAddr(0x10000), VirtAddr(0x20000)}, 0x1000, {0x81, 0x82}}),
       "4c4301250003020100060504000e0d0c0b0a09080730000000"
       "0200000000000100000000000000020000000000001000000000000002000000"
       "81000000000000008200000000000000"},
      {Envelope(MemFreeBatchRequest{
           Pasid(0x2A), {VirtAddr(0x30000), VirtAddr(0x40000), VirtAddr(0x50000)}, 0x1000}),
       "4c4301260003020100060504000e0d0c0b0a09080728000000"
       "2a00000003000000000003000000000000000400000000000000050000000000"
       "0010000000000000"},
      {Envelope(MemFreeBatchResponse{}),
       "4c4301270003020100060504000e0d0c0b0a09080700000000"},
      {Envelope(MemShardAnnounce{Shard(1)}),
       "4c4301280003020100060504000e0d0c0b0a09080728000000"
       "0200100001000000000000000001000000000000000200000000100400000000"
       "0400000000000000"},
      {Envelope(ShardDirectoryRequest{}),
       "4c4301290003020100060504000e0d0c0b0a09080700000000"},
      {Envelope(ShardDirectoryResponse{{Shard(0), Shard(1)}}),
       "4c43012a0003020100060504000e0d0c0b0a09080754000000"
       "0200000002000000000000000000000000000000000000000001000000000004"
       "0000000003000000000000000200100001000000000000000001000000000000"
       "0002000000001004000000000400000000000000"},
      {Envelope(LeaseReassertRequest{
           {LeaseRecord{Pasid(0x2B),
                        VirtAddr(0x60000),
                        0x2000,
                        0x91,
                        Access::kReadWrite,
                        {{DeviceId(0x1A), Access::kRead}, {DeviceId(0x1B), Access::kReadWrite}}},
            LeaseRecord{Pasid(0x2C), VirtAddr(0x70000), 0x1000, 0x92, Access::kRead, {}}}}),
       "4c43012b0003020100060504000e0d0c0b0a09080750000000"
       "020000002b000000000006000000000000200000000000009100000000000000"
       "03020000001a000000011b000000032c00000000000700000000000010000000"
       "00000092000000000000000100000000"},
      {Envelope(LeaseReassertResponse{5, 2, 9}),
       "4c43012c0003020100060504000e0d0c0b0a09080710000000"
       "05000000020000000900000000000000"},
  };
}

bool SameWireMessage(const Message& a, const Message& b) {
  return a.src == b.src && a.dst == b.dst && a.request_id == b.request_id &&
         a.payload == b.payload;
}

}  // namespace lastcpu::proto

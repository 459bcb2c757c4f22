// The system-management-bus protocol (control plane).
//
// Every control operation in the CPU-less machine — discovery, service open,
// memory allocation, IOMMU mapping directives, grants, failure notification,
// task lifecycle — is one of these messages. The paper (Sec. 2.2) requires the
// protocol to be "not more computationally intensive ... than many existing
// control protocols such as AHCI/EHCI"; all payloads here are plain data with
// a compact binary codec (see codec.h).
#ifndef SRC_PROTO_MESSAGE_H_
#define SRC_PROTO_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/sim/trace_context.h"

namespace lastcpu::proto {

// Kinds of resources a self-managing device can expose as services (paper
// Sec. 2.1: "physical memory, FPGA blocks, GPU cores, storage space, etc.").
enum class ServiceType : uint8_t {
  kMemory = 0,    // physical memory allocation (the memory controller)
  kFile = 1,      // filesystem on a smart SSD
  kBlock = 2,     // raw block access on a smart SSD
  kNetwork = 3,   // packet / socket endpoints on a smart NIC
  kCompute = 4,   // offload engine (FPGA blocks, embedded cores)
  kLoader = 5,    // binary image upload (paper Sec. 2.1)
  kAuth = 6,      // access-control / login service (paper Sec. 4)
  kLog = 7,       // append-only log for system maintenance (paper Sec. 4)
  kKeyValue = 8,  // application-level KVS endpoint (paper Sec. 3)
};

std::string_view ServiceTypeName(ServiceType type);

// Every struct below lists its wire fields, in wire order, in a static
// Fields(self); the codec (codec.cc) encodes, decodes and sizes each struct
// from that list alone. Each payload kind also carries its name (kName) and
// direction (kIsResponse).

// Advertises one service offered by a device, returned by discovery.
struct ServiceDescriptor {
  DeviceId provider;
  ServiceType type = ServiceType::kMemory;
  std::string name;           // e.g. "flashfs", "kv-frontend"
  uint32_t max_instances = 0; // 0 = unlimited

  static constexpr auto Fields(auto& self) {
    return std::tie(self.provider, self.type, self.name, self.max_instances);
  }
  friend bool operator==(const ServiceDescriptor&, const ServiceDescriptor&) = default;
};

// One virtual->physical page mapping, as programmed into an IOMMU.
struct MapEntry {
  uint64_t vpage = 0;   // virtual page number
  uint64_t pframe = 0;  // physical frame number
  Access access = Access::kNone;

  static constexpr auto Fields(auto& self) {
    return std::tie(self.vpage, self.pframe, self.access);
  }
  friend bool operator==(const MapEntry&, const MapEntry&) = default;
};

// ---------------------------------------------------------------------------
// Payloads. Groups follow the paper's lifecycle: init -> discovery -> open ->
// memory/grant -> run -> errors -> teardown.
// ---------------------------------------------------------------------------

// Device -> bus after self-test (Sec. 2.2 "System Initialization").
struct AliveAnnounce {
  static constexpr std::string_view kName = "AliveAnnounce";
  static constexpr bool kIsResponse = false;

  std::string device_name;
  std::vector<ServiceDescriptor> services;

  static constexpr auto Fields(auto& self) { return std::tie(self.device_name, self.services); }
  friend bool operator==(const AliveAnnounce&, const AliveAnnounce&) = default;
};

// Broadcast: "which device offers a service of this type / owning this
// resource?" (Fig. 2 step 1; SSDP-like).
struct DiscoverRequest {
  static constexpr std::string_view kName = "DiscoverRequest";
  static constexpr bool kIsResponse = false;

  ServiceType type = ServiceType::kMemory;
  std::string resource;  // optional, e.g. a file name the service must own

  static constexpr auto Fields(auto& self) { return std::tie(self.type, self.resource); }
  friend bool operator==(const DiscoverRequest&, const DiscoverRequest&) = default;
};

// Unicast answer from a device that can provide the service (Fig. 2 step 2).
struct DiscoverResponse {
  static constexpr std::string_view kName = "DiscoverResponse";
  static constexpr bool kIsResponse = true;

  ServiceDescriptor descriptor;

  static constexpr auto Fields(auto& self) { return std::tie(self.descriptor); }
  friend bool operator==(const DiscoverResponse&, const DiscoverResponse&) = default;
};

// Open an instance (context) of a service (Fig. 2 step 3). Carries the
// authorization token (Sec. 3: "including an authorization token").
struct OpenRequest {
  static constexpr std::string_view kName = "OpenRequest";
  static constexpr bool kIsResponse = false;

  std::string service_name;
  std::string resource;
  uint64_t auth_token = 0;
  Pasid pasid;

  static constexpr auto Fields(auto& self) {
    return std::tie(self.service_name, self.resource, self.auth_token, self.pasid);
  }
  friend bool operator==(const OpenRequest&, const OpenRequest&) = default;
};

// Connection details (Fig. 2 step 4): how much shared memory the provider
// needs for the VIRTIO queues plus data buffers, and the queue shape.
struct OpenResponse {
  static constexpr std::string_view kName = "OpenResponse";
  static constexpr bool kIsResponse = true;

  InstanceId instance;
  uint64_t shared_bytes_required = 0;
  uint16_t queue_depth = 0;

  static constexpr auto Fields(auto& self) {
    return std::tie(self.instance, self.shared_bytes_required, self.queue_depth);
  }
  friend bool operator==(const OpenResponse&, const OpenResponse&) = default;
};

struct CloseRequest {
  static constexpr std::string_view kName = "CloseRequest";
  static constexpr bool kIsResponse = false;

  InstanceId instance;

  static constexpr auto Fields(auto& self) { return std::tie(self.instance); }
  friend bool operator==(const CloseRequest&, const CloseRequest&) = default;
};

struct CloseResponse {
  static constexpr std::string_view kName = "CloseResponse";
  static constexpr bool kIsResponse = true;
  static constexpr auto Fields(auto&) { return std::tie(); }
  friend bool operator==(const CloseResponse&, const CloseResponse&) = default;
};

// Device -> memory controller (Fig. 2 step 5): allocate physical memory and
// map it at `vaddr_hint` in address space `pasid`.
struct MemAllocRequest {
  static constexpr std::string_view kName = "MemAllocRequest";
  static constexpr bool kIsResponse = false;

  Pasid pasid;
  uint64_t bytes = 0;
  VirtAddr vaddr_hint;
  Access access = Access::kReadWrite;

  static constexpr auto Fields(auto& self) {
    return std::tie(self.pasid, self.bytes, self.vaddr_hint, self.access);
  }
  friend bool operator==(const MemAllocRequest&, const MemAllocRequest&) = default;
};

// Memory controller -> requesting device: the allocation result. The actual
// IOMMU programming travels separately as a MapDirective to the bus.
struct MemAllocResponse {
  static constexpr std::string_view kName = "MemAllocResponse";
  static constexpr bool kIsResponse = true;

  VirtAddr vaddr;
  uint64_t bytes = 0;
  // First physical frame backing the region. Part of the client's lease
  // receipt: after a shard failover the owner re-asserts (vaddr, frames) so
  // the successor can rebuild its table without re-placing memory.
  uint64_t first_frame = 0;

  static constexpr auto Fields(auto& self) {
    return std::tie(self.vaddr, self.bytes, self.first_frame);
  }
  friend bool operator==(const MemAllocResponse&, const MemAllocResponse&) = default;
};

// Resource controller -> bus (privileged): program `target`'s IOMMU. Only the
// controller of a resource may direct mappings for it (Sec. 2.2 "the system
// bus updates the page tables of a device only when it is instructed to do so
// by the controller of that particular resource").
struct MapDirective {
  static constexpr std::string_view kName = "MapDirective";
  static constexpr bool kIsResponse = false;

  DeviceId target;
  Pasid pasid;
  std::vector<MapEntry> entries;
  bool unmap = false;
  // The issuing controller's registration epoch (0 = unfenced, the lone
  // flat controller). The bus rejects a directive whose epoch is older than
  // the issuer's current directory registration: a grant computed before a
  // shard failover cannot program IOMMUs after it (Sec. 4 error handling,
  // extended to the control plane itself).
  uint64_t epoch = 0;

  static constexpr auto Fields(auto& self) {
    return std::tie(self.target, self.pasid, self.entries, self.unmap, self.epoch);
  }
  friend bool operator==(const MapDirective&, const MapDirective&) = default;
};

struct MemFreeRequest {
  static constexpr std::string_view kName = "MemFreeRequest";
  static constexpr bool kIsResponse = false;

  Pasid pasid;
  VirtAddr vaddr;
  uint64_t bytes = 0;

  static constexpr auto Fields(auto& self) { return std::tie(self.pasid, self.vaddr, self.bytes); }
  friend bool operator==(const MemFreeRequest&, const MemFreeRequest&) = default;
};

struct MemFreeResponse {
  static constexpr std::string_view kName = "MemFreeResponse";
  static constexpr bool kIsResponse = true;
  static constexpr auto Fields(auto&) { return std::tie(); }
  friend bool operator==(const MemFreeResponse&, const MemFreeResponse&) = default;
};

// Owner device -> bus (Fig. 2 step 7): give `grantee` access to a region the
// owner allocated. The bus forwards to the memory controller for
// authorization before programming the grantee's IOMMU.
struct GrantRequest {
  static constexpr std::string_view kName = "GrantRequest";
  static constexpr bool kIsResponse = false;

  Pasid pasid;
  VirtAddr vaddr;
  uint64_t bytes = 0;
  DeviceId grantee;
  Access access = Access::kReadWrite;

  static constexpr auto Fields(auto& self) {
    return std::tie(self.pasid, self.vaddr, self.bytes, self.grantee, self.access);
  }
  friend bool operator==(const GrantRequest&, const GrantRequest&) = default;
};

struct GrantResponse {
  static constexpr std::string_view kName = "GrantResponse";
  static constexpr bool kIsResponse = true;
  static constexpr auto Fields(auto&) { return std::tie(); }
  friend bool operator==(const GrantResponse&, const GrantResponse&) = default;
};

struct RevokeRequest {
  static constexpr std::string_view kName = "RevokeRequest";
  static constexpr bool kIsResponse = false;

  Pasid pasid;
  VirtAddr vaddr;
  uint64_t bytes = 0;
  DeviceId grantee;

  static constexpr auto Fields(auto& self) {
    return std::tie(self.pasid, self.vaddr, self.bytes, self.grantee);
  }
  friend bool operator==(const RevokeRequest&, const RevokeRequest&) = default;
};

struct RevokeResponse {
  static constexpr std::string_view kName = "RevokeResponse";
  static constexpr bool kIsResponse = true;
  static constexpr auto Fields(auto&) { return std::tie(); }
  friend bool operator==(const RevokeResponse&, const RevokeResponse&) = default;
};

// Doorbell-style attention signal (Sec. 2.3 "Notifications"): data-plane
// events ride the fabric, but devices may also signal over the control plane.
struct Notify {
  static constexpr std::string_view kName = "Notify";
  static constexpr bool kIsResponse = false;

  InstanceId instance;
  uint64_t payload = 0;

  static constexpr auto Fields(auto& self) { return std::tie(self.instance, self.payload); }
  friend bool operator==(const Notify&, const Notify&) = default;
};

// Owner -> consumers: a resource died but the device survived (Sec. 4 "Error
// Handling"); consumers must recover, the owner resets the resource.
struct ResourceFailed {
  static constexpr std::string_view kName = "ResourceFailed";
  static constexpr bool kIsResponse = false;

  std::string service_name;
  InstanceId instance;
  std::string reason;

  static constexpr auto Fields(auto& self) {
    return std::tie(self.service_name, self.instance, self.reason);
  }
  friend bool operator==(const ResourceFailed&, const ResourceFailed&) = default;
};

// Bus -> all devices: an entire device failed; anyone using its resources
// must recover (Sec. 4).
struct DeviceFailed {
  static constexpr std::string_view kName = "DeviceFailed";
  static constexpr bool kIsResponse = false;

  DeviceId device;

  static constexpr auto Fields(auto& self) { return std::tie(self.device); }
  friend bool operator==(const DeviceFailed&, const DeviceFailed&) = default;
};

// Bus -> device: reset line, "in an attempt to restart it" (Sec. 4).
struct ResetSignal {
  static constexpr std::string_view kName = "ResetSignal";
  static constexpr bool kIsResponse = false;
  static constexpr auto Fields(auto&) { return std::tie(); }
  friend bool operator==(const ResetSignal&, const ResetSignal&) = default;
};

// Bus -> all devices: the supervisor exhausted its restart policy (attempts
// spent, or a crash loop detected) and quarantined the device. Terminal:
// unlike DeviceFailed, the device is never coming back, so consumers must
// stop retrying and surface the failure to their applications.
struct DevicePermanentlyFailed {
  static constexpr std::string_view kName = "DevicePermanentlyFailed";
  static constexpr bool kIsResponse = false;

  DeviceId device;
  std::string reason;

  static constexpr auto Fields(auto& self) { return std::tie(self.device, self.reason); }
  friend bool operator==(const DevicePermanentlyFailed&, const DevicePermanentlyFailed&) = default;
};

// Tear down every resource belonging to an application address space
// (task life cycle management, Sec. 1).
struct TeardownApp {
  static constexpr std::string_view kName = "TeardownApp";
  static constexpr bool kIsResponse = false;

  Pasid pasid;

  static constexpr auto Fields(auto& self) { return std::tie(self.pasid); }
  friend bool operator==(const TeardownApp&, const TeardownApp&) = default;
};

// Upload a new application image to a device's loader service (Sec. 2.1
// "devices that store their applications internally ... must expose a loader
// service"). Gated by the auth service (Sec. 4).
struct LoadImage {
  static constexpr std::string_view kName = "LoadImage";
  static constexpr bool kIsResponse = false;

  std::string app_name;
  std::vector<uint8_t> image;
  uint64_t auth_token = 0;

  static constexpr auto Fields(auto& self) {
    return std::tie(self.app_name, self.image, self.auth_token);
  }
  friend bool operator==(const LoadImage&, const LoadImage&) = default;
};

struct LoadImageResponse {
  static constexpr std::string_view kName = "LoadImageResponse";
  static constexpr bool kIsResponse = true;
  static constexpr auto Fields(auto&) { return std::tie(); }
  friend bool operator==(const LoadImageResponse&, const LoadImageResponse&) = default;
};

// Login: user + secret -> token (Sec. 4 "Access Control", the 'login'
// program / 'passwd' file equivalent).
struct AuthRequest {
  static constexpr std::string_view kName = "AuthRequest";
  static constexpr bool kIsResponse = false;

  std::string user;
  std::string secret;

  static constexpr auto Fields(auto& self) { return std::tie(self.user, self.secret); }
  friend bool operator==(const AuthRequest&, const AuthRequest&) = default;
};

struct AuthResponse {
  static constexpr std::string_view kName = "AuthResponse";
  static constexpr bool kIsResponse = true;

  uint64_t token = 0;
  uint64_t expiry_nanos = 0;

  static constexpr auto Fields(auto& self) { return std::tie(self.token, self.expiry_nanos); }
  friend bool operator==(const AuthResponse&, const AuthResponse&) = default;
};

// Generic failure answer to any request.
struct ErrorResponse {
  static constexpr std::string_view kName = "ErrorResponse";
  static constexpr bool kIsResponse = true;

  StatusCode code = StatusCode::kInternal;
  std::string message;

  static constexpr auto Fields(auto& self) { return std::tie(self.code, self.message); }
  friend bool operator==(const ErrorResponse&, const ErrorResponse&) = default;
};

// Bus -> resource controller: acknowledges that a MapDirective's programming
// completed, so the controller can release the dependent response.
struct MapConfirm {
  static constexpr std::string_view kName = "MapConfirm";
  static constexpr bool kIsResponse = true;

  DeviceId target;
  Pasid pasid;

  static constexpr auto Fields(auto& self) { return std::tie(self.target, self.pasid); }
  friend bool operator==(const MapConfirm&, const MapConfirm&) = default;
};

// Client -> service provider: after allocating and granting the session's
// shared memory, tells the provider where the virtqueue session lives in the
// application's address space (completes the Fig. 2 handshake: "programming
// the VIRTIO queues ... using virtual addresses").
struct AttachQueue {
  static constexpr std::string_view kName = "AttachQueue";
  static constexpr bool kIsResponse = false;

  InstanceId instance;
  VirtAddr base;

  static constexpr auto Fields(auto& self) { return std::tie(self.instance, self.base); }
  friend bool operator==(const AttachQueue&, const AttachQueue&) = default;
};

struct AttachQueueResponse {
  static constexpr std::string_view kName = "AttachQueueResponse";
  static constexpr bool kIsResponse = true;
  static constexpr auto Fields(auto&) { return std::tie(); }
  friend bool operator==(const AttachQueueResponse&, const AttachQueueResponse&) = default;
};

// Device -> bus: periodic liveness proof. A bus with watchdog monitoring
// enabled declares a device failed when its heartbeats stop (Sec. 2.2's
// liveness record, made continuous).
struct Heartbeat {
  static constexpr std::string_view kName = "Heartbeat";
  static constexpr bool kIsResponse = false;
  static constexpr auto Fields(auto&) { return std::tie(); }
  friend bool operator==(const Heartbeat&, const Heartbeat&) = default;
};

// Client -> file service: create a file. The token's user becomes the owner
// when the service enforces access control.
struct FileCreate {
  static constexpr std::string_view kName = "FileCreate";
  static constexpr bool kIsResponse = false;

  std::string name;
  uint64_t auth_token = 0;

  static constexpr auto Fields(auto& self) { return std::tie(self.name, self.auth_token); }
  friend bool operator==(const FileCreate&, const FileCreate&) = default;
};

// Client -> file service: delete a file (owner-only under access control).
struct FileDelete {
  static constexpr std::string_view kName = "FileDelete";
  static constexpr bool kIsResponse = false;

  std::string name;
  uint64_t auth_token = 0;

  static constexpr auto Fields(auto& self) { return std::tie(self.name, self.auth_token); }
  friend bool operator==(const FileDelete&, const FileDelete&) = default;
};

// Success answer to FileCreate/FileDelete.
struct FileAdminResponse {
  static constexpr std::string_view kName = "FileAdminResponse";
  static constexpr bool kIsResponse = true;
  static constexpr auto Fields(auto&) { return std::tie(); }
  friend bool operator==(const FileAdminResponse&, const FileAdminResponse&) = default;
};

// Client -> file service: list files (remote 'ls'; Sec. 4 maintenance).
struct FileList {
  static constexpr std::string_view kName = "FileList";
  static constexpr bool kIsResponse = false;

  uint64_t auth_token = 0;

  static constexpr auto Fields(auto& self) { return std::tie(self.auth_token); }
  friend bool operator==(const FileList&, const FileList&) = default;
};

struct FileListResponse {
  static constexpr std::string_view kName = "FileListResponse";
  static constexpr bool kIsResponse = true;

  std::vector<std::string> names;

  static constexpr auto Fields(auto& self) { return std::tie(self.names); }
  friend bool operator==(const FileListResponse&, const FileListResponse&) = default;
};

// Device -> memory controller: lease `count` regions of `bytes` each in one
// round trip (the grant-magazine refill path). Each region is placed and
// mapped exactly as `count` individual MemAllocRequests would be, but the
// controller issues a single combined MapDirective, so the whole batch costs
// one request/response pair on the management ring instead of `count`.
struct MemAllocBatchRequest {
  static constexpr std::string_view kName = "MemAllocBatchRequest";
  static constexpr bool kIsResponse = false;

  Pasid pasid;
  uint64_t bytes = 0;  // bytes per region, all regions equally sized
  uint32_t count = 0;
  Access access = Access::kReadWrite;

  static constexpr auto Fields(auto& self) {
    return std::tie(self.pasid, self.bytes, self.count, self.access);
  }
  friend bool operator==(const MemAllocBatchRequest&, const MemAllocBatchRequest&) = default;
};

// Memory controller -> device: the leased regions, one vaddr per region.
struct MemAllocBatchResponse {
  static constexpr std::string_view kName = "MemAllocBatchResponse";
  static constexpr bool kIsResponse = true;

  std::vector<VirtAddr> vaddrs;
  uint64_t bytes = 0;  // bytes per region
  // First physical frame per region, parallel to `vaddrs` (lease receipts;
  // see MemAllocResponse::first_frame). Empty from pre-lease encoders.
  std::vector<uint64_t> first_frames;

  static constexpr auto Fields(auto& self) {
    return std::tie(self.vaddrs, self.bytes, self.first_frames);
  }
  friend bool operator==(const MemAllocBatchResponse&, const MemAllocBatchResponse&) = default;
};

// Device -> memory controller: return several equally sized regions in one
// round trip (the magazine drain path).
struct MemFreeBatchRequest {
  static constexpr std::string_view kName = "MemFreeBatchRequest";
  static constexpr bool kIsResponse = false;

  Pasid pasid;
  std::vector<VirtAddr> vaddrs;
  uint64_t bytes = 0;  // bytes per region

  static constexpr auto Fields(auto& self) { return std::tie(self.pasid, self.vaddrs, self.bytes); }
  friend bool operator==(const MemFreeBatchRequest&, const MemFreeBatchRequest&) = default;
};

struct MemFreeBatchResponse {
  static constexpr std::string_view kName = "MemFreeBatchResponse";
  static constexpr bool kIsResponse = true;
  static constexpr auto Fields(auto&) { return std::tie(); }
  friend bool operator==(const MemFreeBatchResponse&, const MemFreeBatchResponse&) = default;
};

// One registered memory-controller shard, as the bus's shard directory
// records it: where the shard sits and which slice of every application's
// virtual address space it owns. va_limit == 0 means "the whole space" (a
// lone unsharded controller).
struct ShardRecord {
  DeviceId device;
  uint32_t segment = 0;
  uint64_t va_base = 0;    // first byte of the shard's VA slab
  uint64_t va_limit = 0;   // one past the last byte of the slab
  uint64_t capacity_bytes = 0;
  // Registration epoch: bumped every time the shard's volatile tables are
  // rebuilt (restart) and on takeover by a successor. Directives carrying an
  // older epoch are fenced by the bus; clients treat an epoch change as "my
  // leases must be re-asserted".
  uint64_t epoch = 0;

  static constexpr auto Fields(auto& self) {
    return std::tie(self.device, self.segment, self.va_base, self.va_limit, self.capacity_bytes,
                    self.epoch);
  }
  friend bool operator==(const ShardRecord&, const ShardRecord&) = default;
};

// Memory-controller shard -> bus (one-way): registers the VA slab and
// capacity this shard owns, so owner-addressed operations (grant / revoke /
// free sent to the bus) route to the shard whose table holds the address.
// Re-sent on every alive announce; registration is idempotent. A lone
// unsharded controller never sends this, keeping the single-controller wire
// exchange unchanged.
struct MemShardAnnounce {
  static constexpr std::string_view kName = "MemShardAnnounce";
  static constexpr bool kIsResponse = false;

  ShardRecord shard;

  static constexpr auto Fields(auto& self) { return std::tie(self.shard); }
  friend bool operator==(const MemShardAnnounce&, const MemShardAnnounce&) = default;
};

// Device -> bus: asks for the registered memory shards. Rack-scale service
// discovery as one unicast round trip against the bus's directory instead of
// an O(devices) machine-wide broadcast.
struct ShardDirectoryRequest {
  static constexpr std::string_view kName = "ShardDirectoryRequest";
  static constexpr bool kIsResponse = false;
  static constexpr auto Fields(auto&) { return std::tie(); }
  friend bool operator==(const ShardDirectoryRequest&, const ShardDirectoryRequest&) = default;
};

struct ShardDirectoryResponse {
  static constexpr std::string_view kName = "ShardDirectoryResponse";
  static constexpr bool kIsResponse = true;

  std::vector<ShardRecord> shards;

  static constexpr auto Fields(auto& self) { return std::tie(self.shards); }
  friend bool operator==(const ShardDirectoryResponse&, const ShardDirectoryResponse&) = default;
};

// One grant riding inside a lease record.
struct LeaseGrant {
  DeviceId grantee;
  Access access = Access::kReadWrite;

  static constexpr auto Fields(auto& self) { return std::tie(self.grantee, self.access); }
  friend bool operator==(const LeaseGrant&, const LeaseGrant&) = default;
};

// One allocation as its owner remembers it: the lease receipt handed back by
// the controller at alloc time, plus any grants the owner has made since.
struct LeaseRecord {
  Pasid pasid;
  VirtAddr vaddr;
  uint64_t bytes = 0;
  uint64_t first_frame = 0;
  Access access = Access::kReadWrite;
  std::vector<LeaseGrant> grants;

  static constexpr auto Fields(auto& self) {
    return std::tie(self.pasid, self.vaddr, self.bytes, self.first_frame, self.access, self.grants);
  }
  friend bool operator==(const LeaseRecord&, const LeaseRecord&) = default;
};

// Owner device -> memory-controller shard: re-assert the leases this device
// holds inside the shard's VA slabs. Sent after the shard failed (restart
// rebuild) or was taken over by a successor (adoption). The controller
// re-admits each lease into its table — first re-assertion wins; conflicts
// and duplicates are rejected, not merged. No IOMMU reprogramming happens:
// the owner's and grantees' mappings survived (only the controller died).
struct LeaseReassertRequest {
  static constexpr std::string_view kName = "LeaseReassertRequest";
  static constexpr bool kIsResponse = false;

  std::vector<LeaseRecord> leases;

  static constexpr auto Fields(auto& self) { return std::tie(self.leases); }
  friend bool operator==(const LeaseReassertRequest&, const LeaseReassertRequest&) = default;
};

struct LeaseReassertResponse {
  static constexpr std::string_view kName = "LeaseReassertResponse";
  static constexpr bool kIsResponse = true;

  uint32_t accepted = 0;
  uint32_t rejected = 0;
  uint64_t epoch = 0;  // the controller's current registration epoch

  static constexpr auto Fields(auto& self) {
    return std::tie(self.accepted, self.rejected, self.epoch);
  }
  friend bool operator==(const LeaseReassertResponse&, const LeaseReassertResponse&) = default;
};

// The codec, MessageTypeName and IsResponse derive everything from the
// structs above, so a new message kind takes three edits: declare its struct,
// then append it to Payload and to MessageType.
using Payload =
    std::variant<AliveAnnounce, DiscoverRequest, DiscoverResponse, OpenRequest, OpenResponse,
                 CloseRequest, CloseResponse, MemAllocRequest, MemAllocResponse, MapDirective,
                 MemFreeRequest, MemFreeResponse, GrantRequest, GrantResponse, RevokeRequest,
                 RevokeResponse, Notify, ResourceFailed, DeviceFailed, ResetSignal, TeardownApp,
                 LoadImage, LoadImageResponse, AuthRequest, AuthResponse, ErrorResponse,
                 MapConfirm, AttachQueue, AttachQueueResponse, Heartbeat, FileCreate, FileDelete,
                 FileAdminResponse, FileList, FileListResponse, DevicePermanentlyFailed,
                 MemAllocBatchRequest, MemAllocBatchResponse, MemFreeBatchRequest,
                 MemFreeBatchResponse, MemShardAnnounce, ShardDirectoryRequest,
                 ShardDirectoryResponse, LeaseReassertRequest, LeaseReassertResponse>;

namespace internal {

// The position of T in std::variant<Ts...>, or sizeof...(Ts) if absent.
template <typename T, typename... Ts>
constexpr size_t IndexIn(const std::variant<Ts...>*) {
  size_t index = 0;
  (void)((std::is_same_v<T, Ts> || (++index, false)) || ...);
  return index;
}

}  // namespace internal

// The index of payload kind T in Payload: its MessageType value and its type
// tag on the wire. Tags are therefore append-only; the codec goldens
// (tests/codec_goldens.cc) pin every existing one.
template <typename T>
constexpr uint16_t TypeTag() {
  constexpr size_t kIndex = internal::IndexIn<T>(static_cast<const Payload*>(nullptr));
  static_assert(kIndex < std::variant_size_v<Payload>, "not a Payload alternative");
  return static_cast<uint16_t>(kIndex);
}

// Message kind, one per Payload alternative and equal to its variant index.
enum class MessageType : uint16_t {
  kAliveAnnounce = TypeTag<AliveAnnounce>(),
  kDiscoverRequest = TypeTag<DiscoverRequest>(),
  kDiscoverResponse = TypeTag<DiscoverResponse>(),
  kOpenRequest = TypeTag<OpenRequest>(),
  kOpenResponse = TypeTag<OpenResponse>(),
  kCloseRequest = TypeTag<CloseRequest>(),
  kCloseResponse = TypeTag<CloseResponse>(),
  kMemAllocRequest = TypeTag<MemAllocRequest>(),
  kMemAllocResponse = TypeTag<MemAllocResponse>(),
  kMapDirective = TypeTag<MapDirective>(),
  kMemFreeRequest = TypeTag<MemFreeRequest>(),
  kMemFreeResponse = TypeTag<MemFreeResponse>(),
  kGrantRequest = TypeTag<GrantRequest>(),
  kGrantResponse = TypeTag<GrantResponse>(),
  kRevokeRequest = TypeTag<RevokeRequest>(),
  kRevokeResponse = TypeTag<RevokeResponse>(),
  kNotify = TypeTag<Notify>(),
  kResourceFailed = TypeTag<ResourceFailed>(),
  kDeviceFailed = TypeTag<DeviceFailed>(),
  kResetSignal = TypeTag<ResetSignal>(),
  kTeardownApp = TypeTag<TeardownApp>(),
  kLoadImage = TypeTag<LoadImage>(),
  kLoadImageResponse = TypeTag<LoadImageResponse>(),
  kAuthRequest = TypeTag<AuthRequest>(),
  kAuthResponse = TypeTag<AuthResponse>(),
  kErrorResponse = TypeTag<ErrorResponse>(),
  kMapConfirm = TypeTag<MapConfirm>(),
  kAttachQueue = TypeTag<AttachQueue>(),
  kAttachQueueResponse = TypeTag<AttachQueueResponse>(),
  kHeartbeat = TypeTag<Heartbeat>(),
  kFileCreate = TypeTag<FileCreate>(),
  kFileDelete = TypeTag<FileDelete>(),
  kFileAdminResponse = TypeTag<FileAdminResponse>(),
  kFileList = TypeTag<FileList>(),
  kFileListResponse = TypeTag<FileListResponse>(),
  kDevicePermanentlyFailed = TypeTag<DevicePermanentlyFailed>(),
  kMemAllocBatchRequest = TypeTag<MemAllocBatchRequest>(),
  kMemAllocBatchResponse = TypeTag<MemAllocBatchResponse>(),
  kMemFreeBatchRequest = TypeTag<MemFreeBatchRequest>(),
  kMemFreeBatchResponse = TypeTag<MemFreeBatchResponse>(),
  kMemShardAnnounce = TypeTag<MemShardAnnounce>(),
  kShardDirectoryRequest = TypeTag<ShardDirectoryRequest>(),
  kShardDirectoryResponse = TypeTag<ShardDirectoryResponse>(),
  kLeaseReassertRequest = TypeTag<LeaseReassertRequest>(),
  kLeaseReassertResponse = TypeTag<LeaseReassertResponse>(),
};

std::string_view MessageTypeName(MessageType type);

// True for kinds that answer a request. A response completes the sender's
// pending transaction; it is never dispatched to a request handler, and the
// bus never error-bounces it.
bool IsResponse(MessageType type);

// The control-plane message envelope.
struct Message {
  DeviceId src;
  DeviceId dst;  // kBroadcastDevice for discovery, kBusDevice for bus-handled ops
  RequestId request_id;  // correlates responses with requests; Invalid() for one-way
  Payload payload;
  // Causal trace context (simulator metadata, never encoded on the wire —
  // carrying it does not change modeled message sizes or latencies). The
  // default initializer keeps four-field aggregate init at call sites legal
  // under -Wmissing-field-initializers.
  sim::TraceContext trace{};

  MessageType type() const { return static_cast<MessageType>(payload.index()); }

  // Typed accessors: abort if the payload kind is wrong (protocol violation).
  template <typename T>
  const T& As() const {
    return std::get<T>(payload);
  }
  template <typename T>
  bool Is() const {
    return std::holds_alternative<T>(payload);
  }
};

// Builds a request envelope.
Message MakeRequest(DeviceId src, DeviceId dst, RequestId id, Payload payload);
// Builds the response envelope for `request` with the given payload.
Message MakeResponse(const Message& request, DeviceId src, Payload payload);
// Builds an ErrorResponse envelope for `request`.
Message MakeError(const Message& request, DeviceId src, Status status);

}  // namespace lastcpu::proto

#endif  // SRC_PROTO_MESSAGE_H_

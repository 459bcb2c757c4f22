#include "src/memdev/memory_controller.h"

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/dev/service.h"

namespace lastcpu::memdev {

// After a restart that wiped the shard's tables, new allocations are refused
// for this long so surviving clients can re-assert their leases first (their
// frames must be re-reserved before the allocator may hand them out again).
// Flat controllers keep their battery-backed tables across resets and never
// use it.
constexpr sim::Duration kRecoveryWindow = sim::Duration::Micros(300);

MemoryController::MemoryController(DeviceId id, const dev::DeviceContext& context,
                                   mem::PhysicalMemory* memory, MemoryControllerConfig config)
    : dev::Device(id, "memctrl", context),
      config_(config),
      leases_(memory, &stats(), config) {
  // Announce the memory service: this is what makes the bus treat this device
  // as the memory resource controller.
  class MemoryService : public dev::Service {
   public:
    explicit MemoryService(DeviceId provider)
        : Service(proto::ServiceDescriptor{provider, proto::ServiceType::kMemory, "dram", 0}) {}
    Result<proto::OpenResponse> Open(DeviceId, const proto::OpenRequest&) override {
      return Unimplemented("memory is requested via MemAllocRequest messages");
    }
  };
  AddService(std::make_unique<MemoryService>(id));
}

void MemoryController::OnAlive() {
  if (!sharded()) {
    return;
  }
  // Register this shard's VA slab with the bus router so vaddr-carrying
  // control messages (grant/revoke/free) route here without a lookup table on
  // the client. Re-announcing after a restart is idempotent.
  proto::ShardRecord shard;
  shard.device = id();
  shard.segment = config_.segment;
  shard.va_base = config_.va_base;
  shard.va_limit = config_.va_limit;
  shard.capacity_bytes = capacity_bytes();
  shard.epoch = epoch_;
  SendOneWay(kBusDevice, proto::MemShardAnnounce{shard});
  // Coming back from a table-wiping restart: hold new allocations until the
  // old clients have had a chance to re-assert their leases.
  if (epoch_ > 1) {
    recovering_until_ = simulator()->Now() + kRecoveryWindow;
  }
}

void MemoryController::OnReset() {
  if (sharded()) {
    // Shard tables are volatile (no battery-backed NVRAM in the chassis):
    // a restart loses them, and clients rebuild the state by re-asserting
    // their leases. Bumping the epoch makes the bus fence any directive this
    // controller issued before it died.
    leases_.Clear();
    ++epoch_;
    stats().GetCounter("shard_state_resets").Increment();
    TraceEvent("shard-reset", "epoch=" + std::to_string(epoch_));
  }
  dev::Device::OnReset();
}

bool MemoryController::Recovering() {
  return recovering_until_ > sim::SimTime::Zero() && simulator()->Now() < recovering_until_;
}

void MemoryController::OnMessage(const proto::Message& message) {
  switch (message.type()) {
    case proto::MessageType::kMemAllocRequest:
      HandleAlloc(message);
      return;
    case proto::MessageType::kMemFreeRequest:
      HandleFree(message);
      return;
    case proto::MessageType::kMemAllocBatchRequest:
      HandleAllocBatch(message);
      return;
    case proto::MessageType::kMemFreeBatchRequest:
      HandleFreeBatch(message);
      return;
    case proto::MessageType::kGrantRequest:
      HandleGrant(message);
      return;
    case proto::MessageType::kRevokeRequest:
      HandleRevoke(message);
      return;
    case proto::MessageType::kLeaseReassertRequest:
      HandleLeaseReassert(message);
      return;
    default:
      dev::Device::OnMessage(message);
      return;
  }
}

void MemoryController::AppendEntries(std::vector<proto::MapEntry>& entries, const Range& range,
                                     bool unmap) {
  Access access = unmap ? Access::kRead : range.access;
  for (uint64_t i = 0; i < range.pages; ++i) {
    entries.push_back(proto::MapEntry{range.vpage + i, range.first_frame + i, access});
  }
}

template <typename Done>
void MemoryController::SendDirective(DeviceId target, Pasid pasid,
                                     std::vector<proto::MapEntry> entries, bool unmap,
                                     Done&& done) {
  proto::MapDirective directive;
  directive.target = target;
  directive.pasid = pasid;
  directive.entries = std::move(entries);
  directive.unmap = unmap;
  directive.epoch = epoch_;  // lets the bus fence directives from a past life
  dev::RpcOptions options;
  options.max_attempts = 3;
  rpc().Call<void>(kBusDevice, std::move(directive), options, std::forward<Done>(done));
}

template <typename Done>
void MemoryController::SendRange(Pasid pasid, const Range& range, bool unmap, Done&& done) {
  std::vector<proto::MapEntry> entries;
  entries.reserve(range.pages);
  AppendEntries(entries, range, unmap);
  SendDirective(range.device, pasid, std::move(entries), unmap, std::forward<Done>(done));
}

void MemoryController::SendUnmap(Pasid pasid, const Range& range) {
  SendRange(pasid, range, /*unmap=*/true, [](Result<void>) {});
}

void MemoryController::HandleAlloc(const proto::Message& message) {
  const auto& request = message.As<proto::MemAllocRequest>();
  if (request.bytes == 0) {
    ReplyError(message, InvalidArgument("zero-byte allocation"));
    return;
  }
  if (!request.pasid.valid()) {
    ReplyError(message, InvalidArgument("allocation without a PASID"));
    return;
  }
  if (Recovering()) {
    // Handing out frames before old leases are re-asserted could double-book
    // memory a surviving client still has mapped.
    stats().GetCounter("recovery_rejections").Increment();
    ReplyError(message, Unavailable("shard recovering: leases re-asserting"));
    return;
  }
  uint64_t pages = PagesForBytes(request.bytes);
  auto allocated =
      leases_.Allocate(message.src, request.pasid, pages, request.access, request.vaddr_hint);
  if (!allocated.ok()) {
    ReplyError(message, allocated.status());
    return;
  }
  const Range& range = *allocated;
  if (tracer().enabled()) {
    TraceEvent("alloc", "pasid=" + std::to_string(request.pasid.value()) +
                            " pages=" + std::to_string(pages));
  }

  // Direct the bus to program the requester's IOMMU; reply only once the
  // mapping is live (Fig. 2 step 6 precedes the response).
  proto::Message original = message;
  SendRange(request.pasid, range, /*unmap=*/false,
            [this, original, vaddr = range.vaddr(), bytes = pages * kPageSize,
             first_frame = range.first_frame, pasid = request.pasid](Result<void> mapped) {
              if (!mapped.ok()) {
                // Roll back the allocation the mapping never activated.
                leases_.Release(pasid, vaddr.page());
                ReplyError(original, mapped.status());
                return;
              }
              Reply(original, proto::MemAllocResponse{vaddr, bytes, first_frame});
            });
}

void MemoryController::HandleAllocBatch(const proto::Message& message) {
  const auto& request = message.As<proto::MemAllocBatchRequest>();
  if (request.bytes == 0 || request.count == 0) {
    ReplyError(message, InvalidArgument("empty batch allocation"));
    return;
  }
  if (!request.pasid.valid()) {
    ReplyError(message, InvalidArgument("allocation without a PASID"));
    return;
  }
  if (Recovering()) {
    stats().GetCounter("recovery_rejections").Increment();
    ReplyError(message, Unavailable("shard recovering: leases re-asserting"));
    return;
  }
  // Place and back every region first; the whole lease activates — or rolls
  // back — as one unit.
  uint64_t pages = PagesForBytes(request.bytes);
  auto leased =
      leases_.AllocateBatch(message.src, request.pasid, pages, request.count, request.access);
  if (!leased.ok()) {
    ReplyError(message, leased.status());
    return;
  }
  std::vector<proto::MapEntry> entries;
  entries.reserve(request.count * pages);
  for (const Range& range : *leased) {
    AppendEntries(entries, range, /*unmap=*/false);
  }
  stats().GetCounter("batch_allocs").Increment();
  stats().GetCounter("batch_allocd_regions").Increment(request.count);
  if (tracer().enabled()) {
    TraceEvent("alloc-batch", "pasid=" + std::to_string(request.pasid.value()) +
                                  " regions=" + std::to_string(request.count) +
                                  " pages_each=" + std::to_string(pages));
  }

  // One combined MapDirective programs every region; reply only once the
  // whole lease is live.
  proto::Message original = message;
  SendDirective(message.src, request.pasid, std::move(entries), /*unmap=*/false,
                [this, original, region_bytes = pages * kPageSize, ranges = std::move(*leased),
                 pasid = request.pasid](Result<void> mapped) {
                  if (!mapped.ok()) {
                    leases_.Release(pasid, ranges);
                    ReplyError(original, mapped.status());
                    return;
                  }
                  proto::MemAllocBatchResponse response;
                  response.bytes = region_bytes;
                  response.vaddrs.reserve(ranges.size());
                  response.first_frames.reserve(ranges.size());
                  for (const Range& range : ranges) {
                    response.vaddrs.push_back(range.vaddr());
                    response.first_frames.push_back(range.first_frame);
                  }
                  Reply(original, std::move(response));
                });
}

void MemoryController::HandleFreeBatch(const proto::Message& message) {
  const auto& request = message.As<proto::MemFreeBatchRequest>();
  if (request.vaddrs.empty()) {
    ReplyError(message, InvalidArgument("empty batch free"));
    return;
  }
  // Validate every region before touching any: the batch frees as one unit.
  uint64_t pages = PagesForBytes(request.bytes);
  std::map<DeviceId, std::vector<proto::MapEntry>> per_target;
  for (const VirtAddr& vaddr : request.vaddrs) {
    auto owned = leases_.Owned(message.src, request.pasid, vaddr, pages,
                               "no matching allocation in batch");
    if (!owned.ok()) {
      ReplyError(message, owned.status());
      return;
    }
    (*owned)->ForEachHolder([&](const Range& range) {
      AppendEntries(per_target[range.device], range, /*unmap=*/true);
    });
  }

  struct BatchFreeState {
    int outstanding = 0;
    proto::Message original;
  };
  auto state = std::make_shared<BatchFreeState>();
  state->original = message;
  auto finish = [this, state, pasid = request.pasid, vaddrs = request.vaddrs] {
    if (--state->outstanding > 0) {
      return;
    }
    for (const VirtAddr& vaddr : vaddrs) {
      leases_.Release(pasid, vaddr.page());
    }
    Reply(state->original, proto::MemFreeBatchResponse{});
  };

  stats().GetCounter("batch_frees").Increment();
  stats().GetCounter("batch_freed_regions").Increment(request.vaddrs.size());
  state->outstanding = static_cast<int>(per_target.size());
  for (auto& [target, entries] : per_target) {
    SendDirective(target, request.pasid, std::move(entries), /*unmap=*/true,
                  [finish](Result<void>) { finish(); });
  }
}

void MemoryController::HandleFree(const proto::Message& message) {
  const auto& request = message.As<proto::MemFreeRequest>();
  auto owned =
      leases_.Owned(message.src, request.pasid, request.vaddr, PagesForBytes(request.bytes));
  if (!owned.ok()) {
    ReplyError(message, owned.status());
    return;
  }

  // Unmap every holder's range, one directive each, then release the frames.
  // Every directive completes in a later event, so the record stays put
  // while this handler reads it.
  const Allocation& allocation = **owned;
  struct FreeState {
    int outstanding = 0;
    proto::Message original;
  };
  auto state = std::make_shared<FreeState>();
  state->original = message;

  auto finish = [this, state, pasid = request.pasid, vpage = request.vaddr.page()] {
    if (--state->outstanding > 0) {
      return;
    }
    leases_.Release(pasid, vpage);
    Reply(state->original, proto::MemFreeResponse{});
  };
  allocation.ForEachHolder([&](const Range& range) {
    ++state->outstanding;
    SendRange(request.pasid, range, /*unmap=*/true, [finish](Result<void>) { finish(); });
  });
}

void MemoryController::HandleGrant(const proto::Message& message) {
  const auto& request = message.As<proto::GrantRequest>();
  auto granted = leases_.Grant(message.src, request.pasid, request.vaddr, request.bytes,
                               request.grantee, request.access);
  if (!granted.ok()) {
    ReplyError(message, granted.status());
    return;
  }
  if (tracer().enabled()) {
    TraceEvent("grant", "to=" + std::to_string(request.grantee.value()) +
                            " pages=" + std::to_string(granted->pages));
  }

  // The grant is recorded before the mapping exists, so a free racing the
  // directive still unmaps the grantee.
  proto::Message original = message;
  SendRange(request.pasid, *granted, /*unmap=*/false, [this, original](Result<void> mapped) {
    if (!mapped.ok()) {
      // No mapping, no grant: drop the record (if the region still exists)
      // so the table matches the IOMMUs.
      const auto& grant = original.As<proto::GrantRequest>();
      leases_.DropGrant(grant.pasid, grant.vaddr, grant.bytes, grant.grantee);
      ReplyError(original, mapped.status());
      return;
    }
    Reply(original, proto::GrantResponse{});
  });
}

void MemoryController::HandleRevoke(const proto::Message& message) {
  const auto& request = message.As<proto::RevokeRequest>();
  auto revoked = leases_.Revoke(message.src, request.pasid, request.vaddr, request.bytes,
                                request.grantee);
  if (!revoked.ok()) {
    ReplyError(message, revoked.status());
    return;
  }
  proto::Message original = message;
  SendRange(request.pasid, *revoked, /*unmap=*/true, [this, original](Result<void> unmapped) {
    if (!unmapped.ok()) {
      ReplyError(original, unmapped.status());
      return;
    }
    Reply(original, proto::RevokeResponse{});
  });
}

void MemoryController::OnTeardown(Pasid pasid) {
  if (leases_.TableOf(pasid) == nullptr) {
    return;
  }
  // Direct unmaps for every holder's range, then release the frames.
  leases_.Teardown(pasid, [this](Pasid app, const Range& range) { SendUnmap(app, range); });
}

void MemoryController::HandleLeaseReassert(const proto::Message& message) {
  // A client re-establishing its allocations after this shard (or the shard
  // it took over for) lost its tables. Each lease names the exact virtual
  // placement and physical frames the client's IOMMU already maps; accepting
  // one re-admits the region without reprogramming anything. Rejections mean
  // the region is gone (frames already re-used or claimed by another lease)
  // and the client must treat the allocation as lost.
  const auto& request = message.As<proto::LeaseReassertRequest>();
  uint32_t accepted = 0;
  uint32_t rejected = 0;
  for (const auto& lease : request.leases) {
    ++(leases_.Readmit(message.src, lease) ? accepted : rejected);
  }
  if (!request.leases.empty()) {
    TraceEvent("lease-reassert", "from=" + std::to_string(message.src.value()) +
                                     " accepted=" + std::to_string(accepted) +
                                     " rejected=" + std::to_string(rejected));
  }
  Reply(message, proto::LeaseReassertResponse{accepted, rejected, epoch_});
}

void MemoryController::OnPeerFailed(DeviceId device) {
  // A device died: revoke its grants everywhere. Its *owned* allocations stay
  // until the application is torn down (consumers may still hold grants and
  // the data may be recoverable), matching Sec. 4's consumer-driven recovery.
  leases_.DropGrantsHeldBy(device);
}

void MemoryController::OnPeerPermanentlyFailed(DeviceId device) {
  // The supervisor gave up on this device: the hopeful OnPeerFailed posture
  // (keep owned regions for recovery) would leak them forever. The dead
  // device's own IOMMU was already scrubbed by the bus; surviving grantees
  // are unmapped here.
  auto reclaimed = leases_.Reclaim(
      device, [this](Pasid pasid, const Range& range) { SendUnmap(pasid, range); });
  if (reclaimed.grants > 0 || reclaimed.allocations > 0) {
    TraceEvent("permanent-reclaim", "device=" + std::to_string(device.value()) +
                                        " allocations=" + std::to_string(reclaimed.allocations) +
                                        " grants=" + std::to_string(reclaimed.grants));
  }
}

}  // namespace lastcpu::memdev

#include "src/memdev/memory_controller.h"

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/dev/service.h"

namespace lastcpu::memdev {

MemoryController::MemoryController(DeviceId id, const dev::DeviceContext& context,
                                   mem::PhysicalMemory* memory, MemoryControllerConfig config,
                                   dev::DeviceConfig device_config)
    : dev::Device(id, "memctrl", context, device_config),
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
  if (epoch_ > 1 && config_.recovery_window > sim::Duration::Zero()) {
    recovering_until_ = simulator()->Now() + config_.recovery_window;
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

std::vector<proto::MapEntry> MemoryController::EntriesFor(const Allocation& allocation,
                                                          uint64_t from_vpage, uint64_t pages,
                                                          Access access) {
  std::vector<proto::MapEntry> entries;
  entries.reserve(pages);
  uint64_t page_delta = from_vpage - allocation.vaddr.page();
  for (uint64_t i = 0; i < pages; ++i) {
    entries.push_back(
        proto::MapEntry{from_vpage + i, allocation.first_frame + page_delta + i, access});
  }
  return entries;
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
  const Allocation& allocation = **allocated;
  if (tracer().enabled()) {
    TraceEvent("alloc", "pasid=" + std::to_string(request.pasid.value()) +
                            " pages=" + std::to_string(pages));
  }

  // Direct the bus to program the requester's IOMMU; reply only once the
  // mapping is live (Fig. 2 step 6 precedes the response).
  auto entries = EntriesFor(allocation, allocation.vaddr.page(), pages, request.access);
  proto::Message original = message;
  VirtAddr vaddr = allocation.vaddr;
  uint64_t bytes = pages * kPageSize;
  uint64_t first_frame = allocation.first_frame;
  SendDirective(message.src, request.pasid, std::move(entries), /*unmap=*/false,
                [this, original, vaddr, bytes, first_frame,
                 pasid = request.pasid](Result<void> mapped) {
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
  uint64_t pages = PagesForBytes(request.bytes);
  Status admitted = leases_.Admit(request.pasid, request.count * pages * kPageSize);
  if (!admitted.ok()) {
    ReplyError(message, admitted);
    return;
  }

  // Place and back every region first; the whole lease activates — or rolls
  // back — as one unit.
  std::vector<uint64_t> vpages;
  std::vector<uint64_t> frames;
  std::vector<proto::MapEntry> entries;
  vpages.reserve(request.count);
  frames.reserve(request.count);
  for (uint32_t i = 0; i < request.count; ++i) {
    auto allocated = leases_.Allocate(message.src, request.pasid, pages, request.access);
    if (!allocated.ok()) {
      for (uint64_t vpage : vpages) {
        leases_.Release(request.pasid, vpage);
      }
      ReplyError(message, allocated.status());
      return;
    }
    const Allocation& allocation = **allocated;
    auto region_entries = EntriesFor(allocation, allocation.vaddr.page(), pages, request.access);
    entries.insert(entries.end(), region_entries.begin(), region_entries.end());
    vpages.push_back(allocation.vaddr.page());
    frames.push_back(allocation.first_frame);
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
  uint64_t region_bytes = pages * kPageSize;
  SendDirective(message.src, request.pasid, std::move(entries), /*unmap=*/false,
                [this, original, region_bytes, vpages = std::move(vpages),
                 frames = std::move(frames), pasid = request.pasid](Result<void> mapped) {
                  if (!mapped.ok()) {
                    for (uint64_t vpage : vpages) {
                      leases_.Release(pasid, vpage);
                    }
                    ReplyError(original, mapped.status());
                    return;
                  }
                  proto::MemAllocBatchResponse response;
                  response.bytes = region_bytes;
                  response.vaddrs.reserve(vpages.size());
                  for (uint64_t vpage : vpages) {
                    response.vaddrs.push_back(VirtAddr(vpage << kPageShift));
                  }
                  response.first_frames = frames;
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
    const Allocation& allocation = **owned;
    auto entries = EntriesFor(allocation, vaddr.page(), pages, Access::kRead);
    auto& owner_entries = per_target[allocation.owner];
    owner_entries.insert(owner_entries.end(), entries.begin(), entries.end());
    for (const GrantRecord& grant : allocation.grants) {
      auto& grantee_entries = per_target[grant.grantee];
      grantee_entries.insert(grantee_entries.end(), entries.begin(), entries.end());
    }
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

  // Unmap from the owner and every grantee, then release the frames. Every
  // directive completes in a later event, so the record stays put while this
  // handler reads it.
  const Allocation& allocation = **owned;
  uint64_t vpage = allocation.vaddr.page();
  struct FreeState {
    int outstanding = 0;
    proto::Message original;
  };
  auto state = std::make_shared<FreeState>();
  state->original = message;

  auto finish = [this, state, pasid = request.pasid, vpage] {
    if (--state->outstanding > 0) {
      return;
    }
    leases_.Release(pasid, vpage);
    Reply(state->original, proto::MemFreeResponse{});
  };

  state->outstanding = static_cast<int>(1 + allocation.grants.size());
  auto unmap = [&](DeviceId target) {
    // Access is ignored on unmap; kRead keeps the entries valid.
    SendDirective(target, request.pasid,
                  EntriesFor(allocation, vpage, allocation.pages, Access::kRead),
                  /*unmap=*/true, [finish](Result<void>) { finish(); });
  };
  unmap(allocation.owner);
  for (const GrantRecord& grant : allocation.grants) {
    unmap(grant.grantee);
  }
}

void MemoryController::HandleGrant(const proto::Message& message) {
  const auto& request = message.As<proto::GrantRequest>();
  auto granted = leases_.Grant(message.src, request.pasid, request.vaddr, request.bytes,
                               request.grantee, request.access);
  if (!granted.ok()) {
    ReplyError(message, granted.status());
    return;
  }
  uint64_t pages = PagesForBytes(request.bytes);
  auto entries = EntriesFor(**granted, request.vaddr.page(), pages, request.access);
  if (tracer().enabled()) {
    TraceEvent("grant", "to=" + std::to_string(request.grantee.value()) +
                            " pages=" + std::to_string(pages));
  }

  // The grant is recorded before the mapping exists, so a free racing the
  // directive still unmaps the grantee.
  proto::Message original = message;
  SendDirective(request.grantee, request.pasid, std::move(entries), /*unmap=*/false,
                [this, original](Result<void> mapped) {
                  if (!mapped.ok()) {
                    // No mapping, no grant: drop the record (if the region
                    // still exists) so the table matches the IOMMUs.
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
  uint64_t pages = PagesForBytes(request.bytes);
  auto entries = EntriesFor(**revoked, request.vaddr.page(), pages, Access::kRead);
  proto::Message original = message;
  SendDirective(request.grantee, request.pasid, std::move(entries), /*unmap=*/true,
                [this, original](Result<void> unmapped) {
                  if (!unmapped.ok()) {
                    ReplyError(original, unmapped.status());
                    return;
                  }
                  Reply(original, proto::RevokeResponse{});
                });
}

void MemoryController::SendUnmap(DeviceId target, Pasid pasid, const Allocation& allocation) {
  SendDirective(target, pasid,
                EntriesFor(allocation, allocation.vaddr.page(), allocation.pages, Access::kRead),
                /*unmap=*/true, [](Result<void>) {});
}

void MemoryController::OnTeardown(Pasid pasid) {
  if (leases_.TableOf(pasid) == nullptr) {
    return;
  }
  // Direct unmaps for every allocation and grant, then release the frames.
  leases_.Teardown(pasid, [this](DeviceId target, Pasid app, const Allocation& allocation) {
    SendUnmap(target, app, allocation);
  });
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
      device, [this](DeviceId target, Pasid pasid, const Allocation& allocation) {
        SendUnmap(target, pasid, allocation);
      });
  if (reclaimed.grants > 0 || reclaimed.allocations > 0) {
    TraceEvent("permanent-reclaim", "device=" + std::to_string(device.value()) +
                                        " allocations=" + std::to_string(reclaimed.allocations) +
                                        " grants=" + std::to_string(reclaimed.grants));
  }
}

}  // namespace lastcpu::memdev

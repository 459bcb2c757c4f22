#include "src/core/control_plane.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/sim/time.h"

namespace lastcpu::core {
namespace {

// Issues `op` (which completes some Callback<T>) and steps the simulator
// until the completion lands.
template <typename T, typename Op>
Result<T> RunSync(sim::Simulator* simulator, Op op) {
  std::optional<Result<T>> out;
  op([&out](Result<T> result) { out = std::move(result); });
  while (!out && simulator->Step()) {
  }
  if (!out) {
    return TimedOut("simulator ran dry before the operation completed");
  }
  return std::move(*out);
}

// The sharded client's failover pacing rides out a shard restart (hundreds of
// microseconds of blackout) without surfacing kUnavailable to the app. An op
// that every shard refused as kUnavailable or kPartitioned is retried; lease
// re-assertion retries while the target shard is still rebooting.
constexpr sim::Duration kRetryBackoff = sim::Duration::Micros(50);
constexpr uint32_t kMaxOpRetries = 20;
constexpr sim::Duration kReassertBackoff = sim::Duration::Micros(100);
constexpr uint32_t kMaxReassertAttempts = 40;

// kUnavailable / kPartitioned: the request never reached a controller, so
// running the op again is safe and rides out a failover or partition window.
bool Retryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kPartitioned;
}

// A grant or free names one region, and the bus routes it to the shard that
// owns it; every other sharded op names its target shards itself.
template <typename Request>
constexpr bool kRoutedByBus = std::is_same_v<Request, proto::GrantRequest> ||
                              std::is_same_v<Request, proto::MemFreeRequest>;

// Grant-magazine sizing: regions per AllocBatch refill, the stock a drain
// trims back down to, the stock below which a refill starts and above which
// a drain starts, and the modeled cost of a local hit (magazine bookkeeping
// in device firmware).
constexpr uint32_t kRefillBatch = 32;
constexpr uint32_t kCapacity = 32;
constexpr uint32_t kLowWatermark = 8;
constexpr uint32_t kHighWatermark = 64;
constexpr sim::Duration kHitLatency = sim::Duration::Nanos(40);

// Fans several completions into one: `done` fires when the last part
// completes, with the first error any part reported.
struct Join {
  int outstanding = 0;
  Status first_error = OkStatus();
  Callback<void> done;

  void Complete(const Status& status) {
    if (!status.ok() && first_error.ok()) {
      first_error = status;
    }
    if (--outstanding == 0) {
      done(first_error.ok() ? Result<void>() : Result<void>(first_error));
    }
  }
};

}  // namespace

Result<VirtAddr> ControlClient::AllocSync(Pasid pasid, uint64_t bytes) {
  return RunSync<VirtAddr>(simulator(), [&](Callback<VirtAddr> done) {
    Alloc(pasid, bytes, std::move(done));
  });
}

Result<void> ControlClient::GrantSync(Pasid pasid, VirtAddr vaddr, uint64_t bytes,
                                      DeviceId grantee, Access access) {
  return RunSync<void>(simulator(), [&](Callback<void> done) {
    Grant(pasid, vaddr, bytes, grantee, access, std::move(done));
  });
}

Result<void> ControlClient::FreeSync(Pasid pasid, VirtAddr vaddr, uint64_t bytes) {
  return RunSync<void>(simulator(), [&](Callback<void> done) {
    Free(pasid, vaddr, bytes, std::move(done));
  });
}

Result<std::vector<VirtAddr>> ControlClient::AllocBatchSync(Pasid pasid, uint64_t bytes,
                                                            uint32_t count) {
  return RunSync<std::vector<VirtAddr>>(
      simulator(), [&](Callback<std::vector<VirtAddr>> done) {
        AllocBatch(pasid, bytes, count, std::move(done));
      });
}

Result<void> ControlClient::FreeBatchSync(Pasid pasid, std::vector<VirtAddr> vaddrs,
                                          uint64_t bytes) {
  return RunSync<void>(simulator(), [&](Callback<void> done) {
    FreeBatch(pasid, std::move(vaddrs), bytes, std::move(done));
  });
}

BusControlClient::BusControlClient(dev::Device* requester, DeviceId memctrl)
    : requester_(requester), memctrl_(memctrl) {
  LASTCPU_CHECK(requester != nullptr, "bus control client needs a device");
}

void BusControlClient::Alloc(Pasid pasid, uint64_t bytes, Callback<VirtAddr> done) {
  requester_->rpc().Call<proto::MemAllocResponse>(
      memctrl_, proto::MemAllocRequest{pasid, bytes, VirtAddr(0), Access::kReadWrite},
      [done = std::move(done)](Result<proto::MemAllocResponse> response) {
        if (!response.ok()) {
          done(response.status());
          return;
        }
        done(response->vaddr);
      });
}

void BusControlClient::Grant(Pasid pasid, VirtAddr vaddr, uint64_t bytes, DeviceId grantee,
                             Access access, Callback<void> done) {
  requester_->rpc().Call<void>(kBusDevice,
                               proto::GrantRequest{pasid, vaddr, bytes, grantee, access},
                               std::move(done));
}

void BusControlClient::Free(Pasid pasid, VirtAddr vaddr, uint64_t bytes, Callback<void> done) {
  requester_->rpc().Call<void>(kBusDevice, proto::MemFreeRequest{pasid, vaddr, bytes},
                               std::move(done));
}

void BusControlClient::AllocBatch(Pasid pasid, uint64_t bytes, uint32_t count,
                                  Callback<std::vector<VirtAddr>> done) {
  // Straight to the controller: the batch is one request/response pair, not
  // `count` bus-forwarded operations.
  requester_->rpc().Call<proto::MemAllocBatchResponse>(
      memctrl_, proto::MemAllocBatchRequest{pasid, bytes, count, Access::kReadWrite},
      [done = std::move(done)](Result<proto::MemAllocBatchResponse> response) {
        if (!response.ok()) {
          done(response.status());
          return;
        }
        done(std::move(response->vaddrs));
      });
}

void BusControlClient::FreeBatch(Pasid pasid, std::vector<VirtAddr> vaddrs, uint64_t bytes,
                                 Callback<void> done) {
  requester_->rpc().Call<void>(memctrl_,
                               proto::MemFreeBatchRequest{pasid, std::move(vaddrs), bytes},
                               std::move(done));
}

ShardedControlClient::ShardedControlClient(dev::Device* requester, std::vector<ShardInfo> shards,
                                           AllocationPolicy policy)
    : requester_(requester), policy_(policy) {
  LASTCPU_CHECK(requester != nullptr, "sharded control client needs a device");
  LASTCPU_CHECK(!shards.empty(), "sharded control client needs at least one shard");
  shards_.reserve(shards.size());
  for (ShardInfo& info : shards) {
    shards_.push_back(Shard{info, /*alive=*/true});
  }
  // A transiently failed shard restarts with empty tables: queue a lease
  // re-assertion so our allocations survive the reboot. The retry loop inside
  // ReassertLeasesFor rides out the blackout (sends bounce kUnavailable until
  // the shard is back).
  failed_token_ = requester_->AddPeerFailedHook([this](DeviceId device) {
    if (IsShardDevice(device)) {
      ReassertLeasesFor(device, 0);
    }
  });
  // A quarantined shard never comes back: stop offering it as a candidate,
  // then re-fetch the directory — the bus repoints the dead shard's VA slabs
  // at a successor, and our leases there must be re-asserted to it.
  perm_failed_token_ = requester_->AddPeerPermanentlyFailedHook([this](DeviceId device) {
    bool was_shard = false;
    for (Shard& shard : shards_) {
      if (shard.info.device == device) {
        shard.alive = false;
        was_shard = true;
      }
    }
    if (was_shard) {
      RefreshDirectory(0);
    }
  });
}

ShardedControlClient::~ShardedControlClient() {
  requester_->RemovePeerFailedHook(failed_token_);
  requester_->RemovePeerPermanentlyFailedHook(perm_failed_token_);
}

bool ShardedControlClient::IsShardDevice(DeviceId device) const {
  for (const Shard& shard : shards_) {
    if (shard.info.device == device) {
      return true;
    }
  }
  return false;
}

void ShardedControlClient::RecordLease(Pasid pasid, VirtAddr vaddr, uint64_t bytes,
                                       uint64_t first_frame) {
  Lease lease;
  lease.pasid = pasid;
  lease.bytes = PagesForBytes(bytes) * kPageSize;
  lease.first_frame = first_frame;
  leases_[vaddr.raw] = std::move(lease);
}

ShardedControlClient::Lease* ShardedControlClient::LeaseCovering(VirtAddr vaddr) {
  auto next = leases_.upper_bound(vaddr.raw);
  if (next == leases_.begin()) {
    return nullptr;
  }
  auto it = std::prev(next);
  if (vaddr.raw < it->first + it->second.bytes) {
    return &it->second;
  }
  return nullptr;
}

void ShardedControlClient::RefreshDirectory(uint32_t attempt) {
  ++directory_refreshes_;
  if (attempt == 0) {
    ++refreshes_pending_;
  }
  requester_->rpc().Call<proto::ShardDirectoryResponse>(
      kBusDevice, proto::ShardDirectoryRequest{},
      [this, attempt](Result<proto::ShardDirectoryResponse> response) {
        if (!response.ok()) {
          // The management ring is fault-free, but the RPC can still time out
          // under extreme load; bounded retry.
          if (attempt + 1 < kMaxReassertAttempts) {
            simulator()->Schedule(kReassertBackoff,
                                  [this, attempt] { RefreshDirectory(attempt + 1); });
          } else {
            --refreshes_pending_;
          }
          return;
        }
        --refreshes_pending_;
        AdoptDirectory(response->shards);
      });
}

void ShardedControlClient::AdoptDirectory(const std::vector<proto::ShardRecord>& records) {
  if (records.empty()) {
    return;  // nothing to adopt; keep the stale view rather than no view
  }
  // Rebuild shards_ from the fresh directory; collect slabs whose owning
  // device changed — our leases there must be re-asserted to the new owner.
  std::vector<Shard> rebuilt;
  rebuilt.reserve(records.size());
  std::vector<DeviceId> changed_owners;
  for (const proto::ShardRecord& record : records) {
    rebuilt.push_back(
        Shard{ShardInfo{record.device, record.segment, record.va_base, record.va_limit}});
    for (const Shard& old : shards_) {
      if (old.info.va_base == record.va_base) {
        if (old.info.device != record.device &&
            std::find(changed_owners.begin(), changed_owners.end(), record.device) ==
                changed_owners.end()) {
          changed_owners.push_back(record.device);
        }
        break;
      }
    }
  }
  shards_ = std::move(rebuilt);
  for (DeviceId owner : changed_owners) {
    ReassertLeasesFor(owner, 0);
  }
}

void ShardedControlClient::ReassertLeasesFor(DeviceId target, uint32_t attempt) {
  proto::LeaseReassertRequest request;
  for (const auto& [raw, lease] : leases_) {
    Shard* shard = ShardForVa(VirtAddr(raw));
    if (shard == nullptr || shard->info.device != target) {
      continue;
    }
    proto::LeaseRecord record;
    record.pasid = lease.pasid;
    record.vaddr = VirtAddr(raw);
    record.bytes = lease.bytes;
    record.first_frame = lease.first_frame;
    record.access = lease.access;
    record.grants = lease.grants;
    request.leases.push_back(std::move(record));
  }
  if (request.leases.empty()) {
    return;
  }
  ++reasserts_sent_;
  requester_->rpc().Call<proto::LeaseReassertResponse>(
      target, std::move(request),
      [this, target, attempt](Result<proto::LeaseReassertResponse> response) {
        if (!response.ok()) {
          // Shard still rebooting (kUnavailable bounce), link still down, or
          // the request died with the shard (timeout): try again.
          if (attempt + 1 < kMaxReassertAttempts) {
            simulator()->Schedule(kReassertBackoff, [this, target, attempt] {
              ReassertLeasesFor(target, attempt + 1);
            });
          }
          return;
        }
        leases_reasserted_ += response->accepted;
        // A rejection means the region is gone for good (frames re-used or
        // double-claimed); the leases stay in the ledger — the application
        // discovers the loss on its next touch — but we count them.
        leases_lost_ += response->rejected;
      });
}

sim::Simulator* ShardedControlClient::simulator() { return requester_->simulator(); }

ShardedControlClient::Shard* ShardedControlClient::ShardForVa(VirtAddr vaddr) {
  for (Shard& shard : shards_) {
    if (vaddr.raw >= shard.info.va_base &&
        (shard.info.va_limit == 0 || vaddr.raw < shard.info.va_limit)) {
      return &shard;
    }
  }
  return nullptr;
}

std::vector<size_t> ShardedControlClient::CandidateOrder() {
  std::vector<size_t> order;
  order.reserve(shards_.size());
  switch (policy_) {
    case AllocationPolicy::kInterleave: {
      size_t start = rr_next_++ % shards_.size();
      for (size_t i = 0; i < shards_.size(); ++i) {
        order.push_back((start + i) % shards_.size());
      }
      break;
    }
    case AllocationPolicy::kHomeNode: {
      // Home shards first (rotating among them so one segment's shards share
      // load), then the rest in directory order as spill targets.
      uint32_t home = SegmentOf(requester_->id());
      for (size_t i = 0; i < shards_.size(); ++i) {
        if (shards_[i].info.segment == home) {
          order.push_back(i);
        }
      }
      if (!order.empty()) {
        std::rotate(order.begin(), order.begin() + rr_next_++ % order.size(), order.end());
      }
      for (size_t i = 0; i < shards_.size(); ++i) {
        if (shards_[i].info.segment != home) {
          order.push_back(i);
        }
      }
      break;
    }
  }
  // Skip dead shards. After a takeover one device serves several slab
  // records; offer it once, at its first place.
  auto kept = order.begin();
  for (size_t i : order) {
    DeviceId device = shards_[i].info.device;
    bool offered = std::any_of(order.begin(), kept,
                               [&](size_t j) { return shards_[j].info.device == device; });
    if (shards_[i].alive && !offered) {
      *kept++ = i;
    }
  }
  order.erase(kept, order.end());
  return order;
}

std::vector<size_t> ShardedControlClient::Targets(const proto::MemFreeBatchRequest& request) {
  Shard* owner = request.vaddrs.empty() ? nullptr : ShardForVa(request.vaddrs.front());
  if (owner == nullptr || !owner->alive) {
    return {};
  }
  return {static_cast<size_t>(owner - shards_.data())};
}

template <typename Response, typename Request, typename OnOk, typename T>
void ShardedControlClient::Run(const Request& request, uint32_t retries, OnOk on_ok,
                               Callback<T> done) {
  // An empty order sends a grant or free to the bus, which routes it by
  // address; every other op needs a live target shard. Only a directory
  // refresh can name a successor to a dead one, so an op with no target
  // waits only while a refresh is pending.
  std::vector<size_t> order;
  if constexpr (!kRoutedByBus<Request>) {
    order = Targets(request);
    if (order.empty()) {
      if (refreshes_pending_ > 0 && retries < kMaxOpRetries) {
        ++op_retries_;
        simulator()->Schedule(kRetryBackoff, [this, request, retries, on_ok,
                                              done = std::move(done)]() mutable {
          Run<Response>(request, retries + 1, on_ok, std::move(done));
        });
        return;
      }
      simulator()->Schedule(sim::Duration::Zero(), [done = std::move(done)] {
        done(Unavailable("no live memory shards"));
      });
      return;
    }
  }
  Send<Response>(request, std::move(order), 0, retries, on_ok, std::move(done));
}

template <typename Response, typename Request, typename OnOk, typename T>
void ShardedControlClient::Send(const Request& request, std::vector<size_t> order,
                                uint32_t attempt, uint32_t retries, OnOk on_ok,
                                Callback<T> done) {
  DeviceId target = order.empty() ? kBusDevice : shards_[order[attempt]].info.device;
  requester_->rpc().Call<Response>(
      target, request,
      [this, request, order = std::move(order), attempt, retries, on_ok,
       done = std::move(done)](Result<Response> response) mutable {
        if (response.ok()) {
          if constexpr (std::is_void_v<Response>) {
            on_ok(request);
            done(OkStatus());
          } else {
            done(on_ok(request, *response));
          }
          return;
        }
        // A full, offline, or unreachable shard is not a machine-wide
        // failure: spill to the next candidate once per shard.
        bool spillable = response.status().code() == StatusCode::kResourceExhausted ||
                         Retryable(response.status());
        if (spillable && attempt + 1 < order.size()) {
          ++spills_;
          Send<Response>(request, std::move(order), attempt + 1, retries, on_ok, std::move(done));
          return;
        }
        // Every target is out (failover blackout / partition window): back
        // off, re-resolve, and run the whole op again.
        if (Retryable(response.status()) && retries < kMaxOpRetries) {
          ++op_retries_;
          simulator()->Schedule(kRetryBackoff, [this, request, retries, on_ok,
                                                done = std::move(done)]() mutable {
            Run<Response>(request, retries + 1, on_ok, std::move(done));
          });
          return;
        }
        done(response.status());
      });
}

void ShardedControlClient::Alloc(Pasid pasid, uint64_t bytes, Callback<VirtAddr> done) {
  Run<proto::MemAllocResponse>(
      proto::MemAllocRequest{pasid, bytes, VirtAddr(0), Access::kReadWrite}, 0,
      [this](const proto::MemAllocRequest& request, proto::MemAllocResponse& response) {
        RecordLease(request.pasid, response.vaddr, request.bytes, response.first_frame);
        return response.vaddr;
      },
      std::move(done));
}

void ShardedControlClient::AllocBatch(Pasid pasid, uint64_t bytes, uint32_t count,
                                      Callback<std::vector<VirtAddr>> done) {
  Run<proto::MemAllocBatchResponse>(
      proto::MemAllocBatchRequest{pasid, bytes, count, Access::kReadWrite}, 0,
      [this](const proto::MemAllocBatchRequest& request,
             proto::MemAllocBatchResponse& response) {
        for (size_t i = 0; i < response.vaddrs.size(); ++i) {
          uint64_t frame = i < response.first_frames.size() ? response.first_frames[i] : 0;
          RecordLease(request.pasid, response.vaddrs[i], request.bytes, frame);
        }
        return std::move(response.vaddrs);
      },
      std::move(done));
}

void ShardedControlClient::Grant(Pasid pasid, VirtAddr vaddr, uint64_t bytes, DeviceId grantee,
                                 Access access, Callback<void> done) {
  // Authorization still runs controller-side, as with the flat client.
  Run<void>(
      proto::GrantRequest{pasid, vaddr, bytes, grantee, access}, 0,
      [this](const proto::GrantRequest& request) {
        if (Lease* lease = LeaseCovering(request.vaddr)) {
          lease->grants.push_back(proto::LeaseGrant{request.grantee, request.access});
        }
      },
      std::move(done));
}

void ShardedControlClient::Free(Pasid pasid, VirtAddr vaddr, uint64_t bytes,
                                Callback<void> done) {
  Run<void>(
      proto::MemFreeRequest{pasid, vaddr, bytes}, 0,
      [this](const proto::MemFreeRequest& request) { leases_.erase(request.vaddr.raw); },
      std::move(done));
}

void ShardedControlClient::FreeBatch(Pasid pasid, std::vector<VirtAddr> vaddrs, uint64_t bytes,
                                     Callback<void> done) {
  // Regions in one drain may belong to different shards (interleave policy),
  // and the bus cannot route a batch by address: group them by owner and
  // send each group to its shard as one batch, like the flat client's
  // direct-to-controller batches. A group retries as a free does.
  std::map<DeviceId, std::vector<VirtAddr>> per_shard;
  for (VirtAddr vaddr : vaddrs) {
    Shard* shard = ShardForVa(vaddr);
    per_shard[shard != nullptr ? shard->info.device : DeviceId::Invalid()].push_back(vaddr);
  }
  auto join = std::make_shared<Join>();
  join->done = std::move(done);
  join->outstanding = static_cast<int>(per_shard.size());
  if (join->outstanding == 0) {
    simulator()->Schedule(sim::Duration::Zero(), [join] { join->done(OkStatus()); });
    return;
  }
  for (auto& [device, group] : per_shard) {
    Run<void>(
        proto::MemFreeBatchRequest{pasid, std::move(group), bytes}, 0,
        [this](const proto::MemFreeBatchRequest& request) {
          for (VirtAddr vaddr : request.vaddrs) {
            leases_.erase(vaddr.raw);
          }
        },
        Callback<void>([join](Result<void> result) { join->Complete(result.status()); }));
  }
}

KernelControlClient::KernelControlClient(baseline::CentralKernel* kernel, DeviceId self)
    : kernel_(kernel), self_(self) {
  LASTCPU_CHECK(kernel != nullptr, "kernel control client needs a kernel");
}

void KernelControlClient::Alloc(Pasid pasid, uint64_t bytes, Callback<VirtAddr> done) {
  kernel_->AllocMemory(self_, pasid, bytes, std::move(done));
}

void KernelControlClient::Grant(Pasid pasid, VirtAddr vaddr, uint64_t bytes, DeviceId grantee,
                                Access access, Callback<void> done) {
  kernel_->Grant(self_, pasid, vaddr, bytes, grantee, access, std::move(done));
}

void KernelControlClient::Free(Pasid pasid, VirtAddr vaddr, uint64_t bytes, Callback<void> done) {
  kernel_->FreeMemory(self_, pasid, vaddr, bytes, std::move(done));
}

void KernelControlClient::AllocBatch(Pasid pasid, uint64_t bytes, uint32_t count,
                                     Callback<std::vector<VirtAddr>> done) {
  kernel_->AllocMemoryBatch(self_, pasid, bytes, count, std::move(done));
}

void KernelControlClient::FreeBatch(Pasid pasid, std::vector<VirtAddr> vaddrs, uint64_t bytes,
                                    Callback<void> done) {
  kernel_->FreeMemoryBatch(self_, pasid, std::move(vaddrs), bytes, std::move(done));
}

MagazineClient::MagazineClient(ControlClient* inner, dev::Device* host, DeviceId memctrl)
    : inner_(inner), host_(host), memctrl_(memctrl) {
  LASTCPU_CHECK(inner != nullptr, "magazine client needs a transport client");
  if (host_ != nullptr) {
    auto on_peer_down = [this](DeviceId device) {
      if (device == memctrl_) {
        DropAll();
      }
    };
    failed_token_ = host_->AddPeerFailedHook(on_peer_down);
    perm_failed_token_ = host_->AddPeerPermanentlyFailedHook(on_peer_down);
  }
}

MagazineClient::~MagazineClient() {
  if (host_ != nullptr) {
    host_->RemovePeerFailedHook(failed_token_);
    host_->RemovePeerPermanentlyFailedHook(perm_failed_token_);
  }
}

uint64_t MagazineClient::cached_regions() const {
  uint64_t count = 0;
  for (const auto& [key, magazine] : magazines_) {
    count += magazine.free.size();
  }
  return count;
}

void MagazineClient::Alloc(Pasid pasid, uint64_t bytes, Callback<VirtAddr> done) {
  uint64_t pages = PagesForBytes(bytes);
  Magazine& magazine = magazines_[Key(pasid.value(), pages)];
  if (!magazine.free.empty()) {
    VirtAddr vaddr = magazine.free.back();
    magazine.free.pop_back();
    ++hits_;
    simulator()->Schedule(kHitLatency, [done = std::move(done), vaddr] { done(vaddr); });
  } else {
    ++misses_;
    magazine.waiters.push_back(std::move(done));
  }
  MaybeRefill(pasid, pages);
}

void MagazineClient::Grant(Pasid pasid, VirtAddr vaddr, uint64_t bytes, DeviceId grantee,
                           Access access, Callback<void> done) {
  // Grants always take the full authorization path: caching them would skip
  // the controller's permission checks.
  inner_->Grant(pasid, vaddr, bytes, grantee, access, std::move(done));
}

void MagazineClient::Free(Pasid pasid, VirtAddr vaddr, uint64_t bytes, Callback<void> done) {
  // The region goes back on the shelf still mapped; a later Alloc of the same
  // size class reuses it without any unmap/remap round trip. (Same owner and
  // PASID, so no cross-application data leak — re-zeroing is the allocator's
  // job only on a fresh lease.)
  uint64_t pages = PagesForBytes(bytes);
  Magazine& magazine = magazines_[Key(pasid.value(), pages)];
  magazine.free.push_back(vaddr);
  ++hits_;
  simulator()->Schedule(kHitLatency, [done = std::move(done)] { done(OkStatus()); });
  MaybeDrain(pasid, pages);
}

void MagazineClient::AllocBatch(Pasid pasid, uint64_t bytes, uint32_t count,
                                Callback<std::vector<VirtAddr>> done) {
  inner_->AllocBatch(pasid, bytes, count, std::move(done));
}

void MagazineClient::FreeBatch(Pasid pasid, std::vector<VirtAddr> vaddrs, uint64_t bytes,
                               Callback<void> done) {
  inner_->FreeBatch(pasid, std::move(vaddrs), bytes, std::move(done));
}

void MagazineClient::MaybeRefill(Pasid pasid, uint64_t pages) {
  auto it = magazines_.find(Key(pasid.value(), pages));
  if (it == magazines_.end()) {
    return;
  }
  Magazine& magazine = it->second;
  if (magazine.refill_in_flight) {
    return;
  }
  if (magazine.waiters.empty() && magazine.free.size() >= kLowWatermark) {
    return;
  }
  magazine.refill_in_flight = true;
  ++refills_;
  inner_->AllocBatch(
      pasid, pages * kPageSize, kRefillBatch,
      [this, pasid, pages](Result<std::vector<VirtAddr>> leased) {
        auto mag_it = magazines_.find(Key(pasid.value(), pages));
        if (mag_it == magazines_.end()) {
          // DropAll raced the refill; the regions (if any) stay leased until
          // the controller's teardown/quarantine reclaim frees them.
          return;
        }
        Magazine& refilled = mag_it->second;
        refilled.refill_in_flight = false;
        if (!leased.ok()) {
          auto waiters = std::move(refilled.waiters);
          refilled.waiters.clear();
          for (auto& waiter : waiters) {
            waiter(leased.status());
          }
          return;
        }
        for (VirtAddr vaddr : *leased) {
          if (!refilled.waiters.empty()) {
            auto waiter = std::move(refilled.waiters.front());
            refilled.waiters.pop_front();
            waiter(vaddr);
          } else {
            refilled.free.push_back(vaddr);
          }
        }
        if (!refilled.waiters.empty()) {
          MaybeRefill(pasid, pages);
        }
      });
}

void MagazineClient::MaybeDrain(Pasid pasid, uint64_t pages) {
  auto it = magazines_.find(Key(pasid.value(), pages));
  if (it == magazines_.end()) {
    return;
  }
  Magazine& magazine = it->second;
  if (magazine.drain_in_flight || magazine.free.size() <= kHighWatermark) {
    return;
  }
  size_t excess = magazine.free.size() - kCapacity;
  std::vector<VirtAddr> to_free(magazine.free.end() - static_cast<ptrdiff_t>(excess),
                                magazine.free.end());
  magazine.free.resize(magazine.free.size() - excess);
  magazine.drain_in_flight = true;
  ++drains_;
  inner_->FreeBatch(pasid, std::move(to_free), pages * kPageSize,
                    [this, pasid, pages](Result<void> freed) {
                      auto mag_it = magazines_.find(Key(pasid.value(), pages));
                      if (mag_it == magazines_.end()) {
                        return;
                      }
                      mag_it->second.drain_in_flight = false;
                      if (!freed.ok()) {
                        // Ambiguous outcome: never reuse the regions. They
                        // stay leased until teardown/quarantine reclaims.
                        ++drain_failures_;
                      }
                      MaybeDrain(pasid, pages);
                    });
}

void MagazineClient::Flush(Callback<void> done) {
  auto join = std::make_shared<Join>();
  join->done = std::move(done);
  std::vector<std::tuple<Pasid, uint64_t, std::vector<VirtAddr>>> batches;
  for (auto& [key, magazine] : magazines_) {
    if (magazine.free.empty()) {
      continue;
    }
    batches.emplace_back(Pasid(key.first), key.second, std::move(magazine.free));
    magazine.free.clear();
  }
  if (batches.empty()) {
    simulator()->Schedule(sim::Duration::Zero(), [join] { join->done(OkStatus()); });
    return;
  }
  join->outstanding = static_cast<int>(batches.size());
  for (auto& [pasid, pages, vaddrs] : batches) {
    inner_->FreeBatch(pasid, std::move(vaddrs), pages * kPageSize,
                      [join](Result<void> freed) { join->Complete(freed.status()); });
  }
}

Result<void> MagazineClient::FlushSync() {
  return RunSync<void>(simulator(), [&](Callback<void> done) { Flush(std::move(done)); });
}

void MagazineClient::DropAll() {
  for (auto& [key, magazine] : magazines_) {
    magazine.free.clear();
    auto waiters = std::move(magazine.waiters);
    magazine.waiters.clear();
    for (auto& waiter : waiters) {
      waiter(Unavailable("memory controller failed; magazine dropped"));
    }
  }
  magazines_.clear();
}

}  // namespace lastcpu::core

// ControlClient: one interface over both control-plane designs.
//
// The benchmarks issue the same logical operations (allocate, grant, free)
// against either the decentralized bus (BusControlClient — the paper's
// design) or the centralized kernel (KernelControlClient — the baseline), so
// every measured difference comes from *where* control runs, not what it
// does.
//
// Every operation completes with one callback shape, Callback<T> (see
// base/status.h): value-producing ops get Result<T>, status-only ops get
// Result<void>. The *Sync variants drive the simulator until the operation
// completes — for tests and setup code that don't care about overlap.
#ifndef SRC_CORE_CONTROL_PLANE_H_
#define SRC_CORE_CONTROL_PLANE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/baseline/central_kernel.h"
#include "src/dev/device.h"

namespace lastcpu::core {

class ControlClient {
 public:
  virtual ~ControlClient() = default;

  // Allocates and maps `bytes` into `pasid` for this client's device.
  virtual void Alloc(Pasid pasid, uint64_t bytes, Callback<VirtAddr> done) = 0;
  // Grants an owned region to another device.
  virtual void Grant(Pasid pasid, VirtAddr vaddr, uint64_t bytes, DeviceId grantee, Access access,
                     Callback<void> done) = 0;
  // Releases an owned allocation.
  virtual void Free(Pasid pasid, VirtAddr vaddr, uint64_t bytes, Callback<void> done) = 0;

  // Bulk variants: lease `count` regions of `bytes` each / return several
  // equally sized regions, in one control-plane round trip. The magazine fast
  // path builds on these; they are also usable directly.
  virtual void AllocBatch(Pasid pasid, uint64_t bytes, uint32_t count,
                          Callback<std::vector<VirtAddr>> done) = 0;
  virtual void FreeBatch(Pasid pasid, std::vector<VirtAddr> vaddrs, uint64_t bytes,
                         Callback<void> done) = 0;

  // The simulator the asynchronous completions run on.
  virtual sim::Simulator* simulator() = 0;

  // Blocking variants: issue the operation and Step() the simulator until it
  // completes. Events already pending execute too — callers own the clock.
  // kTimedOut if the simulator runs dry before the completion fires.
  Result<VirtAddr> AllocSync(Pasid pasid, uint64_t bytes);
  Result<void> GrantSync(Pasid pasid, VirtAddr vaddr, uint64_t bytes, DeviceId grantee,
                         Access access);
  Result<void> FreeSync(Pasid pasid, VirtAddr vaddr, uint64_t bytes);
  Result<std::vector<VirtAddr>> AllocBatchSync(Pasid pasid, uint64_t bytes, uint32_t count);
  Result<void> FreeBatchSync(Pasid pasid, std::vector<VirtAddr> vaddrs, uint64_t bytes);
};

// Decentralized: operations travel the system bus from `requester` to the
// memory controller; the bus programs IOMMUs on the controller's directives.
class BusControlClient : public ControlClient {
 public:
  // `memctrl` is the memory controller's device id (from discovery).
  BusControlClient(dev::Device* requester, DeviceId memctrl);

  void Alloc(Pasid pasid, uint64_t bytes, Callback<VirtAddr> done) override;
  void Grant(Pasid pasid, VirtAddr vaddr, uint64_t bytes, DeviceId grantee, Access access,
             Callback<void> done) override;
  void Free(Pasid pasid, VirtAddr vaddr, uint64_t bytes, Callback<void> done) override;
  void AllocBatch(Pasid pasid, uint64_t bytes, uint32_t count,
                  Callback<std::vector<VirtAddr>> done) override;
  void FreeBatch(Pasid pasid, std::vector<VirtAddr> vaddrs, uint64_t bytes,
                 Callback<void> done) override;
  sim::Simulator* simulator() override { return requester_->simulator(); }

 private:
  dev::Device* requester_;
  DeviceId memctrl_;
};

// Where a sharded rack places fresh allocations (tried in order; a full or
// offline shard spills to the next candidate).
enum class AllocationPolicy {
  kHomeNode,    // prefer shards on the requester's own segment
  kInterleave,  // round-robin across every shard
};

// One controller shard as a client sees it (from the bus shard directory).
struct ShardInfo {
  DeviceId device;
  uint32_t segment = 0;
  uint64_t va_base = 0;
  uint64_t va_limit = 0;
};

// Decentralized, rack-scale: allocations pick a controller shard by policy
// and go to it directly; grant/free ride through the bus, which routes them
// to the owning shard by virtual address (each shard bump-allocates in its
// own VA slab, so ownership is a pure address function). Drops in anywhere a
// BusControlClient fits — MagazineClient wraps it unchanged.
class ShardedControlClient : public ControlClient {
 public:
  // `shards` is the directory snapshot (e.g. Machine::shard_infos()); order
  // defines the deterministic round-robin sequence. The requester's segment
  // (from its device id) anchors the home-node policy.
  ShardedControlClient(dev::Device* requester, std::vector<ShardInfo> shards,
                       AllocationPolicy policy = AllocationPolicy::kHomeNode);
  ~ShardedControlClient() override;

  void Alloc(Pasid pasid, uint64_t bytes, Callback<VirtAddr> done) override;
  void Grant(Pasid pasid, VirtAddr vaddr, uint64_t bytes, DeviceId grantee, Access access,
             Callback<void> done) override;
  void Free(Pasid pasid, VirtAddr vaddr, uint64_t bytes, Callback<void> done) override;
  void AllocBatch(Pasid pasid, uint64_t bytes, uint32_t count,
                  Callback<std::vector<VirtAddr>> done) override;
  void FreeBatch(Pasid pasid, std::vector<VirtAddr> vaddrs, uint64_t bytes,
                 Callback<void> done) override;
  sim::Simulator* simulator() override;

  // Introspection for tests and benches.
  uint64_t spills() const { return spills_; }
  uint64_t op_retries() const { return op_retries_; }
  uint64_t reasserts_sent() const { return reasserts_sent_; }
  uint64_t leases_reasserted() const { return leases_reasserted_; }
  uint64_t leases_lost() const { return leases_lost_; }
  uint64_t directory_refreshes() const { return directory_refreshes_; }
  size_t lease_count() const { return leases_.size(); }

 private:
  struct Shard {
    ShardInfo info;
    bool alive = true;
  };

  // The client's copy of one allocation: everything a controller needs to
  // rebuild its table entry after losing it (see LeaseReassertRequest).
  struct Lease {
    Pasid pasid;
    uint64_t bytes = 0;  // page-rounded
    uint64_t first_frame = 0;
    Access access = Access::kReadWrite;
    std::vector<proto::LeaseGrant> grants;
  };

  // Shard indexes in preference order under the active policy, skipping dead
  // shards and duplicate devices (a successor serving adopted slabs is one
  // candidate, not several). Deterministic: depends on the round-robin
  // state only.
  std::vector<size_t> CandidateOrder();
  // The shard whose VA slab contains `vaddr`.
  Shard* ShardForVa(VirtAddr vaddr);
  bool IsShardDevice(DeviceId device) const;

  // The shards an op goes to, in the order to try them, re-resolved each
  // time the op runs; empty when no live shard can take it. An allocation
  // tries the policy's candidate shards; a batch free goes to the shard that
  // owns its regions.
  std::vector<size_t> Targets(const proto::MemAllocRequest&) { return CandidateOrder(); }
  std::vector<size_t> Targets(const proto::MemAllocBatchRequest&) { return CandidateOrder(); }
  std::vector<size_t> Targets(const proto::MemFreeBatchRequest& request);

  // The one path of every op. Run picks the targets: a grant or free names
  // one existing region and goes to the bus, which routes it to the owning
  // shard by address; every other op goes to its Targets. Send issues the
  // request to shard order[attempt], or to the bus when `order` is empty. A
  // full, offline or unreachable target spills the request to the next one;
  // when every target bounced, or no target is left while a directory
  // refresh is pending, the whole op runs again after a back-off, a bounded
  // number of times. With no target and no refresh pending it fails at once.
  // `on_ok` records the op's effect in the lease ledger; for an allocation it
  // also yields what `done` receives.
  template <typename Response, typename Request, typename OnOk, typename T>
  void Run(const Request& request, uint32_t retries, OnOk on_ok, Callback<T> done);
  template <typename Response, typename Request, typename OnOk, typename T>
  void Send(const Request& request, std::vector<size_t> order, uint32_t attempt, uint32_t retries,
            OnOk on_ok, Callback<T> done);

  // Lease ledger maintenance.
  void RecordLease(Pasid pasid, VirtAddr vaddr, uint64_t bytes, uint64_t first_frame);
  Lease* LeaseCovering(VirtAddr vaddr);

  // Re-fetches the shard directory from the bus (after a shard was
  // permanently failed and its slabs repointed), rebuilds shards_, and
  // re-asserts leases in every slab whose owner changed.
  void RefreshDirectory(uint32_t attempt);
  void AdoptDirectory(const std::vector<proto::ShardRecord>& records);
  // Sends every lease whose slab `target` now owns to it, retrying while the
  // shard is still rebooting. Idempotent on the controller side.
  void ReassertLeasesFor(DeviceId target, uint32_t attempt);

  dev::Device* requester_;
  AllocationPolicy policy_;
  std::vector<Shard> shards_;
  std::map<uint64_t, Lease> leases_;  // keyed by vaddr.raw
  size_t rr_next_ = 0;
  uint64_t spills_ = 0;
  uint64_t op_retries_ = 0;
  uint64_t reasserts_sent_ = 0;
  uint64_t leases_reasserted_ = 0;
  uint64_t leases_lost_ = 0;
  uint64_t directory_refreshes_ = 0;
  // Directory refreshes sent or waiting to retry.
  uint32_t refreshes_pending_ = 0;
  uint64_t failed_token_ = 0;
  uint64_t perm_failed_token_ = 0;
};

// Centralized: operations are syscalls into the one kernel, on behalf of
// device `self`.
class KernelControlClient : public ControlClient {
 public:
  KernelControlClient(baseline::CentralKernel* kernel, DeviceId self);

  void Alloc(Pasid pasid, uint64_t bytes, Callback<VirtAddr> done) override;
  void Grant(Pasid pasid, VirtAddr vaddr, uint64_t bytes, DeviceId grantee, Access access,
             Callback<void> done) override;
  void Free(Pasid pasid, VirtAddr vaddr, uint64_t bytes, Callback<void> done) override;
  void AllocBatch(Pasid pasid, uint64_t bytes, uint32_t count,
                  Callback<std::vector<VirtAddr>> done) override;
  void FreeBatch(Pasid pasid, std::vector<VirtAddr> vaddrs, uint64_t bytes,
                 Callback<void> done) override;
  sim::Simulator* simulator() override { return kernel_->simulator(); }

 private:
  baseline::CentralKernel* kernel_;
  DeviceId self_;
};

// The grant-magazine fast path: a decorator over either client that caches
// leased regions per (pasid, size class). Alloc pops a cached region (one
// local 40 ns hit, zero bus messages); Free pushes the region back still
// mapped, to be recycled by a later Alloc. The magazine refills via one
// AllocBatch round trip of 32 regions when its stock drops below 8 and
// drains via FreeBatch back to 32 when recycled frees push it above 64, so
// the amortized control-plane cost of an alloc/free pair falls from 6
// messages to ~6/32. A caller that wants the unbatched per-op round trips
// does not wrap its client in a MagazineClient.
//
// Lease semantics: cached regions stay in the memory controller's table with
// this device as owner. If the device dies with a stocked magazine, the
// controller's quarantine/teardown reclamation frees them — nothing is
// stranded. Conversely, if the *controller* fails, the hosted hooks drop the
// local stock (the mappings are gone) and fail any queued waiters.
class MagazineClient : public ControlClient {
 public:
  // `inner` is the transport (bus or kernel client) and must outlive this.
  // `host` (optional) registers peer-failure hooks so a memory-controller
  // death at `memctrl` drops the cached stock; pass nullptr when the caller
  // manages invalidation itself (e.g. kernel-backed benches).
  MagazineClient(ControlClient* inner, dev::Device* host = nullptr, DeviceId memctrl = DeviceId());
  ~MagazineClient() override;

  void Alloc(Pasid pasid, uint64_t bytes, Callback<VirtAddr> done) override;
  void Grant(Pasid pasid, VirtAddr vaddr, uint64_t bytes, DeviceId grantee, Access access,
             Callback<void> done) override;
  void Free(Pasid pasid, VirtAddr vaddr, uint64_t bytes, Callback<void> done) override;
  void AllocBatch(Pasid pasid, uint64_t bytes, uint32_t count,
                  Callback<std::vector<VirtAddr>> done) override;
  void FreeBatch(Pasid pasid, std::vector<VirtAddr> vaddrs, uint64_t bytes,
                 Callback<void> done) override;
  sim::Simulator* simulator() override { return inner_->simulator(); }

  // Returns every cached region to the controller (teardown hygiene, so
  // tests asserting allocation_count()==0 can settle the lease).
  void Flush(Callback<void> done);
  Result<void> FlushSync();

  // Drops the cached stock without returning it (controller death or host
  // reset: the mappings are gone, the lease is reclaimed server-side). Queued
  // waiters fail with kUnavailable.
  void DropAll();

  // Introspection for tests and benches.
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t refills() const { return refills_; }
  uint64_t drains() const { return drains_; }
  uint64_t drain_failures() const { return drain_failures_; }
  uint64_t cached_regions() const;

 private:
  // One size class of cached regions: (pasid, pages) -> stock + waiters.
  struct Magazine {
    std::vector<VirtAddr> free;
    std::deque<Callback<VirtAddr>> waiters;
    bool refill_in_flight = false;
    bool drain_in_flight = false;
  };
  using Key = std::pair<uint32_t, uint64_t>;  // (pasid value, pages)

  void MaybeRefill(Pasid pasid, uint64_t pages);
  void MaybeDrain(Pasid pasid, uint64_t pages);

  ControlClient* inner_;
  dev::Device* host_;
  DeviceId memctrl_;
  uint64_t failed_token_ = 0;
  uint64_t perm_failed_token_ = 0;
  std::map<Key, Magazine> magazines_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t refills_ = 0;
  uint64_t drains_ = 0;
  uint64_t drain_failures_ = 0;
};

}  // namespace lastcpu::core

#endif  // SRC_CORE_CONTROL_PLANE_H_

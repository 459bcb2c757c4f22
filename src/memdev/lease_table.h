// LeaseTable: the allocation and grant bookkeeping of the machine's memory.
//
// Both control planes keep their leases in this one table: every memory
// controller (one per shard) and the centralized kernel baseline. The table
// owns a slice of physical frames and a VA slab per application (PASID). It
// places and backs allocations, checks owners, access and quotas, records
// grants, and reclaims what a dead device leaves behind. It never programs an
// IOMMU. An operation that changes mappings hands the caller the exact Range
// of each mapping to make or remove, and the caller does it: the controller
// sends a MapDirective to the bus, the kernel programs the IOMMU itself. So
// the two designs enforce the same policy by construction, map and unmap the
// same pages, and differ only in where, and at what cost, control runs.
//
// Counters go to the caller's StatsRegistry and are created on first
// increment, so a counter a run never touches stays out of its metrics.
#ifndef SRC_MEMDEV_LEASE_TABLE_H_
#define SRC_MEMDEV_LEASE_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/mem/buddy_allocator.h"
#include "src/mem/physical_memory.h"
#include "src/proto/message.h"
#include "src/sim/stats.h"

namespace lastcpu::memdev {

// Where per-application VA bump placement starts, as an offset into the
// table's VA slab. Low VA space is left to the application's own layout.
inline constexpr uint64_t kVaBumpBase = uint64_t{1} << 32;

// One mapping a lease backs: `device` maps `pages` pages from virtual page
// `vpage` onto the frames from `first_frame` (absolute), with `access`.
struct Range {
  DeviceId device;
  Access access = Access::kReadWrite;
  uint64_t vpage = 0;
  uint64_t first_frame = 0;
  uint64_t pages = 0;

  VirtAddr vaddr() const { return VirtAddr(vpage << kPageShift); }
};

// One live allocation: the owner's range is all of it, and each grant is
// exactly the pages granted.
struct Allocation {
  Range owner;  // the device that requested it (may grant it onward)
  std::vector<Range> grants;

  // Calls `fn(range)` for every mapping the allocation backs: the owner's,
  // then each grant's, in grant order.
  template <typename Fn>
  void ForEachHolder(Fn&& fn) const {
    fn(owner);
    for (const Range& grant : grants) {
      fn(grant);
    }
  }
};

// What a table hands out. All zero is the classic single table that owns
// all of physical memory and an unbounded VA space. A sharded memory
// controller owns one slice (see shard_layout.h).
struct LeaseSlice {
  // Frames [frame_base, frame_base + frame_count); frame_count 0 means all
  // of physical memory.
  uint64_t frame_base = 0;
  uint64_t frame_count = 0;
  // The VA slab bump placement stays in: [va_base, va_limit); va_limit 0
  // means unbounded.
  uint64_t va_base = 0;
  uint64_t va_limit = 0;
  // Per-application quota; 0 = unlimited.
  uint64_t max_bytes_per_pasid = 0;
};

class LeaseTable {
 public:
  using Table = std::map<uint64_t, Allocation>;  // keyed by start vpage
  // Called once per mapping that must go.
  using UnmapFn = std::function<void(Pasid pasid, const Range& range)>;

  LeaseTable(mem::PhysicalMemory* memory, sim::StatsRegistry* stats, LeaseSlice slice = {});

  // --- allocation ------------------------------------------------------------

  // Admits, places (at `hint` when nonzero), backs with zero-filled frames
  // and records `pages` owned by `owner`, who may grant up to `access`.
  // Returns the owner's range, which the caller then maps.
  Result<Range> Allocate(DeviceId owner, Pasid pasid, uint64_t pages, Access access,
                         VirtAddr hint = VirtAddr(0));
  // `count` allocations of `pages` each, all or none: the quota is checked
  // for the whole batch first, and a placement or frame shortage partway
  // releases what the batch already took. Returns the owners' ranges.
  Result<std::vector<Range>> AllocateBatch(DeviceId owner, Pasid pasid, uint64_t pages,
                                           uint32_t count, Access access);
  // The allocation of `pages` starting exactly at `vaddr`, if `requester`
  // owns it (the check before a free).
  Result<const Allocation*> Owned(DeviceId requester, Pasid pasid, VirtAddr vaddr, uint64_t pages,
                                  std::string_view not_found = "no matching allocation");
  // Releases the allocation starting at `vpage`, if it is still there. Any
  // unmapping must already have been done.
  void Release(Pasid pasid, uint64_t vpage);
  // Releases the allocations whose owner ranges `owned` lists.
  void Release(Pasid pasid, std::span<const Range> owned);

  // --- grants ----------------------------------------------------------------

  // Records that `owner` grants [vaddr, vaddr + bytes) to `grantee`, and
  // returns the grantee's range. The caller then maps it.
  // AlreadyExists if `grantee` already holds a grant overlapping the range:
  // mapping it would fail partway, on the first page mapped twice.
  Result<Range> Grant(DeviceId owner, Pasid pasid, VirtAddr vaddr, uint64_t bytes,
                      DeviceId grantee, Access access);
  // Removes the grant whose mapping failed: `grantee`'s grant of exactly
  // [vaddr, vaddr + bytes), if it is still recorded. Returns its range.
  std::optional<Range> DropGrant(Pasid pasid, VirtAddr vaddr, uint64_t bytes, DeviceId grantee);
  // Removes `grantee`'s grant of exactly [vaddr, vaddr + bytes) and returns
  // its range; the caller then unmaps it. NotFound if no grant matches.
  Result<Range> Revoke(DeviceId owner, Pasid pasid, VirtAddr vaddr, uint64_t bytes,
                       DeviceId grantee);

  // --- whole-application and whole-device reclaim ----------------------------

  // Drops everything `pasid` holds, calling `unmap` for every holder's range
  // of each allocation first.
  void Teardown(Pasid pasid, const UnmapFn& unmap);
  // Forgets every grant `device` holds; returns how many there were.
  uint64_t DropGrantsHeldBy(DeviceId device);

  struct Reclaimed {
    uint64_t allocations = 0;  // released because the device owned them
    uint64_t pages = 0;        // their size
    uint64_t grants = 0;       // grants the device held, dropped
  };
  // A permanently failed device: drops the grants it held, unmaps the grants
  // on its owned allocations through `unmap`, and releases them.
  Reclaimed Reclaim(DeviceId device, const UnmapFn& unmap);

  // Re-admits a lease `owner` held before this table lost its state, at
  // its exact placement and frames. False if the placement or the frames
  // are taken.
  bool Readmit(DeviceId owner, const proto::LeaseRecord& lease);
  // Forgets everything (volatile state lost on a restart).
  void Clear();

  // --- introspection ---------------------------------------------------------

  // `pasid`'s table, or null if it has none.
  const Table* TableOf(Pasid pasid) const;
  uint64_t AllocatedBytes(Pasid pasid) const;
  uint64_t allocation_count() const;
  // Allocations the device owns / grants it holds; both must be zero after
  // the device is permanently failed (the reclamation invariant).
  uint64_t AllocationsOwnedBy(DeviceId device) const;
  uint64_t GrantsHeldBy(DeviceId device) const;
  // True if `pasid`'s table holds an allocation starting exactly at `vaddr`.
  bool HasAllocationAt(Pasid pasid, VirtAddr vaddr) const;
  const mem::BuddyAllocator& allocator() const { return allocator_; }
  // Frame ranges adopted from another shard's slice by Readmit (not in this
  // table's own allocator).
  uint64_t foreign_frame_ranges() const { return foreign_frames_.size(); }

 private:
  // ResourceExhausted if `bytes` more would put `pasid` over its quota.
  Status Admit(Pasid pasid, uint64_t bytes);
  // Picks a virtual placement for `pages`, honoring a nonzero hint when it
  // does not overlap an existing allocation.
  Result<uint64_t> PlaceVirtual(Pasid pasid, uint64_t pages, VirtAddr hint);
  // The allocation containing [vaddr, vaddr + bytes), or null.
  Allocation* FindCovering(Pasid pasid, VirtAddr vaddr, uint64_t bytes);
  // Claims frames outside this table's slice for a re-admitted lease; fails
  // on overlap with an already adopted range (the double-ownership guard).
  bool AdoptForeignFrames(uint64_t first_frame, uint64_t pages);
  // Returns the frames under an owner's range to wherever they came from.
  void FreeFrames(const Range& owned);
  void Count(std::string_view counter, uint64_t delta = 1) {
    stats_->GetCounter(counter).Increment(delta);
  }

  mem::PhysicalMemory* memory_;
  sim::StatsRegistry* stats_;
  // The counters every alloc, grant and free bumps, by handle.
  sim::LazyCounter allocations_{stats_, "allocations"};
  sim::LazyCounter pages_allocated_{stats_, "pages_allocated"};
  sim::LazyCounter frees_{stats_, "frees"};
  sim::LazyCounter grants_{stats_, "grants"};
  LeaseSlice slice_;
  mem::BuddyAllocator allocator_;
  std::map<Pasid, Table> tables_;
  std::map<Pasid, uint64_t> next_vpage_;
  std::map<Pasid, uint64_t> bytes_allocated_;
  // Adopted frame ranges (first_frame -> pages) backing re-admitted leases
  // whose frames live in a failed shard's slice.
  std::map<uint64_t, uint64_t> foreign_frames_;
};

}  // namespace lastcpu::memdev

#endif  // SRC_MEMDEV_LEASE_TABLE_H_

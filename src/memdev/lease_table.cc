#include "src/memdev/lease_table.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/base/check.h"

namespace lastcpu::memdev {
namespace {

// True if [vpage, vpage + pages) overlaps any allocation in the table.
bool Overlaps(const LeaseTable::Table& table, uint64_t vpage, uint64_t pages) {
  // Candidate allocation at or after vpage.
  auto next = table.lower_bound(vpage);
  if (next != table.end() && next->first < vpage + pages) {
    return true;
  }
  // Allocation starting before vpage may still cover it.
  if (next != table.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second.owner.pages > vpage) {
      return true;
    }
  }
  return false;
}

}  // namespace

LeaseTable::LeaseTable(mem::PhysicalMemory* memory, sim::StatsRegistry* stats, LeaseSlice slice)
    : memory_(memory),
      stats_(stats),
      slice_(slice),
      allocator_(slice.frame_count != 0 ? slice.frame_count : memory->num_frames()) {
  LASTCPU_CHECK(stats != nullptr, "lease table needs a stats registry");
  LASTCPU_CHECK(slice.frame_base + allocator_.total_frames() <= memory->num_frames(),
                "lease table slice extends past physical memory");
}

Status LeaseTable::Admit(Pasid pasid, uint64_t bytes) {
  if (slice_.max_bytes_per_pasid != 0 &&
      AllocatedBytes(pasid) + bytes > slice_.max_bytes_per_pasid) {
    Count("quota_rejections");
    return ResourceExhausted("application memory quota exceeded");
  }
  return OkStatus();
}

Result<uint64_t> LeaseTable::PlaceVirtual(Pasid pasid, uint64_t pages, VirtAddr hint) {
  Table& table = tables_[pasid];
  if (hint.raw != 0) {
    if (hint.offset() != 0) {
      return InvalidArgument("vaddr hint not page-aligned");
    }
    if (Overlaps(table, hint.page(), pages)) {
      return AlreadyExists("hinted region overlaps an existing allocation");
    }
    return hint.page();
  }
  auto [it, inserted] =
      next_vpage_.try_emplace(pasid, (slice_.va_base + kVaBumpBase) >> kPageShift);
  (void)inserted;
  uint64_t vpage = it->second;
  while (Overlaps(table, vpage, pages)) {
    vpage += pages;
  }
  if (slice_.va_limit != 0 && (vpage + pages) << kPageShift > slice_.va_limit) {
    Count("va_slab_rejections");
    return ResourceExhausted("shard VA slab exhausted");
  }
  it->second = vpage + pages;
  return vpage;
}

Result<Range> LeaseTable::Allocate(DeviceId owner, Pasid pasid, uint64_t pages, Access access,
                                   VirtAddr hint) {
  LASTCPU_RETURN_IF_ERROR(Admit(pasid, pages * kPageSize));
  auto vpage = PlaceVirtual(pasid, pages, hint);
  if (!vpage.ok()) {
    return vpage.status();
  }
  auto frame = allocator_.Allocate(pages);
  if (!frame.ok()) {
    Count("oom_rejections");
    return frame.status();
  }
  // Frames are allocator-relative; the table holds absolute frames so
  // grantees on other shards see real physical addresses.
  uint64_t first_frame = slice_.frame_base + *frame;
  // Zero-fill so no application ever sees another's stale data.
  for (uint64_t i = 0; i < pages; ++i) {
    memory_->ZeroFrame(first_frame + i);
  }
  Range range{.device = owner, .access = access, .vpage = *vpage,
              .first_frame = first_frame, .pages = pages};
  tables_[pasid].emplace(*vpage, Allocation{range, {}});
  bytes_allocated_[pasid] += pages * kPageSize;
  allocations_->Increment();
  pages_allocated_->Increment(pages);
  return range;
}

Result<std::vector<Range>> LeaseTable::AllocateBatch(DeviceId owner, Pasid pasid, uint64_t pages,
                                                     uint32_t count, Access access) {
  LASTCPU_RETURN_IF_ERROR(Admit(pasid, count * pages * kPageSize));
  std::vector<Range> ranges;
  for (uint32_t i = 0; i < count; ++i) {
    auto allocated = Allocate(owner, pasid, pages, access);
    if (!allocated.ok()) {
      Release(pasid, ranges);
      return allocated.status();
    }
    ranges.push_back(*allocated);
  }
  return ranges;
}

Result<const Allocation*> LeaseTable::Owned(DeviceId requester, Pasid pasid, VirtAddr vaddr,
                                            uint64_t pages, std::string_view not_found) {
  auto table_it = tables_.find(pasid);
  if (table_it == tables_.end()) {
    return NotFound("no allocations for PASID");
  }
  auto it = table_it->second.find(vaddr.page());
  if (it == table_it->second.end() || it->second.owner.pages != pages) {
    return NotFound(std::string(not_found));
  }
  if (it->second.owner.device != requester) {
    Count("authorization_failures");
    return PermissionDenied("only the owner may free an allocation");
  }
  return &it->second;
}

void LeaseTable::FreeFrames(const Range& owned) {
  if (foreign_frames_.erase(owned.first_frame) > 0) {
    // An adopted range: the frames belong to a failed shard's slice, not this
    // allocator. Dropping the adoption record is the release.
    Count("foreign_frames_released");
    return;
  }
  LASTCPU_CHECK(allocator_.Free(owned.first_frame - slice_.frame_base, owned.pages).ok(),
                "allocator table out of sync");
}

void LeaseTable::Release(Pasid pasid, uint64_t vpage) {
  auto table_it = tables_.find(pasid);
  if (table_it == tables_.end()) {
    return;
  }
  auto it = table_it->second.find(vpage);
  if (it == table_it->second.end()) {
    return;
  }
  FreeFrames(it->second.owner);
  bytes_allocated_[pasid] -= it->second.owner.pages * kPageSize;
  frees_->Increment();
  table_it->second.erase(it);
}

void LeaseTable::Release(Pasid pasid, std::span<const Range> owned) {
  for (const Range& range : owned) {
    Release(pasid, range.vpage);
  }
}

Allocation* LeaseTable::FindCovering(Pasid pasid, VirtAddr vaddr, uint64_t bytes) {
  auto table_it = tables_.find(pasid);
  if (table_it == tables_.end()) {
    return nullptr;
  }
  auto next = table_it->second.upper_bound(vaddr.page());
  if (next == table_it->second.begin()) {
    return nullptr;
  }
  auto it = std::prev(next);
  uint64_t want_end = PageCeil(vaddr.raw + bytes) >> kPageShift;
  if (vaddr.page() >= it->first && want_end <= it->first + it->second.owner.pages) {
    return &it->second;
  }
  return nullptr;
}

Result<Range> LeaseTable::Grant(DeviceId owner, Pasid pasid, VirtAddr vaddr, uint64_t bytes,
                                DeviceId grantee, Access access) {
  Allocation* allocation = FindCovering(pasid, vaddr, bytes);
  if (allocation == nullptr) {
    return NotFound("grant range is not an allocated region");
  }
  // Authorization (Sec. 3): only the owner of a region may grant it.
  if (allocation->owner.device != owner) {
    Count("authorization_failures");
    return PermissionDenied("only the owner may grant a region");
  }
  if (grantee == owner) {
    return InvalidArgument("cannot grant a region to its owner");
  }
  // The grantee may not receive more rights than the owner holds.
  if (!AccessCovers(allocation->owner.access, access)) {
    Count("authorization_failures");
    return PermissionDenied("grant requests more access than the owner holds");
  }
  uint64_t vpage = vaddr.page();
  uint64_t pages = PagesForBytes(bytes);
  for (const Range& held : allocation->grants) {
    if (held.device == grantee && vpage < held.vpage + held.pages &&
        held.vpage < vpage + pages) {
      return AlreadyExists("grantee already holds a grant overlapping the range");
    }
  }
  uint64_t first_frame = allocation->owner.first_frame + (vpage - allocation->owner.vpage);
  Range range{.device = grantee, .access = access, .vpage = vpage,
              .first_frame = first_frame, .pages = pages};
  allocation->grants.push_back(range);
  grants_->Increment();
  return range;
}

std::optional<Range> LeaseTable::DropGrant(Pasid pasid, VirtAddr vaddr, uint64_t bytes,
                                           DeviceId grantee) {
  Allocation* allocation = FindCovering(pasid, vaddr, bytes);
  if (allocation == nullptr) {
    return std::nullopt;
  }
  auto& grants = allocation->grants;
  auto it = std::find_if(grants.begin(), grants.end(), [&](const Range& grant) {
    return grant.device == grantee && grant.vpage == vaddr.page() &&
           grant.pages == PagesForBytes(bytes);
  });
  if (it == grants.end()) {
    return std::nullopt;
  }
  Range range = *it;
  grants.erase(it);
  return range;
}

Result<Range> LeaseTable::Revoke(DeviceId owner, Pasid pasid, VirtAddr vaddr, uint64_t bytes,
                                 DeviceId grantee) {
  Allocation* allocation = FindCovering(pasid, vaddr, bytes);
  if (allocation == nullptr) {
    return NotFound("revoke range is not an allocated region");
  }
  if (allocation->owner.device != owner) {
    Count("authorization_failures");
    return PermissionDenied("only the owner may revoke a grant");
  }
  std::optional<Range> revoked = DropGrant(pasid, vaddr, bytes, grantee);
  if (!revoked) {
    return NotFound("no such grant");
  }
  Count("revokes");
  return *revoked;
}

void LeaseTable::Teardown(Pasid pasid, const UnmapFn& unmap) {
  auto table_it = tables_.find(pasid);
  if (table_it != tables_.end()) {
    for (const auto& [vpage, allocation] : table_it->second) {
      allocation.ForEachHolder([&](const Range& range) { unmap(pasid, range); });
      FreeFrames(allocation.owner);
    }
    tables_.erase(table_it);
  }
  bytes_allocated_.erase(pasid);
  next_vpage_.erase(pasid);
  Count("teardowns");
}

uint64_t LeaseTable::DropGrantsHeldBy(DeviceId device) {
  uint64_t dropped = 0;
  for (auto& [pasid, table] : tables_) {
    for (auto& [vpage, allocation] : table) {
      dropped += std::erase_if(allocation.grants,
                               [&](const Range& grant) { return grant.device == device; });
    }
  }
  return dropped;
}

LeaseTable::Reclaimed LeaseTable::Reclaim(DeviceId device, const UnmapFn& unmap) {
  // Nobody will ever free the device's allocations or use its grants, so
  // keeping them would leak them forever.
  Reclaimed reclaimed;
  reclaimed.grants = DropGrantsHeldBy(device);
  std::vector<std::pair<Pasid, uint64_t>> owned;
  for (const auto& [pasid, table] : tables_) {
    for (const auto& [vpage, allocation] : table) {
      if (allocation.owner.device == device) {
        owned.emplace_back(pasid, vpage);
      }
    }
  }
  for (const auto& [pasid, vpage] : owned) {
    Table& table = tables_[pasid];
    auto it = table.find(vpage);
    if (it == table.end()) {
      continue;
    }
    const Allocation& allocation = it->second;
    // Surviving grantees still hold live mappings into frames about to be
    // reused. The dead owner's own IOMMU is scrubbed already.
    allocation.ForEachHolder([&](const Range& range) {
      if (range.device != device) {
        unmap(pasid, range);
      }
    });
    Count("stranded_grants_reclaimed", allocation.grants.size());
    ++reclaimed.allocations;
    reclaimed.pages += allocation.owner.pages;
    Release(pasid, vpage);
    Count("permanent_reclaims");
  }
  return reclaimed;
}

bool LeaseTable::AdoptForeignFrames(uint64_t first_frame, uint64_t pages) {
  // Overlap check against every adopted range: two clients re-asserting
  // leases over the same frames would otherwise double-own them.
  auto next = foreign_frames_.lower_bound(first_frame);
  if (next != foreign_frames_.end() && next->first < first_frame + pages) {
    return false;
  }
  if (next != foreign_frames_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second > first_frame) {
      return false;
    }
  }
  foreign_frames_.emplace(first_frame, pages);
  Count("foreign_frames_adopted");
  return true;
}

bool LeaseTable::Readmit(DeviceId owner, const proto::LeaseRecord& lease) {
  if (!lease.pasid.valid() || lease.bytes == 0) {
    return false;
  }
  uint64_t pages = PagesForBytes(lease.bytes);
  uint64_t vpage = lease.vaddr.page();
  Table& table = tables_[lease.pasid];
  if (Overlaps(table, vpage, pages)) {
    // Idempotent if it is exactly this owner's own record (a retried
    // re-assert); otherwise the placement is taken and the lease is dead.
    auto it = table.find(vpage);
    if (it != table.end() && it->second.owner.pages == pages &&
        it->second.owner.first_frame == lease.first_frame && it->second.owner.device == owner) {
      return true;
    }
    Count("lease_reasserts_rejected");
    return false;
  }
  uint64_t own_begin = slice_.frame_base;
  uint64_t own_end = slice_.frame_base + allocator_.total_frames();
  bool frames_claimed;
  if (lease.first_frame >= own_begin && lease.first_frame + pages <= own_end) {
    frames_claimed = allocator_.Reserve(lease.first_frame - slice_.frame_base, pages).ok();
  } else {
    frames_claimed = AdoptForeignFrames(lease.first_frame, pages);
  }
  if (!frames_claimed) {
    Count("lease_reasserts_rejected");
    return false;
  }
  Range whole{.device = owner, .access = lease.access, .vpage = vpage,
              .first_frame = lease.first_frame, .pages = pages};
  Allocation allocation{whole, {}};
  // A lease receipt names no grant ranges: each covers the whole region.
  for (const auto& grant : lease.grants) {
    whole.device = grant.grantee;
    whole.access = grant.access;
    allocation.grants.push_back(whole);
  }
  table.emplace(vpage, std::move(allocation));
  bytes_allocated_[lease.pasid] += pages * kPageSize;
  // Keep the bump pointer clear of re-admitted regions so later allocations
  // cannot race into the same VA range. Adopted leases from a dead shard's
  // slab live outside [va_base, va_limit) and must not drag the pointer past
  // this table's own slab.
  bool in_own_slab = lease.vaddr.raw >= slice_.va_base &&
                     (slice_.va_limit == 0 || lease.vaddr.raw < slice_.va_limit);
  if (in_own_slab) {
    auto [bump, inserted] =
        next_vpage_.try_emplace(lease.pasid, (slice_.va_base + kVaBumpBase) >> kPageShift);
    (void)inserted;
    bump->second = std::max(bump->second, vpage + pages);
  }
  Count("lease_reasserts_accepted");
  return true;
}

void LeaseTable::Clear() {
  tables_.clear();
  next_vpage_.clear();
  bytes_allocated_.clear();
  foreign_frames_.clear();
  allocator_ = mem::BuddyAllocator(allocator_.total_frames());
}

const LeaseTable::Table* LeaseTable::TableOf(Pasid pasid) const {
  auto it = tables_.find(pasid);
  return it == tables_.end() ? nullptr : &it->second;
}

uint64_t LeaseTable::AllocatedBytes(Pasid pasid) const {
  auto it = bytes_allocated_.find(pasid);
  return it == bytes_allocated_.end() ? 0 : it->second;
}

uint64_t LeaseTable::allocation_count() const {
  uint64_t count = 0;
  for (const auto& [pasid, table] : tables_) {
    count += table.size();
  }
  return count;
}

uint64_t LeaseTable::AllocationsOwnedBy(DeviceId device) const {
  uint64_t count = 0;
  for (const auto& [pasid, table] : tables_) {
    for (const auto& [vpage, allocation] : table) {
      if (allocation.owner.device == device) {
        ++count;
      }
    }
  }
  return count;
}

uint64_t LeaseTable::GrantsHeldBy(DeviceId device) const {
  uint64_t count = 0;
  for (const auto& [pasid, table] : tables_) {
    for (const auto& [vpage, allocation] : table) {
      for (const Range& grant : allocation.grants) {
        if (grant.device == device) {
          ++count;
        }
      }
    }
  }
  return count;
}

bool LeaseTable::HasAllocationAt(Pasid pasid, VirtAddr vaddr) const {
  auto table = tables_.find(pasid);
  if (table == tables_.end()) {
    return false;
  }
  auto entry = table->second.find(vaddr.page());
  return entry != table->second.end() && entry->second.owner.vaddr() == vaddr;
}

}  // namespace lastcpu::memdev

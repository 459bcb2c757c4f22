// The memory controller: a self-managing device that owns DRAM (paper
// Sec. 2.2 "Memory management", modeled on LegoOS's mComponent).
//
// It is the *policy* side of memory: its LeaseTable (the physical allocator
// and the per-application allocation tables, the same table the central
// kernel baseline runs) decides who may map what. The
// *mechanism* — programming IOMMUs — belongs to the system bus, which acts
// only on this controller's MapDirectives. The controller cannot touch
// another device's IOMMU directly, and no other device can direct mappings.
//
// Protocol, matching Figure 2:
//   MemAllocRequest  (device -> controller)   allocate + map into requester
//   GrantRequest     (owner -> bus -> here)   map an owned region into grantee
//   RevokeRequest    (owner -> bus -> here)   unmap it again
//   MemFreeRequest   (owner -> bus -> here)   release an allocation
//   TeardownApp      (bus broadcast)          drop everything for a PASID
#ifndef SRC_MEMDEV_MEMORY_CONTROLLER_H_
#define SRC_MEMDEV_MEMORY_CONTROLLER_H_

#include <cstdint>
#include <vector>

#include "src/dev/device.h"
#include "src/mem/buddy_allocator.h"
#include "src/mem/physical_memory.h"
#include "src/memdev/lease_table.h"

namespace lastcpu::memdev {

// The slice the controller's lease table hands out (quota, frames, VA slab;
// all zero is the classic single controller owning all DRAM), plus where
// the controller sits.
struct MemoryControllerConfig : LeaseSlice {
  // The bus segment the shard sits on; recorded in its directory entry.
  uint32_t segment = 0;
};

class MemoryController : public dev::Device {
 public:
  MemoryController(DeviceId id, const dev::DeviceContext& context, mem::PhysicalMemory* memory,
                   MemoryControllerConfig config = {});

  // Introspection for tests and reports.
  uint64_t AllocatedBytes(Pasid pasid) const { return leases_.AllocatedBytes(pasid); }
  uint64_t allocation_count() const { return leases_.allocation_count(); }
  const mem::BuddyAllocator& allocator() const { return leases_.allocator(); }
  // Allocations the device still owns / grants it still holds; both must be
  // zero after the device is permanently failed (the reclamation invariant).
  uint64_t AllocationsOwnedBy(DeviceId device) const { return leases_.AllocationsOwnedBy(device); }
  uint64_t GrantsHeldBy(DeviceId device) const { return leases_.GrantsHeldBy(device); }
  // True if `pasid`'s table holds an allocation starting exactly at `vaddr`
  // (chaos-test durability probe: every acked allocation must survive on
  // exactly one shard after a failover).
  bool HasAllocationAt(Pasid pasid, VirtAddr vaddr) const {
    return leases_.HasAllocationAt(pasid, vaddr);
  }
  bool sharded() const { return config_.frame_count != 0; }
  uint64_t capacity_bytes() const { return leases_.allocator().total_frames() * kPageSize; }
  const MemoryControllerConfig& controller_config() const { return config_; }
  // Registration epoch: starts at 1, bumped on every table-wiping restart.
  // Stamped into MapDirectives (the bus fences older epochs) and the shard's
  // directory announce.
  uint64_t epoch() const { return epoch_; }
  // Frame ranges adopted from another shard's slice via lease re-assertion
  // after a takeover (not in this shard's own allocator).
  uint64_t foreign_frame_ranges() const { return leases_.foreign_frame_ranges(); }

 protected:
  void OnAlive() override;
  void OnReset() override;
  void OnMessage(const proto::Message& message) override;
  void OnTeardown(Pasid pasid) override;
  void OnPeerFailed(DeviceId device) override;
  void OnPeerPermanentlyFailed(DeviceId device) override;

 private:
  void HandleAlloc(const proto::Message& message);
  void HandleFree(const proto::Message& message);
  void HandleAllocBatch(const proto::Message& message);
  void HandleFreeBatch(const proto::Message& message);
  void HandleGrant(const proto::Message& message);
  void HandleRevoke(const proto::Message& message);
  void HandleLeaseReassert(const proto::Message& message);

  // True while the post-restart recovery window is open (new allocations are
  // refused; lease re-assertions are always admitted).
  bool Recovering();

  // Emits a MapDirective to the bus and completes `done` (any callable
  // taking Result<void>) when the mapping is confirmed, or with the typed
  // error. Directives opt into bounded retries, which are safe only for a
  // lost request: the bus keeps no replay window, so a map directive that
  // did run and is sent again fails with AlreadyExists on its first page.
  template <typename Done>
  void SendDirective(DeviceId target, Pasid pasid, std::vector<proto::MapEntry> entries,
                     bool unmap, Done&& done);
  // Directs the bus to map, or unmap, `range` in its device.
  template <typename Done>
  void SendRange(Pasid pasid, const Range& range, bool unmap, Done&& done);
  // Directs the bus to unmap `range`, without waiting for the outcome.
  void SendUnmap(Pasid pasid, const Range& range);

  // Appends the map entries of `range`. Access is ignored on unmap; kRead
  // keeps the entries valid.
  static void AppendEntries(std::vector<proto::MapEntry>& entries, const Range& range,
                            bool unmap);

  MemoryControllerConfig config_;
  LeaseTable leases_;
  uint64_t epoch_ = 1;
  sim::SimTime recovering_until_;
};

}  // namespace lastcpu::memdev

#endif  // SRC_MEMDEV_MEMORY_CONTROLLER_H_

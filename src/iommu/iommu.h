// The per-device IOMMU: the cornerstone of data isolation (paper Sec. 2.2).
//
// Every data-plane access a device makes is translated here from a
// (PASID, virtual address) to a physical address. Programming the tables is a
// *privileged* operation: only the holder of a ProgrammingKey — minted
// exclusively by the system bus (or the baseline kernel) — can change
// mappings. A device can never map its own IOMMU, which is precisely the
// security argument of the paper ("it is not a good idea for a device to be
// responsible for its own mappings").
#ifndef SRC_IOMMU_IOMMU_H_
#define SRC_IOMMU_IOMMU_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/iommu/page_table.h"
#include "src/iommu/tlb.h"

namespace lastcpu::bus {
class SystemBus;
}
namespace lastcpu::baseline {
class CentralKernel;
}

namespace lastcpu::iommu {

// Capability token for IOMMU programming. Only the system bus and the
// baseline kernel can construct one; everything else must go through them.
class ProgrammingKey {
 public:
  // Test-only escape hatch, named loudly so it cannot pass review unnoticed.
  static ProgrammingKey CreateForTesting() { return ProgrammingKey(); }

 private:
  ProgrammingKey() = default;
  friend class lastcpu::bus::SystemBus;
  friend class lastcpu::baseline::CentralKernel;
};

// Why a translation failed; delivered to the attached device (paper Sec. 4:
// "the IOMMU would deliver any faults to its attached device").
struct FaultInfo {
  enum class Kind : uint8_t {
    kNotMapped,         // no translation for (pasid, vaddr)
    kPermission,        // mapped, but the access kind is not permitted
    kBadAddress,        // vaddr outside the translatable range
  };
  Kind kind = Kind::kNotMapped;
  Pasid pasid;
  VirtAddr vaddr;
  Access attempted = Access::kNone;

  std::string ToString() const;
};

// Result of a successful translation, including cost-model inputs.
struct Translation {
  PhysAddr paddr;
  bool tlb_hit = false;
  int levels_walked = 0;  // 0 on TLB hit, PageTable::kLevels on a walk
};

class Iommu {
 public:
  using FaultHandler = std::function<void(const FaultInfo&)>;

  explicit Iommu(DeviceId owner, TlbConfig tlb_config = TlbConfig{});

  DeviceId owner() const { return owner_; }

  // --- privileged programming interface (system bus only) -----------------

  Status Map(const ProgrammingKey& key, Pasid pasid, uint64_t vpage, uint64_t pframe,
             Access access);
  Status Unmap(const ProgrammingKey& key, Pasid pasid, uint64_t vpage);
  // Drops an entire address space (application teardown).
  void RemoveAddressSpace(const ProgrammingKey& key, Pasid pasid);

  // Clears every table and the TLB (device reset: stale mappings must not
  // survive a failed device's restart).
  void Reset(const ProgrammingKey& key);

  // --- data-path interface (the attached device) ---------------------------

  // Translates one access. On failure the fault handler (if set) is invoked
  // before the error returns — mirroring a fault interrupt raised toward the
  // device while the DMA engine sees an abort.
  Result<Translation> Translate(Pasid pasid, VirtAddr vaddr, Access wanted);

  // Hot-path translation without the Result boxing: on success fills `out`
  // and returns true, having charged exactly the counters Translate would
  // (translation count, TLB hit/miss, TLB fill on a walk). On failure it
  // returns false with no fault accounting done yet — the caller must follow
  // up with TranslateFault (once) to classify the fault, run the device's
  // fault handler, and obtain the error. Translate() is precisely that pair.
  bool TryTranslate(Pasid pasid, VirtAddr vaddr, Access wanted, Translation* out) {
    ++translations_;
    uint64_t vpage = vaddr.page();
    if (vpage > PageTable::kMaxVpage) {
      return false;
    }
    if (auto cached = tlb_.Lookup(pasid, vpage)) {
      if (!AccessCovers(cached->access, wanted)) {
        return false;
      }
      *out = Translation{PhysAddr((cached->pframe << kPageShift) | vaddr.offset()), true, 0};
      return true;
    }
    return WalkAndFill(pasid, vaddr, wanted, out);
  }

  // The cold half of a failed TryTranslate: fault bookkeeping, the attached
  // device's fault handler, and the error status.
  Status TranslateFault(Pasid pasid, VirtAddr vaddr, Access wanted);

  // Installs the attached device's fault handler.
  void SetFaultHandler(FaultHandler handler) { fault_handler_ = std::move(handler); }

  // --- observability --------------------------------------------------------

  uint64_t mapped_pages(Pasid pasid) const;
  uint64_t translations() const { return translations_; }
  uint64_t faults() const { return faults_; }
  const Tlb& tlb() const { return tlb_; }

 private:
  PageTable* FindTable(Pasid pasid) const;
  // TLB-miss half of TryTranslate: radix walk, TLB fill, permission check.
  bool WalkAndFill(Pasid pasid, VirtAddr vaddr, Access wanted, Translation* out);

  DeviceId owner_;
  Tlb tlb_;
  std::unordered_map<Pasid, std::unique_ptr<PageTable>> tables_;
  // Tables whose last page was unmapped, kept with their spare nodes for the
  // next address space instead of being freed and allocated again.
  std::vector<std::unique_ptr<PageTable>> spare_tables_;
  FaultHandler fault_handler_;
  uint64_t translations_ = 0;
  uint64_t faults_ = 0;
};

}  // namespace lastcpu::iommu

#endif  // SRC_IOMMU_IOMMU_H_

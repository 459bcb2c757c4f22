#include "src/iommu/iommu.h"

#include <cstdio>

namespace lastcpu::iommu {

std::string FaultInfo::ToString() const {
  const char* kind_name = "not-mapped";
  if (kind == Kind::kPermission) {
    kind_name = "permission";
  } else if (kind == Kind::kBadAddress) {
    kind_name = "bad-address";
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "fault(%s pasid=%u vaddr=0x%llx access=%s)", kind_name,
                pasid.value(), static_cast<unsigned long long>(vaddr.raw),
                lastcpu::ToString(attempted).c_str());
  return buf;
}

Iommu::Iommu(DeviceId owner, TlbConfig tlb_config) : owner_(owner), tlb_(tlb_config) {}

PageTable* Iommu::FindTable(Pasid pasid) const {
  auto it = tables_.find(pasid);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status Iommu::Map(const ProgrammingKey& key, Pasid pasid, uint64_t vpage, uint64_t pframe,
                  Access access) {
  (void)key;
  auto& table = tables_[pasid];
  if (!table) {
    if (spare_tables_.empty()) {
      table = std::make_unique<PageTable>();
    } else {
      table = std::move(spare_tables_.back());
      spare_tables_.pop_back();
    }
  }
  return table->Map(vpage, pframe, access);
}

Status Iommu::Unmap(const ProgrammingKey& key, Pasid pasid, uint64_t vpage) {
  (void)key;
  auto it = tables_.find(pasid);
  if (it == tables_.end()) {
    return NotFound("no such address space");
  }
  Status status = it->second->Unmap(vpage);
  if (status.ok()) {
    tlb_.InvalidatePage(pasid, vpage);
    if (it->second->mapped_pages() == 0) {
      // An emptied table holds only its root, like a new one.
      spare_tables_.push_back(std::move(it->second));
      tables_.erase(it);
    }
  }
  return status;
}

void Iommu::RemoveAddressSpace(const ProgrammingKey& key, Pasid pasid) {
  (void)key;
  tables_.erase(pasid);
  tlb_.InvalidatePasid(pasid);
}

void Iommu::Reset(const ProgrammingKey& key) {
  (void)key;
  tables_.clear();
  tlb_.InvalidateAll();
}

bool Iommu::WalkAndFill(Pasid pasid, VirtAddr vaddr, Access wanted, Translation* out) {
  PageTable* table = FindTable(pasid);
  if (table == nullptr) {
    return false;
  }
  auto pte = table->Lookup(vaddr.page());
  if (!pte.ok()) {
    return false;
  }
  // Fill the TLB before the permission check, as a real walker would: the
  // entry is valid, the access just isn't allowed.
  tlb_.Insert(pasid, vaddr.page(), *pte);
  if (!AccessCovers(pte->access, wanted)) {
    return false;
  }
  *out = Translation{PhysAddr((pte->pframe << kPageShift) | vaddr.offset()), false,
                     PageTable::kLevels};
  return true;
}

Status Iommu::TranslateFault(Pasid pasid, VirtAddr vaddr, Access wanted) {
  ++faults_;
  // Re-derive the fault kind from the tables (not the TLB — its hit/miss
  // counters were already charged by TryTranslate).
  FaultInfo::Kind kind = FaultInfo::Kind::kNotMapped;
  uint64_t vpage = vaddr.page();
  if (vpage > PageTable::kMaxVpage) {
    kind = FaultInfo::Kind::kBadAddress;
  } else if (PageTable* table = FindTable(pasid)) {
    auto pte = table->Lookup(vpage);
    if (pte.ok()) {
      kind = FaultInfo::Kind::kPermission;
    }
  }
  FaultInfo info{kind, pasid, vaddr, wanted};
  if (fault_handler_) {
    fault_handler_(info);
  }
  return PermissionDenied(info.ToString());
}

Result<Translation> Iommu::Translate(Pasid pasid, VirtAddr vaddr, Access wanted) {
  Translation translation;
  if (TryTranslate(pasid, vaddr, wanted, &translation)) {
    return translation;
  }
  return TranslateFault(pasid, vaddr, wanted);
}

uint64_t Iommu::mapped_pages(Pasid pasid) const {
  PageTable* table = FindTable(pasid);
  return table == nullptr ? 0 : table->mapped_pages();
}

}  // namespace lastcpu::iommu

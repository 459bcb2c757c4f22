// Radix page table, one per (device, PASID) pair.
//
// 3-level, 512-ary (9 bits per level, 4 KiB pages -> 39-bit virtual space),
// mirroring the x86/SMMU structures real IOMMUs walk. The walk cost model in
// the fabric charges per level touched.
#ifndef SRC_IOMMU_PAGE_TABLE_H_
#define SRC_IOMMU_PAGE_TABLE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"

namespace lastcpu::iommu {

// A resolved translation for one page.
struct PteValue {
  uint64_t pframe = 0;
  Access access = Access::kNone;
};

class PageTable {
 public:
  static constexpr int kLevels = 3;
  static constexpr int kBitsPerLevel = 9;
  static constexpr uint64_t kFanout = uint64_t{1} << kBitsPerLevel;
  // Virtual page numbers must fit in kLevels * kBitsPerLevel bits.
  static constexpr uint64_t kMaxVpage = (uint64_t{1} << (kLevels * kBitsPerLevel)) - 1;

  PageTable();
  ~PageTable();
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  // Installs a mapping. Remapping an already-present page is rejected: the
  // owner must unmap first (prevents silent aliasing).
  Status Map(uint64_t vpage, uint64_t pframe, Access access);

  // Removes a mapping; leaves and interior nodes that empty out leave the tree
  // and are kept, all-zero, for the next Map that needs one.
  Status Unmap(uint64_t vpage);

  // Walks the table. On success also reports how many levels were touched
  // (always kLevels for the radix walk; exposed for the cost model).
  Result<PteValue> Lookup(uint64_t vpage) const;

  // Narrows the permissions on an existing mapping (used by revoke-downgrade).
  Status SetAccess(uint64_t vpage, Access access);

  uint64_t mapped_pages() const { return mapped_pages_; }
  // Interior + leaf nodes in the tree (spares excluded), a proxy for table
  // memory footprint.
  uint64_t node_count() const { return node_count_; }

 private:
  struct Node;
  struct Leaf;

  static int IndexAt(uint64_t vpage, int level);

  std::unique_ptr<Node> root_;
  // Pruned nodes. Unmap prunes a node only once every entry in it is reset,
  // so a spare is indistinguishable from a freshly allocated one.
  std::vector<std::unique_ptr<Node>> spare_nodes_;
  std::vector<std::unique_ptr<Leaf>> spare_leaves_;
  uint64_t mapped_pages_ = 0;
  uint64_t node_count_ = 0;
};

}  // namespace lastcpu::iommu

#endif  // SRC_IOMMU_PAGE_TABLE_H_

#include "src/iommu/page_table.h"

#include <utility>

#include "src/base/check.h"

namespace lastcpu::iommu {

// Leaf level: 512 PTEs. `present` doubles as validity.
struct PageTable::Leaf {
  struct Pte {
    bool present = false;
    PteValue value;
  };
  std::array<Pte, kFanout> ptes{};
  uint64_t used = 0;
};

// Interior node: level 2 points at level-1 nodes, level 1 points at leaves.
struct PageTable::Node {
  std::array<std::unique_ptr<Node>, kFanout> children{};
  std::array<std::unique_ptr<Leaf>, kFanout> leaves{};
  uint64_t used = 0;
};

namespace {

// Takes a spare node, or allocates one when none is left.
template <typename T>
std::unique_ptr<T> TakeSpare(std::vector<std::unique_ptr<T>>& spares) {
  if (spares.empty()) {
    return std::make_unique<T>();
  }
  std::unique_ptr<T> node = std::move(spares.back());
  spares.pop_back();
  return node;
}

}  // namespace

PageTable::PageTable() : root_(std::make_unique<Node>()), node_count_(1) {}

PageTable::~PageTable() = default;

int PageTable::IndexAt(uint64_t vpage, int level) {
  // level kLevels-1 is the root index; level 0 selects the leaf PTE.
  return static_cast<int>((vpage >> (level * kBitsPerLevel)) & (kFanout - 1));
}

Status PageTable::Map(uint64_t vpage, uint64_t pframe, Access access) {
  if (vpage > kMaxVpage) {
    return InvalidArgument("virtual page outside 39-bit space");
  }
  if (access == Access::kNone) {
    return InvalidArgument("mapping with no access rights");
  }
  Node* node = root_.get();
  // Descend interior levels (kLevels-1 .. 2 select Node children).
  for (int level = kLevels - 1; level >= 2; --level) {
    int index = IndexAt(vpage, level);
    auto& child = node->children[static_cast<size_t>(index)];
    if (!child) {
      child = TakeSpare(spare_nodes_);
      ++node->used;
      ++node_count_;
    }
    node = child.get();
  }
  // Level 1 selects the leaf.
  int leaf_index = IndexAt(vpage, 1);
  auto& leaf = node->leaves[static_cast<size_t>(leaf_index)];
  if (!leaf) {
    leaf = TakeSpare(spare_leaves_);
    ++node->used;
    ++node_count_;
  }
  auto& pte = leaf->ptes[static_cast<size_t>(IndexAt(vpage, 0))];
  if (pte.present) {
    return AlreadyExists("page already mapped");
  }
  pte.present = true;
  pte.value = PteValue{pframe, access};
  ++leaf->used;
  ++mapped_pages_;
  return OkStatus();
}

Status PageTable::Unmap(uint64_t vpage) {
  if (vpage > kMaxVpage) {
    return InvalidArgument("virtual page outside 39-bit space");
  }
  // Collect the path so empty nodes can be pruned bottom-up.
  Node* path[kLevels];
  path[kLevels - 1] = root_.get();
  Node* node = root_.get();
  for (int level = kLevels - 1; level >= 2; --level) {
    int index = IndexAt(vpage, level);
    Node* child = node->children[static_cast<size_t>(index)].get();
    if (child == nullptr) {
      return NotFound("page not mapped");
    }
    node = child;
    path[level - 1] = child;
  }
  int leaf_index = IndexAt(vpage, 1);
  Leaf* leaf = node->leaves[static_cast<size_t>(leaf_index)].get();
  if (leaf == nullptr) {
    return NotFound("page not mapped");
  }
  auto& pte = leaf->ptes[static_cast<size_t>(IndexAt(vpage, 0))];
  if (!pte.present) {
    return NotFound("page not mapped");
  }
  pte.present = false;
  pte.value = PteValue{};
  --leaf->used;
  --mapped_pages_;

  // Prune: spare the leaf if empty, then interior nodes bottom-up.
  if (leaf->used == 0) {
    spare_leaves_.push_back(std::move(node->leaves[static_cast<size_t>(leaf_index)]));
    --node->used;
    --node_count_;
    // path[level] holds the interior node entered at `level`; root is
    // path[kLevels-1] and is never pruned.
    for (int level = 1; level <= kLevels - 2; ++level) {
      Node* child = path[level];
      if (child->used != 0) {
        break;
      }
      Node* parent = path[level + 1];
      spare_nodes_.push_back(
          std::move(parent->children[static_cast<size_t>(IndexAt(vpage, level + 1))]));
      --parent->used;
      --node_count_;
    }
  }
  return OkStatus();
}

Result<PteValue> PageTable::Lookup(uint64_t vpage) const {
  if (vpage > kMaxVpage) {
    return InvalidArgument("virtual page outside 39-bit space");
  }
  const Node* node = root_.get();
  for (int level = kLevels - 1; level >= 2; --level) {
    node = node->children[static_cast<size_t>(IndexAt(vpage, level))].get();
    if (node == nullptr) {
      return NotFound("page not mapped");
    }
  }
  const Leaf* leaf = node->leaves[static_cast<size_t>(IndexAt(vpage, 1))].get();
  if (leaf == nullptr) {
    return NotFound("page not mapped");
  }
  const auto& pte = leaf->ptes[static_cast<size_t>(IndexAt(vpage, 0))];
  if (!pte.present) {
    return NotFound("page not mapped");
  }
  return pte.value;
}

Status PageTable::SetAccess(uint64_t vpage, Access access) {
  if (access == Access::kNone) {
    return InvalidArgument("use Unmap to remove a mapping");
  }
  Node* node = root_.get();
  for (int level = kLevels - 1; level >= 2; --level) {
    node = node->children[static_cast<size_t>(IndexAt(vpage, level))].get();
    if (node == nullptr) {
      return NotFound("page not mapped");
    }
  }
  Leaf* leaf = node->leaves[static_cast<size_t>(IndexAt(vpage, 1))].get();
  if (leaf == nullptr) {
    return NotFound("page not mapped");
  }
  auto& pte = leaf->ptes[static_cast<size_t>(IndexAt(vpage, 0))];
  if (!pte.present) {
    return NotFound("page not mapped");
  }
  pte.value.access = access;
  return OkStatus();
}

}  // namespace lastcpu::iommu

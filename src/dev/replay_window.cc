#include "src/dev/replay_window.h"

#include <algorithm>

namespace lastcpu::dev {
namespace {
constexpr uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ull;
}  // namespace

size_t ReplayWindow::Home(DeviceId src, RequestId id) {
  // Fibonacci hashing over both halves of the key.
  uint64_t key = id.value() ^ (uint64_t{src.value()} * kGoldenGamma);
  return static_cast<size_t>((key * kGoldenGamma) >> (64 - kIndexBits));
}

size_t ReplayWindow::Locate(DeviceId src, RequestId id) const {
  if (index_.empty()) {
    return kIndexSize;
  }
  for (size_t pos = Home(src, id);; pos = (pos + 1) & (kIndexSize - 1)) {
    uint16_t slot = index_[pos];
    if (slot == 0) {
      return kIndexSize;
    }
    const Entry& entry = ring_[slot - 1];
    if (entry.src == src && entry.request_id == id) {
      return pos;
    }
  }
}

ReplayWindow::Entry* ReplayWindow::Find(DeviceId src, RequestId id) {
  size_t pos = Locate(src, id);
  return pos == kIndexSize ? nullptr : &ring_[index_[pos] - 1];
}

void ReplayWindow::Add(DeviceId src, RequestId id) {
  if (index_.empty()) {
    index_.assign(kIndexSize, 0);
  }
  if (ring_.size() < kCapacity) {
    ring_.push_back(Entry{src, id, std::nullopt});
  } else {
    Entry& oldest = ring_[next_];
    Unindex(Locate(oldest.src, oldest.request_id));
    oldest.src = src;
    oldest.request_id = id;
    oldest.response.reset();
  }
  size_t pos = Home(src, id);
  while (index_[pos] != 0) {
    pos = (pos + 1) & (kIndexSize - 1);
  }
  index_[pos] = static_cast<uint16_t>(next_ + 1);
  next_ = (next_ + 1) % kCapacity;
}

void ReplayWindow::Unindex(size_t hole) {
  constexpr size_t kMask = kIndexSize - 1;
  for (size_t pos = (hole + 1) & kMask; index_[pos] != 0; pos = (pos + 1) & kMask) {
    const Entry& entry = ring_[index_[pos] - 1];
    size_t home = Home(entry.src, entry.request_id);
    // The entry may fill the hole only if the hole lies on its probe path,
    // from its home position up to where it sits now.
    if (((pos - home) & kMask) >= ((pos - hole) & kMask)) {
      index_[hole] = index_[pos];
      hole = pos;
    }
  }
  index_[hole] = 0;
}

void ReplayWindow::Clear() {
  std::fill(index_.begin(), index_.end(), uint16_t{0});
  ring_.clear();  // keeps the capacity for the requests after the reset
  next_ = 0;
}

}  // namespace lastcpu::dev

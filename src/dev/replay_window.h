// ReplayWindow: the server half of at-most-once request execution.
//
// The RPC layer may retransmit and the interconnect may duplicate, so a
// device remembers the kCapacity most recent requests it accepted, from any
// requester, keyed by (requester, request id), together with each one's
// answer once it is sent. The window is device-wide and first-in first-out:
// a duplicate arriving after kCapacity newer requests executes again.
//
// Storage is a ring of entries in arrival order plus an open-addressed index
// of ring slots (linear probing, backward-shift deletion, at most half
// full). The index is sized on the first request; the ring grows with the
// first kCapacity requests, so a device that answers only a few holds only
// a few entries. From then on both are reused: admitting a request and
// caching its answer allocate nothing beyond what copying the answer's own
// payload does.
#ifndef SRC_DEV_REPLAY_WINDOW_H_
#define SRC_DEV_REPLAY_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/types.h"
#include "src/proto/message.h"

namespace lastcpu::dev {

class ReplayWindow {
 public:
  static constexpr size_t kCapacity = 256;

  struct Entry {
    DeviceId src;
    RequestId request_id;
    // Empty while the handler has not answered yet.
    std::optional<proto::Message> response;
  };

  // The entry of (src, id), or null when the request is not in the window.
  Entry* Find(DeviceId src, RequestId id);
  // Admits a request that is not in the window, evicting the oldest entry
  // when the window is full.
  void Add(DeviceId src, RequestId id);
  // Forgets every request (the device was reset).
  void Clear();

 private:
  static constexpr int kIndexBits = 9;
  static constexpr size_t kIndexSize = size_t{1} << kIndexBits;
  static_assert(kIndexSize >= 2 * kCapacity, "the index must stay at most half full");

  static size_t Home(DeviceId src, RequestId id);
  // The index position holding (src, id), or kIndexSize when absent.
  size_t Locate(DeviceId src, RequestId id) const;
  // Empties index position `hole`, shifting later entries of its probe run
  // back so every lookup still ends at the first empty position.
  void Unindex(size_t hole);

  std::vector<Entry> ring_;
  size_t next_ = 0;  // the ring slot the next request takes: the oldest once full
  // Ring slot + 1 per index position; 0 marks an empty position.
  std::vector<uint16_t> index_;
};

}  // namespace lastcpu::dev

#endif  // SRC_DEV_REPLAY_WINDOW_H_

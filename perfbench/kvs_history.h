// The real-time history check of one KVS key. Every PUT writes the next
// version; version 0 is the preloaded value, acked at time 0. A GET must
// return a version that was issued before the GET completed and that was not
// yet stale when the GET was sent. Version v is stale once some PUT issued
// after v was acked has itself been acked: two PUTs in flight together may
// take effect in either order. Times are simulated nanoseconds.
#ifndef PERFBENCH_KVS_HISTORY_H_
#define PERFBENCH_KVS_HISTORY_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

class KeyHistory {
 public:
  enum class Verdict { kOk, kNeverWritten, kStale };

  // Records a PUT issued at `now_ns`; returns the version it writes.
  uint64_t Issue(uint64_t now_ns) {
    issued_ns_.push_back(now_ns);
    acked_ns_.push_back(kNotAcked);
    return issued_ns_.size() - 1;
  }

  // Records that the PUT of `version` was acked at `now_ns`.
  void Ack(uint64_t version, uint64_t now_ns) {
    acked_ns_[version] = now_ns;
    newest_acked_issue_ns_ = std::max(newest_acked_issue_ns_, issued_ns_[version]);
  }

  // Taken when a GET is sent: versions acked before this time are stale for it.
  uint64_t stale_before() const { return newest_acked_issue_ns_; }

  // Whether a GET sent when stale_before() read `stale_before`, and completing
  // now, may return `version`.
  Verdict Check(uint64_t version, uint64_t stale_before) const {
    if (version >= issued_ns_.size()) {
      return Verdict::kNeverWritten;
    }
    return acked_ns_[version] < stale_before ? Verdict::kStale : Verdict::kOk;
  }

 private:
  static constexpr uint64_t kNotAcked = UINT64_MAX;

  std::vector<uint64_t> issued_ns_{0};
  std::vector<uint64_t> acked_ns_{0};
  // Latest issue time among acked PUTs.
  uint64_t newest_acked_issue_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_KVS_HISTORY_H_

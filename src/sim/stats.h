// Measurement primitives: counters and latency histograms.
//
// Every experiment in EXPERIMENTS.md is produced from these. Histogram uses
// log-linear buckets (HdrHistogram-style) so p99 at nanosecond scale and
// multi-millisecond tails coexist with bounded error.
#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/sim/time.h"

namespace lastcpu::sim {

// Monotonic event counter.
class Counter {
 public:
  void Increment(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

// Log-linear histogram over non-negative 64-bit values (we record
// nanoseconds). Each power-of-two range is split into kSubBuckets linear
// sub-buckets, bounding relative quantile error to ~1/kSubBuckets.
class Histogram {
 public:
  Histogram();

  void Record(uint64_t value);
  void Record(Duration d) { Record(d.nanos()); }

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const;
  double sum() const { return sum_; }

  // Value at quantile q in [0, 1]; returns a bucket-representative value.
  uint64_t ValueAtQuantile(double q) const;
  uint64_t p50() const { return ValueAtQuantile(0.50); }
  uint64_t p90() const { return ValueAtQuantile(0.90); }
  uint64_t p99() const { return ValueAtQuantile(0.99); }
  uint64_t p999() const { return ValueAtQuantile(0.999); }

  void Reset();

  // Merges another histogram into this one.
  void Merge(const Histogram& other);

  // The recordings added since `earlier` (an older copy of this histogram):
  // buckets, count and sum subtract exactly; min/max are recomputed from the
  // surviving buckets, so they are bucket-representative approximations.
  Histogram DeltaSince(const Histogram& earlier) const;

  // "count=… mean=…us p50=… p99=… max=…" for logs and bench output.
  std::string Summary() const;

 private:
  static constexpr int kSubBucketBits = 5;  // 32 sub-buckets -> ~3% error
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kRanges = 64 - kSubBucketBits + 1;

  static int BucketIndex(uint64_t value);
  static uint64_t BucketMidpoint(int index);

  std::vector<uint64_t> bucket_counts_;
  uint64_t count_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
  double sum_ = 0.0;
};

// A frozen copy of a registry's values at one simulated instant. Snapshots
// subtract (DeltaSince) so benchmarks report per-phase deltas instead of
// cumulative totals, and serialize to JSON for machine consumption.
struct StatsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, Histogram> histograms;

  // This snapshot minus an older one taken from the same registry. Counters
  // and histograms absent from `earlier` pass through unchanged.
  StatsSnapshot DeltaSince(const StatsSnapshot& earlier) const;

  // {"counters":{...},"histograms":{name:{count,min,max,mean,p50,...}}}
  void WriteJson(std::ostream& os) const;
  std::string ToJson() const;
};

// A named bag of counters and histograms owned by one component; the machine
// aggregates registries for reporting.
class StatsRegistry {
 public:
  // Heterogeneous lookup: a string literal at the call site costs a tree
  // walk, never a temporary std::string. Returned references are stable for
  // the registry's lifetime — hot paths should look up once and keep the
  // reference instead of re-resolving the name per event.
  Counter& GetCounter(std::string_view name) {
    auto it = counters_.find(name);
    if (it == counters_.end()) {
      it = counters_.emplace(std::string(name), Counter{}).first;
    }
    return it->second;
  }
  Histogram& GetHistogram(std::string_view name) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.emplace(std::string(name), Histogram{}).first;
    }
    return it->second;
  }

  const std::map<std::string, Counter, std::less<>>& counters() const { return counters_; }
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  // Frozen copy of the current values.
  StatsSnapshot Snapshot() const;

  void Reset();

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// A counter or histogram of `registry`, looked up by `name` on its first
// use and held by reference from then on. A hot path pays one pointer test
// instead of a name lookup, and the stat still enters the registry (and so
// every snapshot) only once something counts or records, exactly as a
// GetCounter at that point would. `name` must outlive the handle: pass a
// literal.
template <typename Stat>
class LazyStat {
 public:
  LazyStat(StatsRegistry* registry, std::string_view name) : registry_(registry), name_(name) {}

  Stat& operator*() {
    if (stat_ == nullptr) {
      if constexpr (std::is_same_v<Stat, Counter>) {
        stat_ = &registry_->GetCounter(name_);
      } else {
        stat_ = &registry_->GetHistogram(name_);
      }
    }
    return *stat_;
  }
  Stat* operator->() { return &**this; }

 private:
  StatsRegistry* registry_;
  std::string_view name_;
  Stat* stat_ = nullptr;
};
using LazyCounter = LazyStat<Counter>;
using LazyHistogram = LazyStat<Histogram>;

}  // namespace lastcpu::sim

#endif  // SRC_SIM_STATS_H_

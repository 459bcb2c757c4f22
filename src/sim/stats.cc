#include "src/sim/stats.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "src/base/check.h"

namespace lastcpu::sim {

Histogram::Histogram() : bucket_counts_(static_cast<size_t>(kRanges) * kSubBuckets, 0) {}

int Histogram::BucketIndex(uint64_t value) {
  // Values below kSubBuckets land in range 0, linearly.
  if (value < kSubBuckets) {
    return static_cast<int>(value);
  }
  int msb = 63 - std::countl_zero(value);
  int range = msb - kSubBucketBits + 1;
  // Sub-bucket: the kSubBucketBits bits below the MSB.
  int sub = static_cast<int>((value >> (msb - kSubBucketBits)) & (kSubBuckets - 1));
  return range * kSubBuckets + sub;
}

uint64_t Histogram::BucketMidpoint(int index) {
  int range = index / kSubBuckets;
  int sub = index % kSubBuckets;
  if (range == 0) {
    return static_cast<uint64_t>(sub);
  }
  int msb = range + kSubBucketBits - 1;
  uint64_t base = (uint64_t{1} << msb) | (static_cast<uint64_t>(sub) << (msb - kSubBucketBits));
  uint64_t width = uint64_t{1} << (msb - kSubBucketBits);
  return base + width / 2;
}

void Histogram::Record(uint64_t value) {
  int index = BucketIndex(value);
  LASTCPU_CHECK(index >= 0 && index < static_cast<int>(bucket_counts_.size()),
                "bucket out of range");
  ++bucket_counts_[static_cast<size_t>(index)];
  ++count_;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  sum_ += static_cast<double>(value);
}

double Histogram::mean() const {
  if (count_ == 0) {
    return 0.0;
  }
  return sum_ / static_cast<double>(count_);
}

uint64_t Histogram::ValueAtQuantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  auto target = static_cast<uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < bucket_counts_.size(); ++i) {
    seen += bucket_counts_[i];
    if (seen >= target) {
      // Clamp the representative into the observed range for tidy output.
      return std::clamp(BucketMidpoint(static_cast<int>(i)), min_, max_);
    }
  }
  return max_;
}

void Histogram::Reset() {
  std::fill(bucket_counts_.begin(), bucket_counts_.end(), 0);
  count_ = 0;
  min_ = UINT64_MAX;
  max_ = 0;
  sum_ = 0.0;
}

void Histogram::Merge(const Histogram& other) {
  LASTCPU_CHECK(bucket_counts_.size() == other.bucket_counts_.size(), "histogram shape mismatch");
  for (size_t i = 0; i < bucket_counts_.size(); ++i) {
    bucket_counts_[i] += other.bucket_counts_[i];
  }
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
}

Histogram Histogram::DeltaSince(const Histogram& earlier) const {
  LASTCPU_CHECK(bucket_counts_.size() == earlier.bucket_counts_.size(), "histogram shape mismatch");
  Histogram delta;
  for (size_t i = 0; i < bucket_counts_.size(); ++i) {
    uint64_t before = earlier.bucket_counts_[i];
    // A snapshot is always older, so per-bucket counts only grow; guard
    // anyway so a mismatched pair degrades instead of underflowing.
    delta.bucket_counts_[i] = bucket_counts_[i] > before ? bucket_counts_[i] - before : 0;
    delta.count_ += delta.bucket_counts_[i];
  }
  delta.sum_ = std::max(0.0, sum_ - earlier.sum_);
  // min/max cannot be subtracted; recompute representatives from the
  // surviving buckets (bounded by the histogram's relative error).
  for (size_t i = 0; i < delta.bucket_counts_.size(); ++i) {
    if (delta.bucket_counts_[i] == 0) {
      continue;
    }
    uint64_t mid = BucketMidpoint(static_cast<int>(i));
    delta.min_ = std::min(delta.min_, mid);
    delta.max_ = std::max(delta.max_, std::min(mid, max_));
  }
  return delta;
}

std::string Histogram::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.2fus p50=%.2fus p99=%.2fus p99.9=%.2fus max=%.2fus",
                static_cast<unsigned long long>(count_), mean() / 1e3,
                static_cast<double>(p50()) / 1e3, static_cast<double>(p99()) / 1e3,
                static_cast<double>(p999()) / 1e3, static_cast<double>(max()) / 1e3);
  return buf;
}

StatsSnapshot StatsRegistry::Snapshot() const {
  StatsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter.value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace(name, histogram);
  }
  return snap;
}

StatsSnapshot StatsSnapshot::DeltaSince(const StatsSnapshot& earlier) const {
  StatsSnapshot delta;
  for (const auto& [name, value] : counters) {
    auto it = earlier.counters.find(name);
    uint64_t before = it == earlier.counters.end() ? 0 : it->second;
    delta.counters.emplace(name, value > before ? value - before : 0);
  }
  for (const auto& [name, histogram] : histograms) {
    auto it = earlier.histograms.find(name);
    if (it == earlier.histograms.end()) {
      delta.histograms.emplace(name, histogram);
    } else {
      delta.histograms.emplace(name, histogram.DeltaSince(it->second));
    }
  }
  return delta;
}

namespace {

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

}  // namespace

void StatsSnapshot::WriteJson(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    os << (first ? "" : ",") << "\"" << JsonEscape(name) << "\":" << value;
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"count\":%llu,\"min\":%llu,\"max\":%llu,\"mean\":%.3f,"
                  "\"p50\":%llu,\"p90\":%llu,\"p99\":%llu,\"p999\":%llu}",
                  static_cast<unsigned long long>(histogram.count()),
                  static_cast<unsigned long long>(histogram.min()),
                  static_cast<unsigned long long>(histogram.max()), histogram.mean(),
                  static_cast<unsigned long long>(histogram.p50()),
                  static_cast<unsigned long long>(histogram.p90()),
                  static_cast<unsigned long long>(histogram.p99()),
                  static_cast<unsigned long long>(histogram.p999()));
    os << (first ? "" : ",") << "\"" << JsonEscape(name) << "\":" << buf;
    first = false;
  }
  os << "}}";
}

std::string StatsSnapshot::ToJson() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

void StatsRegistry::Reset() {
  for (auto& [name, counter] : counters_) {
    counter.Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram.Reset();
  }
}

}  // namespace lastcpu::sim

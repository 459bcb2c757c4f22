#include "perfbench/runner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/sim/rng.h"
#include "src/sim/trace_export.h"

namespace perfbench {

// --- spans -------------------------------------------------------------------

SpanLog::SpanLog(bool enabled) {
  if (enabled) {
    log_.Enable();
  }
}

sim::SpanId SpanLog::Begin(std::string_view component, std::string_view name, sim::SpanId parent,
                           uint64_t op, uint64_t at_ns) {
  if (!log_.enabled()) {
    return 0;
  }
  sim::SpanId span = log_.MintSpanId();
  log_.Append(sim::TraceRecord{sim::SimTime::FromNanos(at_ns), std::string(component),
                               std::string(name), "op=" + std::to_string(op),
                               sim::TraceKind::kSpanBegin, span, parent, 0});
  return span;
}

void SpanLog::End(sim::SpanId span, uint64_t at_ns) {
  if (!log_.enabled() || span == 0) {
    return;
  }
  log_.Append(sim::TraceRecord{sim::SimTime::FromNanos(at_ns), "", "", "",
                               sim::TraceKind::kSpanEnd, span, 0, 0});
}

namespace {

// A closed span reconstructed from a SpanLog.
struct SpanRecord {
  std::string component;
  std::string name;
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  uint64_t self_ns = 0;  // duration minus the union of its children
  sim::SpanId parent = 0;
};

std::vector<SpanRecord> ClosedSpans(const sim::TraceLog& log) {
  std::map<sim::SpanId, SpanRecord> open;
  std::map<sim::SpanId, SpanRecord> closed;
  for (const sim::TraceRecord& record : log.records()) {
    if (record.kind == sim::TraceKind::kSpanBegin) {
      open[record.span] = SpanRecord{record.component, record.event, record.when.nanos(), 0, 0,
                                     record.parent};
    } else if (record.kind == sim::TraceKind::kSpanEnd) {
      auto it = open.find(record.span);
      if (it != open.end()) {
        it->second.end_ns = record.when.nanos();
        closed.emplace(it->first, std::move(it->second));
        open.erase(it);
      }
    }
  }
  // Self time: duration minus the union of the children's intervals.
  std::map<sim::SpanId, std::vector<std::pair<uint64_t, uint64_t>>> children;
  for (const auto& [id, span] : closed) {
    if (span.parent != 0 && closed.contains(span.parent)) {
      children[span.parent].emplace_back(span.begin_ns, span.end_ns);
    }
  }
  std::vector<SpanRecord> out;
  out.reserve(closed.size());
  for (auto& [id, span] : closed) {
    uint64_t covered = 0;
    auto it = children.find(id);
    if (it != children.end()) {
      std::sort(it->second.begin(), it->second.end());
      uint64_t reach = span.begin_ns;
      for (auto [begin, end] : it->second) {
        begin = std::max({begin, reach, span.begin_ns});
        end = std::min(end, span.end_ns);
        if (end > begin) {
          covered += end - begin;
          reach = end;
        }
      }
    }
    span.self_ns = span.end_ns - span.begin_ns - covered;
    out.push_back(std::move(span));
  }
  return out;
}

}  // namespace

// --- set-up phases -------------------------------------------------------------

void SetupTimes::Lap(std::string name, uint64_t start_ns) {
  uint64_t begin = phases.empty() ? start_ns : phases.back().end_ns;
  phases.push_back(Phase{std::move(name), begin, HostNanos()});
}

double SetupTimes::Seconds(std::string_view name) const {
  double total = 0;
  for (const Phase& phase : phases) {
    if (phase.name == name) {
      total += static_cast<double>(phase.end_ns - phase.begin_ns) / 1e9;
    }
  }
  return total;
}

double SetupTimes::TotalSeconds() const {
  return phases.empty() ? 0
                        : static_cast<double>(phases.back().end_ns - phases.front().begin_ns) / 1e9;
}

// --- inputs --------------------------------------------------------------------

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Seed of input stream `stream` (warm-up, measured stream k) of run `seed`.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) { return SplitMix(SplitMix(seed) ^ stream); }

constexpr uint64_t kWarmupStream = 0x7761726d;  // "warm"

}  // namespace

std::vector<Op> PoissonOps(uint64_t seed, uint64_t n) {
  sim::Rng rng(seed);
  std::vector<Op> ops(n);
  double at = 0;
  for (Op& op : ops) {
    at += rng.NextExponential(1.0);
    op.unit_at = at;
  }
  return ops;
}

// --- layer sampling --------------------------------------------------------------

void SampleMachine(lastcpu::core::Machine& machine, sim::StatsSnapshot* out) {
  auto& c = out->counters;
  auto counter = [](sim::StatsRegistry& stats, std::string_view name) {
    return stats.GetCounter(name).value();
  };
  sim::StatsRegistry& bus = machine.bus().stats();
  c["bus.messages_sent"] = counter(bus, "messages_sent");
  c["bus.bytes_sent"] = counter(bus, "bytes_sent");
  c["bus.pages_programmed"] = counter(bus, "pages_programmed");
  c["bus.routed_out"] = 0;
  for (const auto& segment : machine.bus().segment_counters()) {
    c["bus.routed_out"] += segment.routed_out;
  }
  out->histograms["bus.wire_latency"] = bus.GetHistogram("wire_latency");
  out->histograms["bus.table_update_latency"] = bus.GetHistogram("table_update_latency");

  sim::StatsRegistry& fabric = machine.fabric().stats();
  for (const char* name : {"dma_reads", "dma_writes", "dma_bytes_read", "dma_bytes_written",
                           "doorbells", "mmio_reads", "mmio_writes"}) {
    c[std::string("fabric.") + name] = counter(fabric, name);
  }
  out->histograms["fabric.dma_read_latency"] = fabric.GetHistogram("dma_read_latency");
  out->histograms["fabric.dma_write_latency"] = fabric.GetHistogram("dma_write_latency");

  c["net.datagrams"] = counter(machine.network().stats(), "datagrams");

  for (const auto& device : machine.devices()) {
    const lastcpu::iommu::Iommu& iommu = device->iommu();
    c["iommu.translations"] += iommu.translations();
    c["iommu.tlb_hits"] += iommu.tlb().hits();
    c["iommu.tlb_misses"] += iommu.tlb().misses();
    c["iommu.faults"] += iommu.faults();
    c["dev.rpc_timeouts"] += counter(device->stats(), "request_timeouts");
    if (auto* ssd = dynamic_cast<lastcpu::ssddev::SmartSsd*>(device.get())) {
      lastcpu::ssddev::Ftl& ftl = ssd->ftl();
      c["ftl.cache_hits"] += ftl.cache_hits();
      c["ftl.cache_misses"] += ftl.cache_misses();
      c["ftl.host_writes"] += ftl.host_writes();
      c["ftl.nand_writes"] += ftl.nand_writes();
      c["ftl.gc_runs"] += ftl.gc_runs();
      c["ftl.gc_relocated_pages"] += ftl.gc_relocated_pages();
      c["ftl.write_stalls"] += ftl.write_stalls();
      sim::StatsRegistry& nand = ssd->nand().stats();
      c["nand.reads"] += counter(nand, "reads");
      c["nand.programs"] += counter(nand, "programs");
      c["nand.erases"] += counter(nand, "erases");
      c["ssddev.file_requests"] += counter(ssd->stats(), "file_requests");
      c["gauge.ssddev.free_pages"] += ssd->fs().free_pages();
    }
    if (auto* memctrl = dynamic_cast<lastcpu::memdev::MemoryController*>(device.get())) {
      c["gauge.memdev.live_allocations"] += memctrl->allocation_count();
      for (const char* name : {"oom_rejections", "quota_rejections", "va_slab_rejections",
                               "recovery_rejections"}) {
        c["memdev.rejections"] += counter(memctrl->stats(), name);
      }
    }
  }
}

// --- workloads -------------------------------------------------------------------

const std::vector<Workload>& Workloads() {
  // Name, offered rate (op/s), p99 limit (us), warm-up, measured, probe and
  // host-clock ops per machine, ops per host-clock slice, input streams in the
  // exact pool. A host-clock repeat takes about 0.3-0.5 s with its set-up.
  // kvs_overwrite stays at 5 k ops per machine, well short of its space cliff
  // (see README.md).
  static const std::vector<Workload> workloads = {
      {"kvs_read", 150000, 1000, 20000, 250000, 30000, 50000, 500, 1, GenerateKvsRead,
       BuildKvsRead},
      {"kvs_overwrite", 600, 100000, 1000, 4000, 4000, 4000, 100, 8, GenerateKvsOverwrite,
       BuildKvsOverwrite},
      {"control_rack", 650000, 100, 5000, 60000, 15000, 10000, 100, 2, GenerateControl,
       BuildControlRack},
      {"control_rack_central", 650000, 100, 5000, 100000, 20000, 20000, 250, 4,
       GenerateControl, BuildControlRackCentral},
  };
  return workloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) {
      return &workload;
    }
  }
  return nullptr;
}

// --- episodes --------------------------------------------------------------------

namespace {

// Issues `ops` open loop: op i is scheduled at its due time regardless of how
// many earlier ops are still outstanding.
class Driver {
 public:
  Driver(Rig* rig, const std::vector<Op>& ops, double rate, uint64_t slice_ops, SpanLog* spans,
         Episode* out)
      : rig_(rig), ops_(ops), slice_ops_(slice_ops), spans_(spans), out_(out), due_(ops.size()) {
    uint64_t base = rig->simulator().Now().nanos();
    for (size_t i = 0; i < ops.size(); ++i) {
      due_[i] = base + static_cast<uint64_t>(std::llround(ops[i].unit_at * 1e9 / rate));
    }
    if (spans_ != nullptr && spans_->enabled()) {
      span_of_.assign(ops.size(), 0);
    }
  }

  void Run() {
    out_->attempted += ops_.size();
    size_t first = out_->latency_ns.size();
    out_->latency_ns.resize(first + ops_.size(), kFailedNs);
    out_->kinds.resize(first + ops_.size(), OpKind::kControl);
    first_ = first;
    if (!ops_.empty()) {
      ScheduleFire(0);
    }
    slice_start_ = HostNanos();
    rig_->simulator().Run();
    out_->slice_host_ns.push_back(HostNanos() - slice_start_);
    uint64_t failed = 0;
    for (size_t i = 0; i < ops_.size(); ++i) {
      failed += out_->latency_ns[first_ + i] == kFailedNs ? 1 : 0;
    }
    out_->failed += failed;
    if (!ops_.empty() && last_completion_ > due_.back()) {
      out_->drain_ns = last_completion_ - due_.back();
    }
  }

 private:
  void ScheduleFire(size_t i) {
    rig_->simulator().ScheduleAt(sim::SimTime::FromNanos(due_[i]), [this, i] { Fire(i); });
  }

  void Fire(size_t i) {
    if (i != 0 && i % slice_ops_ == 0) {
      uint64_t host = HostNanos();
      out_->slice_host_ns.push_back(host - slice_start_);
      slice_start_ = host;
    }
    uint64_t now = rig_->simulator().Now().nanos();
    out_->max_lateness_ns = std::max(out_->max_lateness_ns, now - due_[i]);
    if (i + 1 < ops_.size()) {
      ScheduleFire(i + 1);
    }
    const Op& op = ops_[i];
    OpKind kind = rig_->Kind(op);
    out_->kinds[first_ + i] = kind;
    sim::SpanId span = 0;
    if (!span_of_.empty()) {
      span = spans_->Begin("client", SpanName(kind), 0, i, now);
      span_of_[i] = span;
    }
    rig_->Issue(i, op, span, [this, i](bool ok) { Complete(i, ok); });
  }

  void Complete(size_t i, bool ok) {
    uint64_t now = rig_->simulator().Now().nanos();
    last_completion_ = std::max(last_completion_, now);
    if (ok) {
      out_->latency_ns[first_ + i] = now - due_[i];
    }
    if (!span_of_.empty()) {
      spans_->End(span_of_[i], now);
    }
  }

  Rig* rig_;
  const std::vector<Op>& ops_;
  uint64_t slice_ops_;
  SpanLog* spans_;
  Episode* out_;
  std::vector<uint64_t> due_;
  std::vector<sim::SpanId> span_of_;
  size_t first_ = 0;
  uint64_t last_completion_ = 0;
  uint64_t slice_start_ = 0;  // host clock
};

// `after` minus `before`, except that gauges keep their value in `after`.
sim::StatsSnapshot Delta(const sim::StatsSnapshot& before, const sim::StatsSnapshot& after) {
  sim::StatsSnapshot delta = after.DeltaSince(before);
  for (auto& [name, value] : delta.counters) {
    if (name.starts_with("gauge.")) {
      value = after.counters.at(name);
    }
  }
  return delta;
}

uint64_t Fnv(uint64_t hash, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash = (hash ^ p[i]) * 0x100000001b3ull;
  }
  return hash;
}

template <typename T>
uint64_t FnvValue(uint64_t hash, const T& value) {
  return Fnv(hash, &value, sizeof(value));
}

}  // namespace

uint64_t Episode::Digest() const {
  uint64_t hash = 0xcbf29ce484222325ull;
  hash = Fnv(hash, latency_ns.data(), latency_ns.size() * sizeof(uint64_t));
  hash = FnvValue(hash, attempted);
  hash = FnvValue(hash, failed);
  hash = FnvValue(hash, max_lateness_ns);
  hash = FnvValue(hash, drain_ns);
  hash = FnvValue(hash, events);
  for (const auto& [name, value] : delta.counters) {
    hash = Fnv(hash, name.data(), name.size());
    hash = FnvValue(hash, value);
  }
  for (const auto& [name, histogram] : delta.histograms) {
    hash = Fnv(hash, name.data(), name.size());
    hash = FnvValue(hash, histogram.count());
    hash = FnvValue(hash, histogram.sum());
  }
  return hash;
}

Episode RunEpisode(const Workload& workload, uint64_t seed, double rate, uint64_t ops,
                   SpanLog* spans) {
  Episode episode;
  std::vector<Op> warmup = workload.generate(StreamSeed(seed, kWarmupStream), workload.warmup_ops);
  std::vector<Op> measured = workload.generate(seed, ops);
  bool tracing = spans != nullptr && spans->enabled();
  if (tracing) {
    spans->Disable();  // set-up and warm-up run untraced
  }

  MoveToQuietestCpu();
  uint64_t start = HostNanos();
  uint64_t faults = MinorFaults();
  std::unique_ptr<Rig> rig = workload.build(spans, &episode.setup);
  Episode warm;
  Driver(rig.get(), warmup, workload.nominal_rate, workload.slice_ops, nullptr, &warm).Run();
  if (warm.failed != 0) {
    episode.failures.push_back(std::to_string(warm.failed) + " warm-up ops failed");
  }
  episode.setup.Lap("warmup", start);
  episode.setup.minor_faults = MinorFaults() - faults;
  if (tracing) {
    spans->Enable();
  }
  MoveToQuietestCpu();

  sim::StatsSnapshot before = rig->Sample();
  uint64_t events = rig->simulator().events_executed();
  AllocCount allocs = AllocSnapshot();
  uint64_t host = HostNanos();
  Driver(rig.get(), measured, rate, workload.slice_ops, spans, &episode).Run();
  episode.host_ns = HostNanos() - host;
  AllocCount allocs_end = AllocSnapshot();
  episode.allocs = AllocCount{allocs_end.calls - allocs.calls, allocs_end.bytes - allocs.bytes};
  episode.events = rig->simulator().events_executed() - events;
  episode.delta = Delta(before, rig->Sample());
  for (std::string& failure : rig->CheckDrained()) {
    episode.failures.push_back(std::move(failure));
  }
  if (episode.delta.counters.at("iommu.faults") != 0) {
    episode.failures.push_back("IOMMU faults during the measured phase");
  }
  return episode;
}

// --- statistics --------------------------------------------------------------------

namespace {

// Value at quantile q (0..1) of an ascending sample, nearest rank.
uint64_t Quantile(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

// Host time of a measured phase without the host's load bursts: the fastest
// repeat of each slice, summed. Every repeat (an episode's slice_host_ns) ran
// one input, so slice k did the same work in each.
double FastestSlicesNs(const std::vector<std::vector<uint64_t>>& repeats) {
  if (repeats.empty()) {
    return 0;
  }
  std::vector<uint64_t> fastest = repeats.front();
  for (const std::vector<uint64_t>& slices : repeats) {
    for (size_t k = 0; k < fastest.size() && k < slices.size(); ++k) {
      fastest[k] = std::min(fastest[k], slices[k]);
    }
  }
  double total = 0;
  for (uint64_t ns : fastest) {
    total += static_cast<double>(ns);
  }
  return total;
}

// The fastest time of each set-up phase over `setups`, in seconds by name.
std::map<std::string, double> FastestPhases(const std::vector<SetupTimes>& setups) {
  std::map<std::string, double> fastest;
  for (const SetupTimes& setup : setups) {
    for (const SetupTimes::Phase& phase : setup.phases) {
      double seconds = setup.Seconds(phase.name);
      auto [it, fresh] = fastest.emplace(phase.name, seconds);
      if (!fresh) {
        it->second = std::min(it->second, seconds);
      }
    }
  }
  return fastest;
}

// Pooled results of the exact episodes: the first run of every stream.
struct Pool {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> latency;
  std::vector<uint64_t> get_latency;
  std::vector<uint64_t> put_latency;
  uint64_t max_lateness_ns = 0;
  sim::StatsSnapshot delta;
  AllocCount allocs;
  uint64_t events = 0;

  void Add(const Episode& episode) {
    attempted += episode.attempted;
    failed += episode.failed;
    for (size_t i = 0; i < episode.latency_ns.size(); ++i) {
      latency.push_back(episode.latency_ns[i]);
      if (episode.kinds[i] == OpKind::kGet) {
        get_latency.push_back(episode.latency_ns[i]);
      } else if (episode.kinds[i] == OpKind::kPut) {
        put_latency.push_back(episode.latency_ns[i]);
      }
    }
    max_lateness_ns = std::max(max_lateness_ns, episode.max_lateness_ns);
    for (const auto& [name, value] : episode.delta.counters) {
      auto [it, fresh] = delta.counters.emplace(name, value);
      if (!fresh) {
        if (name == "gauge.ssddev.free_pages") {
          it->second = std::min(it->second, value);
        } else if (name.starts_with("gauge.")) {
          it->second = std::max(it->second, value);
        } else {
          it->second += value;
        }
      }
    }
    for (const auto& [name, histogram] : episode.delta.histograms) {
      delta.histograms[name].Merge(histogram);
    }
    allocs.calls += episode.allocs.calls;
    allocs.bytes += episode.allocs.bytes;
    events += episode.events;
  }

  void Sort() {
    std::sort(latency.begin(), latency.end());
    std::sort(get_latency.begin(), get_latency.end());
    std::sort(put_latency.begin(), put_latency.end());
  }

  double Value(const std::string& name) const {
    auto it = delta.counters.find(name);
    return it == delta.counters.end() ? 0 : static_cast<double>(it->second);
  }
  double PerOp(const std::string& name) const {
    return attempted == 0 ? 0 : Value(name) / static_cast<double>(attempted);
  }
  double HistogramUs(const std::string& name, double q) const {
    auto it = delta.histograms.find(name);
    return it == delta.histograms.end()
               ? 0
               : static_cast<double>(it->second.ValueAtQuantile(q)) / 1e3;
  }
};

double Ratio(double part, double whole) { return whole == 0 ? 0 : part / whole; }

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

struct Probe {
  double rate = 0;
  double p99_us = 0;
  double drain_us = 0;
  uint64_t failed = 0;
  // p99 or the drain time, whichever is worse: both must stay under the limit.
  double score_us() const { return std::max(p99_us, drain_us); }
};

// The highest offered rate whose probe keeps p99 under the limit with no
// growing backlog (the machine drains within the limit after the last op is
// due) and no failed op. Doubling or halving from the nominal rate brackets
// it, bisection narrows the bracket, and the answer interpolates the score
// linearly inside the final bracket. Every probe is a fresh machine and exact.
class SloSearch {
 public:
  SloSearch(const Workload& workload, uint64_t seed, uint64_t ops,
            std::vector<SetupTimes>* setups)
      : workload_(workload), seed_(seed), ops_(ops), setups_(setups) {}

  double Run() {
    constexpr int kBracketSteps = 4;
    constexpr int kBisections = 4;
    std::optional<Probe> lo;
    std::optional<Probe> hi;
    auto place = [&](const Probe& probe) { (Passes(probe) ? lo : hi) = probe; };
    place(Measure(workload_.nominal_rate));
    for (int i = 0; i < kBracketSteps && (!lo || !hi); ++i) {
      place(Measure(lo ? lo->rate * 2 : hi->rate / 2));
    }
    if (!lo || !hi) {
      return lo ? lo->rate : 0;  // never bracketed: the best passing rate, or 0
    }
    for (int i = 0; i < kBisections; ++i) {
      place(Measure(std::sqrt(lo->rate * hi->rate)));
    }
    if (hi->failed != 0) {
      return lo->rate;
    }
    double t = (workload_.p99_limit_us - lo->score_us()) / (hi->score_us() - lo->score_us());
    return lo->rate + std::clamp(t, 0.0, 1.0) * (hi->rate - lo->rate);
  }

  bool Passes(const Probe& probe) const {
    return probe.failed == 0 && probe.score_us() <= workload_.p99_limit_us;
  }

  const std::vector<Probe>& probes() const { return probes_; }

 private:
  Probe Measure(double rate) {
    Episode episode = RunEpisode(workload_, seed_, rate, ops_, nullptr);
    setups_->push_back(episode.setup);
    std::vector<uint64_t> sorted = episode.latency_ns;
    std::sort(sorted.begin(), sorted.end());
    Probe probe;
    probe.rate = rate;
    probe.failed = episode.failed + episode.failures.size();
    probe.p99_us = Us(Quantile(sorted, 0.99));
    probe.drain_us = Us(episode.drain_ns);
    probes_.push_back(probe);
    return probe;
  }

  const Workload& workload_;
  uint64_t seed_;
  uint64_t ops_;
  std::vector<SetupTimes>* setups_;
  std::vector<Probe> probes_;
};

uint64_t Scaled(uint64_t ops, double scale) {
  return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(static_cast<double>(ops) * scale)));
}

template <typename... Numbers>
std::string Format(const char* format, Numbers... numbers) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, static_cast<double>(numbers)...);
  return buf;
}

// Writes the spans of the first `max_ops` ops (op ids below it) of `log` as
// a Chrome trace.
void ExportTrace(const sim::TraceLog& log, uint64_t max_ops, const std::string& path) {
  sim::TraceLog head;
  head.Enable();
  std::map<sim::SpanId, bool> kept;
  for (const sim::TraceRecord& record : log.records()) {
    if (record.kind == sim::TraceKind::kSpanBegin) {
      uint64_t op = std::strtoull(record.detail.c_str() + 3, nullptr, 10);
      if (op < max_ops) {
        kept[record.span] = true;
        head.Append(record);
      }
    } else if (record.kind == sim::TraceKind::kSpanEnd && kept.contains(record.span)) {
      head.Append(record);
    }
  }
  std::ofstream out(path);
  sim::WriteChromeTrace(head, out);
}

}  // namespace

Report RunBenchmark(const Workload& base, const RunOptions& options) {
  Workload workload = base;
  workload.warmup_ops = Scaled(workload.warmup_ops, options.scale);
  workload.measured_ops = Scaled(workload.measured_ops, options.scale);
  workload.probe_ops = Scaled(workload.probe_ops, options.scale);
  workload.host_ops = Scaled(workload.host_ops, options.scale);

  Report report;
  std::vector<SetupTimes> setups;
  std::vector<uint64_t> stream_seeds;
  for (uint32_t k = 0; k < workload.streams; ++k) {
    stream_seeds.push_back(StreamSeed(options.seed, k));
  }

  // First the exact pool: every input stream once, at the nominal rate, each
  // on a fresh machine; the simulated metrics and counts come from it. Then,
  // in untraced runs, the rate search, and `seconds` of wall time repeating
  // the first host_ops ops of stream 0; every repeat must simulate and
  // allocate exactly as the first did. host_ns_per_op takes each slice of
  // that phase from its fastest repeat (FastestSlicesNs), and setup_s each
  // set-up phase from its fastest episode. Traced runs skip the search and
  // instead alternate traced and untraced runs of stream 0 (at most
  // kTracedOps ops each, so the span log stays small) to measure the tracing
  // overhead.
  constexpr uint64_t kTracedOps = 50000;
  Pool pool;
  std::vector<uint64_t> digests;
  std::vector<SpanRecord> spans;
  double measured_s = 0;
  SpanLog span_log(true);

  auto nominal = [&](size_t stream, uint64_t ops, bool traced) {
    Episode episode = RunEpisode(workload, stream_seeds[stream], workload.nominal_rate, ops,
                                 traced ? &span_log : nullptr);
    setups.push_back(episode.setup);
    report.attempted += episode.attempted;
    report.failed += episode.failed;
    for (std::string& failure : episode.failures) {
      report.failures.push_back(std::move(failure));
    }
    if (episode.max_lateness_ns != 0) {
      report.failures.push_back("open-loop generator ran late");
    }
    measured_s += static_cast<double>(episode.host_ns) / 1e9;
    if (traced && spans.empty()) {
      spans = ClosedSpans(span_log.log());
      if (!options.trace_dir.empty()) {
        ExportTrace(span_log.log(), 2000,
                    options.trace_dir + "/" + workload.name + "-" + std::to_string(options.seed) +
                        "-ops.json");
      }
    }
    span_log.Clear();
    return episode;
  };

  for (size_t k = 0; k < stream_seeds.size(); ++k) {
    Episode episode = nominal(k, workload.measured_ops, false);
    digests.push_back(episode.Digest());
    pool.Add(episode);
  }

  double slo_ops_per_s = 0;  // not searched in traced runs
  if (!options.trace) {
    SloSearch search(workload, stream_seeds[0], workload.probe_ops, &setups);
    slo_ops_per_s = search.Run();
    for (const Probe& probe : search.probes()) {
      report.notes.push_back(
          probe.failed != 0
              ? Format("probe: %.0f ops/s -> %.0f failed ops or checks, fail", probe.rate,
                       static_cast<double>(probe.failed))
              : Format("probe: %.0f ops/s -> p99 %.2f us, drain %.2f us, ", probe.rate,
                       probe.p99_us, probe.drain_us) +
                    (search.Passes(probe) ? "pass" : "fail"));
    }
  }

  std::vector<std::vector<uint64_t>> host_slices;  // untraced repeats
  std::vector<double> repeat_ns_per_op;            // the same, whole phases
  uint64_t host_ops = workload.host_ops;
  uint64_t host_digest = 0;
  AllocCount host_allocs;
  double host_events = 0;
  uint64_t loop_start = HostNanos();
  auto elapsed_s = [&] { return static_cast<double>(HostNanos() - loop_start) / 1e9; };
  while (!options.trace && (host_slices.empty() || elapsed_s() < options.seconds)) {
    Episode episode = nominal(0, host_ops, false);
    if (host_slices.empty()) {
      host_digest = episode.Digest();
      host_allocs = episode.allocs;
      host_events = static_cast<double>(episode.events);
    } else if (episode.Digest() != host_digest) {
      report.failures.push_back("a repeated episode simulated differently");
    } else if (episode.allocs.calls != host_allocs.calls ||
               episode.allocs.bytes != host_allocs.bytes) {
      report.failures.push_back("a repeated episode allocated differently");
    }
    host_slices.push_back(episode.slice_host_ns);
    repeat_ns_per_op.push_back(static_cast<double>(episode.host_ns) /
                               static_cast<double>(episode.attempted));
  }
  double host_ns = FastestSlicesNs(host_slices);

  double trace_overhead_ns_per_op = 0;
  uint64_t traced_repeats = 0;
  if (options.trace) {
    host_ops = std::min(workload.measured_ops, kTracedOps);
    std::vector<std::vector<uint64_t>> traced_slices;
    for (int pair = 0; pair < 2 || elapsed_s() < options.seconds; ++pair) {
      Episode traced = nominal(0, host_ops, true);
      Episode untraced = nominal(0, host_ops, false);
      if (traced.Digest() != untraced.Digest()) {
        report.failures.push_back("tracing changed what was simulated");
      }
      traced_slices.push_back(traced.slice_host_ns);
      host_slices.push_back(untraced.slice_host_ns);
      repeat_ns_per_op.push_back(static_cast<double>(untraced.host_ns) /
                                 static_cast<double>(untraced.attempted));
      host_events = static_cast<double>(untraced.events);
    }
    traced_repeats = traced_slices.size();
    double traced_ns = FastestSlicesNs(traced_slices);
    host_ns = FastestSlicesNs(host_slices);
    trace_overhead_ns_per_op = (traced_ns - host_ns) / static_cast<double>(host_ops);
    report.notes.push_back(
        Format("tracing overhead: traced %.1f - untraced %.1f = %.1f ns/op (host, fastest "
               "slices of %.0f pairs of %.0f-op episodes)",
               traced_ns / static_cast<double>(host_ops), host_ns / static_cast<double>(host_ops),
               trace_overhead_ns_per_op, static_cast<double>(traced_repeats),
               static_cast<double>(host_ops)));
  }
  pool.Sort();

  // --- end-to-end metrics ---
  std::map<std::string, double> phase_s = FastestPhases(setups);
  double setup_s = 0;
  for (const auto& [name, seconds] : phase_s) {
    setup_s += seconds;
  }
  std::vector<double> faults;
  std::vector<double> setup_totals;
  for (const SetupTimes& setup : setups) {
    faults.push_back(static_cast<double>(setup.minor_faults));
    setup_totals.push_back(setup.TotalSeconds());
  }
  double host_ns_per_op = host_ns / static_cast<double>(host_ops);
  report.correct = report.failures.empty() && report.failed == 0;
  double ok_ratio = Ratio(static_cast<double>(report.attempted - report.failed),
                          static_cast<double>(report.attempted));
  if (!report.failures.empty()) {
    ok_ratio = std::min(ok_ratio, Ratio(static_cast<double>(report.attempted) - 1,
                                        static_cast<double>(report.attempted)));
  }
  report.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"host_ns_per_op", host_ns_per_op, "ns"},
      {"peak_rss_mib", PeakRssMiB(), "MiB"},
      {"sim_p50_us", Us(Quantile(pool.latency, 0.50)), "us"},
      {"sim_p99_us", Us(Quantile(pool.latency, 0.99)), "us"},
      {"sim_p999_us", Us(Quantile(pool.latency, 0.999)), "us"},
      {"sim_slo_ops_per_s", slo_ops_per_s, "1/s"},
      {"ok_ratio", ok_ratio, "ratio"},
  };
  report.notes.push_back(Format("sim latency samples: %.0f (p99.9 has %.0f beyond it)",
                                static_cast<double>(pool.latency.size()),
                                static_cast<double>(pool.latency.size()) / 1000.0));
  std::string cycles = Format("host ns/op per untraced %.0f-op run of stream 0 (whole phase):",
                              static_cast<double>(host_ops));
  for (double value : repeat_ns_per_op) {
    cycles += Format(" %.0f", value);
  }
  report.notes.push_back(cycles);
  report.notes.push_back(Format("host ns/op from the fastest repeat of each %.0f-op slice: %.1f "
                                "(median whole phase %.1f)",
                                static_cast<double>(workload.slice_ops), host_ns_per_op,
                                Median(repeat_ns_per_op)));
  report.notes.push_back(Format("episodes: %.0f untraced of stream 0, %.0f traced; %.0f set-ups "
                                "(median %.3f s); measured phases %.2f s",
                                static_cast<double>(host_slices.size()),
                                static_cast<double>(traced_repeats),
                                static_cast<double>(setups.size()), Median(setup_totals),
                                measured_s));
  report.notes.push_back(Format("open-loop generator lateness: %.0f ns (simulated)",
                                static_cast<double>(pool.max_lateness_ns)));

  // --- per-layer metrics ---
  auto span_quantile_us = [&](std::string_view component, std::string_view name, double q) {
    std::vector<uint64_t> durations;
    for (const SpanRecord& span : spans) {
      if (span.component == component && span.name == name) {
        durations.push_back(span.end_ns - span.begin_ns);
      }
    }
    std::sort(durations.begin(), durations.end());
    return Us(Quantile(durations, q));
  };
  double ops = static_cast<double>(pool.attempted);
  report.per_layer = {
      {"sim.events_per_op", Ratio(static_cast<double>(pool.events), ops), "count"},
      {"sim.host_ns_per_event", Ratio(host_ns, host_events), "ns"},
      {"host.allocs_per_op", Ratio(static_cast<double>(pool.allocs.calls), ops), "count"},
      {"host.alloc_bytes_per_op", Ratio(static_cast<double>(pool.allocs.bytes), ops), "B"},
      {"host.trace_overhead_ns_per_op", trace_overhead_ns_per_op, "ns"},
      {"setup.machine_s", phase_s["machine"], "s"},
      {"setup.boot_s", phase_s["boot"], "s"},
      {"setup.load_s", phase_s["load"] + phase_s["warmup"], "s"},
      {"setup.minor_faults", Median(faults), "count"},
      {"net.datagrams_per_op", pool.PerOp("net.datagrams"), "count"},
      {"nicdev.app_p50_us", span_quantile_us("nicdev", "app", 0.50), "us"},
      {"nicdev.app_p99_us", span_quantile_us("nicdev", "app", 0.99), "us"},
      {"kvs.get_p99_us", Us(Quantile(pool.get_latency, 0.99)), "us"},
      {"kvs.put_p99_us", Us(Quantile(pool.put_latency, 0.99)), "us"},
      {"kvs.queued_per_op", pool.PerOp("kvs.ops_queued"), "count"},
      {"kvs.compactions", pool.Value("kvs.compactions"), "count"},
      {"ftl.cache_hit_ratio",
       Ratio(pool.Value("ftl.cache_hits"),
             pool.Value("ftl.cache_hits") + pool.Value("ftl.cache_misses")),
       "ratio"},
      {"nand.reads_per_op", pool.PerOp("nand.reads"), "count"},
      {"ssddev.file_requests_per_op", pool.PerOp("ssddev.file_requests"), "count"},
      {"nand.programs_per_op", pool.PerOp("nand.programs"), "count"},
      {"nand.erases_per_op", pool.PerOp("nand.erases"), "count"},
      {"ftl.waf", Ratio(pool.Value("ftl.nand_writes"), pool.Value("ftl.host_writes")), "ratio"},
      {"ftl.gc_runs", pool.Value("ftl.gc_runs"), "count"},
      {"ftl.gc_relocated_pages", pool.Value("ftl.gc_relocated_pages"), "count"},
      {"ftl.write_stalls", pool.Value("ftl.write_stalls"), "count"},
      {"ssddev.free_pages_end", pool.Value("gauge.ssddev.free_pages"), "count"},
      {"fabric.dma_per_op", pool.PerOp("fabric.dma_reads") + pool.PerOp("fabric.dma_writes"),
       "count"},
      {"fabric.dma_bytes_per_op",
       pool.PerOp("fabric.dma_bytes_read") + pool.PerOp("fabric.dma_bytes_written"), "B"},
      {"fabric.doorbells_per_op", pool.PerOp("fabric.doorbells"), "count"},
      {"fabric.mmio_per_op", pool.PerOp("fabric.mmio_reads") + pool.PerOp("fabric.mmio_writes"),
       "count"},
      {"fabric.dma_read_p99_us", pool.HistogramUs("fabric.dma_read_latency", 0.99), "us"},
      {"fabric.dma_write_p99_us", pool.HistogramUs("fabric.dma_write_latency", 0.99), "us"},
      {"iommu.translations_per_op", pool.PerOp("iommu.translations"), "count"},
      {"iommu.tlb_hit_ratio",
       Ratio(pool.Value("iommu.tlb_hits"),
             pool.Value("iommu.tlb_hits") + pool.Value("iommu.tlb_misses")),
       "ratio"},
      {"iommu.faults", pool.Value("iommu.faults"), "count"},
      {"bus.msgs_per_op", pool.PerOp("bus.messages_sent"), "count"},
      {"bus.bytes_per_op", pool.PerOp("bus.bytes_sent"), "B"},
      {"bus.wire_p99_us", pool.HistogramUs("bus.wire_latency", 0.99), "us"},
      {"bus.table_update_p99_us", pool.HistogramUs("bus.table_update_latency", 0.99), "us"},
      {"bus.cross_segment_per_op", pool.PerOp("bus.routed_out"), "count"},
      {"bus.pages_programmed_per_op", pool.PerOp("bus.pages_programmed"), "count"},
      {"ctl.alloc_p99_us", span_quantile_us("control", "alloc", 0.99), "us"},
      {"ctl.grant_p99_us", span_quantile_us("control", "grant", 0.99), "us"},
      {"ctl.free_p99_us", span_quantile_us("control", "free", 0.99), "us"},
      {"memdev.live_allocations_end", pool.Value("gauge.memdev.live_allocations"), "count"},
      {"memdev.rejections", pool.Value("memdev.rejections"), "count"},
      {"core.spills", pool.Value("core.spills"), "count"},
      {"core.op_retries", pool.Value("core.op_retries"), "count"},
      {"dev.rpc_timeouts", pool.Value("dev.rpc_timeouts"), "count"},
      {"baseline.queue_wait_p50_us", pool.HistogramUs("baseline.queue_wait", 0.50), "us"},
      {"baseline.queue_wait_p99_us", pool.HistogramUs("baseline.queue_wait", 0.99), "us"},
      {"baseline.op_p99_us", pool.HistogramUs("baseline.op_latency", 0.99), "us"},
      {"baseline.cross_segment_interrupts_per_op",
       pool.PerOp("baseline.cross_segment_interrupts"), "count"},
  };

  // --- digest of the exact results ---
  uint64_t digest = 0xcbf29ce484222325ull;
  for (uint64_t d : digests) {
    digest = FnvValue(digest, d);
  }
  digest = FnvValue(digest, pool.allocs.calls);
  digest = FnvValue(digest, pool.allocs.bytes);
  digest = FnvValue(digest, slo_ops_per_s);
  report.digest = digest;

  // --- self-time table of the traced run, plus the first set-up's spans ---
  if (options.trace) {
    SpanLog setup_log(true);
    const SetupTimes& first = setups.front();
    uint64_t origin = first.phases.front().begin_ns;
    sim::SpanId root = setup_log.Begin("setup", "setup", 0, 0, 0);
    for (const SetupTimes::Phase& phase : first.phases) {
      sim::SpanId span = setup_log.Begin("setup", phase.name, root, 0, phase.begin_ns - origin);
      setup_log.End(span, phase.end_ns - origin);
    }
    setup_log.End(root, first.phases.back().end_ns - origin);
    if (!options.trace_dir.empty()) {
      std::ofstream out(options.trace_dir + "/" + workload.name + "-" +
                        std::to_string(options.seed) + "-setup.json");
      sim::WriteChromeTrace(setup_log.log(), out);
    }
    std::vector<SpanRecord> all = spans;
    for (SpanRecord& span : ClosedSpans(setup_log.log())) {
      span.component = "setup(host)";
      all.push_back(std::move(span));
    }
    struct Row {
      uint64_t count = 0;
      double total_us = 0;
      double self_us = 0;
    };
    std::map<std::string, Row> rows;
    for (const SpanRecord& span : all) {
      Row& row = rows[span.component + "/" + span.name];
      ++row.count;
      row.total_us += Us(span.end_ns - span.begin_ns);
      row.self_us += Us(span.self_ns);
    }
    report.notes.push_back("self time per span (mean per span; setup on the host clock):");
    for (const auto& [name, row] : rows) {
      double n = static_cast<double>(row.count);
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  %-24s count %8.0f  mean %12.3f us  self %12.3f us  self share %.3f",
                    name.c_str(), n, row.total_us / n, row.self_us / n,
                    Ratio(row.self_us, row.total_us));
      report.notes.push_back(line);
    }
  }
  return report;
}

}  // namespace perfbench

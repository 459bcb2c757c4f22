// The two KVS workloads: the paper's Sec. 3 store (KvsApp on the smart NIC,
// its log on the smart SSD) driven by remote clients over net::Network.
//
// Every value encodes (key, version) plus a filler derived from both, so each
// GET is checked byte for byte and placed in its key's history (KeyHistory).
#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/host_counters.h"
#include "perfbench/kvs_history.h"
#include "perfbench/workloads.h"
#include "src/kvs/kvs_app.h"
#include "src/kvs/kvs_protocol.h"
#include "src/kvs/workload.h"
#include "src/sim/rng.h"

namespace perfbench {
namespace {

namespace core = lastcpu::core;
namespace kvs = lastcpu::kvs;
namespace net = lastcpu::net;
namespace nicdev = lastcpu::nicdev;
namespace ssddev = lastcpu::ssddev;
using lastcpu::Pasid;
using lastcpu::StatusCode;

constexpr uint32_t kClients = 4;

struct KvsShape {
  // Keys PUTs (and, when read_only_keys is 0, GETs) go to, Zipf-popular.
  uint64_t keys = 0;
  // Extra preloaded keys that only GETs touch (Zipf-popular among
  // themselves); 0 sends GETs to `keys`.
  uint64_t read_only_keys = 0;
  uint32_t value_bytes = 0;
  double zipf_theta = 0.99;
  double write_fraction = 0;
  // 2 dies x 16 blocks x 16 pages x 4 KiB = 2 MiB raw, with log compaction.
  bool small_array = false;
  uint64_t preloaded() const { return keys + read_only_keys; }
};

// kvs_read: the log (~270 B records) outgrows the FTL's 4 MiB read cache.
constexpr KvsShape kReadShape{20000, 0, 256, 0.99, 0.0, false};
// kvs_overwrite: the gc-active shape of bench/bench_kvs.cc. Its GETs read
// keys no PUT touches: KvsEngine compaction drops index updates of PUTs that
// complete while it copies the log, so a GET of an overwritten key can see a
// value older than an acked PUT, which the history check rejects.
constexpr KvsShape kOverwriteShape{32, 32, 1024, 0.99, 0.9, true};

std::vector<Op> Generate(const KvsShape& shape, uint64_t seed, uint64_t n) {
  std::vector<Op> ops = PoissonOps(seed, n);
  sim::Rng rng(seed ^ 0x6b76735f6f707321ull);
  sim::ZipfGenerator zipf(shape.keys, shape.zipf_theta);
  sim::ZipfGenerator read_zipf(std::max<uint64_t>(shape.read_only_keys, 1), shape.zipf_theta);
  for (Op& op : ops) {
    op.client = static_cast<uint32_t>(rng.NextBelow(kClients));
    op.write = rng.NextDouble() < shape.write_fraction;
    op.target = static_cast<uint32_t>(op.write || shape.read_only_keys == 0
                                          ? zipf.Next(rng)
                                          : shape.keys + read_zipf.Next(rng));
  }
  return ops;
}

// Value of `key` at `version`: key and version little-endian, then a filler
// that depends on both.
std::vector<uint8_t> ValueFor(uint32_t key, uint64_t version, uint32_t bytes) {
  std::vector<uint8_t> value(bytes);
  uint64_t key64 = key;
  std::memcpy(value.data(), &key64, sizeof(key64));
  std::memcpy(value.data() + 8, &version, sizeof(version));
  for (uint32_t i = 16; i < bytes; ++i) {
    value[i] = static_cast<uint8_t>(key * 131u + version * 31u + i);
  }
  return value;
}

// The decorator the benchmark installs on the NIC: forwards every call to the
// KVS app and, when tracing, records one span per HandleRequest (from the
// call to its response) under the op's client span.
class ObservedApp : public nicdev::AppEngine {
 public:
  // The client span and op index of the request with this sequence number.
  struct OpRef {
    sim::SpanId span = 0;
    uint64_t op = 0;
  };
  using SpanOf = std::function<OpRef(uint64_t sequence)>;

  ObservedApp(std::unique_ptr<kvs::KvsApp> inner, sim::Simulator* simulator, SpanLog* spans,
              SpanOf span_of)
      : inner_(std::move(inner)),
        simulator_(simulator),
        spans_(spans),
        span_of_(std::move(span_of)) {}

  void Start(std::function<void(lastcpu::Status)> done) override {
    inner_->Start(std::move(done));
  }

  void HandleRequest(std::vector<uint8_t> payload,
                     std::function<void(std::vector<uint8_t>)> respond) override {
    if (spans_ == nullptr || !spans_->enabled()) {
      inner_->HandleRequest(std::move(payload), std::move(respond));
      return;
    }
    auto request = kvs::KvsRequest::Decode(payload);
    OpRef ref = span_of_(request.ok() ? request->sequence : 0);
    sim::SpanId span = spans_->Begin("nicdev", "app", ref.span, ref.op, simulator_->Now().nanos());
    inner_->HandleRequest(std::move(payload), [this, span, respond = std::move(respond)](
                                                  std::vector<uint8_t> response) {
      spans_->End(span, simulator_->Now().nanos());
      respond(std::move(response));
    });
  }

  bool HandleDoorbell(lastcpu::DeviceId from, uint64_t value) override {
    return inner_->HandleDoorbell(from, value);
  }
  void OnPeerFailed(lastcpu::DeviceId device) override { inner_->OnPeerFailed(device); }
  void OnPeerPermanentlyFailed(lastcpu::DeviceId device) override {
    inner_->OnPeerPermanentlyFailed(device);
  }

  kvs::KvsApp& inner() { return *inner_; }

 private:
  std::unique_ptr<kvs::KvsApp> inner_;
  sim::Simulator* simulator_;
  SpanLog* spans_;
  SpanOf span_of_;
};

class KvsRig : public Rig {
 public:
  KvsRig(const KvsShape& shape, SpanLog* spans, SetupTimes* times)
      : shape_(shape), history_(shape.preloaded()) {
    uint64_t start = HostNanos();
    machine_ = std::make_unique<core::Machine>();
    machine_->AddMemoryController();
    ssddev::SmartSsdConfig ssd_config;
    ssd_config.host_auth_service = false;
    kvs::KvsAppConfig app_config;
    if (shape.small_array) {
      ssd_config.nand.dies = 2;
      ssd_config.nand.blocks_per_die = 16;
      ssd_config.nand.pages_per_block = 16;
      // Roll the log once half of it is dead, so trimmed generations hand the
      // FTL invalid pages to collect.
      app_config.engine.compact_garbage_ratio = 0.5;
      app_config.engine.min_compact_bytes = 128 << 10;
    }
    ssddev::SmartSsd& ssd = machine_->AddSmartSsd(ssd_config);
    nic_ = &machine_->AddSmartNic();
    Pasid pasid = machine_->NewApplication("kvs");
    auto app = std::make_unique<ObservedApp>(
        std::make_unique<kvs::KvsApp>(nic_, pasid, app_config), &machine_->simulator(), spans,
        [this](uint64_t sequence) {
          auto it = pending_.find(sequence);
          return it == pending_.end() ? ObservedApp::OpRef{}
                                      : ObservedApp::OpRef{it->second.span, it->second.index};
        });
    app_ = &app->inner();
    nic_->LoadApp(std::move(app));
    for (uint32_t c = 0; c < kClients; ++c) {
      clients_.push_back(machine_->network().Attach(
          [this](net::EndpointId, std::vector<uint8_t> payload) { OnResponse(payload); }));
    }
    times->Lap("machine", start);

    // Preload: the store's log, version 0 of every key, written to flash
    // before the NIC boots and rebuilds its index from it.
    std::vector<uint8_t> log;
    for (uint32_t key = 0; key < shape.preloaded(); ++key) {
      kvs::LogRecord record;
      record.key = kvs::WorkloadGenerator::KeyFor(key);
      record.value = ValueFor(key, 0, shape.value_bytes);
      std::vector<uint8_t> bytes = record.Encode();
      log.insert(log.end(), bytes.begin(), bytes.end());
    }
    ssd.ProvisionFile("kv.log", std::move(log));
    machine_->RunUntilIdle();
    times->Lap("load", start);

    machine_->Boot();
    times->Lap("boot", start);
    if (!nic_->app_ready() || app_->engine().index().size() != shape.preloaded()) {
      failures_.push_back("kvs app did not come up with every preloaded key");
    }
  }

  sim::Simulator& simulator() override { return machine_->simulator(); }

  OpKind Kind(const Op& op) const override { return op.write ? OpKind::kPut : OpKind::kGet; }

  void Issue(uint64_t index, const Op& op, sim::SpanId span, Done done) override {
    kvs::KvsRequest request;
    request.sequence = ++next_sequence_;
    request.key = kvs::WorkloadGenerator::KeyFor(op.target);
    KeyHistory& history = history_[op.target];
    Pending pending{index, op.target, op.write, 0, history.stale_before(), span, std::move(done)};
    if (op.write) {
      request.op = kvs::KvsOp::kPut;
      pending.version = history.Issue(machine_->simulator().Now().nanos());
      request.value = ValueFor(op.target, pending.version, shape_.value_bytes);
    } else {
      request.op = kvs::KvsOp::kGet;
    }
    pending_.emplace(request.sequence, std::move(pending));
    machine_->network().Send(clients_[op.client], nic_->endpoint(), request.Encode());
  }

  sim::StatsSnapshot Sample() override {
    sim::StatsSnapshot sample;
    SampleMachine(*machine_, &sample);
    sim::StatsRegistry& engine = app_->engine().stats();
    sample.counters["kvs.ops_queued"] = engine.GetCounter("ops_queued").value();
    sample.counters["kvs.compactions"] = engine.GetCounter("compactions").value();
    return sample;
  }

  std::vector<std::string> CheckDrained() override {
    std::vector<std::string> out = std::move(failures_);
    failures_.clear();
    if (!pending_.empty()) {
      out.push_back(std::to_string(pending_.size()) + " KVS ops never answered");
    }
    return out;
  }

 private:
  struct Pending {
    uint64_t index = 0;  // the op's index in its generated stream
    uint32_t key = 0;
    bool write = false;
    uint64_t version = 0;       // PUT: the version it writes
    uint64_t stale_before = 0;  // GET: versions acked before this are stale
    sim::SpanId span = 0;
    Done done;
  };

  void Fail(std::string what) {
    if (failures_.size() < 8) {
      failures_.push_back(std::move(what));
    }
  }

  void OnResponse(std::span<const uint8_t> wire) {
    auto response = kvs::KvsResponse::Decode(wire);
    if (!response.ok()) {
      Fail("undecodable KVS response");
      return;
    }
    auto it = pending_.find(response->sequence);
    if (it == pending_.end()) {
      Fail("KVS response for unknown sequence " + std::to_string(response->sequence));
      return;
    }
    Pending pending = std::move(it->second);
    pending_.erase(it);
    bool ok = response->status == StatusCode::kOk;
    if (!ok) {
      Fail("KVS op on key " + std::to_string(pending.key) + " answered " +
           std::string(lastcpu::StatusCodeName(response->status)));
    } else if (pending.write) {
      history_[pending.key].Ack(pending.version, machine_->simulator().Now().nanos());
    } else {
      ok = CheckValue(pending, response->value);
    }
    pending.done(ok);
  }

  bool CheckValue(const Pending& pending, const std::vector<uint8_t>& value) {
    if (value.size() != shape_.value_bytes) {
      Fail("GET returned " + std::to_string(value.size()) + " bytes");
      return false;
    }
    uint64_t key = 0;
    uint64_t version = 0;
    std::memcpy(&key, value.data(), sizeof(key));
    std::memcpy(&version, value.data() + 8, sizeof(version));
    KeyHistory::Verdict verdict = history_[pending.key].Check(version, pending.stale_before);
    if (key != pending.key || verdict == KeyHistory::Verdict::kNeverWritten ||
        value != ValueFor(pending.key, version, shape_.value_bytes)) {
      Fail("GET of key " + std::to_string(pending.key) + " returned key " + std::to_string(key) +
           " version " + std::to_string(version) + ", which was never written");
      return false;
    }
    if (verdict == KeyHistory::Verdict::kStale) {
      Fail("GET of key " + std::to_string(pending.key) + " returned version " +
           std::to_string(version) + ", overwritten before the GET was sent");
      return false;
    }
    return true;
  }

  KvsShape shape_;
  std::unique_ptr<core::Machine> machine_;
  nicdev::SmartNic* nic_ = nullptr;
  kvs::KvsApp* app_ = nullptr;
  std::vector<net::EndpointId> clients_;
  uint64_t next_sequence_ = 0;
  std::unordered_map<uint64_t, Pending> pending_;
  std::vector<KeyHistory> history_;  // by key
  std::vector<std::string> failures_;
};

}  // namespace

std::vector<Op> GenerateKvsRead(uint64_t seed, uint64_t n) { return Generate(kReadShape, seed, n); }
std::vector<Op> GenerateKvsOverwrite(uint64_t seed, uint64_t n) {
  return Generate(kOverwriteShape, seed, n);
}

std::unique_ptr<Rig> BuildKvsRead(SpanLog* spans, SetupTimes* times) {
  return std::make_unique<KvsRig>(kReadShape, spans, times);
}
std::unique_ptr<Rig> BuildKvsOverwrite(SpanLog* spans, SetupTimes* times) {
  return std::make_unique<KvsRig>(kOverwriteShape, spans, times);
}

}  // namespace perfbench

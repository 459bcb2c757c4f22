// The two control-plane workloads: 256 stub devices over 4 bus segments, each
// an independent user running alloc 16 KiB -> grant to a peer -> free.
// control_rack serves them from 4 memory-controller shards through home-node
// ShardedControlClients (the paper's bus-only control plane); control_rack_
// central serves the same devices, op mix and rates from a 4-core
// CentralKernel (the baseline the paper argues against).
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/host_counters.h"
#include "perfbench/workloads.h"
#include "src/baseline/central_kernel.h"
#include "src/core/control_plane.h"
#include "src/sim/rng.h"

namespace perfbench {
namespace {

namespace baseline = lastcpu::baseline;
namespace core = lastcpu::core;
namespace dev = lastcpu::dev;
using lastcpu::Access;
using lastcpu::Callback;
using lastcpu::DeviceId;
using lastcpu::Pasid;
using lastcpu::Result;
using lastcpu::VirtAddr;

constexpr uint32_t kDevices = 256;
constexpr uint32_t kSegments = 4;
constexpr uint32_t kShards = 4;
constexpr uint64_t kRegionBytes = 16 << 10;
constexpr uint64_t kRegionPages = kRegionBytes / lastcpu::kPageSize;
// The bus router's default inter-segment hop, charged to the kernel's
// off-segment interrupts so both designs pay the same chassis crossing.
constexpr sim::Duration kCrossSegment = sim::Duration::Nanos(400);

// A plain self-managing device: it only issues control operations.
class StubDevice : public dev::Device {
 public:
  StubDevice(DeviceId id, const dev::DeviceContext& context, std::string name)
      : dev::Device(id, std::move(name), context) {}
};

// The decorator the benchmark puts in front of each device's control client:
// forwards every call and, when tracing, records one span per control phase
// under the op's span (set with SetParent just before the call).
class ObservedControlClient : public core::ControlClient {
 public:
  ObservedControlClient(std::unique_ptr<core::ControlClient> inner, SpanLog* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  void SetParent(sim::SpanId span, uint64_t op) {
    parent_ = span;
    op_ = op;
  }

  void Alloc(Pasid pasid, uint64_t bytes, Callback<VirtAddr> done) override {
    inner_->Alloc(pasid, bytes, Wrap("alloc", std::move(done)));
  }
  void Grant(Pasid pasid, VirtAddr vaddr, uint64_t bytes, DeviceId grantee, Access access,
             Callback<void> done) override {
    inner_->Grant(pasid, vaddr, bytes, grantee, access, Wrap("grant", std::move(done)));
  }
  void Free(Pasid pasid, VirtAddr vaddr, uint64_t bytes, Callback<void> done) override {
    inner_->Free(pasid, vaddr, bytes, Wrap("free", std::move(done)));
  }
  void AllocBatch(Pasid pasid, uint64_t bytes, uint32_t count,
                  Callback<std::vector<VirtAddr>> done) override {
    inner_->AllocBatch(pasid, bytes, count, std::move(done));
  }
  void FreeBatch(Pasid pasid, std::vector<VirtAddr> vaddrs, uint64_t bytes,
                 Callback<void> done) override {
    inner_->FreeBatch(pasid, std::move(vaddrs), bytes, std::move(done));
  }
  sim::Simulator* simulator() override { return inner_->simulator(); }

  core::ControlClient& inner() { return *inner_; }

 private:
  template <typename T>
  Callback<T> Wrap(std::string_view phase, Callback<T> done) {
    if (spans_ == nullptr || !spans_->enabled()) {
      return done;
    }
    sim::SpanId span = spans_->Begin("control", phase, parent_, op_, simulator()->Now().nanos());
    return [this, span, done = std::move(done)](Result<T> result) {
      spans_->End(span, simulator()->Now().nanos());
      done(std::move(result));
    };
  }

  std::unique_ptr<core::ControlClient> inner_;
  SpanLog* spans_;
  sim::SpanId parent_ = 0;
  uint64_t op_ = 0;
};

class ControlRig : public Rig {
 public:
  ControlRig(bool central, SpanLog* spans, SetupTimes* times) {
    uint64_t start = HostNanos();
    core::MachineConfig config;
    config.topology.segments = kSegments;
    // The decentralized rack carves memory into controller shards at Boot();
    // the centralized one leaves all of it to the kernel.
    config.topology.memory_shards = central ? 0 : kShards;
    machine_ = std::make_unique<core::Machine>(config);
    for (uint32_t i = 0; i < kDevices; ++i) {
      stubs_.push_back(
          &machine_->EmplaceOn<StubDevice>(i % kSegments, "dev" + std::to_string(i)));
      pasids_.push_back(machine_->NewApplication("user" + std::to_string(i)));
    }
    if (central) {
      baseline::CentralKernelConfig kernel_config;
      kernel_config.cores = 4;
      kernel_config.cross_segment_interrupt_extra = kCrossSegment;
      kernel_ = std::make_unique<baseline::CentralKernel>(&machine_->simulator(),
                                                          &machine_->memory(), kernel_config);
    }
    times->Lap("machine", start);

    machine_->Boot();
    times->Lap("boot", start);

    for (StubDevice* stub : stubs_) {
      std::unique_ptr<core::ControlClient> client;
      if (central) {
        kernel_->RegisterDevice(stub->id(), &stub->iommu());
        client = std::make_unique<core::KernelControlClient>(kernel_.get(), stub->id());
      } else {
        client = std::make_unique<core::ShardedControlClient>(stub, machine_->shard_infos(),
                                                              core::AllocationPolicy::kHomeNode);
      }
      clients_.push_back(std::make_unique<ObservedControlClient>(std::move(client), spans));
    }
    times->Lap("load", start);
    if (!central && machine_->shard_controllers().size() != kShards) {
      failures_.push_back("rack booted without its memory-controller shards");
    }
  }

  sim::Simulator& simulator() override { return machine_->simulator(); }

  OpKind Kind(const Op&) const override { return OpKind::kControl; }

  void Issue(uint64_t index, const Op& op, sim::SpanId span, Done done) override {
    ObservedControlClient* client = clients_[op.client].get();
    Pasid pasid = pasids_[op.client];
    StubDevice* peer = stubs_[op.target];
    client->SetParent(span, index);
    client->Alloc(pasid, kRegionBytes, [this, client, pasid, peer, span, index,
                                        done = std::move(done)](Result<VirtAddr> region) mutable {
      if (!region.ok()) {
        Fail("alloc failed: " + region.status().ToString());
        done(false);
        return;
      }
      VirtAddr vaddr = *region;
      client->SetParent(span, index);
      client->Grant(pasid, vaddr, kRegionBytes, peer->id(), Access::kReadWrite,
                    [this, client, pasid, peer, vaddr, span, index,
                     done = std::move(done)](Result<void> granted) mutable {
                      bool ok = granted.ok();
                      if (!ok) {
                        Fail("grant failed: " + granted.status().ToString());
                      } else if (peer->iommu().mapped_pages(pasid) < kRegionPages) {
                        Fail("grant acked but the peer's IOMMU does not map the region");
                        ok = false;
                      }
                      client->SetParent(span, index);
                      client->Free(pasid, vaddr, kRegionBytes,
                                   [this, ok, done = std::move(done)](Result<void> freed) {
                                     if (!freed.ok()) {
                                       Fail("free failed: " + freed.status().ToString());
                                     }
                                     done(ok && freed.ok());
                                   });
                    });
    });
  }

  sim::StatsSnapshot Sample() override {
    sim::StatsSnapshot sample;
    SampleMachine(*machine_, &sample);
    for (const auto& client : clients_) {
      if (auto* sharded = dynamic_cast<core::ShardedControlClient*>(&client->inner())) {
        sample.counters["core.spills"] += sharded->spills();
        sample.counters["core.op_retries"] += sharded->op_retries();
      }
    }
    if (kernel_ != nullptr) {
      sim::StatsRegistry& stats = kernel_->stats();
      sample.counters["baseline.cross_segment_interrupts"] =
          stats.GetCounter("cross_segment_interrupts").value();
      sample.histograms["baseline.queue_wait"] = stats.GetHistogram("queue_wait");
      sample.histograms["baseline.op_latency"] = kernel_->op_latency();
    }
    return sample;
  }

  std::vector<std::string> CheckDrained() override {
    std::vector<std::string> out = std::move(failures_);
    failures_.clear();
    for (auto* shard : machine_->shard_controllers()) {
      if (shard->allocation_count() != 0) {
        out.push_back("shard " + std::to_string(shard->id().value()) + " still holds " +
                      std::to_string(shard->allocation_count()) + " allocations");
      }
    }
    uint64_t mapped = 0;
    for (Pasid pasid : pasids_) {
      if (kernel_ != nullptr && kernel_->AllocatedBytes(pasid) != 0) {
        out.push_back("kernel still holds " + std::to_string(kernel_->AllocatedBytes(pasid)) +
                      " bytes for pasid " + std::to_string(pasid.value()));
      }
      for (StubDevice* stub : stubs_) {
        mapped += stub->iommu().mapped_pages(pasid);
      }
    }
    if (mapped != 0) {
      out.push_back(std::to_string(mapped) + " pages still mapped in device IOMMUs");
    }
    return out;
  }

 private:
  void Fail(std::string what) {
    if (failures_.size() < 8) {
      failures_.push_back(std::move(what));
    }
  }

  std::unique_ptr<core::Machine> machine_;
  std::unique_ptr<baseline::CentralKernel> kernel_;
  std::vector<StubDevice*> stubs_;
  std::vector<Pasid> pasids_;
  std::vector<std::unique_ptr<ObservedControlClient>> clients_;
  std::vector<std::string> failures_;
};

}  // namespace

std::vector<Op> GenerateControl(uint64_t seed, uint64_t n) {
  std::vector<Op> ops = PoissonOps(seed, n);
  sim::Rng rng(seed ^ 0x63746c5f6f707321ull);
  for (Op& op : ops) {
    op.client = static_cast<uint32_t>(rng.NextBelow(kDevices));
    // Any other device, on any segment.
    op.target = (op.client + 1 + static_cast<uint32_t>(rng.NextBelow(kDevices - 1))) % kDevices;
  }
  return ops;
}

std::unique_ptr<Rig> BuildControlRack(SpanLog* spans, SetupTimes* times) {
  return std::make_unique<ControlRig>(/*central=*/false, spans, times);
}
std::unique_ptr<Rig> BuildControlRackCentral(SpanLog* spans, SetupTimes* times) {
  return std::make_unique<ControlRig>(/*central=*/true, spans, times);
}

}  // namespace perfbench

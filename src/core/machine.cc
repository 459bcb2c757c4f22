#include "src/core/machine.h"

#include <algorithm>
#include <ostream>

#include "src/base/check.h"
#include "src/core/crash_injector.h"
#include "src/memdev/shard_layout.h"
#include "src/sim/trace_export.h"

namespace lastcpu::core {
namespace {

// Keeps the topology spec and the bus config in agreement before either
// substrate is constructed.
MachineConfig NormalizeTopology(MachineConfig config) {
  if (config.topology.segments == 0) {
    config.topology.segments = 1;
  }
  config.bus.segments = std::max(config.bus.segments, config.topology.segments);
  return config;
}

}  // namespace

Machine::Machine(MachineConfig config)
    : config_(NormalizeTopology(std::move(config))),
      memory_(config_.memory_bytes),
      fabric_(&simulator_, &memory_, config_.fabric, &trace_),
      bus_(&simulator_, config_.bus, &trace_),
      network_(&simulator_) {
  if (config_.enable_trace) {
    trace_.Enable();
  }
  if (config_.fault_plan.enabled()) {
    // One injector shared by both interconnects: the bus and the fabric draw
    // from the same seeded sequence, so a (seed, plan) pair fully determines
    // every fault in the machine.
    faults_ = std::make_unique<sim::FaultInjector>(config_.fault_plan);
    bus_.SetFaultInjector(faults_.get());
    fabric_.SetFaultInjector(faults_.get());
  }
}

// Out of line: the header only forward-declares CrashInjector. The injector
// unhooks its bus and device observers, so it must die before they do.
Machine::~Machine() { crash_injector_.reset(); }

DeviceId Machine::NextDeviceId(uint32_t segment) {
  if (segment == 0) {
    // Flat numbering, unchanged from the single-chassis machine.
    return DeviceId(next_device_id_++);
  }
  LASTCPU_CHECK(segment < config_.topology.segments, "segment %u out of range", segment);
  if (next_local_id_.size() <= segment) {
    next_local_id_.resize(segment + 1, 1);
  }
  return MakeSegmentDeviceId(segment, next_local_id_[segment]++);
}

std::vector<memdev::MemoryController*> Machine::AddMemoryControllerShards(uint32_t count) {
  LASTCPU_CHECK(count > 0, "a sharded machine needs at least one shard");
  LASTCPU_CHECK(shard_controllers_.empty(), "controller shards already assembled");
  uint64_t frames = memory_.num_frames();
  LASTCPU_CHECK(frames >= count, "fewer physical frames than shards");
  uint32_t segments = config_.topology.segments;
  uint64_t frame_base = 0;
  std::vector<memdev::MemoryController*> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t share = frames / count + (i < frames % count ? 1 : 0);
    // Shard i lives on segment floor(i * segments / count): contiguous runs
    // of shards per chassis, every chassis covered when count >= segments.
    uint32_t segment = static_cast<uint32_t>(uint64_t{i} * segments / count);
    memdev::MemoryControllerConfig shard_config;
    shard_config.frame_base = frame_base;
    shard_config.frame_count = share;
    shard_config.va_base = memdev::ShardVaBase(i);
    shard_config.va_limit = memdev::ShardVaLimit(i);
    shard_config.segment = segment;
    auto device = std::make_unique<memdev::MemoryController>(NextDeviceId(segment), Context(),
                                                             &memory_, shard_config);
    shard_infos_.push_back(
        ShardInfo{device->id(), segment, shard_config.va_base, shard_config.va_limit});
    fabric_.SetSegmentForFrames(frame_base, share, segment);
    shard_controllers_.push_back(device.get());
    out.push_back(device.get());
    devices_.push_back(std::move(device));
    frame_base += share;
  }
  return out;
}

memdev::MemoryController& Machine::AddMemoryController(memdev::MemoryControllerConfig config) {
  auto device =
      std::make_unique<memdev::MemoryController>(NextDeviceId(), Context(), &memory_, config);
  auto& ref = *device;
  devices_.push_back(std::move(device));
  return ref;
}

ssddev::SmartSsd& Machine::AddSmartSsd(ssddev::SmartSsdConfig config) {
  auto device = std::make_unique<ssddev::SmartSsd>(NextDeviceId(), Context(), config);
  auto& ref = *device;
  devices_.push_back(std::move(device));
  return ref;
}

nicdev::SmartNic& Machine::AddSmartNic() {
  auto device = std::make_unique<nicdev::SmartNic>(NextDeviceId(), Context(), &network_);
  auto& ref = *device;
  devices_.push_back(std::move(device));
  return ref;
}

void Machine::Boot() {
  if (config_.topology.memory_shards > 0 && shard_controllers_.empty()) {
    AddMemoryControllerShards(config_.topology.memory_shards);
  }
  if (config_.crash_plan.enabled() && crash_injector_ == nullptr) {
    // Before PowerOn, so a during_self_test spec can sabotage the very first
    // self-test of the boot sequence.
    crash_injector_ =
        std::make_unique<CrashInjector>(&simulator_, &bus_, devices_, config_.crash_plan);
  }
  for (auto& device : devices_) {
    if (device->state() == dev::Device::State::kPoweredOff) {
      device->PowerOn();
    }
  }
  simulator_.Run();
}

Pasid Machine::NewApplication(const std::string& name) {
  Pasid pasid(next_pasid_++);
  applications_.emplace_back(pasid, name);
  return pasid;
}

void Machine::TeardownApplication(Pasid pasid) {
  proto::Message message;
  message.dst = kBusDevice;
  message.payload = proto::TeardownApp{pasid};
  bus_.AdminSend(std::move(message));
}

void Machine::WriteChromeTrace(std::ostream& os) const {
  sim::WriteChromeTrace(trace_, os);
}

void Machine::MetricsJson(std::ostream& os) {
  os << "{";
  if (faults_ != nullptr) {
    os << "\"faults\":{\"decisions\":" << faults_->decisions()
       << ",\"dropped\":" << faults_->dropped() << ",\"delayed\":" << faults_->delayed()
       << ",\"duplicated\":" << faults_->duplicated()
       << ",\"reordered\":" << faults_->reordered() << "},";
  }
  if (crash_injector_ != nullptr) {
    os << "\"crashes\":{\"injected\":" << crash_injector_->crashes_injected()
       << ",\"self_test\":" << crash_injector_->self_test_crashes()
       << ",\"specs_skipped\":" << crash_injector_->specs_skipped() << "},";
  }
  // Supervisor counters live in the bus registry; surface the headline ones
  // as their own section so operators need not dig through bus counters.
  {
    sim::StatsRegistry& bus_stats = bus_.stats();
    os << "\"supervisor\":{\"restarts\":" << bus_stats.GetCounter("supervisor_restarts").value()
       << ",\"recoveries\":" << bus_stats.GetCounter("supervisor_recoveries").value()
       << ",\"restart_timeouts\":"
       << bus_stats.GetCounter("supervisor_restart_timeouts").value()
       << ",\"quarantines\":" << bus_stats.GetCounter("supervisor_quarantines").value()
       << ",\"permanent_failures\":"
       << bus_stats.GetCounter("supervisor_permanent_failures").value() << "},";
  }
  // Rack topology sections (omitted entirely on a flat machine, so its
  // metrics stream is unchanged).
  const auto& segments = bus_.segment_counters();
  if (segments.size() > 1) {
    os << "\"segments\":[";
    for (size_t i = 0; i < segments.size(); ++i) {
      if (i != 0) {
        os << ",";
      }
      os << "{\"delivered_local\":" << segments[i].delivered_local
         << ",\"routed_out\":" << segments[i].routed_out
         << ",\"routed_in\":" << segments[i].routed_in
         << ",\"broadcast_copies\":" << segments[i].broadcast_copies << "}";
    }
    os << "],";
  }
  if (!shard_controllers_.empty()) {
    os << "\"memory_shards\":[";
    for (size_t i = 0; i < shard_controllers_.size(); ++i) {
      memdev::MemoryController* shard = shard_controllers_[i];
      if (i != 0) {
        os << ",";
      }
      sim::StatsRegistry& shard_stats = shard->stats();
      os << "{\"device\":" << shard->id().value()
         << ",\"segment\":" << shard->controller_config().segment
         << ",\"allocations\":" << shard_stats.GetCounter("allocations").value()
         << ",\"frees\":" << shard_stats.GetCounter("frees").value()
         << ",\"grants\":" << shard_stats.GetCounter("grants").value()
         << ",\"permanent_reclaims\":" << shard_stats.GetCounter("permanent_reclaims").value()
         << ",\"stranded_grants_reclaimed\":"
         << shard_stats.GetCounter("stranded_grants_reclaimed").value()
         << ",\"total_frames\":" << shard->allocator().total_frames()
         << ",\"free_frames\":" << shard->allocator().free_frames() << "}";
    }
    os << "],";
  }
  // Per-SSD storage health: write amplification, GC work, free-space stalls,
  // wear spread, and power-loss recoveries. Omitted when the machine has no
  // smart SSD, so diskless configs keep their metrics stream unchanged.
  {
    bool any_ssd = false;
    for (auto& device : devices_) {
      auto* ssd = dynamic_cast<ssddev::SmartSsd*>(device.get());
      if (ssd == nullptr) {
        continue;
      }
      os << (any_ssd ? "," : "\"storage\":[");
      any_ssd = true;
      ssddev::Ftl& ftl = ssd->ftl();
      os << "{\"device\":" << ssd->id().value()
         << ",\"write_amplification\":" << ftl.WriteAmplification()
         << ",\"host_writes\":" << ftl.host_writes()
         << ",\"nand_writes\":" << ftl.nand_writes()
         << ",\"gc_runs\":" << ftl.gc_runs()
         << ",\"gc_relocated_pages\":" << ftl.gc_relocated_pages()
         << ",\"write_stalls\":" << ftl.write_stalls()
         << ",\"erase_count_min\":" << ssd->nand().MinEraseCount()
         << ",\"erase_count_max\":" << ssd->nand().MaxEraseCount()
         << ",\"recoveries\":" << ftl.recoveries()
         << ",\"recovered_pages\":" << ftl.stats().GetCounter("recovered_pages").value()
         << ",\"torn_pages_discarded\":"
         << ftl.stats().GetCounter("torn_pages_discarded").value() << "}";
    }
    if (any_ssd) {
      os << "],";
    }
  }
  os << "\"bus\":";
  bus_.stats().Snapshot().WriteJson(os);
  os << ",\"fabric\":";
  fabric_.stats().Snapshot().WriteJson(os);
  os << ",\"network\":";
  network_.stats().Snapshot().WriteJson(os);
  os << ",\"devices\":{";
  bool first = true;
  for (auto& device : devices_) {
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\"" << device->name() << "\":";
    device->stats().Snapshot().WriteJson(os);
  }
  os << "}}\n";
}

}  // namespace lastcpu::core

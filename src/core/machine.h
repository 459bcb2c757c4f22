// Machine: the top-level public API of the lastcpu library.
//
// Assembles one CPU-less machine: simulated clock, physical memory, the
// data-plane fabric, the system management bus (the control plane — the OS
// that no longer runs on a CPU), an external network, and the self-managing
// devices. Figure 1 of the paper, in code:
//
//   core::Machine machine;
//   auto& memctrl = machine.AddMemoryController();
//   auto& ssd = machine.AddSmartSsd();
//   auto& nic = machine.AddSmartNic();
//   machine.Boot();                       // self-test + alive announcements
//   Pasid app = machine.NewApplication("kvs");
//   ... run ...
//   machine.TeardownApplication(app);     // bus-driven task teardown
#ifndef SRC_CORE_MACHINE_H_
#define SRC_CORE_MACHINE_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/bus/system_bus.h"
#include "src/core/control_plane.h"
#include "src/dev/device.h"
#include "src/fabric/fabric.h"
#include "src/mem/physical_memory.h"
#include "src/memdev/memory_controller.h"
#include "src/net/network.h"
#include "src/nicdev/smart_nic.h"
#include "src/sim/crash.h"
#include "src/sim/fault.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/ssddev/smart_ssd.h"

namespace lastcpu::core {

class CrashInjector;

// Rack topology: how many bus segments (chassis) the machine spans and how
// many memory-controller shards Boot() assembles. The all-default spec is the
// classic flat machine — one segment, one hand-added controller — and stays
// bit-identical to pre-rack behaviour.
struct TopologySpec {
  uint32_t segments = 1;
  // Shards Boot() carves physical memory into, spread across the segments.
  // 0 = none; the caller adds controllers itself (flat machine).
  uint32_t memory_shards = 0;
};

struct MachineConfig {
  uint64_t memory_bytes = 256 << 20;
  bus::BusConfig bus;
  fabric::FabricConfig fabric;
  bool enable_trace = false;
  // Machine-wide, seed-deterministic fault injection on the interconnects.
  // The default all-zero plan builds no injector at all, so a healthy
  // machine pays nothing.
  sim::FaultPlan fault_plan;
  // Seed-deterministic device crash schedule (see src/sim/crash.h). The
  // default empty plan builds no injector. The injector is constructed at
  // Boot(), so the plan must name devices added before then.
  sim::CrashPlan crash_plan;
  // Rack topology. bus.segments is raised to topology.segments at
  // construction so the two never disagree.
  TopologySpec topology;
};

class Machine {
 public:
  explicit Machine(MachineConfig config = {});
  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // --- substrate access -------------------------------------------------------

  sim::Simulator& simulator() { return simulator_; }
  sim::TraceLog& trace() { return trace_; }
  // The fault injector, or nullptr when the plan is all-zero.
  sim::FaultInjector* fault_injector() { return faults_.get(); }
  // The crash injector, or nullptr when the plan is empty or Boot() has not
  // run yet.
  CrashInjector* crash_injector() { return crash_injector_.get(); }
  mem::PhysicalMemory& memory() { return memory_; }
  fabric::Fabric& fabric() { return fabric_; }
  bus::SystemBus& bus() { return bus_; }
  net::Network& network() { return network_; }
  dev::DeviceContext Context() { return dev::DeviceContext{&simulator_, &bus_, &fabric_, &trace_}; }

  // --- device assembly --------------------------------------------------------

  // A fresh device id on `segment` (0 = the classic flat numbering).
  DeviceId NextDeviceId(uint32_t segment = 0);

  memdev::MemoryController& AddMemoryController(memdev::MemoryControllerConfig config = {});
  ssddev::SmartSsd& AddSmartSsd(ssddev::SmartSsdConfig config = {});
  nicdev::SmartNic& AddSmartNic();

  // Carves physical memory into `count` equal controller shards, each with
  // its own VA slab (see memdev/shard_layout.h), spread evenly across the
  // configured segments. Boot() calls this when topology.memory_shards > 0.
  std::vector<memdev::MemoryController*> AddMemoryControllerShards(uint32_t count);

  // Adds a custom device type; T's constructor must be (DeviceId,
  // DeviceContext, extra args...).
  template <typename T, typename... Args>
  T& Emplace(Args&&... args) {
    return EmplaceOn<T>(0, std::forward<Args>(args)...);
  }

  // Emplace on a specific bus segment.
  template <typename T, typename... Args>
  T& EmplaceOn(uint32_t segment, Args&&... args) {
    auto device =
        std::make_unique<T>(NextDeviceId(segment), Context(), std::forward<Args>(args)...);
    T& ref = *device;
    devices_.push_back(std::move(device));
    return ref;
  }

  const std::vector<std::unique_ptr<dev::Device>>& devices() const { return devices_; }

  // The controller shards assembled by AddMemoryControllerShards (empty on a
  // flat machine), and their directory records for building sharded clients.
  const std::vector<memdev::MemoryController*>& shard_controllers() const {
    return shard_controllers_;
  }
  const std::vector<ShardInfo>& shard_infos() const { return shard_infos_; }

  // --- lifecycle ---------------------------------------------------------------

  // Powers on every device and runs the simulator until the boot traffic
  // settles (all devices alive, applications started).
  void Boot();

  void RunFor(sim::Duration d) { simulator_.RunFor(d); }
  void RunUntilIdle() { simulator_.Run(); }

  // --- applications --------------------------------------------------------------

  // Registers a distributed application; what identifies it is its virtual
  // address space (paper Sec. 2.2), so this hands out a fresh PASID.
  Pasid NewApplication(const std::string& name);
  // Bus-driven task teardown: every device drops the app's contexts and the
  // memory controller reclaims its memory.
  void TeardownApplication(Pasid pasid);
  const std::vector<std::pair<Pasid, std::string>>& applications() const { return applications_; }

  // --- observability exports ---------------------------------------------------

  // Exports the machine's trace as Chrome trace_event JSON (open in
  // chrome://tracing or Perfetto): one process row per component, spans as
  // duration events, message sends/receives linked by flow arrows. Requires
  // MachineConfig::enable_trace (otherwise writes an empty trace).
  void WriteChromeTrace(std::ostream& os) const;

  // Machine-wide metrics snapshot as JSON: one section per substrate
  // component plus one per device, each holding that component's counters
  // and histogram summaries.
  void MetricsJson(std::ostream& os);

 private:
  MachineConfig config_;
  sim::Simulator simulator_;
  sim::TraceLog trace_;
  std::unique_ptr<sim::FaultInjector> faults_;
  std::unique_ptr<CrashInjector> crash_injector_;
  mem::PhysicalMemory memory_;
  fabric::Fabric fabric_;
  bus::SystemBus bus_;
  net::Network network_;
  std::vector<std::unique_ptr<dev::Device>> devices_;
  std::vector<memdev::MemoryController*> shard_controllers_;
  std::vector<ShardInfo> shard_infos_;
  uint32_t next_device_id_ = 1;
  // Per-segment local-id counters for segments >= 1 (index 0 unused; segment
  // 0 keeps the flat next_device_id_ numbering).
  std::vector<uint32_t> next_local_id_;
  uint32_t next_pasid_ = 1;
  std::vector<std::pair<Pasid, std::string>> applications_;
};

}  // namespace lastcpu::core

#endif  // SRC_CORE_MACHINE_H_

// CentralKernel: the system the paper argues against, as a baseline.
//
// Models a conventional accelerator-centric machine (Omni-X / M3X / IX
// style): devices run the data plane, but every control operation — memory
// allocation, mapping, grants, teardown, and any event needing privileged
// attention — must be mediated by software on a general-purpose CPU. The
// kernel itself is only the cost model the decentralized design eliminates:
//   * interrupt delivery / kernel entry when a device needs the CPU, with a
//     surcharge for interrupts from other chassis,
//   * serialization on K CPU cores (the run queue),
//   * a software handler per operation,
//   * direct IOMMU programming (it is the second legal holder of
//     iommu::ProgrammingKey).
// The mechanism is the decentralized design's own: allocations and grants
// live in a memdev::LeaseTable, the memory controller's table, which names
// the exact range of every mapping to make or remove. Failed devices go
// through bus::DeviceSupervisor, whose decisions the kernel takes on its CPU.
// So the two designs differ by construction only in *where* control runs.
#ifndef SRC_BASELINE_CENTRAL_KERNEL_H_
#define SRC_BASELINE_CENTRAL_KERNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/bus/device_supervisor.h"
#include "src/iommu/iommu.h"
#include "src/mem/physical_memory.h"
#include "src/memdev/lease_table.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace lastcpu::baseline {

struct CentralKernelConfig {
  uint32_t cores = 1;
  // Restart supervision: the bus's policy and state machine, but every
  // decision is a software handler on the CPU (interrupt, run-queue wait,
  // then the supervisor code runs). max_restart_attempts = 0 disables
  // supervision (a failure report just pulses reset once).
  bus::RestartPolicy restart_policy;
  // Rack topology: the kernel's CPU complex sits on segment 0, so interrupts
  // raised by devices on other segments pay this extra delivery latency
  // (their signal crosses the inter-chassis link before reaching the CPU).
  // Zero (the default) models the classic single-chassis machine.
  sim::Duration cross_segment_interrupt_extra = sim::Duration::Zero();
};

class CentralKernel {
 public:
  // One generic completion-callback shape (see base/status.h): operations
  // producing a value complete with Result<T>, status-only ones with
  // Result<void>.
  CentralKernel(sim::Simulator* simulator, mem::PhysicalMemory* memory,
                CentralKernelConfig config = {}, sim::TraceLog* trace = nullptr);

  // The kernel knows every device and programs their IOMMUs directly.
  void RegisterDevice(DeviceId device, iommu::Iommu* iommu);

  // --- the control-plane "syscalls" (the memory controller's LeaseTable) ----

  void AllocMemory(DeviceId requester, Pasid pasid, uint64_t bytes, Callback<VirtAddr> done);
  void FreeMemory(DeviceId requester, Pasid pasid, VirtAddr vaddr, uint64_t bytes,
                  Callback<void> done);
  // Batched syscalls: `count` equally sized allocations (or several frees) in
  // one kernel trip — one interrupt + syscall entry, `count` handler bodies.
  // Keeps the baseline comparison fair against the bus-side AllocBatch path.
  void AllocMemoryBatch(DeviceId requester, Pasid pasid, uint64_t bytes, uint32_t count,
                        Callback<std::vector<VirtAddr>> done);
  void FreeMemoryBatch(DeviceId requester, Pasid pasid, std::vector<VirtAddr> vaddrs,
                       uint64_t bytes, Callback<void> done);
  void Grant(DeviceId owner, Pasid pasid, VirtAddr vaddr, uint64_t bytes, DeviceId grantee,
             Access access, Callback<void> done);
  void Revoke(DeviceId owner, Pasid pasid, VirtAddr vaddr, uint64_t bytes, DeviceId grantee,
              Callback<void> done);
  void Teardown(Pasid pasid, Callback<void> done);

  // Generic privileged mediation of a device event costing `work` of handler
  // time (interrupt path + run queue + handler). Models the per-I/O kernel
  // involvement of a traditional stack.
  void MediateIo(sim::Duration work, std::function<void()> done);

  // --- device supervision (bus::DeviceSupervisor, run as kernel software) ---

  // `reset` pulses a device's reset line; `quarantine` is told when the
  // kernel gives up on one. Both fire from kernel handlers (post-CPU-trip).
  void SetResetHandler(std::function<void(DeviceId)> reset) { reset_handler_ = std::move(reset); }
  void SetQuarantineHandler(std::function<void(DeviceId, const std::string&)> quarantine) {
    quarantine_handler_ = std::move(quarantine);
  }

  // A device failed: the kernel takes an interrupt, runs the supervision
  // policy, and (per policy) pulses reset with backoff, quarantines on a
  // crash loop or exhausted attempts, and reclaims a quarantined device's
  // allocations and grants. Duplicate reports during an episode are no-ops.
  void ReportDeviceFailure(DeviceId device);

  // The baseline's failover story: the CPU complex panics and warm-reboots.
  // EVERY control operation machine-wide stalls for `blackout` (all cores go
  // busy), then the kernel re-walks its allocation tables before serving
  // again — one kMmService per live table entry, on one core. This is the
  // centralized counterpart of one shard's lease-rebuild takeover: there, the
  // blast radius is one VA slab; here it is the whole machine. `done` fires
  // when the kernel is serving again.
  void SimulateKernelFailover(sim::Duration blackout, Callback<void> done);
  // The device completed self-test; clears the episode.
  void OnDeviceAlive(DeviceId device);
  bool IsQuarantined(DeviceId device) const { return supervisor_.IsQuarantined(device); }
  uint32_t RestartAttempts(DeviceId device) const { return supervisor_.AttemptsOf(device); }

  // --- observability ---------------------------------------------------------

  // Completed control operations.
  uint64_t ops_completed() const { return ops_completed_; }
  // Time an operation spends from device signal to completion.
  const sim::Histogram& op_latency() const { return op_latency_; }
  // Bytes `pasid` holds.
  uint64_t AllocatedBytes(Pasid pasid) const { return leases_.AllocatedBytes(pasid); }
  // The allocation and grant table.
  const memdev::LeaseTable& leases() const { return leases_; }
  sim::StatsRegistry& stats() { return stats_; }
  sim::Simulator* simulator() { return simulator_; }

 private:
  // Queues `handler` on the CPU: interrupt -> least-loaded core -> entry +
  // service time -> handler runs (at completion time). When tracing, the CPU
  // occupancy is a child span of `parent` (the syscall's span), and both
  // close when the handler completes. `interrupt_extra` stretches the
  // interrupt-delivery leg (cross-segment requesters).
  void RunOnCpu(sim::Duration service, std::function<void()> handler, sim::SpanId parent = 0,
                sim::Duration interrupt_extra = sim::Duration::Zero());

  // The cross-segment interrupt surcharge for `requester` (zero on segment 0
  // or when unconfigured). Counts cross_segment_interrupts as a side effect.
  sim::Duration CrossSegmentExtra(DeviceId requester);

  // Opens the span for one kernel-mediated control operation. `detail`
  // formats the span's detail text and runs only while tracing, so an
  // untraced op builds no string.
  template <typename DetailFn>
  sim::SpanId BeginOpSpan(std::string_view name, DetailFn detail) {
    return tracer_.enabled() ? tracer_.BeginSpan(name, 0, detail()) : 0;
  }

  // Takes one supervisor decision on the CPU: the failure interrupt pays the
  // cross-segment surcharge, the restart-deadline timer interrupt does not.
  void DecideOnCpu(bus::DeviceSupervisor::Decision decision, DeviceId device,
                   std::function<void()> decide);
  // Frees everything a quarantined device owned and strips its grants.
  void ReclaimDevice(DeviceId device);

  iommu::Iommu* FindIommu(DeviceId device);
  // Maps `range` into its device's IOMMU, stopping at the first failure.
  Status MapRange(Pasid pasid, const memdev::Range& range);
  // Unmaps `range` from its device's IOMMU, skipping pages it does not map.
  void UnmapRange(Pasid pasid, const memdev::Range& range);
  // Unmaps the allocation from every holder, then releases it.
  void FreeOwned(Pasid pasid, const memdev::Allocation& allocation);

  sim::Simulator* simulator_;
  CentralKernelConfig config_;
  sim::Tracer tracer_;
  sim::StatsRegistry stats_;
  memdev::LeaseTable leases_;
  bus::DeviceSupervisor supervisor_;
  std::map<DeviceId, iommu::Iommu*> devices_;
  std::vector<sim::SimTime> core_busy_until_;
  uint64_t ops_completed_ = 0;
  sim::Histogram op_latency_;
  // Devices with a failure report whose episode is still open (no alive
  // signal yet): a second report is a duplicate, as on the bus.
  std::set<DeviceId> failing_;
  std::function<void(DeviceId)> reset_handler_;
  std::function<void(DeviceId, const std::string&)> quarantine_handler_;
};

}  // namespace lastcpu::baseline

#endif  // SRC_BASELINE_CENTRAL_KERNEL_H_

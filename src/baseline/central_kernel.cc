#include "src/baseline/central_kernel.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "src/base/check.h"

namespace lastcpu::baseline {
namespace {

// Device -> CPU notification: interrupt delivery + context switch.
constexpr sim::Duration kInterruptCost = sim::Duration::Micros(2);
// Trap + syscall dispatch on entry.
constexpr sim::Duration kSyscallEntry = sim::Duration::Nanos(300);
// Handler body for memory-management operations.
constexpr sim::Duration kMmService = sim::Duration::Micros(1);
// Extra handler time per page mapped/unmapped.
constexpr sim::Duration kPerPageCost = sim::Duration::Nanos(60);
// Handler body for generic I/O mediation (completion processing, wakeups).
constexpr sim::Duration kIoService = sim::Duration::Nanos(800);

// "pasid=<pasid> <key>=<value>": the span detail of a kernel memory op.
std::string OpDetail(Pasid pasid, std::string_view key, uint64_t value) {
  return "pasid=" + std::to_string(pasid.value()) + " " + std::string(key) + "=" +
         std::to_string(value);
}

}  // namespace

CentralKernel::CentralKernel(sim::Simulator* simulator, mem::PhysicalMemory* memory,
                             CentralKernelConfig config, sim::TraceLog* trace)
    : simulator_(simulator),
      config_(config),
      tracer_(trace, simulator, "kernel"),
      leases_(memory, &stats_),
      supervisor_(simulator, config.restart_policy, &tracer_, &stats_),
      core_busy_until_(config.cores) {
  LASTCPU_CHECK(config.cores > 0, "kernel needs at least one core");
  supervisor_.SetHooks({
      .pulse_reset =
          [this](DeviceId device) {
            if (reset_handler_) {
              reset_handler_(device);
            }
          },
      .quarantine =
          [this](DeviceId device, const std::string& reason) {
            ReclaimDevice(device);
            if (quarantine_handler_) {
              quarantine_handler_(device, reason);
            }
          },
      .defer =
          [this](bus::DeviceSupervisor::Decision decision, DeviceId device,
                 std::function<void()> decide) { DecideOnCpu(decision, device, std::move(decide)); },
  });
}

void CentralKernel::RegisterDevice(DeviceId device, iommu::Iommu* iommu) {
  LASTCPU_CHECK(iommu != nullptr, "registering device without IOMMU");
  devices_[device] = iommu;
}

iommu::Iommu* CentralKernel::FindIommu(DeviceId device) {
  auto it = devices_.find(device);
  return it == devices_.end() ? nullptr : it->second;
}

sim::Duration CentralKernel::CrossSegmentExtra(DeviceId requester) {
  if (config_.cross_segment_interrupt_extra == sim::Duration::Zero() ||
      IsReservedDevice(requester) || SegmentOf(requester) == 0) {
    return sim::Duration::Zero();
  }
  stats_.GetCounter("cross_segment_interrupts").Increment();
  return config_.cross_segment_interrupt_extra;
}

void CentralKernel::RunOnCpu(sim::Duration service, std::function<void()> handler,
                             sim::SpanId parent, sim::Duration interrupt_extra) {
  // The device raises an interrupt; after delivery the op joins the run
  // queue of the least-loaded core.
  sim::SimTime arrival = simulator_->Now() + kInterruptCost + interrupt_extra;
  auto core = std::min_element(core_busy_until_.begin(), core_busy_until_.end());
  sim::SimTime start = std::max(arrival, *core);
  sim::SimTime done = start + kSyscallEntry + service;
  *core = done;
  // Child span: interrupt delivery + run-queue wait + handler occupancy.
  sim::SpanId cpu_span = tracer_.BeginSpan("on-cpu", parent);
  stats_.GetHistogram("queue_wait").Record(start - arrival);
  op_latency_.Record(done - simulator_->Now());
  simulator_->ScheduleAt(done, [this, cpu_span, parent, handler = std::move(handler)] {
    ++ops_completed_;
    handler();
    tracer_.EndSpan(cpu_span);
    tracer_.EndSpan(parent);
  });
}

void CentralKernel::SimulateKernelFailover(sim::Duration blackout, Callback<void> done) {
  // Panic: every core stops serving. Queued and newly arriving operations
  // wait out the reboot in the run queue (RunOnCpu naturally serializes
  // behind the pushed-out core clocks).
  sim::SimTime up_again = simulator_->Now() + blackout;
  for (sim::SimTime& core : core_busy_until_) {
    core = std::max(core, up_again);
  }
  stats_.GetCounter("kernel_restarts").Increment();
  // Warm reboot: the tables survive in kernel memory, but the kernel re-walks
  // every live entry (consistency check against the IOMMU state it also owns)
  // before admitting syscalls — one kMmService each, serial on the boot core.
  uint64_t entries = leases_.allocation_count();
  stats_.GetCounter("kernel_rebuild_entries").Increment(entries);
  sim::Duration rebuild = kSyscallEntry + kMmService * entries;
  core_busy_until_.front() = up_again + rebuild;
  simulator_->ScheduleAt(up_again + rebuild,
                         [done = std::move(done)]() mutable { done(OkStatus()); });
}

Status CentralKernel::MapRange(Pasid pasid, const memdev::Range& range) {
  iommu::Iommu* iommu = FindIommu(range.device);
  if (iommu == nullptr) {
    return NotFound("unknown device");
  }
  iommu::ProgrammingKey key;  // the kernel is the privileged mapper here
  for (uint64_t i = 0; i < range.pages; ++i) {
    Status mapped = iommu->Map(key, pasid, range.vpage + i, range.first_frame + i, range.access);
    if (!mapped.ok()) {
      return mapped;
    }
  }
  return OkStatus();
}

void CentralKernel::UnmapRange(Pasid pasid, const memdev::Range& range) {
  iommu::Iommu* iommu = FindIommu(range.device);
  if (iommu == nullptr) {
    return;
  }
  iommu::ProgrammingKey key;
  for (uint64_t i = 0; i < range.pages; ++i) {
    (void)iommu->Unmap(key, pasid, range.vpage + i);
  }
}

void CentralKernel::FreeOwned(Pasid pasid, const memdev::Allocation& allocation) {
  allocation.ForEachHolder([&](const memdev::Range& range) { UnmapRange(pasid, range); });
  leases_.Release(pasid, allocation.owner.vpage);
}

void CentralKernel::AllocMemory(DeviceId requester, Pasid pasid, uint64_t bytes,
                                Callback<VirtAddr> done) {
  LASTCPU_CHECK(done != nullptr, "alloc without callback");
  uint64_t pages = PagesForBytes(bytes);
  sim::Duration service = kMmService + kPerPageCost * pages;
  sim::SpanId span = BeginOpSpan("Alloc", [&] { return OpDetail(pasid, "bytes", bytes); });
  RunOnCpu(service, [this, requester, pasid, bytes, pages, done = std::move(done)] {
    if (bytes == 0) {
      done(InvalidArgument("zero-byte allocation"));
      return;
    }
    auto allocated = leases_.Allocate(requester, pasid, pages, Access::kReadWrite);
    if (!allocated.ok()) {
      done(allocated.status());
      return;
    }
    Status mapped = MapRange(pasid, *allocated);
    if (!mapped.ok()) {
      leases_.Release(pasid, allocated->vpage);
      done(mapped);
      return;
    }
    done(allocated->vaddr());
  }, span, CrossSegmentExtra(requester));
}

void CentralKernel::FreeMemory(DeviceId requester, Pasid pasid, VirtAddr vaddr, uint64_t bytes,
                               Callback<void> done) {
  LASTCPU_CHECK(done != nullptr, "free without callback");
  uint64_t pages = PagesForBytes(bytes);
  sim::Duration service = kMmService + kPerPageCost * pages;
  sim::SpanId span = BeginOpSpan("Free", [&] { return OpDetail(pasid, "bytes", bytes); });
  RunOnCpu(service, [this, requester, pasid, vaddr, pages, done = std::move(done)] {
    auto owned = leases_.Owned(requester, pasid, vaddr, pages);
    if (!owned.ok()) {
      done(owned.status());
      return;
    }
    FreeOwned(pasid, **owned);
    done(OkStatus());
  }, span, CrossSegmentExtra(requester));
}

void CentralKernel::AllocMemoryBatch(DeviceId requester, Pasid pasid, uint64_t bytes,
                                     uint32_t count, Callback<std::vector<VirtAddr>> done) {
  LASTCPU_CHECK(done != nullptr, "batch alloc without callback");
  uint64_t pages = PagesForBytes(bytes);
  // One interrupt + one syscall entry for the whole batch; the handler still
  // does per-allocation work.
  sim::Duration service = (kMmService + kPerPageCost * pages) * count;
  sim::SpanId span = BeginOpSpan("AllocBatch", [&] { return OpDetail(pasid, "count", count); });
  RunOnCpu(service, [this, requester, pasid, bytes, pages, count, done = std::move(done)] {
    if (bytes == 0 || count == 0) {
      done(InvalidArgument("empty batch allocation"));
      return;
    }
    auto leased = leases_.AllocateBatch(requester, pasid, pages, count, Access::kReadWrite);
    if (!leased.ok()) {
      done(leased.status());
      return;
    }
    std::vector<VirtAddr> vaddrs;
    vaddrs.reserve(count);
    for (const memdev::Range& range : *leased) {
      Status mapped = MapRange(pasid, range);
      if (!mapped.ok()) {
        // The batch leases as one unit: unmap what it mapped, release it all.
        for (const memdev::Range& undo : *leased) {
          UnmapRange(pasid, undo);
        }
        leases_.Release(pasid, *leased);
        done(mapped);
        return;
      }
      vaddrs.push_back(range.vaddr());
    }
    stats_.GetCounter("batch_allocs").Increment();
    done(std::move(vaddrs));
  }, span, CrossSegmentExtra(requester));
}

void CentralKernel::FreeMemoryBatch(DeviceId requester, Pasid pasid, std::vector<VirtAddr> vaddrs,
                                    uint64_t bytes, Callback<void> done) {
  LASTCPU_CHECK(done != nullptr, "batch free without callback");
  uint64_t pages = PagesForBytes(bytes);
  sim::Duration service =
      (kMmService + kPerPageCost * pages) * static_cast<uint32_t>(vaddrs.size());
  sim::SpanId span =
      BeginOpSpan("FreeBatch", [&] { return OpDetail(pasid, "count", vaddrs.size()); });
  RunOnCpu(service, [this, requester, pasid, vaddrs = std::move(vaddrs), pages,
                     done = std::move(done)] {
    if (vaddrs.empty()) {
      done(InvalidArgument("empty batch free"));
      return;
    }
    // Validate everything before freeing anything: the batch is one unit.
    for (VirtAddr vaddr : vaddrs) {
      auto owned = leases_.Owned(requester, pasid, vaddr, pages, "no matching allocation in batch");
      if (!owned.ok()) {
        done(owned.status());
        return;
      }
    }
    for (VirtAddr vaddr : vaddrs) {
      auto owned = leases_.Owned(requester, pasid, vaddr, pages);
      if (owned.ok()) {
        FreeOwned(pasid, **owned);
      }
    }
    stats_.GetCounter("batch_frees").Increment();
    done(OkStatus());
  }, span, CrossSegmentExtra(requester));
}

void CentralKernel::Grant(DeviceId owner, Pasid pasid, VirtAddr vaddr, uint64_t bytes,
                          DeviceId grantee, Access access, Callback<void> done) {
  LASTCPU_CHECK(done != nullptr, "grant without callback");
  uint64_t pages = PagesForBytes(bytes);
  sim::Duration service = kMmService + kPerPageCost * pages;
  sim::SpanId span =
      BeginOpSpan("Grant", [&] { return OpDetail(pasid, "grantee", grantee.value()); });
  RunOnCpu(service, [this, owner, pasid, vaddr, bytes, grantee, access, done = std::move(done)] {
    auto granted = leases_.Grant(owner, pasid, vaddr, bytes, grantee, access);
    if (!granted.ok()) {
      done(granted.status());
      return;
    }
    Status mapped = MapRange(pasid, *granted);
    if (!mapped.ok()) {
      leases_.DropGrant(pasid, vaddr, bytes, grantee);
    }
    done(mapped);
  }, span, CrossSegmentExtra(owner));
}

void CentralKernel::Revoke(DeviceId owner, Pasid pasid, VirtAddr vaddr, uint64_t bytes,
                           DeviceId grantee, Callback<void> done) {
  LASTCPU_CHECK(done != nullptr, "revoke without callback");
  uint64_t pages = PagesForBytes(bytes);
  sim::Duration service = kMmService + kPerPageCost * pages;
  sim::SpanId span =
      BeginOpSpan("Revoke", [&] { return OpDetail(pasid, "grantee", grantee.value()); });
  RunOnCpu(service, [this, owner, pasid, vaddr, bytes, grantee, done = std::move(done)] {
    auto revoked = leases_.Revoke(owner, pasid, vaddr, bytes, grantee);
    if (revoked.ok()) {
      UnmapRange(pasid, *revoked);
    }
    done(revoked.status());
  }, span, CrossSegmentExtra(owner));
}

void CentralKernel::Teardown(Pasid pasid, Callback<void> done) {
  LASTCPU_CHECK(done != nullptr, "teardown without callback");
  uint64_t pages = 0;
  if (const memdev::LeaseTable::Table* table = leases_.TableOf(pasid)) {
    for (const auto& [vpage, allocation] : *table) {
      allocation.ForEachHolder([&](const memdev::Range& range) { pages += range.pages; });
    }
  }
  sim::Duration service = kMmService + kPerPageCost * pages;
  sim::SpanId span =
      BeginOpSpan("Teardown", [&] { return "pasid=" + std::to_string(pasid.value()); });
  RunOnCpu(service, [this, pasid, done = std::move(done)] {
    leases_.Teardown(pasid,
                     [this](Pasid app, const memdev::Range& range) { UnmapRange(app, range); });
    done(OkStatus());
  }, span);
}

void CentralKernel::MediateIo(sim::Duration work, std::function<void()> done) {
  LASTCPU_CHECK(done != nullptr, "mediation without callback");
  sim::SpanId span = BeginOpSpan("MediateIo", [] { return std::string(); });
  RunOnCpu(kIoService + work, std::move(done), span);
}

// --- device supervision ------------------------------------------------------

void CentralKernel::ReportDeviceFailure(DeviceId device) {
  if (supervisor_.IsQuarantined(device) || !failing_.insert(device).second) {
    stats_.GetCounter("duplicate_failure_reports").Increment();
    return;
  }
  supervisor_.OnFailure(device, "device " + std::to_string(device.value()));
}

void CentralKernel::DecideOnCpu(bus::DeviceSupervisor::Decision decision, DeviceId device,
                                std::function<void()> decide) {
  bool failure = decision == bus::DeviceSupervisor::Decision::kFailure;
  sim::SpanId span = BeginOpSpan(failure ? "DeviceFailure" : "RestartDeadline",
                                 [&] { return "device=" + std::to_string(device.value()); });
  RunOnCpu(kIoService, [this, failure, device, decide = std::move(decide)] {
    if (failure) {
      stats_.GetCounter("device_failures").Increment();
      if (!supervisor_.policy().supervised()) {
        failing_.erase(device);  // unsupervised: each report pulses once, no episode
      }
    }
    decide();
  }, span, failure ? CrossSegmentExtra(device) : sim::Duration::Zero());
}

void CentralKernel::OnDeviceAlive(DeviceId device) {
  if (!supervisor_.IsQuarantined(device)) {
    failing_.erase(device);
  }
  supervisor_.OnAlive(device);
}

void CentralKernel::ReclaimDevice(DeviceId device) {
  auto reclaimed = leases_.Reclaim(
      device, [this](Pasid pasid, const memdev::Range& range) { UnmapRange(pasid, range); });
  if (reclaimed.pages > 0) {
    // Bill the page-table scrubbing as handler time on the CPU.
    RunOnCpu(kPerPageCost * reclaimed.pages, [] {});
  }
}

}  // namespace lastcpu::baseline

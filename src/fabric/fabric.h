// The data-plane interconnect (paper Sec. 2.3 "Dataplane").
//
// Strictly separate from the control-plane system bus: this carries memory
// traffic only. Every access a device initiates is translated by that
// device's IOMMU (selecting the address space by PASID), then hits physical
// memory. Bulk transfers run asynchronously through per-device DMA engines
// with a bandwidth/latency cost model; small accesses (ring pointers,
// descriptors) use the synchronous MMIO-style path and report their modeled
// cost to the caller. Doorbells are modeled as writes to a special address
// that raise a callback at the target device (MSI-like).
#ifndef SRC_FABRIC_FABRIC_H_
#define SRC_FABRIC_FABRIC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/iommu/iommu.h"
#include "src/mem/physical_memory.h"
#include "src/sim/fault.h"
#include "src/sim/move_fn.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"
#include "src/sim/trace_context.h"

namespace lastcpu::fabric {

// Global fabric cost knobs.
struct FabricConfig {
  // The data-plane batching window. Zero (the default) keeps the unbatched
  // model: every DoorbellBatcher::Ring() is one fabric doorbell, and every
  // file request and response is one DMA write plus one doorbell. With a
  // window, DoorbellBatcher coalesces bursts, and FileClient and FileService
  // stage requests and completions and flush each window as one
  // scatter-gather DMA write plus one doorbell.
  sim::Duration batch_window = sim::Duration::Zero();
  // Extra latency a data-plane access pays when it crosses a chassis boundary
  // (the rack's inter-segment cable). Zero (the default) keeps the flat
  // single-chassis model byte-identical: no segment lookups, no extra cost.
  sim::Duration inter_segment_hop = sim::Duration::Zero();
};

// One segment of a scatter-gather write: destination + payload.
struct DmaWriteSegment {
  VirtAddr addr;
  std::vector<uint8_t> data;
};

// Outcome of a synchronous small access: status plus the modeled cost the
// initiating device should account before its next action.
struct AccessResult {
  Status status;
  sim::Duration cost;
};

class Fabric {
 public:
  Fabric(sim::Simulator* simulator, mem::PhysicalMemory* memory, FabricConfig config = {},
         sim::TraceLog* trace = nullptr);

  // Attaches a device's data port. The IOMMU translates all of its traffic;
  // `doorbell` fires when another device rings this device.
  void AttachDevice(DeviceId device, iommu::Iommu* iommu);
  void SetDoorbellHandler(DeviceId device, std::function<void(DeviceId from, uint64_t value)> fn);
  void DetachDevice(DeviceId device);
  bool IsAttached(DeviceId device) const { return ports_.contains(device); }

  // --- bulk asynchronous DMA ------------------------------------------------

  // Move-only (see sim::MoveFn): completions routinely capture buffers and
  // nested callbacks that should transfer, not copy. Sized so one level of
  // nesting plus a payload stays inline.
  using DmaCallback = sim::MoveFn<void(Status), 160>;
  using DmaReadCallback = sim::MoveFn<void(Result<std::vector<uint8_t>>), 160>;

  // Copies `data` into (pasid, dst). Completion is signaled after the modeled
  // transfer time; translation faults complete with an error. `ctx` parents
  // the transfer's trace span to the operation that issued it.
  void DmaWrite(DeviceId initiator, Pasid pasid, VirtAddr dst, std::vector<uint8_t> data,
                DmaCallback done, sim::TraceContext ctx = {});

  // Reads `length` bytes from (pasid, src).
  void DmaRead(DeviceId initiator, Pasid pasid, VirtAddr src, uint64_t length,
               DmaReadCallback done, sim::TraceContext ctx = {});

  // Scatter-gather (the data-plane batching fast path): writes every segment
  // as ONE modeled transfer: per-segment translation (each segment pays its
  // own walk costs on TLB misses), a single link-occupancy charge for the
  // summed bytes, and one completion. A burst of N buffers costs one DMA
  // transaction instead of N.
  void DmaWritev(DeviceId initiator, Pasid pasid, std::vector<DmaWriteSegment> segments,
                 DmaCallback done, sim::TraceContext ctx = {});

  // --- small synchronous accesses (descriptors, ring indices) ---------------

  AccessResult MemWrite(DeviceId initiator, Pasid pasid, VirtAddr dst,
                        std::span<const uint8_t> data);
  AccessResult MemRead(DeviceId initiator, Pasid pasid, VirtAddr src, std::span<uint8_t> out);

  // --- notifications ---------------------------------------------------------

  // Rings `to`'s doorbell after the doorbell latency (Sec. 2.3).
  void RingDoorbell(DeviceId from, DeviceId to, uint64_t value);

  sim::StatsRegistry& stats() { return stats_; }
  mem::PhysicalMemory* memory() { return memory_; }
  sim::Simulator* simulator() { return simulator_; }
  const FabricConfig& config() const { return config_; }

  // Installs (or clears, with nullptr) the machine-wide fault injector;
  // consulted on every doorbell. Doorbells are edge-triggered interrupts with
  // no acknowledgement, so clients that depend on them must poll as backstop.
  void SetFaultInjector(sim::FaultInjector* injector) { faults_ = injector; }

  // --- rack topology ---------------------------------------------------------

  // Declares that physical frames [first_frame, first_frame + count) live on
  // `segment` (one band per memory-controller shard). With inter_segment_hop
  // configured, DMA that targets frames off the initiator's segment pays the
  // hop; without bands every frame is segment 0.
  void SetSegmentForFrames(uint64_t first_frame, uint64_t count, uint32_t segment);
  // The segment holding `frame` (0 when no bands are declared).
  uint32_t SegmentOfFrame(uint64_t frame) const;

 private:
  struct Port {
    iommu::Iommu* iommu = nullptr;
    std::function<void(DeviceId, uint64_t)> doorbell;
    sim::SimTime link_busy_until;  // serializes transfers on one link
  };

  // The frames behind one access, as physically contiguous runs in access
  // order. The first run is held inline, so a range inside one mapping never
  // touches the heap.
  struct Runs {
    struct Run {
      PhysAddr paddr;
      uint64_t length = 0;
    };
    Run first;  // length 0 until a page is appended
    std::vector<Run> more;

    bool empty() const { return first.length == 0; }
    // Extends the last run when `paddr` continues it, else starts a new one.
    void Append(PhysAddr paddr, uint64_t length) {
      Run& last = more.empty() ? first : more.back();
      if (last.length == 0) {
        last = Run{paddr, length};
      } else if (last.paddr.raw + last.length == paddr.raw) {
        last.length += length;
      } else {
        more.push_back(Run{paddr, length});
      }
    }
  };

  Port* FindPort(DeviceId device);

  // The one page walk: translates [addr, addr + length) page by page through
  // the port's IOMMU, appends the frames to `runs` and adds each TLB miss's
  // walk cost to `cost`. Stops at the first page that faults; a zero-length
  // range translates nothing.
  Status Walk(Port& port, Pasid pasid, VirtAddr addr, uint64_t length, Access wanted, Runs& runs,
              sim::Duration& cost);

  // Copies `data` into the frames behind `runs`, and those frames into `out`.
  void WriteRuns(const Runs& runs, std::span<const uint8_t> data);
  void ReadRuns(const Runs& runs, std::span<uint8_t> out) const;

  // Ends a DMA whose walk faulted: counts it, marks its span, and reports
  // `failed` after the link's base latency.
  template <typename Done>
  void FailDma(Status failed, sim::SpanId span, Done done);

  // Occupies the initiator's link for a walked DMA of `bytes` and returns
  // when it completes (store-and-forward pipe model), charging `walk` and,
  // with inter_segment_hop configured, one hop when the first frame lies off
  // the initiator's segment. Counts the DMA as a write or a read.
  sim::SimTime Occupy(Port& port, DeviceId initiator, const Runs& runs, uint64_t bytes,
                      sim::Duration walk, Access direction);

  // Walks every segment and writes them as one DMA (DmaWrite passes one).
  // Returns false when the walk faulted.
  bool StartWrite(DeviceId initiator, Pasid pasid, std::span<DmaWriteSegment> segments,
                  sim::SpanId span, DmaCallback&& done);

  sim::Simulator* simulator_;
  mem::PhysicalMemory* memory_;
  FabricConfig config_;
  sim::Tracer tracer_;
  std::unordered_map<DeviceId, Port> ports_;
  // Last port looked up. DMA-heavy phases hit the same initiator for long
  // runs, so this turns the per-access hash lookup into one id compare.
  // Port references are stable in unordered_map except for erased entries,
  // so only detach must invalidate.
  DeviceId cached_port_id_ = DeviceId::Invalid();
  Port* cached_port_ = nullptr;
  sim::StatsRegistry stats_;
  sim::FaultInjector* faults_ = nullptr;
  // Frame-range -> segment bands, sorted by first_frame; empty on a flat
  // machine (every frame reads as segment 0).
  struct FrameBand {
    uint64_t first_frame = 0;
    uint64_t count = 0;
    uint32_t segment = 0;
  };
  std::vector<FrameBand> frame_bands_;

  // Per-transfer stats, resolved once at construction: registry references
  // are stable for the fabric's lifetime, so the per-event cost is a plain
  // increment instead of a name lookup.
  sim::Counter& dma_faults_ = stats_.GetCounter("dma_faults");
  sim::Counter& dma_writes_ = stats_.GetCounter("dma_writes");
  sim::Counter& dma_bytes_written_ = stats_.GetCounter("dma_bytes_written");
  sim::Counter& dma_reads_ = stats_.GetCounter("dma_reads");
  sim::Counter& dma_bytes_read_ = stats_.GetCounter("dma_bytes_read");
  sim::Counter& dma_sg_segments_ = stats_.GetCounter("dma_sg_segments");
  sim::Counter& mmio_writes_ = stats_.GetCounter("mmio_writes");
  sim::Counter& mmio_reads_ = stats_.GetCounter("mmio_reads");
  sim::Counter& doorbells_ = stats_.GetCounter("doorbells");
  sim::Counter& doorbells_dropped_ = stats_.GetCounter("doorbells_dropped");
  sim::Counter& doorbells_faulted_ = stats_.GetCounter("doorbells_faulted");
  sim::Counter& doorbells_coalesced_ = stats_.GetCounter("doorbells_coalesced");
  sim::Counter& cross_segment_dmas_ = stats_.GetCounter("cross_segment_dmas");
  sim::Counter& cross_segment_doorbells_ = stats_.GetCounter("cross_segment_doorbells");

  friend class DoorbellBatcher;
  sim::Histogram& dma_write_latency_ = stats_.GetHistogram("dma_write_latency");
  sim::Histogram& dma_read_latency_ = stats_.GetHistogram("dma_read_latency");
};

// Device-side doorbell coalescing. With the fabric's coalesce window at zero
// every Ring() passes straight through to RingDoorbell — same fault
// injection, same stats, byte-identical schedules. With a window configured,
// the first ring of a given (target, value) goes out immediately (so a lone
// doorbell pays no extra latency) and identical rings within the window are
// merged into one trailing doorbell at window close — a burst of N rings
// costs at most 2 fabric doorbells. The trailing doorbell (like every
// doorbell) still runs the PR-2 fault injector; receivers keep their poll
// backstops.
class DoorbellBatcher {
 public:
  DoorbellBatcher(Fabric* fabric, DeviceId from);
  ~DoorbellBatcher();
  DoorbellBatcher(const DoorbellBatcher&) = delete;
  DoorbellBatcher& operator=(const DoorbellBatcher&) = delete;

  // Rings `to` with `value`, coalescing per the fabric's window.
  void Ring(DeviceId to, uint64_t value);

  // Cancels every pending trailing doorbell (device reset: the receiver's
  // poll backstop owns any work the lost edge would have signaled).
  void CancelPending();

  // Rings suppressed into a trailing doorbell so far.
  uint64_t coalesced() const { return coalesced_; }

 private:
  struct Pending {
    // RAII: dropping the entry (reset, destruction) cancels the trailing
    // flush; a flush that already fired is a clean cancel miss.
    sim::ScopedEvent flush;
    uint64_t merged = 0;
  };

  Fabric* fabric_;
  DeviceId from_;
  std::map<std::pair<DeviceId, uint64_t>, Pending> pending_;
  uint64_t coalesced_ = 0;
};

}  // namespace lastcpu::fabric

#endif  // SRC_FABRIC_FABRIC_H_

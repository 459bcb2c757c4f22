#include "src/fabric/fabric.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"

namespace lastcpu::fabric {

// Every device link approximates a PCIe 4.0 x4 device: ~8 GB/s sustained,
// sub-microsecond latency.
constexpr sim::Duration kLinkLatency = sim::Duration::Nanos(600);
constexpr double kLinkBytesPerNano = 8.0;  // ~8 GB/s
constexpr sim::Duration kDoorbellLatency = sim::Duration::Nanos(400);
constexpr sim::Duration kMmioLatency = sim::Duration::Nanos(150);  // small read/write round trip
constexpr sim::Duration kWalkLatencyPerLevel = sim::Duration::Nanos(80);  // page-table walk step

Fabric::Fabric(sim::Simulator* simulator, mem::PhysicalMemory* memory, FabricConfig config,
               sim::TraceLog* trace)
    : simulator_(simulator), memory_(memory), config_(config),
      tracer_(trace, simulator, "fabric") {
  LASTCPU_CHECK(simulator != nullptr && memory != nullptr, "fabric needs simulator and memory");
}

void Fabric::AttachDevice(DeviceId device, iommu::Iommu* iommu) {
  LASTCPU_CHECK(iommu != nullptr, "device %u attached without IOMMU", device.value());
  LASTCPU_CHECK(!ports_.contains(device), "device %u already attached", device.value());
  Port port;
  port.iommu = iommu;
  ports_.emplace(device, std::move(port));
}

void Fabric::SetDoorbellHandler(DeviceId device,
                                std::function<void(DeviceId, uint64_t)> fn) {
  Port* port = FindPort(device);
  LASTCPU_CHECK(port != nullptr, "doorbell handler for unattached device %u", device.value());
  port->doorbell = std::move(fn);
}

void Fabric::DetachDevice(DeviceId device) {
  if (device == cached_port_id_) {
    cached_port_id_ = DeviceId::Invalid();
    cached_port_ = nullptr;
  }
  ports_.erase(device);
}

void Fabric::SetSegmentForFrames(uint64_t first_frame, uint64_t count, uint32_t segment) {
  if (count == 0) {
    return;
  }
  frame_bands_.push_back(FrameBand{first_frame, count, segment});
  std::sort(frame_bands_.begin(), frame_bands_.end(),
            [](const FrameBand& a, const FrameBand& b) { return a.first_frame < b.first_frame; });
}

uint32_t Fabric::SegmentOfFrame(uint64_t frame) const {
  for (const FrameBand& band : frame_bands_) {
    if (frame < band.first_frame) {
      break;  // bands are sorted; nothing further can contain the frame
    }
    if (frame - band.first_frame < band.count) {
      return band.segment;
    }
  }
  return 0;
}

Fabric::Port* Fabric::FindPort(DeviceId device) {
  if (device == cached_port_id_) {
    return cached_port_;
  }
  auto it = ports_.find(device);
  if (it == ports_.end()) {
    return nullptr;
  }
  cached_port_id_ = device;
  cached_port_ = &it->second;
  return cached_port_;
}

Status Fabric::Walk(Port& port, Pasid pasid, VirtAddr addr, uint64_t length, Access wanted,
                    Runs& runs, sim::Duration& cost) {
  while (length > 0) {
    iommu::Translation translation;
    if (!port.iommu->TryTranslate(pasid, addr, wanted, &translation)) {
      return port.iommu->TranslateFault(pasid, addr, wanted);
    }
    if (!translation.tlb_hit) {
      cost += kWalkLatencyPerLevel * static_cast<uint64_t>(translation.levels_walked);
    }
    uint64_t chunk = std::min(length, kPageSize - addr.offset());
    runs.Append(translation.paddr, chunk);
    addr = addr + chunk;
    length -= chunk;
  }
  return OkStatus();
}

void Fabric::WriteRuns(const Runs& runs, std::span<const uint8_t> data) {
  if (runs.empty()) {
    return;  // an empty buffer may have no storage to copy from
  }
  memory_->Write(runs.first.paddr, data.first(runs.first.length));
  uint64_t at = runs.first.length;
  for (const Runs::Run& run : runs.more) {
    memory_->Write(run.paddr, data.subspan(at, run.length));
    at += run.length;
  }
}

void Fabric::ReadRuns(const Runs& runs, std::span<uint8_t> out) const {
  if (runs.empty()) {
    return;  // an empty buffer may have no storage to copy into
  }
  memory_->Read(runs.first.paddr, out.first(runs.first.length));
  uint64_t at = runs.first.length;
  for (const Runs::Run& run : runs.more) {
    memory_->Read(run.paddr, out.subspan(at, run.length));
    at += run.length;
  }
}

template <typename Done>
void Fabric::FailDma(Status failed, sim::SpanId span, Done done) {
  dma_faults_.Increment();
  tracer_.Instant("dma-fault", failed.message(), span);
  // Hardware reports the abort asynchronously, after the failed bus cycle.
  simulator_->Schedule(kLinkLatency,
                       [this, span, done = std::move(done), failed = std::move(failed)] {
                         done(failed);
                         tracer_.EndSpan(span);
                       });
}

sim::SimTime Fabric::Occupy(Port& port, DeviceId initiator, const Runs& runs, uint64_t bytes,
                            sim::Duration walk, Access direction) {
  sim::Duration extra = walk;
  // A multi-page transfer that lands on a remote shard pays one hop (the
  // first frame decides; shard slabs are contiguous, so mixes are rare).
  if (!runs.empty() && config_.inter_segment_hop != sim::Duration::Zero() &&
      !IsReservedDevice(initiator) &&
      SegmentOf(initiator) != SegmentOfFrame(runs.first.paddr.raw >> kPageShift)) {
    cross_segment_dmas_.Increment();
    extra += config_.inter_segment_hop;
  }
  auto wire_time = sim::Duration::Nanos(
      static_cast<uint64_t>(static_cast<double>(bytes) / kLinkBytesPerNano));
  sim::SimTime start = std::max(simulator_->Now(), port.link_busy_until);
  sim::SimTime done = start + kLinkLatency + wire_time + extra;
  port.link_busy_until = done;
  if (direction == Access::kWrite) {
    dma_writes_.Increment();
    dma_bytes_written_.Increment(bytes);
    dma_write_latency_.Record(done - simulator_->Now());
  } else {
    dma_reads_.Increment();
    dma_bytes_read_.Increment(bytes);
    dma_read_latency_.Record(done - simulator_->Now());
  }
  return done;
}

bool Fabric::StartWrite(DeviceId initiator, Pasid pasid, std::span<DmaWriteSegment> segments,
                        sim::SpanId span, DmaCallback&& done) {
  Port* port = FindPort(initiator);
  LASTCPU_CHECK(port != nullptr, "DMA from unattached device %u", initiator.value());
  LASTCPU_CHECK(done != nullptr, "DMA without completion callback");
  Runs runs;
  sim::Duration walk = sim::Duration::Zero();
  uint64_t bytes = 0;
  for (const DmaWriteSegment& segment : segments) {
    Status walked = Walk(*port, pasid, segment.addr, segment.data.size(), Access::kWrite, runs,
                         walk);
    if (!walked.ok()) {
      FailDma(std::move(walked), span, std::move(done));
      return false;
    }
    bytes += segment.data.size();
  }
  sim::SimTime completion = Occupy(*port, initiator, runs, bytes, walk, Access::kWrite);
  // The segments' bytes in one buffer, in order; a lone segment's moves over.
  std::vector<uint8_t> data;
  for (DmaWriteSegment& segment : segments) {
    if (data.empty()) {
      data = std::move(segment.data);
    } else {
      data.insert(data.end(), segment.data.begin(), segment.data.end());
    }
  }
  auto land = [this, span, runs = std::move(runs), data = std::move(data),
               done = std::move(done)] {
    WriteRuns(runs, data);
    done(OkStatus());
    tracer_.EndSpan(span);
  };
  static_assert(sizeof(land) <= sim::EventFn::kInlineBytes, "DMA completion must stay inline");
  simulator_->ScheduleAt(completion, std::move(land));
  return true;
}

void Fabric::DmaWrite(DeviceId initiator, Pasid pasid, VirtAddr dst, std::vector<uint8_t> data,
                      DmaCallback done, sim::TraceContext ctx) {
  sim::SpanId span =
      tracer_.enabled()
          ? tracer_.BeginSpan("DmaWrite", ctx.span,
                              "dev=" + std::to_string(initiator.value()) +
                                  " bytes=" + std::to_string(data.size()))
          : 0;
  DmaWriteSegment segment{dst, std::move(data)};
  StartWrite(initiator, pasid, std::span(&segment, 1), span, std::move(done));
}

void Fabric::DmaWritev(DeviceId initiator, Pasid pasid, std::vector<DmaWriteSegment> segments,
                       DmaCallback done, sim::TraceContext ctx) {
  sim::SpanId span = 0;
  if (tracer_.enabled()) {
    uint64_t bytes = 0;
    for (const DmaWriteSegment& segment : segments) {
      bytes += segment.data.size();
    }
    span = tracer_.BeginSpan("DmaWritev", ctx.span,
                             "dev=" + std::to_string(initiator.value()) +
                                 " segments=" + std::to_string(segments.size()) +
                                 " bytes=" + std::to_string(bytes));
  }
  if (StartWrite(initiator, pasid, segments, span, std::move(done))) {
    dma_sg_segments_.Increment(segments.size());
  }
}

void Fabric::DmaRead(DeviceId initiator, Pasid pasid, VirtAddr src, uint64_t length,
                     DmaReadCallback done, sim::TraceContext ctx) {
  Port* port = FindPort(initiator);
  LASTCPU_CHECK(port != nullptr, "DMA from unattached device %u", initiator.value());
  LASTCPU_CHECK(done != nullptr, "DMA without completion callback");
  sim::SpanId span =
      tracer_.enabled()
          ? tracer_.BeginSpan("DmaRead", ctx.span,
                              "dev=" + std::to_string(initiator.value()) +
                                  " bytes=" + std::to_string(length))
          : 0;
  Runs runs;
  sim::Duration walk = sim::Duration::Zero();
  Status walked = Walk(*port, pasid, src, length, Access::kRead, runs, walk);
  if (!walked.ok()) {
    FailDma(std::move(walked), span, std::move(done));
    return;
  }
  sim::SimTime completion = Occupy(*port, initiator, runs, length, walk, Access::kRead);
  simulator_->ScheduleAt(completion, [this, span, runs = std::move(runs), length,
                                      done = std::move(done)] {
    std::vector<uint8_t> data(length);
    ReadRuns(runs, data);
    done(std::move(data));
    tracer_.EndSpan(span);
  });
}

AccessResult Fabric::MemWrite(DeviceId initiator, Pasid pasid, VirtAddr dst,
                              std::span<const uint8_t> data) {
  Port* port = FindPort(initiator);
  LASTCPU_CHECK(port != nullptr, "access from unattached device %u", initiator.value());
  Runs runs;
  sim::Duration cost = kMmioLatency;
  Status walked = Walk(*port, pasid, dst, data.size(), Access::kWrite, runs, cost);
  if (!walked.ok()) {
    return AccessResult{std::move(walked), cost};
  }
  WriteRuns(runs, data);
  mmio_writes_.Increment();
  return AccessResult{OkStatus(), cost};
}

AccessResult Fabric::MemRead(DeviceId initiator, Pasid pasid, VirtAddr src,
                             std::span<uint8_t> out) {
  Port* port = FindPort(initiator);
  LASTCPU_CHECK(port != nullptr, "access from unattached device %u", initiator.value());
  Runs runs;
  sim::Duration cost = kMmioLatency;
  Status walked = Walk(*port, pasid, src, out.size(), Access::kRead, runs, cost);
  if (!walked.ok()) {
    return AccessResult{std::move(walked), cost};
  }
  ReadRuns(runs, out);
  mmio_reads_.Increment();
  return AccessResult{OkStatus(), cost};
}

void Fabric::RingDoorbell(DeviceId from, DeviceId to, uint64_t value) {
  Port* port = FindPort(to);
  if (port == nullptr || !port->doorbell) {
    doorbells_dropped_.Increment();
    return;
  }
  doorbells_.Increment();
  sim::Duration latency = kDoorbellLatency;
  if (config_.inter_segment_hop != sim::Duration::Zero() && !IsReservedDevice(from) &&
      !IsReservedDevice(to) && SegmentOf(from) != SegmentOf(to)) {
    cross_segment_doorbells_.Increment();
    latency = latency + config_.inter_segment_hop;
  }
  int copies = 1;
  if (faults_ != nullptr) {
    sim::FaultDecision fault = faults_->Decide();
    if (fault.drop) {
      // Doorbells are edge-triggered with no acknowledgement: a lost one is
      // simply lost, and the receiver's poll backstop must catch the work.
      doorbells_faulted_.Increment();
      return;
    }
    latency = latency + fault.extra_delay;
    if (fault.reorder) {
      // A held doorbell is indistinguishable from a late one.
      latency = latency + faults_->plan().reorder_window;
    }
    if (fault.duplicate) {
      copies = 2;
    }
  }
  for (int i = 0; i < copies; ++i) {
    simulator_->Schedule(latency, [this, from, to, value] {
      // Re-resolve: the target may have detached (device failure) in flight.
      Port* target = FindPort(to);
      if (target != nullptr && target->doorbell) {
        target->doorbell(from, value);
      } else {
        doorbells_dropped_.Increment();
      }
    });
  }
}

DoorbellBatcher::DoorbellBatcher(Fabric* fabric, DeviceId from)
    : fabric_(fabric), from_(from) {
  LASTCPU_CHECK(fabric != nullptr, "doorbell batcher needs a fabric");
}

DoorbellBatcher::~DoorbellBatcher() { CancelPending(); }

void DoorbellBatcher::CancelPending() {
  // Each entry's ScopedEvent cancels its trailing flush on destruction.
  pending_.clear();
}

void DoorbellBatcher::Ring(DeviceId to, uint64_t value) {
  sim::Duration window = fabric_->config().batch_window;
  if (window == sim::Duration::Zero()) {
    fabric_->RingDoorbell(from_, to, value);
    return;
  }
  auto key = std::make_pair(to, value);
  auto it = pending_.find(key);
  if (it != pending_.end()) {
    // Suppressed: the trailing doorbell at window close covers this ring.
    ++it->second.merged;
    ++coalesced_;
    fabric_->doorbells_coalesced_.Increment();
    return;
  }
  // Leading edge goes out immediately — a lone doorbell pays no extra
  // latency; only bursts are merged.
  fabric_->RingDoorbell(from_, to, value);
  sim::EventId flush =
      fabric_->simulator()->Schedule(window, [this, to, value, key] {
        auto pending_it = pending_.find(key);
        if (pending_it == pending_.end()) {
          return;
        }
        uint64_t merged = pending_it->second.merged;
        // Erasing the entry Cancel()s the flush id — a clean miss, since the
        // flush is the event currently executing.
        pending_.erase(pending_it);
        if (merged > 0) {
          fabric_->RingDoorbell(from_, to, value);
        }
      });
  Pending pending;
  pending.flush = sim::ScopedEvent(fabric_->simulator(), flush);
  pending_.emplace(key, std::move(pending));
}

}  // namespace lastcpu::fabric

#include "src/bus/system_bus.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"
#include "src/proto/codec.h"

namespace lastcpu::bus {

// Per-message wire latency: base + size / bandwidth.
constexpr sim::Duration kBaseLatency = sim::Duration::Nanos(250);
constexpr double kBytesPerNano = 2.0;  // ~2 GB/s management bus; it need not be fast
// Per-entry increment of a table update, for large map batches.
constexpr sim::Duration kPerEntryLatency = sim::Duration::Nanos(15);
// During an inter-segment partition, cross-segment responses and one-ways
// are held in the router's egress buffer and flushed at heal; at most this
// many may be parked at once (overflow is dropped, counted). Requests are
// never queued — they fail fast with kPartitioned so callers can retry
// against segment-local resources instead of blocking.
constexpr uint32_t kPartitionQueueLimit = 32;

void BusPort::Send(proto::Message message) { bus_->SendFromPort(id_, std::move(message)); }

SystemBus::SystemBus(sim::Simulator* simulator, BusConfig config, sim::TraceLog* trace)
    : simulator_(simulator),
      config_(config),
      tracer_(trace, simulator, "bus"),
      supervisor_(simulator, config.restart_policy, &tracer_, &stats_) {
  LASTCPU_CHECK(simulator != nullptr, "bus needs a simulator");
  if (config_.segments == 0) {
    config_.segments = 1;
  }
  segment_counters_.resize(config_.segments);
  supervisor_.SetHooks({
      .pulse_reset = [this](DeviceId device) { PulseReset(device); },
      .quarantine = [this](DeviceId device, const std::string& reason) {
        QuarantineDevice(device, reason);
      },
      .defer = nullptr,  // bus hardware takes every decision at once
  });
  if (config_.heartbeat_timeout > sim::Duration::Zero()) {
    simulator_->SchedulePeriodic(config_.heartbeat_timeout / 2, [this] { WatchdogSweep(); });
  }
}

void SystemBus::WatchdogSweep() {
  std::vector<DeviceId> dead;
  for (const auto& [id, endpoint] : endpoints_) {
    if (!endpoint.liveness.alive || !endpoint.liveness.heartbeats_seen) {
      continue;
    }
    sim::SimTime last_seen =
        std::max(endpoint.liveness.last_heartbeat, endpoint.liveness.alive_since);
    if (simulator_->Now() > last_seen + config_.heartbeat_timeout) {
      dead.push_back(id);
    }
  }
  for (DeviceId id : dead) {
    stats_.GetCounter("watchdog_failures").Increment();
    Trace("watchdog", "device " + std::to_string(id.value()) + " missed heartbeats");
    ReportDeviceFailure(id);
  }
}

void SystemBus::Trace(std::string_view event, std::string_view detail, sim::SpanId span) {
  tracer_.Instant(event, detail, span);
}

SystemBus::Endpoint* SystemBus::FindEndpoint(DeviceId device) {
  auto it = endpoints_.find(device);
  return it == endpoints_.end() ? nullptr : &it->second;
}

uint32_t SystemBus::SegmentIndex(DeviceId device) const {
  uint32_t segment = SegmentOf(device);
  return segment < config_.segments ? segment : config_.segments - 1;
}

DeviceId SystemBus::ShardForVaddr(VirtAddr vaddr) const {
  for (const auto& shard : shard_directory_) {
    if (vaddr.raw >= shard.va_base && (shard.va_limit == 0 || vaddr.raw < shard.va_limit)) {
      return shard.device;
    }
  }
  return memory_controller_;
}

bool SystemBus::IsShardController(DeviceId device) const {
  for (const auto& shard : shard_directory_) {
    if (shard.device == device) {
      return true;
    }
  }
  return false;
}

BusPort* SystemBus::Attach(DeviceId device, std::string name, Receiver receiver,
                           iommu::Iommu* iommu) {
  LASTCPU_CHECK(!endpoints_.contains(device), "device %u attached twice", device.value());
  LASTCPU_CHECK(receiver != nullptr, "device %u attached without receiver", device.value());
  Endpoint endpoint;
  endpoint.name = name;
  endpoint.receiver = std::move(receiver);
  endpoint.iommu = iommu;
  endpoint.port.reset(new BusPort(this, device));
  endpoint.liveness.name = std::move(name);
  endpoint.liveness.attached_at = simulator_->Now();
  auto [it, inserted] = endpoints_.emplace(device, std::move(endpoint));
  (void)inserted;
  Trace("attach", it->second.name);
  return it->second.port.get();
}

void SystemBus::Detach(DeviceId device) {
  if (memory_controller_ == device) {
    memory_controller_ = DeviceId::Invalid();
  }
  supervisor_.OnDetach(device);
  endpoints_.erase(device);
}

bool SystemBus::IsAlive(DeviceId device) const {
  auto it = endpoints_.find(device);
  return it != endpoints_.end() && it->second.liveness.alive;
}

std::map<DeviceId, LivenessEntry> SystemBus::LivenessSnapshot() const {
  std::map<DeviceId, LivenessEntry> out;
  for (const auto& [id, endpoint] : endpoints_) {
    out.emplace(id, endpoint.liveness);
  }
  return out;
}

void SystemBus::SendFromPort(DeviceId src, proto::Message message) {
  Endpoint* endpoint = FindEndpoint(src);
  LASTCPU_CHECK(endpoint != nullptr, "send from detached device %u", src.value());
  // The port is the identity: stamp src so devices cannot spoof each other.
  message.src = src;

  if (send_observer_) {
    send_observer_(src, message);
  }

  messages_sent_.Increment();
  size_t wire_bytes = proto::EncodedSize(message);
  bytes_sent_.Increment(wire_bytes);

  auto wire_time = kBaseLatency +
                   sim::Duration::Nanos(static_cast<uint64_t>(
                       static_cast<double>(wire_bytes) / kBytesPerNano));
  sim::SimTime start = std::max(simulator_->Now(), endpoint->tx_busy_until);
  sim::SimTime arrival = start + wire_time;
  endpoint->tx_busy_until = arrival;
  wire_latency_.Record(arrival - simulator_->Now());

  // Fault injection covers the switched device-to-device paths; the
  // management ring to the bus controller itself stays fault-free.
  if (faults_ != nullptr && message.dst != kBusDevice) {
    sim::FaultDecision fault = faults_->Decide();
    if (fault.drop) {
      stats_.GetCounter("faults_dropped").Increment();
      // The wire terminally consumes the message: close its flow here.
      tracer_.FlowReceive(proto::MessageTypeName(message.type()), message.trace.flow,
                          message.trace.span);
      return;
    }
    if (fault.extra_delay > sim::Duration::Zero()) {
      stats_.GetCounter("faults_delayed").Increment();
      arrival = arrival + fault.extra_delay;
    }
    if (fault.duplicate) {
      stats_.GetCounter("faults_duplicated").Increment();
      proto::Message copy = message;
      simulator_->ScheduleAt(
          arrival, [this, copy = std::move(copy)]() mutable { Route(std::move(copy)); });
    }
    if (fault.reorder) {
      stats_.GetCounter("faults_reordered").Increment();
      ReleaseHeld(arrival);  // one hold slot: an older captive goes out first
      held_message_ = std::move(message);
      held_backstop_ =
          simulator_->ScheduleAt(arrival + faults_->plan().reorder_window, [this] {
            if (!held_message_.has_value()) {
              return;
            }
            proto::Message held = std::move(*held_message_);
            held_message_.reset();
            Route(std::move(held));
          });
      return;
    }
  }
  // Any message passing through overtakes a reorder-held one: release it to
  // land just after this arrival.
  if (held_message_.has_value()) {
    ReleaseHeld(arrival + sim::Duration::Nanos(1));
  }

  simulator_->ScheduleAt(
      arrival, [this, message = std::move(message)]() mutable { Route(std::move(message)); });
}

void SystemBus::ReleaseHeld(sim::SimTime at) {
  if (!held_message_.has_value()) {
    return;
  }
  simulator_->Cancel(held_backstop_);
  proto::Message held = std::move(*held_message_);
  held_message_.reset();
  simulator_->ScheduleAt(
      at, [this, held = std::move(held)]() mutable { Route(std::move(held)); });
}

void SystemBus::Route(proto::Message message) {
  if (message.dst == kBusDevice) {
    HandleBusMessage(std::move(message));
    return;
  }
  if (message.dst == kBroadcastDevice) {
    stats_.GetCounter("broadcasts").Increment();
    // Deterministic delivery order: ascending device id.
    std::vector<DeviceId> targets;
    targets.reserve(endpoints_.size());
    for (const auto& [id, endpoint] : endpoints_) {
      if (id != message.src && endpoint.liveness.alive) {
        targets.push_back(id);
      }
    }
    std::sort(targets.begin(), targets.end());
    for (DeviceId id : targets) {
      proto::Message copy = message;
      copy.dst = id;
      broadcast_msgs_.Increment();
      if (config_.segments > 1) {
        segment_counters_[SegmentIndex(id)].broadcast_copies++;
      }
      DeliverRouted(std::move(copy), /*from_broadcast=*/true);
    }
    return;
  }
  Endpoint* target = FindEndpoint(message.dst);
  if (target == nullptr || !target->liveness.alive) {
    stats_.GetCounter("undeliverable").Increment();
    // The bus terminally consumes the message: close its flow here.
    tracer_.FlowReceive(proto::MessageTypeName(message.type()), message.trace.flow,
                        message.trace.span);
    // Bounce an error so the requester does not hang on a dead device.
    if (message.request_id.valid()) {
      proto::Message bounce = proto::MakeError(message, kBusDevice,
                                               Unavailable("destination not alive"));
      DeliverTraced(std::move(bounce), message.trace.span);
    }
    return;
  }
  DeliverRouted(std::move(message));
}

void SystemBus::DeliverTraced(proto::Message message, sim::SpanId parent) {
  if (tracer_.enabled()) {
    message.trace.span = parent;
    message.trace.flow = tracer_.FlowSend(proto::MessageTypeName(message.type()), parent);
  }
  Deliver(std::move(message));
}

void SystemBus::DeliverRouted(proto::Message message, bool from_broadcast) {
  if (config_.segments > 1) {
    uint32_t dst_segment = SegmentIndex(message.dst);
    if (!IsReservedDevice(message.src) && SegmentIndex(message.src) != dst_segment) {
      uint32_t src_segment = SegmentIndex(message.src);
      if (faults_ != nullptr &&
          faults_->PartitionActive(src_segment, dst_segment, simulator_->Now())) {
        HandlePartitioned(std::move(message), src_segment, dst_segment, from_broadcast);
        return;
      }
      segment_counters_[src_segment].routed_out++;
      segment_counters_[dst_segment].routed_in++;
      simulator_->Schedule(
          kInterSegmentLatency,
          [this, message = std::move(message)]() mutable { Deliver(std::move(message)); });
      return;
    }
    segment_counters_[dst_segment].delivered_local++;
  }
  Deliver(std::move(message));
}

void SystemBus::HandlePartitioned(proto::Message message, uint32_t src_segment,
                                  uint32_t dst_segment, bool from_broadcast) {
  // Segment-local traffic never reaches here: only the inter-segment hop is
  // severed. Requests fail fast with the distinct kPartitioned status so the
  // sender can spill to segment-local resources instead of burning a timeout.
  bool is_request =
      !from_broadcast && message.request_id.valid() && !proto::IsResponse(message.type());
  if (is_request) {
    stats_.GetCounter("partition_fail_fast").Increment();
    tracer_.FlowReceive(proto::MessageTypeName(message.type()), message.trace.flow,
                        message.trace.span);
    proto::Message bounce = proto::MakeError(
        message, kBusDevice,
        Partitioned("segment " + std::to_string(dst_segment) + " unreachable"));
    DeliverTraced(std::move(bounce), message.trace.span);
    return;
  }
  // Responses, one-ways, and broadcast copies: park in the router's bounded
  // egress buffer until the partition's deterministic heal time. Broadcast
  // copies and overflow are dropped — fan-out senders expect no reply, and a
  // real router buffer is finite.
  sim::SimTime heal = faults_->PartitionHealTime(src_segment, dst_segment, simulator_->Now());
  if (from_broadcast || heal == sim::SimTime::Max() ||
      partition_held_ >= kPartitionQueueLimit) {
    stats_.GetCounter("partition_dropped").Increment();
    tracer_.FlowReceive(proto::MessageTypeName(message.type()), message.trace.flow,
                        message.trace.span);
    return;
  }
  ++partition_held_;
  stats_.GetCounter("partition_queued").Increment();
  Trace("partition-hold", std::string(proto::MessageTypeName(message.type())) + " until heal");
  simulator_->ScheduleAt(heal, [this, message = std::move(message)]() mutable {
    --partition_held_;
    stats_.GetCounter("partition_released").Increment();
    // Re-enters routing: pays the hop now, and re-parks if another partition
    // window already covers the healed pair.
    DeliverRouted(std::move(message));
  });
}

void SystemBus::DeliverTracedRouted(proto::Message message, sim::SpanId parent,
                                    bool from_broadcast) {
  if (tracer_.enabled()) {
    message.trace.span = parent;
    message.trace.flow = tracer_.FlowSend(proto::MessageTypeName(message.type()), parent);
  }
  DeliverRouted(std::move(message), from_broadcast);
}

void SystemBus::Deliver(proto::Message message) {
  Endpoint* target = FindEndpoint(message.dst);
  if (target == nullptr) {
    stats_.GetCounter("undeliverable").Increment();
    tracer_.FlowReceive(proto::MessageTypeName(message.type()), message.trace.flow,
                        message.trace.span);
    return;
  }
  messages_delivered_.Increment();
  if (tracer_.enabled()) {
    Trace("deliver", std::string(proto::MessageTypeName(message.type())) + " -> " + target->name);
  }
  target->receiver(std::move(message));
}

void SystemBus::HandleBusMessage(proto::Message message) {
  // Map directives and teardowns bind their flow receives to the handling
  // spans they open below; every other bus-destined message terminates its
  // flow here so senders never see a dangling arrow.
  if (message.type() != proto::MessageType::kMapDirective &&
      message.type() != proto::MessageType::kTeardownApp) {
    tracer_.FlowReceive(proto::MessageTypeName(message.type()), message.trace.flow,
                        message.trace.span);
  }
  switch (message.type()) {
    case proto::MessageType::kAliveAnnounce: {
      Endpoint* endpoint = FindEndpoint(message.src);
      if (endpoint == nullptr) {
        return;
      }
      if (endpoint->liveness.quarantined) {
        // A quarantined device already broadcast its permanent failure; a
        // late self-test completion must not resurrect it behind everyone's
        // back. The silicon stays powered but off the bus.
        stats_.GetCounter("quarantined_announces_rejected").Increment();
        Trace("alive-rejected", endpoint->liveness.name + " is quarantined");
        return;
      }
      const auto& announce = message.As<proto::AliveAnnounce>();
      endpoint->liveness.alive = true;
      endpoint->liveness.failed = false;
      endpoint->liveness.alive_since = simulator_->Now();
      endpoint->liveness.last_heartbeat = simulator_->Now();
      if (!announce.device_name.empty()) {
        endpoint->liveness.name = announce.device_name;
      }
      // A device announcing a memory service becomes the memory resource
      // controller the bus consults for mapping authorization.
      for (const auto& service : announce.services) {
        if (service.type == proto::ServiceType::kMemory) {
          memory_controller_ = message.src;
        }
      }
      supervisor_.OnAlive(message.src);
      stats_.GetCounter("alive_announcements").Increment();
      Trace("alive", endpoint->liveness.name);
      return;
    }
    case proto::MessageType::kMapDirective: {
      // Privileged: only a controller of the resource may direct mappings —
      // the flat controller or any registered shard.
      if (message.src != memory_controller_ && !IsShardController(message.src)) {
        stats_.GetCounter("rejected_directives").Increment();
        tracer_.FlowReceive(proto::MessageTypeName(message.type()), message.trace.flow,
                            message.trace.span);
        Trace("map-rejected", "src is not the memory controller");
        proto::Message error =
            proto::MakeError(message, kBusDevice,
                             PermissionDenied("only the resource controller may direct mappings"));
        DeliverTraced(std::move(error), message.trace.span);
        return;
      }
      const auto& directive = message.As<proto::MapDirective>();
      // Epoch fence: a directive stamped with an epoch older than the shard's
      // latest announce is a pre-failover straggler — executing it would let
      // a superseded controller program translations behind the successor's
      // back. Flat controllers never announce an epoch and are never fenced.
      auto fence = shard_epochs_.find(message.src);
      if (fence != shard_epochs_.end() && directive.epoch < fence->second) {
        stats_.GetCounter("stale_directives_fenced").Increment();
        tracer_.FlowReceive(proto::MessageTypeName(message.type()), message.trace.flow,
                            message.trace.span);
        Trace("map-fenced", "directive epoch " + std::to_string(directive.epoch) +
                                " < shard epoch " + std::to_string(fence->second));
        proto::Message error = proto::MakeError(
            message, kBusDevice, FailedPrecondition("stale shard epoch"));
        DeliverTraced(std::move(error), message.trace.span);
        return;
      }
      // The directive's span covers queueing on the table engine plus the
      // update itself, causally under the controller's handling span.
      sim::SpanId span = 0;
      if (tracer_.enabled()) {
        span = tracer_.BeginSpan(directive.unmap ? "UnmapDirective" : "MapDirective",
                                 message.trace.span,
                                 "target=" + std::to_string(directive.target.value()) +
                                     " entries=" + std::to_string(directive.entries.size()));
        tracer_.FlowReceive(proto::MessageTypeName(message.type()), message.trace.flow, span);
      }
      // Table updates serialize on the bus's single update engine.
      auto cost = config_.table_update_latency +
                  kPerEntryLatency * static_cast<uint64_t>(directive.entries.size());
      sim::SimTime start = std::max(simulator_->Now(), table_engine_busy_until_);
      sim::SimTime done = start + cost;
      table_engine_busy_until_ = done;
      table_update_latency_->Record(done - simulator_->Now());
      simulator_->ScheduleAt(done, [this, m = std::move(message), span] {
        ExecuteMapDirective(m, span);
      });
      return;
    }
    case proto::MessageType::kGrantRequest:
    case proto::MessageType::kRevokeRequest:
    case proto::MessageType::kMemFreeRequest: {
      // Mechanism, not policy: authorization belongs to the resource
      // controller. The owning shard is a pure function of the virtual
      // address (each shard bump-allocates in its own VA slab), so the bus
      // routes by address with no per-allocation state.
      VirtAddr vaddr;
      switch (message.type()) {
        case proto::MessageType::kGrantRequest:
          vaddr = message.As<proto::GrantRequest>().vaddr;
          break;
        case proto::MessageType::kRevokeRequest:
          vaddr = message.As<proto::RevokeRequest>().vaddr;
          break;
        default:
          vaddr = message.As<proto::MemFreeRequest>().vaddr;
          break;
      }
      DeviceId controller = ShardForVaddr(vaddr);
      if (!controller.valid() || !IsAlive(controller)) {
        proto::Message error =
            proto::MakeError(message, kBusDevice, Unavailable("no memory controller"));
        DeliverTraced(std::move(error), message.trace.span);
        return;
      }
      message.dst = controller;
      forwarded_to_controller_->Increment();
      DeliverRouted(std::move(message));
      return;
    }
    case proto::MessageType::kMemShardAnnounce: {
      const auto& announce = message.As<proto::MemShardAnnounce>();
      if (announce.shard.device != message.src) {
        stats_.GetCounter("rejected_shard_announcements").Increment();
        return;
      }
      shard_epochs_[announce.shard.device] = announce.shard.epoch;
      // Records are keyed by VA slab, not device: after a takeover one device
      // may own several slabs, and a re-announce must refresh its own slab
      // without clobbering adopted ones.
      auto it = std::find_if(shard_directory_.begin(), shard_directory_.end(),
                             [&](const proto::ShardRecord& shard) {
                               return shard.va_base == announce.shard.va_base;
                             });
      if (it != shard_directory_.end()) {
        *it = announce.shard;  // idempotent re-registration after a restart
      } else {
        shard_directory_.push_back(announce.shard);
      }
      // Every slab this device owns fences at its freshest epoch.
      for (auto& shard : shard_directory_) {
        if (shard.device == announce.shard.device) {
          shard.epoch = announce.shard.epoch;
        }
      }
      std::sort(shard_directory_.begin(), shard_directory_.end(),
                [](const proto::ShardRecord& a, const proto::ShardRecord& b) {
                  return a.va_base < b.va_base;
                });
      stats_.GetCounter("shard_announcements").Increment();
      Trace("shard-announce",
            "device=" + std::to_string(announce.shard.device.value()) +
                " segment=" + std::to_string(announce.shard.segment));
      return;
    }
    case proto::MessageType::kShardDirectoryRequest: {
      // Unicast discovery: one request, one response — no O(N) broadcast.
      proto::ShardDirectoryResponse response;
      if (!shard_directory_.empty()) {
        response.shards = shard_directory_;
      } else if (memory_controller_.valid()) {
        // Flat machine: synthesize a single all-covering record.
        response.shards.push_back(proto::ShardRecord{memory_controller_, 0, 0, 0, 0});
      }
      DeliverTraced(proto::MakeResponse(message, kBusDevice, std::move(response)),
                    message.trace.span);
      return;
    }
    case proto::MessageType::kHeartbeat: {
      Endpoint* endpoint = FindEndpoint(message.src);
      if (endpoint == nullptr) {
        return;
      }
      if (!endpoint->liveness.alive) {
        // A heartbeat already on the wire when the device was declared failed
        // must not freshen the record — only a full alive announce (i.e. a
        // completed self-test) brings a device back.
        stats_.GetCounter("stale_heartbeats_ignored").Increment();
        return;
      }
      endpoint->liveness.last_heartbeat = simulator_->Now();
      endpoint->liveness.heartbeats_seen = true;
      heartbeats_.Increment();
      return;
    }
    case proto::MessageType::kTeardownApp: {
      // Lifecycle: tell every device to drop the application's contexts; the
      // memory controller additionally frees its allocations (and issues the
      // unmap directives).
      const auto& teardown = message.As<proto::TeardownApp>();
      sim::SpanId span =
          tracer_.BeginSpan("TeardownApp", message.trace.span,
                            "pasid=" + std::to_string(teardown.pasid.value()));
      tracer_.FlowReceive(proto::MessageTypeName(message.type()), message.trace.flow, span);
      Trace("teardown", "pasid=" + std::to_string(teardown.pasid.value()), span);
      for (auto& [id, endpoint] : endpoints_) {
        if (endpoint.liveness.alive) {
          proto::Message copy = message;
          copy.dst = id;
          broadcast_msgs_.Increment();
          if (config_.segments > 1) {
            segment_counters_[SegmentIndex(id)].broadcast_copies++;
          }
          DeliverTracedRouted(std::move(copy), span, /*from_broadcast=*/true);
        }
      }
      tracer_.EndSpan(span);
      return;
    }
    default:
      stats_.GetCounter("unhandled_bus_messages").Increment();
      if (message.request_id.valid()) {
        proto::Message error = proto::MakeError(
            message, kBusDevice, Unimplemented("bus does not handle this message type"));
        DeliverTraced(std::move(error), message.trace.span);
      }
      return;
  }
}

void SystemBus::ExecuteMapDirective(const proto::Message& message, sim::SpanId span) {
  const auto& directive = message.As<proto::MapDirective>();
  Endpoint* target = FindEndpoint(directive.target);
  if (target == nullptr || target->iommu == nullptr) {
    proto::Message error =
        proto::MakeError(message, kBusDevice, NotFound("map target not attached"));
    DeliverTraced(std::move(error), span);
    tracer_.EndSpan(span);
    return;
  }
  iommu::ProgrammingKey key;  // only the bus can mint this
  Status status = OkStatus();
  for (const auto& entry : directive.entries) {
    if (directive.unmap) {
      status = target->iommu->Unmap(key, directive.pasid, entry.vpage);
    } else {
      status = target->iommu->Map(key, directive.pasid, entry.vpage, entry.pframe, entry.access);
    }
    if (!status.ok()) {
      break;
    }
  }
  (directive.unmap ? unmap_directives_ : map_directives_)->Increment();
  pages_programmed_->Increment(directive.entries.size());
  if (tracer_.enabled()) {
    Trace(directive.unmap ? "unmap" : "map",
          "target=" + target->name + " pages=" + std::to_string(directive.entries.size()), span);
  }
  if (status.ok()) {
    DeliverTraced(proto::MakeResponse(message, kBusDevice,
                                      proto::MapConfirm{directive.target, directive.pasid}),
                  span);
  } else {
    DeliverTraced(proto::MakeError(message, kBusDevice, status), span);
  }
  tracer_.EndSpan(span);
}

void SystemBus::AdminSend(proto::Message message) {
  message.src = kBusDevice;
  stats_.GetCounter("admin_messages").Increment();
  simulator_->Schedule(kBaseLatency, [this, message = std::move(message)]() mutable {
    Route(std::move(message));
  });
}

void SystemBus::ReportDeviceFailure(DeviceId device) {
  Endpoint* failed = FindEndpoint(device);
  if (failed == nullptr) {
    return;
  }
  // One broadcast and one supervised restart episode per failure: a second
  // report for a device that has not come back (e.g. watchdog sweep racing an
  // explicit report, or a crash harness re-killing dead silicon) is a no-op.
  if (failed->liveness.failed || failed->liveness.quarantined) {
    stats_.GetCounter("duplicate_failure_reports").Increment();
    return;
  }
  failed->liveness.failed = true;
  failed->liveness.alive = false;
  // A failing resource controller concerns the whole machine: every consumer
  // must drop cached state (magazines, directories), not just its neighbors.
  bool controller_failed = memory_controller_ == device || IsShardController(device);
  if (memory_controller_ == device) {
    memory_controller_ = DeviceId::Invalid();
  }
  // Scrub the failed device's translations: its restarted firmware must not
  // inherit access to application memory it no longer legitimately holds.
  if (failed->iommu != nullptr) {
    iommu::ProgrammingKey key;
    failed->iommu->Reset(key);
  }
  stats_.GetCounter("device_failures").Increment();
  Trace("device-failed", failed->name);

  // Notify surviving devices (Sec. 4).
  NotifyFailure(device, controller_failed, proto::DeviceFailed{device});
  // The supervisor decides when (and how often) to pulse the reset line.
  supervisor_.OnFailure(device, failed->name);
}

void SystemBus::NotifyFailure(DeviceId device, bool controller_failed,
                              const proto::Payload& payload) {
  // On a flat bus that is everyone; on a segmented rack the notice stays in
  // the failed device's broadcast domain — plus every resource controller
  // machine-wide, so cross-segment grants are still reclaimed — unless a
  // controller itself failed, which concerns the whole machine.
  uint32_t failed_segment = SegmentIndex(device);
  for (auto& [id, endpoint] : endpoints_) {
    if (id == device || !endpoint.liveness.alive) {
      continue;
    }
    bool cross_segment = config_.segments > 1 && SegmentIndex(id) != failed_segment;
    if (cross_segment && !controller_failed && id != memory_controller_ &&
        !IsShardController(id)) {
      stats_.GetCounter("failure_notices_suppressed").Increment();
      continue;
    }
    proto::Message notice;
    notice.src = kBusDevice;
    notice.dst = id;
    notice.payload = payload;
    broadcast_msgs_.Increment();
    if (config_.segments > 1) {
      segment_counters_[SegmentIndex(id)].broadcast_copies++;
    }
    auto delay =
        cross_segment ? kBaseLatency + kInterSegmentLatency : kBaseLatency;
    simulator_->Schedule(delay, [this, notice = std::move(notice)]() mutable {
      DeliverTraced(std::move(notice), 0);
    });
  }
}

void SystemBus::PulseReset(DeviceId device) {
  proto::Message reset;
  reset.src = kBusDevice;
  reset.dst = device;
  reset.payload = proto::ResetSignal{};
  stats_.GetCounter("reset_pulses").Increment();
  // The reset line bypasses normal routing: dead silicon is not "alive" on
  // the bus, but the line is wired straight to the device.
  simulator_->Schedule(kBaseLatency, [this, reset = std::move(reset), device]() mutable {
    Endpoint* endpoint = FindEndpoint(device);
    if (endpoint != nullptr) {
      endpoint->receiver(std::move(reset));
    }
  });
}

void SystemBus::QuarantineDevice(DeviceId device, const std::string& reason) {
  Endpoint* failed = FindEndpoint(device);
  if (failed == nullptr) {
    return;
  }
  failed->liveness.quarantined = true;
  failed->liveness.alive = false;
  Trace("device-quarantined", failed->name + ": " + reason);
  // Terminal notice: consumers stop retrying, resource controllers reclaim
  // everything the device owned or was granted. Scoped like DeviceFailed:
  // segment-local on a rack, plus controllers machine-wide (they may hold
  // cross-segment grants from the dead device), and machine-wide when the
  // quarantined device is itself a controller.
  NotifyFailure(device, memory_controller_ == device || IsShardController(device),
                proto::DevicePermanentlyFailed{device, reason});
  // Shard takeover: repoint every VA slab the quarantined shard owned at the
  // first surviving shard (directory order = ascending va_base). The
  // successor rebuilds the slab's allocation and grant tables from client
  // lease re-assertion; dropping the dead device from shard_epochs_ means any
  // of its directives still in flight fail the controller permission check.
  if (IsShardController(device)) {
    shard_epochs_.erase(device);
    DeviceId successor = DeviceId::Invalid();
    for (const auto& shard : shard_directory_) {
      if (shard.device == device) {
        continue;
      }
      Endpoint* candidate = FindEndpoint(shard.device);
      if (candidate != nullptr && !candidate->liveness.quarantined) {
        successor = shard.device;
        break;
      }
    }
    if (successor.valid()) {
      auto epoch_it = shard_epochs_.find(successor);
      uint64_t epoch = epoch_it == shard_epochs_.end() ? 0 : epoch_it->second;
      for (auto& shard : shard_directory_) {
        if (shard.device == device) {
          shard.device = successor;
          shard.epoch = epoch;
          stats_.GetCounter("shard_takeovers").Increment();
          Trace("shard-takeover",
                "va_base=" + std::to_string(shard.va_base) +
                    " -> device " + std::to_string(successor.value()));
        }
      }
    } else {
      // No surviving shard: the slabs go dark until one attaches and
      // re-announces. Requests route to an invalid controller and bounce.
      std::erase_if(shard_directory_, [device](const proto::ShardRecord& shard) {
        return shard.device == device;
      });
    }
  }
}

}  // namespace lastcpu::bus

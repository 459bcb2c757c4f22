// The system management bus: the control plane of the CPU-less machine
// (paper Sec. 2.2).
//
// The bus is a privileged hardware message switch. It:
//   * routes unicast control messages between devices and broadcasts
//     discovery messages (SSDP/USB-attach style);
//   * records which devices are alive (and nothing else — "no entity sees the
//     entire system and there is no global state replication");
//   * performs the only privileged operation in the machine: programming a
//     device's IOMMU, and only when instructed to by the controller of the
//     resource being mapped (MapDirective from the memory controller);
//   * forwards authorization-required requests (grant/revoke/teardown) to the
//     resource controller — the bus supplies mechanism, never policy;
//   * on device failure, notifies every other device and pulses the failed
//     device's reset line (Sec. 4).
//
// Cost model: routing is crossbar-parallel (each source port serializes its
// own sends), while privileged table updates serialize on the bus's single
// table-update engine — it is simple hardware, which is the paper's point.
#ifndef SRC_BUS_SYSTEM_BUS_H_
#define SRC_BUS_SYSTEM_BUS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/bus/device_supervisor.h"
#include "src/iommu/iommu.h"
#include "src/proto/message.h"
#include "src/sim/fault.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace lastcpu::bus {

struct BusConfig {
  // Cost of one privileged table update (IOMMU map/unmap entry batch), before
  // its per-entry increment.
  sim::Duration table_update_latency = sim::Duration::Nanos(120);
  // Watchdog: an alive, heartbeat-participating device whose last heartbeat
  // is older than this is declared failed. Zero disables monitoring. Devices
  // opt in by sending heartbeats at a period comfortably below the timeout.
  sim::Duration heartbeat_timeout = sim::Duration::Zero();
  // Restart policy applied by the device supervisor on failure reports (see
  // device_supervisor.h). Defaults supervise; max_restart_attempts = 0 keeps
  // the original single-pulse fire-and-forget behaviour.
  RestartPolicy restart_policy;
  // --- rack topology ---
  // Number of chassis ("bus segments"). 1 = the classic flat machine: no
  // router, no scoping, bit-identical to the pre-rack bus. A device's segment
  // is the high bits of its id (see SegmentOf in base/types.h).
  uint32_t segments = 1;
};

// Per-hop latency through the inter-segment router, paid by any message whose
// source and destination devices sit on different segments. Traffic to the
// bus controller itself rides the management ring (the bus has a presence on
// every segment) and never pays it.
inline constexpr sim::Duration kInterSegmentLatency = sim::Duration::Nanos(400);

// Per-segment traffic accounting (only meaningful when segments > 1).
struct SegmentCounters {
  uint64_t delivered_local = 0;   // deliveries that stayed on the segment
  uint64_t routed_out = 0;        // deliveries that left via the router
  uint64_t routed_in = 0;         // deliveries that arrived via the router
  uint64_t broadcast_copies = 0;  // broadcast/fan-out copies landing here
};

// A device's attachment point on the control plane. Obtained from
// SystemBus::Attach; all sends are stamped with the owning device's id, so a
// device cannot spoof another's identity (the port *is* the identity).
class BusPort {
 public:
  BusPort(const BusPort&) = delete;
  BusPort& operator=(const BusPort&) = delete;

  DeviceId id() const { return id_; }

  // Enqueues a control message. src is overwritten with this port's id.
  void Send(proto::Message message);

 private:
  friend class SystemBus;
  BusPort(class SystemBus* bus, DeviceId id) : bus_(bus), id_(id) {}

  class SystemBus* bus_;
  DeviceId id_;
};

// Liveness record for one attached device.
struct LivenessEntry {
  std::string name;
  bool alive = false;
  sim::SimTime attached_at;
  sim::SimTime alive_since;
  sim::SimTime last_heartbeat;
  // Devices opt into watchdog monitoring by heartbeating at least once;
  // silent (non-participating) devices are never declared dead by timeout.
  bool heartbeats_seen = false;
  // Set by ReportDeviceFailure, cleared by the next alive announce. While
  // set, further failure reports are no-ops (one broadcast + one supervised
  // episode per failure).
  bool failed = false;
  // Terminal: the supervisor gave up. A quarantined device's announces are
  // rejected; only the entry's name survives, for operators.
  bool quarantined = false;
};

class SystemBus {
 public:
  // Receivers take the message by value: the bus hands off ownership on the
  // hot path (one move, no payload copy). Lambdas written against the old
  // `const proto::Message&` signature still bind unchanged.
  using Receiver = std::function<void(proto::Message)>;

  SystemBus(sim::Simulator* simulator, BusConfig config = {}, sim::TraceLog* trace = nullptr);
  SystemBus(const SystemBus&) = delete;
  SystemBus& operator=(const SystemBus&) = delete;

  // Attaches a device. `receiver` gets every message addressed (or broadcast)
  // to it; `iommu` is the translation unit the bus programs on directives.
  // The returned port remains owned by the bus.
  BusPort* Attach(DeviceId device, std::string name, Receiver receiver, iommu::Iommu* iommu);

  // Removes a device (clean detach, no failure notifications).
  void Detach(DeviceId device);

  bool IsAttached(DeviceId device) const { return endpoints_.contains(device); }
  bool IsAlive(DeviceId device) const;

  // Administrative / fault-injection entry point: marks the device failed,
  // broadcasts DeviceFailed to all other devices, and hands the restart to
  // the supervisor (which pulses the reset line per the configured policy).
  // A report for a device already failed or quarantined is a no-op.
  void ReportDeviceFailure(DeviceId device);

  // The restart supervisor (policy state, quarantine queries).
  DeviceSupervisor& supervisor() { return supervisor_; }
  const DeviceSupervisor& supervisor() const { return supervisor_; }

  // Observer invoked on every device-originated send, after identity
  // stamping and before fault injection. Used by the crash harness to
  // trigger crash-on-Kth-message schedules; nullptr clears it.
  using SendObserver = std::function<void(DeviceId, const proto::Message&)>;
  void SetSendObserver(SendObserver observer) { send_observer_ = std::move(observer); }

  // Operator/BMC path: injects a control message that originates at the bus
  // itself (e.g. application teardown issued from a remote console). Routed
  // after one base latency.
  void AdminSend(proto::Message message);

  // Snapshot of the liveness table (for operators and tests).
  std::map<DeviceId, LivenessEntry> LivenessSnapshot() const;

  // The device currently acting as memory resource controller (announced a
  // kMemory service), or Invalid() if none. In a sharded machine this is the
  // fallback for addresses outside every shard's slab; see ShardForVaddr.
  DeviceId memory_controller() const { return memory_controller_; }

  // The registered controller shards, sorted by VA slab base (empty on a
  // flat single-controller machine).
  const std::vector<proto::ShardRecord>& shard_directory() const { return shard_directory_; }

  // Per-segment routed/local traffic counters; indexed by segment.
  const std::vector<SegmentCounters>& segment_counters() const { return segment_counters_; }

  sim::StatsRegistry& stats() { return stats_; }
  sim::Simulator* simulator() { return simulator_; }

  // Installs (or clears, with nullptr) the machine-wide fault injector. The
  // injector is consulted on every device-to-device send; traffic to the bus
  // itself (heartbeats, announces, privileged directives) travels the
  // dedicated management ring and is modeled fault-free, so liveness
  // bookkeeping stays sound while all RPC traffic is faultable.
  void SetFaultInjector(sim::FaultInjector* injector) { faults_ = injector; }

 private:
  friend class BusPort;

  struct Endpoint {
    std::string name;
    Receiver receiver;
    iommu::Iommu* iommu = nullptr;
    std::unique_ptr<BusPort> port;
    LivenessEntry liveness;
    sim::SimTime tx_busy_until;  // source-port serialization
  };

  // Entry from ports.
  void SendFromPort(DeviceId src, proto::Message message);

  // Computes wire delay and schedules delivery/processing.
  void Route(proto::Message message);

  // Delivers to one endpoint (already past the wire delay). Takes ownership;
  // the payload moves into the receiver.
  void Deliver(proto::Message message);

  // Delivers a bus-originated message: stamps its trace context (causal
  // parent `parent`, fresh flow id) before handing it to the endpoint.
  void DeliverTraced(proto::Message message, sim::SpanId parent);

  // Unicast delivery through the segment router: a cross-segment (src, dst)
  // pair pays kInterSegmentLatency and bumps the routed counters; everything
  // else (same segment, flat machine, bus-originated) delivers directly.
  // `from_broadcast` marks fan-out copies, which are silently dropped (never
  // error-bounced) when a partition severs their path.
  void DeliverRouted(proto::Message message, bool from_broadcast = false);

  // A cross-segment message hit a severed link: requests bounce kPartitioned
  // to the sender immediately; responses and one-ways park in the bounded
  // router buffer until the deterministic heal time.
  void HandlePartitioned(proto::Message message, uint32_t src_segment, uint32_t dst_segment,
                         bool from_broadcast);

  // DeliverTraced + DeliverRouted: stamp trace context, then route.
  void DeliverTracedRouted(proto::Message message, sim::SpanId parent,
                           bool from_broadcast = false);

  // The failed device's segment, clamped into [0, segments).
  uint32_t SegmentIndex(DeviceId device) const;

  // The shard whose VA slab contains `vaddr`, falling back to the flat
  // memory controller when no directory is registered.
  DeviceId ShardForVaddr(VirtAddr vaddr) const;

  bool IsShardController(DeviceId device) const;

  // Handles messages addressed to the bus itself (kBusDevice).
  void HandleBusMessage(proto::Message message);

  // Privileged: executes a MapDirective on the target's IOMMU under `span`.
  void ExecuteMapDirective(const proto::Message& message, sim::SpanId span);

  void Trace(std::string_view event, std::string_view detail, sim::SpanId span = 0);

  // Periodic watchdog sweep (armed when heartbeat_timeout > 0).
  void WatchdogSweep();

  // Supervisor hooks: deliver one reset pulse / broadcast the terminal
  // DevicePermanentlyFailed notice.
  void PulseReset(DeviceId device);
  void QuarantineDevice(DeviceId device, const std::string& reason);

  // Sends a copy of `payload`, a failure notice about `device`, to every live
  // device that must hear of it, in endpoints_ order. `controller_failed`
  // widens a rack's segment-scoped notice to the whole machine.
  void NotifyFailure(DeviceId device, bool controller_failed, const proto::Payload& payload);

  // Releases a reorder-held message so it routes at `at` (just after the
  // message that overtook it).
  void ReleaseHeld(sim::SimTime at);

  Endpoint* FindEndpoint(DeviceId device);

  sim::Simulator* simulator_;
  BusConfig config_;
  sim::Tracer tracer_;
  std::unordered_map<DeviceId, Endpoint> endpoints_;
  DeviceId memory_controller_ = DeviceId::Invalid();
  // Controller shards by VA slab, sorted by va_base (see MemShardAnnounce).
  // After a takeover, several records may name the same device (the successor
  // serves its own slab plus the adopted ones).
  std::vector<proto::ShardRecord> shard_directory_;
  // Current registration epoch per live shard device, updated on every
  // MemShardAnnounce and consulted to fence stale MapDirectives. A
  // quarantined shard is removed, so its stragglers fail the permission
  // check instead.
  std::map<DeviceId, uint64_t> shard_epochs_;
  // Cross-segment messages parked during a partition (counted against
  // kPartitionQueueLimit; each flushes itself at heal time).
  size_t partition_held_ = 0;
  std::vector<SegmentCounters> segment_counters_;
  // Serializes privileged table updates (single update engine).
  sim::SimTime table_engine_busy_until_;
  sim::StatsRegistry stats_;
  DeviceSupervisor supervisor_;
  sim::FaultInjector* faults_ = nullptr;
  SendObserver send_observer_;

  // Per-message stats, resolved once: registry references are stable for the
  // bus's lifetime, so each send/delivery pays a plain increment instead of a
  // name lookup.
  sim::Counter& messages_sent_ = stats_.GetCounter("messages_sent");
  sim::Counter& bytes_sent_ = stats_.GetCounter("bytes_sent");
  sim::Counter& messages_delivered_ = stats_.GetCounter("messages_delivered");
  sim::Counter& heartbeats_ = stats_.GetCounter("heartbeats");
  // Every delivered copy of machine-fan-out traffic (discovery broadcasts,
  // failure/quarantine notices, teardown fan-out): the honest msgs/op
  // denominator for the scalability benches.
  sim::Counter& broadcast_msgs_ = stats_.GetCounter("broadcast_msgs");
  sim::Histogram& wire_latency_ = stats_.GetHistogram("wire_latency");
  // Per-directive and per-forward stats, by handle: each enters the registry
  // at its first use, as a machine that never maps anything must not report
  // them.
  sim::LazyCounter map_directives_{&stats_, "map_directives"};
  sim::LazyCounter unmap_directives_{&stats_, "unmap_directives"};
  sim::LazyCounter pages_programmed_{&stats_, "pages_programmed"};
  sim::LazyCounter forwarded_to_controller_{&stats_, "forwarded_to_controller"};
  sim::LazyHistogram table_update_latency_{&stats_, "table_update_latency"};
  // At most one message is held for reordering at a time; it is released
  // when the next send overtakes it, or by the backstop at the end of the
  // plan's reorder window.
  std::optional<proto::Message> held_message_;
  sim::EventId held_backstop_;
};

}  // namespace lastcpu::bus

#endif  // SRC_BUS_SYSTEM_BUS_H_

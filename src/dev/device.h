// Device: base class for every self-managing hardware component.
//
// A device (paper Sec. 2.1) manages its own internal state, exposes services,
// multiplexes them into isolated instances, discovers and consumes services
// from other devices over the system bus, and handles its own errors —
// including IOMMU faults delivered to it (Sec. 4). The CPU appears nowhere.
//
// Lifecycle: PoweredOff -> (PowerOn) -> SelfTest -> Alive (announces itself
// and its services on the bus) -> [Failed -> reset pulse -> SelfTest -> ...].
#ifndef SRC_DEV_DEVICE_H_
#define SRC_DEV_DEVICE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/bus/system_bus.h"
#include "src/dev/replay_window.h"
#include "src/dev/rpc.h"
#include "src/fabric/fabric.h"
#include "src/iommu/iommu.h"
#include "src/proto/message.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace lastcpu::dev {

class Service;

// Wiring shared by all devices in one machine.
struct DeviceContext {
  sim::Simulator* simulator = nullptr;
  bus::SystemBus* bus = nullptr;
  fabric::Fabric* fabric = nullptr;
  sim::TraceLog* trace = nullptr;  // optional
};

struct DeviceConfig {
  sim::Duration self_test_duration = sim::Duration::Micros(50);
  iommu::TlbConfig tlb;
  // Liveness-proof period for the bus watchdog. Zero disables heartbeats.
  sim::Duration heartbeat_period = sim::Duration::Zero();
};

class Device {
 public:
  enum class State : uint8_t { kPoweredOff, kSelfTest, kAlive, kFailed };

  Device(DeviceId id, std::string name, const DeviceContext& context, DeviceConfig config = {});
  virtual ~Device();
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  DeviceId id() const { return id_; }
  const std::string& name() const { return name_; }
  State state() const { return state_; }
  iommu::Iommu& iommu() { return iommu_; }

  // Powers the device: runs self-test, then announces itself alive on the
  // bus with every registered service, then calls OnAlive().
  void PowerOn();

  // Fault injection: the device dies. It stops processing messages; the bus
  // must be told separately (a real bus would notice via timeouts).
  void InjectFailure();

  // Fault injection: the device's power rail drops. OnPowerLoss() runs first
  // so volatile device state (caches, queues, in-flight media ops) is torn
  // down the way real silicon loses it, then the device fails as above. A
  // later reset pulse boots it back through recovery (see OnReset overrides).
  void InjectPowerLoss();

  // Registers a service before (or after) PowerOn. If after, callers should
  // re-announce (services are also announced lazily via discovery).
  void AddService(std::unique_ptr<Service> service);
  Service* FindServiceByName(const std::string& name);

  sim::StatsRegistry& stats() { return stats_; }

  // --- client-side helpers (consuming other devices' services) -------------

  // The device's transaction layer: request/response correlation, deadlines,
  // retries, discovery, and abort-on-peer-failure all live here.
  RpcEndpoint& rpc() { return rpc_; }

  // Fire-and-forget message.
  void SendOneWay(DeviceId dst, proto::Payload payload);

  // Registers a callback invoked after the device's own failure handling
  // whenever the bus declares a peer failed. Returns a token for removal;
  // helpers with a shorter lifetime than the device (e.g. a FileClient the
  // app replaces) must remove their hook before dying.
  using PeerFailedHook = std::function<void(DeviceId)>;
  uint64_t AddPeerFailedHook(PeerFailedHook hook);
  void RemovePeerFailedHook(uint64_t token);

  // Same, but for the terminal DevicePermanentlyFailed notice: the peer was
  // quarantined by the supervisor and will never come back, so consumers
  // should stop retrying and surface unavailability instead of waiting for a
  // recovery that cannot happen.
  uint64_t AddPeerPermanentlyFailedHook(PeerFailedHook hook);
  void RemovePeerPermanentlyFailedHook(uint64_t token);

  // Observer of this device's lifecycle state transitions (PoweredOff ->
  // SelfTest -> Alive -> Failed -> ...). Used by the crash-schedule harness
  // to time kills relative to self-test; nullptr clears it.
  using StateObserver = std::function<void(State)>;
  void SetStateObserver(StateObserver observer) { state_observer_ = std::move(observer); }

  // Substrate access for service/client helpers hosted on this device.
  sim::Simulator* simulator() { return context_.simulator; }
  fabric::Fabric* fabric() { return context_.fabric; }
  const DeviceConfig& config() const { return config_; }

  // This device's tracer and the causal context of the message currently
  // being handled (span 0 outside a handler). Helpers hosted on the device —
  // services, control clients, fabric calls — use this to parent their own
  // trace activity to the in-flight operation.
  sim::Tracer& tracer() { return tracer_; }
  sim::TraceContext ActiveTraceContext() const { return sim::TraceContext{current_span_, 0}; }

  // Sends a response correlated with `request`.
  void Reply(const proto::Message& request, proto::Payload payload);
  void ReplyError(const proto::Message& request, Status status);

 protected:
  // --- hooks for concrete devices -------------------------------------------

  // Called when the device reaches Alive (load applications here).
  virtual void OnAlive() {}
  // Unhandled message kinds land here.
  virtual void OnMessage(const proto::Message& message);
  // Reset line pulsed by the bus: default re-runs self-test and re-announces.
  virtual void OnReset();
  // The power rail is dropping (InjectPowerLoss). Discard volatile state and
  // fail in-flight work; runs before the generic failure handling.
  virtual void OnPowerLoss() {}
  // Another device failed; drop instances it held, recover app logic.
  virtual void OnPeerFailed(DeviceId device);
  // Another device was quarantined (permanently failed): release anything
  // still tied to it and stop expecting it back.
  virtual void OnPeerPermanentlyFailed(DeviceId device);
  // An application is being torn down.
  virtual void OnTeardown(Pasid pasid);
  // IOMMU fault delivered to this device (Sec. 4 error handling).
  virtual void OnFault(const iommu::FaultInfo& fault);
  // Doorbell rung by another device on the data plane.
  virtual void OnDoorbell(DeviceId from, uint64_t value) {
    (void)from;
    (void)value;
  }
  // Notify message on the control plane.
  virtual void OnNotify(const proto::Message& message) { (void)message; }

  // Announce (again) on the bus; used after reset.
  void AnnounceAlive();

  // A trace instant under the current handling span. Callers that build
  // `detail` should do so only while tracer().enabled().
  void TraceEvent(std::string_view event, std::string_view detail = {});

  bus::SystemBus* bus_handle() { return context_.bus; }

 private:
  // Receives every bus message; applies firmware processing delay then
  // dispatches.
  void ReceiveFromBus(proto::Message message);
  // Dispatches under handling span `span` (opened at arrival, closed when
  // dispatch completes, so it covers firmware queue wait + processing). A
  // response moves into its transaction; handlers see the message const.
  void Dispatch(proto::Message& message, sim::SpanId span);

  // All outbound control messages funnel here: stamps the active causal
  // context and a fresh flow id, then hands the message to the bus port.
  void SendOnBus(proto::Message message);

  // Periodic heartbeat to the bus watchdog (armed when configured).
  void SendHeartbeat();

  // All lifecycle transitions funnel here so the state observer sees each one.
  void SetState(State next);

  // Built-in dispatch for the service protocol.
  void HandleDiscover(const proto::Message& message);
  void HandleOpen(const proto::Message& message);
  void HandleClose(const proto::Message& message);

  // --- at-most-once replay guard -------------------------------------------
  // The RPC layer may retransmit, and the interconnect may duplicate; the
  // server side dedups by (requester, request id) over the ReplayWindow so
  // non-idempotent handlers (alloc, open) never execute twice. A duplicate of
  // an already-answered request re-sends the cached response; a duplicate of
  // one still being handled is dropped.
  //
  // Returns false when the message is a duplicate and must not be dispatched.
  bool RegisterRequest(const proto::Message& message);
  // Remembers the response for potential replay (called from Reply paths).
  void CacheResponse(const proto::Message& response);

  DeviceId id_;
  std::string name_;
  DeviceContext context_;
  DeviceConfig config_;
  State state_ = State::kPoweredOff;
  iommu::Iommu iommu_;
  bus::BusPort* port_ = nullptr;
  std::vector<std::unique_ptr<Service>> services_;
  // Every service's instance ids come from here, so an id names one instance
  // on the device.
  uint64_t next_instance_ = 1;
  ReplayWindow replay_;
  // App-level peer-failure subscribers (token -> hook); tokens are shared
  // across both maps so removal needs no kind argument.
  std::map<uint64_t, PeerFailedHook> peer_failed_hooks_;
  std::map<uint64_t, PeerFailedHook> peer_permanently_failed_hooks_;
  uint64_t next_hook_token_ = 1;
  StateObserver state_observer_;
  // Serializes control-message handling on the device's firmware engine.
  sim::SimTime firmware_busy_until_;
  sim::StatsRegistry stats_;
  sim::Tracer tracer_;
  // Per-message stats, resolved once: registry references are stable for the
  // device's lifetime, so the receive/send paths pay plain increments instead
  // of name lookups.
  sim::Counter& messages_received_ = stats_.GetCounter("messages_received");
  sim::Counter& heartbeats_sent_ = stats_.GetCounter("heartbeats_sent");
  sim::Counter& requests_sent_ = stats_.GetCounter("requests_sent");
  // Span of the message currently being dispatched (0 outside a handler);
  // the ambient causal context stamped onto outbound messages.
  sim::SpanId current_span_ = 0;
  // Declared last: aborts whatever is still in flight before the rest of the
  // device is torn down. The endpoint reaches into the device for transport,
  // tracing, and stats.
  friend class RpcEndpoint;
  RpcEndpoint rpc_{this};
};

}  // namespace lastcpu::dev

#endif  // SRC_DEV_DEVICE_H_

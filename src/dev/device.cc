#include "src/dev/device.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"
#include "src/dev/service.h"

namespace lastcpu::dev {

// Modeled per-message handling cost of the device's control firmware.
constexpr sim::Duration kControlProcessing = sim::Duration::Nanos(200);

Device::Device(DeviceId id, std::string name, const DeviceContext& context, DeviceConfig config)
    : id_(id),
      name_(std::move(name)),
      context_(context),
      config_(config),
      iommu_(id, config.tlb),
      tracer_(context.trace, context.simulator, name_) {
  LASTCPU_CHECK(context.simulator != nullptr, "device without simulator");
  LASTCPU_CHECK(context.bus != nullptr, "device without bus");
  LASTCPU_CHECK(context.fabric != nullptr, "device without fabric");

  port_ = context_.bus->Attach(
      id_, name_, [this](proto::Message m) { ReceiveFromBus(std::move(m)); }, &iommu_);
  context_.fabric->AttachDevice(id_, &iommu_);
  context_.fabric->SetDoorbellHandler(
      id_, [this](DeviceId from, uint64_t value) {
        if (state_ == State::kAlive) {
          OnDoorbell(from, value);
        }
      });
  iommu_.SetFaultHandler([this](const iommu::FaultInfo& fault) { OnFault(fault); });
}

Device::~Device() {
  context_.fabric->DetachDevice(id_);
  context_.bus->Detach(id_);
}

void Device::TraceEvent(std::string_view event, std::string_view detail) {
  tracer_.Instant(event, detail, current_span_);
}

void Device::SendOnBus(proto::Message message) {
  if (tracer_.enabled()) {
    message.trace.span = current_span_;
    message.trace.flow =
        tracer_.FlowSend(proto::MessageTypeName(message.type()), current_span_);
  }
  port_->Send(std::move(message));
}

void Device::SetState(State next) {
  state_ = next;
  if (state_observer_) {
    state_observer_(next);
  }
}

void Device::PowerOn() {
  LASTCPU_CHECK(state_ == State::kPoweredOff, "PowerOn from state %d", static_cast<int>(state_));
  SetState(State::kSelfTest);
  TraceEvent("self-test");
  context_.simulator->Schedule(config_.self_test_duration, [this] {
    if (state_ != State::kSelfTest) {
      return;  // failed mid self-test
    }
    SetState(State::kAlive);
    AnnounceAlive();
    TraceEvent("alive");
    if (config_.heartbeat_period > sim::Duration::Zero()) {
      context_.simulator->ScheduleDaemon(config_.heartbeat_period, [this] { SendHeartbeat(); });
    }
    OnAlive();
  });
}

void Device::SendHeartbeat() {
  if (state_ != State::kAlive) {
    return;  // dead silicon sends no heartbeats; the watchdog notices
  }
  proto::Message message;
  message.dst = kBusDevice;
  message.payload = proto::Heartbeat{};
  SendOnBus(std::move(message));
  heartbeats_sent_.Increment();
  context_.simulator->ScheduleDaemon(config_.heartbeat_period, [this] { SendHeartbeat(); });
}

void Device::AnnounceAlive() {
  proto::AliveAnnounce announce;
  announce.device_name = name_;
  for (const auto& service : services_) {
    announce.services.push_back(service->descriptor());
  }
  proto::Message message;
  message.dst = kBusDevice;
  message.payload = std::move(announce);
  SendOnBus(std::move(message));
}

void Device::InjectFailure() {
  SetState(State::kFailed);
  TraceEvent("failed");
  // Outstanding requests will never complete; abort them so app logic can
  // observe its own device dying instead of waiting on callbacks forever.
  rpc_.AbortAll(Aborted("device failed"));
}

void Device::InjectPowerLoss() {
  // Volatile state first: sessions and in-flight media ops die with the rail
  // before any failure-path traffic could touch them.
  OnPowerLoss();
  TraceEvent("power-lost");
  InjectFailure();
}

void Device::AddService(std::unique_ptr<Service> service) {
  LASTCPU_CHECK(service != nullptr, "null service");
  service->next_instance_ = &next_instance_;
  services_.push_back(std::move(service));
}

Service* Device::FindServiceByName(const std::string& service_name) {
  for (const auto& service : services_) {
    if (service->descriptor().name == service_name) {
      return service.get();
    }
  }
  return nullptr;
}

void Device::SendOneWay(DeviceId dst, proto::Payload payload) {
  proto::Message message;
  message.dst = dst;
  message.payload = std::move(payload);
  SendOnBus(std::move(message));
}

uint64_t Device::AddPeerFailedHook(PeerFailedHook hook) {
  LASTCPU_CHECK(hook != nullptr, "null peer-failed hook");
  uint64_t token = next_hook_token_++;
  peer_failed_hooks_.emplace(token, std::move(hook));
  return token;
}

void Device::RemovePeerFailedHook(uint64_t token) { peer_failed_hooks_.erase(token); }

uint64_t Device::AddPeerPermanentlyFailedHook(PeerFailedHook hook) {
  LASTCPU_CHECK(hook != nullptr, "null peer-permanently-failed hook");
  uint64_t token = next_hook_token_++;
  peer_permanently_failed_hooks_.emplace(token, std::move(hook));
  return token;
}

void Device::RemovePeerPermanentlyFailedHook(uint64_t token) {
  peer_permanently_failed_hooks_.erase(token);
}

bool Device::RegisterRequest(const proto::Message& message) {
  if (ReplayWindow::Entry* entry = replay_.Find(message.src, message.request_id)) {
    stats_.GetCounter("duplicate_requests").Increment();
    if (entry->response.has_value()) {
      // Already answered: replay the cached response instead of re-executing
      // the handler (at-most-once execution, at-least-once answer).
      stats_.GetCounter("responses_replayed").Increment();
      SendOnBus(proto::Message(*entry->response));
    }
    // Still being handled: drop the duplicate; the eventual reply covers it.
    return false;
  }
  replay_.Add(message.src, message.request_id);
  return true;
}

void Device::CacheResponse(const proto::Message& response) {
  if (!response.request_id.valid()) {
    return;
  }
  ReplayWindow::Entry* entry = replay_.Find(response.dst, response.request_id);
  if (entry != nullptr && !entry->response.has_value()) {
    entry->response = response;
  }
}

void Device::ReceiveFromBus(proto::Message message) {
  if (state_ == State::kFailed || state_ == State::kPoweredOff) {
    // Dead silicon — except the reset line, which revives it.
    if (message.Is<proto::ResetSignal>() && state_ == State::kFailed) {
      OnReset();
    }
    return;
  }
  // The handling span opens at arrival and closes when dispatch completes,
  // so it covers firmware queue wait + processing. It parents to the
  // sender's span, and the flow id links it to the send-side record.
  sim::SpanId span = 0;
  if (tracer_.enabled()) {
    span = tracer_.BeginSpan(proto::MessageTypeName(message.type()), message.trace.span);
    tracer_.FlowReceive(proto::MessageTypeName(message.type()), message.trace.flow, span);
  }
  // Control messages are handled by the device's (single) firmware engine:
  // each costs kControlProcessing and they serialize, which is what bounds a
  // single device's control-plane throughput under contention.
  sim::SimTime start = std::max(context_.simulator->Now(), firmware_busy_until_);
  sim::SimTime done = start + kControlProcessing;
  firmware_busy_until_ = done;
  context_.simulator->ScheduleAt(done, [this, message = std::move(message), span]() mutable {
    Dispatch(message, span);
    tracer_.EndSpan(span);
  });
}

void Device::Dispatch(proto::Message& message, sim::SpanId span) {
  if (state_ != State::kAlive && state_ != State::kSelfTest) {
    return;  // failed while the message was in flight
  }
  // Everything this handler emits — trace instants, outbound messages,
  // nested service work — is causally under the handling span.
  sim::SpanId saved_span = current_span_;
  current_span_ = span;
  struct SpanRestore {
    Device* device;
    sim::SpanId saved;
    ~SpanRestore() { device->current_span_ = saved; }
  } restore{this, saved_span};
  messages_received_.Increment();

  // Responses to our outstanding requests route into the transaction layer.
  if (message.request_id.valid() && proto::IsResponse(message.type())) {
    if (!rpc_.HandleResponse(std::move(message))) {
      // Late duplicate or a response to an attempt that already timed out.
      stats_.GetCounter("orphan_responses").Increment();
    }
    return;
  }

  // Inbound requests pass the at-most-once replay guard before any handler
  // runs; duplicates (injected or retransmitted) never execute twice.
  if (message.request_id.valid() && !proto::IsResponse(message.type())) {
    if (!RegisterRequest(message)) {
      return;
    }
  }

  switch (message.type()) {
    case proto::MessageType::kDiscoverRequest:
      HandleDiscover(message);
      return;
    case proto::MessageType::kOpenRequest:
      HandleOpen(message);
      return;
    case proto::MessageType::kCloseRequest:
      HandleClose(message);
      return;
    case proto::MessageType::kResetSignal:
      OnReset();
      return;
    case proto::MessageType::kDeviceFailed: {
      DeviceId failed = message.As<proto::DeviceFailed>().device;
      // In-flight transactions to the dead peer complete now with a typed
      // error instead of waiting out their deadlines.
      rpc_.AbortPeer(failed,
                     Unavailable("device " + std::to_string(failed.value()) + " failed"));
      for (const auto& service : services_) {
        service->TeardownClient(failed);
      }
      OnPeerFailed(failed);
      // App-level subscribers run last, after the device's own recovery
      // hooks have observed the failure. Iterate a snapshot: hooks may
      // remove themselves (or register new ones) while running.
      std::vector<PeerFailedHook> hooks;
      hooks.reserve(peer_failed_hooks_.size());
      for (const auto& [token, hook] : peer_failed_hooks_) {
        hooks.push_back(hook);
      }
      for (const auto& hook : hooks) {
        hook(failed);
      }
      return;
    }
    case proto::MessageType::kDevicePermanentlyFailed: {
      DeviceId dead = message.As<proto::DevicePermanentlyFailed>().device;
      // The peer is quarantined: nothing addressed to it will ever complete,
      // and it is not coming back. Same cleanup as a transient failure, plus
      // the permanent-failure hooks so consumers stop retrying.
      rpc_.AbortPeer(dead, Unavailable("device " + std::to_string(dead.value()) +
                                       " permanently failed"));
      for (const auto& service : services_) {
        service->TeardownClient(dead);
      }
      OnPeerPermanentlyFailed(dead);
      std::vector<PeerFailedHook> hooks;
      hooks.reserve(peer_permanently_failed_hooks_.size());
      for (const auto& [token, hook] : peer_permanently_failed_hooks_) {
        hooks.push_back(hook);
      }
      for (const auto& hook : hooks) {
        hook(dead);
      }
      return;
    }
    case proto::MessageType::kTeardownApp: {
      Pasid pasid = message.As<proto::TeardownApp>().pasid;
      for (const auto& service : services_) {
        service->TeardownPasid(pasid);
      }
      OnTeardown(pasid);
      return;
    }
    case proto::MessageType::kNotify:
      OnNotify(message);
      return;
    default: {
      // Single-exchange service messages (image loads, auth logins).
      for (const auto& service : services_) {
        auto handled = service->HandleMessage(message);
        if (!handled.has_value()) {
          continue;
        }
        if (handled->ok()) {
          Reply(message, *std::move(*handled));
        } else {
          ReplyError(message, handled->status());
        }
        return;
      }
      OnMessage(message);
      return;
    }
  }
}

void Device::HandleDiscover(const proto::Message& message) {
  const auto& query = message.As<proto::DiscoverRequest>();
  for (const auto& service : services_) {
    if (service->Matches(query)) {
      Reply(message, proto::DiscoverResponse{service->descriptor()});
      TraceEvent("discover-hit", service->descriptor().name);
      return;
    }
  }
  // No match: stay silent, like SSDP — the requester's window just closes.
}

void Device::HandleOpen(const proto::Message& message) {
  const auto& request = message.As<proto::OpenRequest>();
  Service* service = FindServiceByName(request.service_name);
  if (service == nullptr) {
    ReplyError(message, NotFound("no service '" + request.service_name + "'"));
    return;
  }
  auto response = service->Open(message.src, request);
  if (!response.ok()) {
    ReplyError(message, response.status());
    stats_.GetCounter("opens_rejected").Increment();
    return;
  }
  stats_.GetCounter("opens_accepted").Increment();
  TraceEvent("open", request.service_name + ":" + request.resource);
  Reply(message, *response);
}

void Device::HandleClose(const proto::Message& message) {
  const auto& request = message.As<proto::CloseRequest>();
  auto holder = std::find_if(services_.begin(), services_.end(), [&](const auto& service) {
    return service->HasInstance(request.instance);
  });
  Status closed =
      holder == services_.end() ? NotFound("no such instance") : (*holder)->Close(request.instance);
  if (!closed.ok()) {
    ReplyError(message, closed);
    return;
  }
  Reply(message, proto::CloseResponse{});
}

void Device::OnMessage(const proto::Message& message) {
  stats_.GetCounter("unhandled_messages").Increment();
  if (message.request_id.valid() && !proto::IsResponse(message.type())) {
    ReplyError(message, Unimplemented(name_ + " does not handle " +
                                      std::string(proto::MessageTypeName(message.type()))));
  }
}

void Device::OnReset() {
  TraceEvent("reset");
  // Drop all volatile state: instances, in-flight transactions, replay guard.
  for (const auto& service : services_) {
    for (auto snapshot = service->instances(); const auto& [id, instance] : snapshot) {
      (void)service->Close(id);
      (void)instance;
    }
  }
  rpc_.AbortAll(Aborted("device reset"));
  replay_.Clear();
  SetState(State::kSelfTest);
  context_.simulator->Schedule(config_.self_test_duration, [this] {
    if (state_ != State::kSelfTest) {
      return;
    }
    SetState(State::kAlive);
    AnnounceAlive();
    TraceEvent("alive", "after reset");
    if (config_.heartbeat_period > sim::Duration::Zero()) {
      context_.simulator->ScheduleDaemon(config_.heartbeat_period, [this] { SendHeartbeat(); });
    }
    OnAlive();
  });
}

void Device::OnPeerFailed(DeviceId device) { (void)device; }

void Device::OnPeerPermanentlyFailed(DeviceId device) { (void)device; }

void Device::OnTeardown(Pasid pasid) {
  // Mappings are removed by the bus via unmap directives from the memory
  // controller; the base device has nothing further to drop.
  (void)pasid;
}

void Device::OnFault(const iommu::FaultInfo& fault) {
  stats_.GetCounter("iommu_faults").Increment();
  TraceEvent("iommu-fault", fault.ToString());
}

void Device::Reply(const proto::Message& request, proto::Payload payload) {
  proto::Message response;
  response.dst = request.src;
  response.request_id = request.request_id;
  response.payload = std::move(payload);
  CacheResponse(response);
  SendOnBus(std::move(response));
}

void Device::ReplyError(const proto::Message& request, Status status) {
  proto::Message response;
  response.dst = request.src;
  response.request_id = request.request_id;
  response.payload = proto::ErrorResponse{status.code(), status.message()};
  CacheResponse(response);
  SendOnBus(std::move(response));
}

}  // namespace lastcpu::dev

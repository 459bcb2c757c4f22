// RpcEndpoint: the one request/response transaction layer for the control
// plane.
//
// Every client in the machine (ControlClient, FileClient, the KVS bring-up
// path, auth logins) used to hand-roll its own pending-request bookkeeping,
// with no deadline, no retry, and no cancellation when a peer died. This
// layer centralizes all of it, per device:
//
//   * correlation      — responses match requests by proto::Message::request_id;
//   * deadlines        — every attempt carries a deadline scheduled on the
//                        simulator; expiry completes the caller with kTimedOut;
//   * bounded retries  — idempotent operations may opt into retransmission
//                        with exponential backoff. Retries reuse the original
//                        request id, so a late or duplicated response is
//                        absorbed instead of completing a stranger's call;
//   * typed aborts     — when the bus declares a peer failed, every in-flight
//                        transaction to it completes with kUnavailable; when
//                        this device resets, fails, or shuts down, everything
//                        completes with kAborted. Callbacks never hang.
//
// Transport failures always surface as a typed Status (kTimedOut /
// kUnavailable / kAborted), and a peer's ErrorResponse payload is unwrapped
// into its carried Status — callers see Result<T>, never a raw error message.
#ifndef SRC_DEV_RPC_H_
#define SRC_DEV_RPC_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/proto/message.h"
#include "src/sim/move_fn.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"

namespace lastcpu::dev {

class Device;

// Deadline of one request attempt unless the call names its own.
inline constexpr sim::Duration kRequestTimeout = sim::Duration::Millis(100);

// Per-call knobs. The defaults are a single attempt under kRequestTimeout —
// retries must be opted into, and only for operations that are safe to
// execute more than once.
struct RpcOptions {
  // Deadline for each attempt; Zero means kRequestTimeout.
  sim::Duration timeout = sim::Duration::Zero();
  // Total number of send attempts (1 = no retries).
  uint32_t max_attempts = 1;
  // Wait before the first retransmission; doubles after every retry.
  sim::Duration backoff = sim::Duration::Micros(50);
};

class RpcEndpoint {
 public:
  // Raw completion: the peer's response message, or a typed error. Transport
  // failures and peer ErrorResponses both arrive as the error Status. The
  // inline room fits the largest capture a control-plane caller hands the
  // typed Call (the memory controller keeps the request message it answers
  // plus a few words), so starting a call allocates no callback.
  using RawCallback = sim::MoveFn<void(Result<proto::Message>), 192>;
  using DiscoveryCallback = std::function<void(std::vector<proto::ServiceDescriptor>)>;

  explicit RpcEndpoint(Device* device);
  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;
  ~RpcEndpoint();

  // Starts one transaction: sends `payload` to `dst` and completes `done`
  // exactly once — with the response, or with kTimedOut / kUnavailable /
  // kAborted when the transport gives up first.
  RequestId Call(DeviceId dst, proto::Payload payload, RpcOptions options, RawCallback done);
  RequestId Call(DeviceId dst, proto::Payload payload, RawCallback done) {
    return Call(dst, std::move(payload), RpcOptions{}, std::move(done));
  }

  // Typed transaction: unwraps the expected response payload and completes
  // `done` (any callable taking Result<Response>) with it. A response of any
  // other kind (protocol violation) completes with kInternal. With
  // Response = void any non-error response counts as success.
  template <typename Response, typename Done>
  RequestId Call(DeviceId dst, proto::Payload payload, RpcOptions options, Done&& done) {
    return Call(dst, std::move(payload), options,
                RawCallback([done = std::forward<Done>(done)](
                                Result<proto::Message> response) mutable {
                  if (!response.ok()) {
                    done(Result<Response>(response.status()));
                    return;
                  }
                  if constexpr (std::is_void_v<Response>) {
                    done(Result<void>());
                  } else if (!response->template Is<Response>()) {
                    done(Result<Response>(
                        Internal("unexpected response kind " +
                                 std::string(proto::MessageTypeName(response->type())))));
                  } else {
                    // Moved into a result that already holds a Response:
                    // constructing the Result from the payload trips a false
                    // -Wmaybe-uninitialized in GCC 12 once `done` inlines.
                    Result<Response> result = Response();
                    *result = std::get<Response>(std::move(response->payload));
                    done(std::move(result));
                  }
                }));
  }
  template <typename Response, typename Done>
  RequestId Call(DeviceId dst, proto::Payload payload, Done&& done) {
    return Call<Response>(dst, std::move(payload), RpcOptions{}, std::forward<Done>(done));
  }

  // Broadcasts a DiscoverRequest and collects DiscoverResponses for `window`;
  // then invokes the callback with everything that answered (SSDP-style).
  // An abort closes the window early with whatever was collected.
  void Discover(proto::ServiceType type, const std::string& resource, sim::Duration window,
                DiscoveryCallback on_done);

  // Completes one transaction with `reason` (cancellation).
  void Abort(RequestId id, Status reason);
  // Completes every transaction addressed to `peer` with `reason` — the bus
  // declared it failed, so the responses will never come.
  void AbortPeer(DeviceId peer, Status reason);
  // Completes every transaction with `reason` (reset, failure, teardown).
  void AbortAll(Status reason);

  // Routes a response-kind bus message into its transaction, moving it there.
  // Returns false, leaving the message alone, when no transaction matches
  // (orphan: late duplicate or stale response).
  bool HandleResponse(proto::Message&& message);

  size_t in_flight() const { return transactions_.size(); }

 private:
  struct Transaction {
    DeviceId dst;
    RpcOptions options;
    uint32_t attempt = 1;
    sim::EventId timer;  // per-attempt deadline, or pending-backoff timer
    sim::SpanId span = 0;
    RawCallback callback;
    // The request payload, kept only when retransmission is possible.
    std::optional<proto::Payload> resend;
    // Discovery collectors: gather responses until the window closes.
    bool discovery = false;
    std::vector<proto::ServiceDescriptor> found;
    DiscoveryCallback on_discovery;
  };

  using Transactions = std::map<RequestId, Transaction>;

  RequestId NextRequestId();
  sim::Duration AttemptTimeout(const RpcOptions& options) const;
  // Files a fresh transaction under `id`, in a recycled node when one is
  // spare.
  Transaction& Open(RequestId id);
  // Clears a finished transaction's node and keeps it for the next Open.
  void Recycle(Transactions::node_type node);
  // Sends (or resends) the transaction's request message under its span.
  void Transmit(RequestId id, proto::Payload payload, DeviceId dst, sim::SpanId span);
  void OnDeadline(RequestId id);
  void Retransmit(RequestId id);
  // Removes the transaction and fires its callback exactly once.
  void Complete(RequestId id, Result<proto::Message> result);
  void FinishDiscovery(RequestId id);
  // Closes a discovery window: hands the offers to its callback under the
  // window's span, then ends the span.
  void CloseDiscovery(Transaction& transaction);

  Device* device_;
  // In flight, by ascending request id: aborts complete in issue order.
  Transactions transactions_;
  // Nodes of finished transactions. A steady stream of calls reuses them, so
  // a call allocates no map node.
  std::vector<Transactions::node_type> spare_nodes_;
  uint64_t next_request_ = 1;
};

}  // namespace lastcpu::dev

#endif  // SRC_DEV_RPC_H_

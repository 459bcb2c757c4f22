#include "src/dev/rpc.h"

#include <utility>

#include "src/base/check.h"
#include "src/dev/device.h"

namespace lastcpu::dev {

RpcEndpoint::RpcEndpoint(Device* device) : device_(device) {
  LASTCPU_CHECK(device != nullptr, "rpc endpoint needs a host device");
}

RpcEndpoint::~RpcEndpoint() {
  // Process teardown, not simulated failure: cancel timers without firing
  // callbacks (their captures may already be destroyed).
  for (auto& [id, transaction] : transactions_) {
    device_->simulator()->Cancel(transaction.timer);
  }
  transactions_.clear();
}

RequestId RpcEndpoint::NextRequestId() {
  // Device id in the high bits keeps ids globally unique across devices.
  return RequestId((static_cast<uint64_t>(device_->id().value()) << 40) | next_request_++);
}

sim::Duration RpcEndpoint::AttemptTimeout(const RpcOptions& options) const {
  return options.timeout > sim::Duration::Zero() ? options.timeout : kRequestTimeout;
}

RpcEndpoint::Transaction& RpcEndpoint::Open(RequestId id) {
  if (spare_nodes_.empty()) {
    return transactions_.try_emplace(transactions_.end(), id)->second;
  }
  Transactions::node_type node = std::move(spare_nodes_.back());
  spare_nodes_.pop_back();
  node.key() = id;
  // Ids only grow, so the new transaction goes last.
  return transactions_.insert(transactions_.end(), std::move(node))->second;
}

void RpcEndpoint::Recycle(Transactions::node_type node) {
  node.mapped() = Transaction{};
  spare_nodes_.push_back(std::move(node));
}

void RpcEndpoint::Transmit(RequestId id, proto::Payload payload, DeviceId dst,
                           sim::SpanId span) {
  proto::Message message;
  message.dst = dst;
  message.request_id = id;
  message.payload = std::move(payload);
  // Send under the transaction's originating span, so retransmissions fired
  // from timer context keep their causal parent.
  sim::SpanId saved = device_->current_span_;
  device_->current_span_ = span;
  device_->SendOnBus(std::move(message));
  device_->current_span_ = saved;
}

RequestId RpcEndpoint::Call(DeviceId dst, proto::Payload payload, RpcOptions options,
                            RawCallback done) {
  LASTCPU_CHECK(done != nullptr, "rpc call without completion callback");
  if (options.max_attempts == 0) {
    options.max_attempts = 1;
  }
  RequestId id = NextRequestId();
  Transaction& transaction = Open(id);
  transaction.dst = dst;
  transaction.options = options;
  transaction.span = device_->current_span_;
  transaction.callback = std::move(done);
  if (options.max_attempts > 1) {
    // The one copy a call keeps: what a retransmission sends again.
    transaction.resend = payload;
  }
  transaction.timer =
      device_->simulator()->Schedule(AttemptTimeout(options), [this, id] { OnDeadline(id); });
  Transmit(id, std::move(payload), dst, device_->current_span_);
  device_->requests_sent_.Increment();
  return id;
}

void RpcEndpoint::Discover(proto::ServiceType type, const std::string& resource,
                           sim::Duration window, DiscoveryCallback on_done) {
  LASTCPU_CHECK(on_done != nullptr, "discover without callback");
  // The discovery window is one causal span: the broadcast goes out under it,
  // and the continuation runs under it, so whatever the caller does with the
  // results (open, alloc, ...) chains to this span.
  sim::SpanId span = device_->tracer_.BeginSpan("Discover", device_->current_span_, resource);
  RequestId id = NextRequestId();
  Transaction& transaction = Open(id);
  transaction.dst = kBroadcastDevice;
  transaction.discovery = true;
  transaction.span = span;
  transaction.on_discovery = std::move(on_done);
  transaction.timer =
      device_->simulator()->Schedule(window, [this, id] { FinishDiscovery(id); });
  Transmit(id, proto::DiscoverRequest{type, resource}, kBroadcastDevice, span);
  device_->stats_.GetCounter("discoveries").Increment();
}

void RpcEndpoint::OnDeadline(RequestId id) {
  auto it = transactions_.find(id);
  if (it == transactions_.end()) {
    return;
  }
  Transaction& transaction = it->second;
  if (transaction.attempt >= transaction.options.max_attempts) {
    device_->stats_.GetCounter("request_timeouts").Increment();
    Complete(id, TimedOut("request to device " + std::to_string(transaction.dst.value()) +
                          " timed out after " + std::to_string(transaction.attempt) +
                          " attempt(s)"));
    return;
  }
  // Exponential backoff: wait, then retransmit under a fresh deadline.
  uint32_t shift = transaction.attempt - 1 < 16 ? transaction.attempt - 1 : 16;
  sim::Duration wait = transaction.options.backoff * (uint64_t{1} << shift);
  transaction.timer = device_->simulator()->Schedule(wait, [this, id] { Retransmit(id); });
}

void RpcEndpoint::Retransmit(RequestId id) {
  auto it = transactions_.find(id);
  if (it == transactions_.end()) {
    return;
  }
  Transaction& transaction = it->second;
  ++transaction.attempt;
  device_->stats_.GetCounter("request_retries").Increment();
  transaction.timer = device_->simulator()->Schedule(AttemptTimeout(transaction.options),
                                                     [this, id] { OnDeadline(id); });
  // Same request id on the wire: a late response to the original attempt
  // completes this transaction, and the extra response is absorbed as an
  // orphan instead of completing a stranger's call.
  Transmit(id, *transaction.resend, transaction.dst, transaction.span);
}

bool RpcEndpoint::HandleResponse(proto::Message&& message) {
  auto it = transactions_.find(message.request_id);
  if (it == transactions_.end()) {
    return false;
  }
  if (it->second.discovery) {
    // Discovery collectors stay pending for their whole window.
    if (message.Is<proto::DiscoverResponse>()) {
      it->second.found.push_back(message.As<proto::DiscoverResponse>().descriptor);
      return true;
    }
    return false;
  }
  if (message.Is<proto::ErrorResponse>()) {
    const auto& error = message.As<proto::ErrorResponse>();
    Complete(message.request_id, Status(error.code, error.message));
    return true;
  }
  RequestId id = message.request_id;
  Complete(id, std::move(message));
  return true;
}

void RpcEndpoint::Complete(RequestId id, Result<proto::Message> result) {
  auto it = transactions_.find(id);
  if (it == transactions_.end()) {
    return;
  }
  // Out of the table before the callback runs: it may start new calls or
  // abort others.
  Transactions::node_type node = transactions_.extract(it);
  Transaction& transaction = node.mapped();
  device_->simulator()->Cancel(transaction.timer);
  if (transaction.discovery) {
    // An aborted window closes early with whatever was collected.
    CloseDiscovery(transaction);
  } else {
    transaction.callback(std::move(result));
  }
  Recycle(std::move(node));
}

void RpcEndpoint::FinishDiscovery(RequestId id) {
  auto it = transactions_.find(id);
  if (it == transactions_.end()) {
    return;
  }
  Transactions::node_type node = transactions_.extract(it);
  CloseDiscovery(node.mapped());
  Recycle(std::move(node));
}

void RpcEndpoint::CloseDiscovery(Transaction& transaction) {
  sim::SpanId saved = device_->current_span_;
  device_->current_span_ = transaction.span;
  transaction.on_discovery(std::move(transaction.found));
  device_->current_span_ = saved;
  device_->tracer_.EndSpan(transaction.span);
}

void RpcEndpoint::Abort(RequestId id, Status reason) {
  LASTCPU_CHECK(!reason.ok(), "abort needs a non-OK reason");
  if (transactions_.contains(id)) {
    device_->stats_.GetCounter("requests_aborted").Increment();
  }
  Complete(id, std::move(reason));
}

void RpcEndpoint::AbortPeer(DeviceId peer, Status reason) {
  LASTCPU_CHECK(!reason.ok(), "abort needs a non-OK reason");
  // Collect first: completions may start new transactions.
  std::vector<RequestId> doomed;
  for (const auto& [id, transaction] : transactions_) {
    if (!transaction.discovery && transaction.dst == peer) {
      doomed.push_back(id);
    }
  }
  for (RequestId id : doomed) {
    device_->stats_.GetCounter("requests_aborted").Increment();
    Complete(id, reason);
  }
}

void RpcEndpoint::AbortAll(Status reason) {
  LASTCPU_CHECK(!reason.ok(), "abort needs a non-OK reason");
  std::vector<RequestId> doomed;
  doomed.reserve(transactions_.size());
  for (const auto& [id, transaction] : transactions_) {
    doomed.push_back(id);
  }
  for (RequestId id : doomed) {
    if (transactions_.contains(id)) {
      device_->stats_.GetCounter("requests_aborted").Increment();
      Complete(id, reason);
    }
  }
}

}  // namespace lastcpu::dev

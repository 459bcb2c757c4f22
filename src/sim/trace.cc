#include "src/sim/trace.h"

#include <cstdio>
#include <utility>

#include "src/sim/simulator.h"

namespace lastcpu::sim {

void TraceLog::Append(TraceRecord record) {
  if (!enabled_) {
    return;
  }
  records_.push_back(std::move(record));
}

std::vector<TraceRecord> TraceLog::FindByEvent(const std::string& event) const {
  std::vector<TraceRecord> out;
  for (const auto& record : records_) {
    if (record.kind == TraceKind::kSpanEnd) {
      continue;  // a span's name matches once, at its begin record
    }
    if (record.event == event) {
      out.push_back(record);
    }
  }
  return out;
}

bool TraceLog::ContainsSequence(const std::vector<std::string>& events) const {
  size_t next = 0;
  for (const auto& record : records_) {
    if (record.kind == TraceKind::kSpanEnd) {
      continue;
    }
    if (next < events.size() && record.event == events[next]) {
      ++next;
    }
  }
  return next == events.size();
}

void TraceLog::Dump(std::ostream& os) const {
  for (const auto& record : records_) {
    char ts[32];
    std::snprintf(ts, sizeof(ts), "%12.3fus", record.when.micros());
    os << ts << "  " << record.component << "  ";
    switch (record.kind) {
      case TraceKind::kSpanBegin:
        os << "[" << record.span << "<-" << record.parent << "] " << record.event;
        break;
      case TraceKind::kSpanEnd:
        os << "[" << record.span << "] end " << record.event;
        break;
      case TraceKind::kFlowSend:
        os << "~>" << record.flow << " " << record.event;
        break;
      case TraceKind::kFlowReceive:
        os << "<~" << record.flow << " " << record.event;
        break;
      case TraceKind::kInstant:
        os << record.event;
        break;
    }
    if (!record.detail.empty()) {
      os << "  (" << record.detail << ")";
    }
    os << "\n";
  }
}

SpanId Tracer::BeginSpanImpl(std::string_view name, SpanId parent, std::string_view detail) {
  SpanId span = log_->MintSpanId();
  log_->Append(TraceRecord{simulator_->Now(), component_, std::string(name), std::string(detail),
                           TraceKind::kSpanBegin, span, parent, 0});
  return span;
}

void Tracer::EndSpanImpl(SpanId span) {
  log_->Append(
      TraceRecord{simulator_->Now(), component_, "", "", TraceKind::kSpanEnd, span, 0, 0});
}

void Tracer::InstantImpl(std::string_view name, std::string_view detail, SpanId span) {
  log_->Append(TraceRecord{simulator_->Now(), component_, std::string(name), std::string(detail),
                           TraceKind::kInstant, span, 0, 0});
}

FlowId Tracer::FlowSendImpl(std::string_view message, SpanId span, FlowId flow) {
  if (flow == 0) {
    flow = log_->MintFlowId();
  }
  log_->Append(TraceRecord{simulator_->Now(), component_, std::string(message), "",
                           TraceKind::kFlowSend, span, 0, flow});
  return flow;
}

void Tracer::FlowReceiveImpl(std::string_view message, FlowId flow, SpanId span) {
  log_->Append(TraceRecord{simulator_->Now(), component_, std::string(message), "",
                           TraceKind::kFlowReceive, span, 0, flow});
}

}  // namespace lastcpu::sim

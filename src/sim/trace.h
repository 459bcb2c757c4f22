// Causal tracing of simulated activity.
//
// Components obtain a component-scoped Tracer over the machine's TraceLog and
// emit structured records: spans (with ids and parent ids, reconstructing the
// causal tree of a control operation across devices), instants (point events
// such as "discover-hit"), and flow records (linking a bus message's send and
// receive sides by flow id). Tests assert on event sequences (e.g. the
// Figure-2 handshake order); exporters render the log as a Chrome trace_event
// file (see trace_export.h).
//
// Everything no-ops when the log is disabled: each Tracer call is a pointer
// check plus a bool load, so benchmarks pay ~nothing.
#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/time.h"
#include "src/sim/trace_context.h"

namespace lastcpu::sim {

enum class TraceKind : uint8_t {
  kInstant = 0,      // point event under an (optional) owning span
  kSpanBegin = 1,    // span `span` opens; `parent` is its causal parent
  kSpanEnd = 2,      // span `span` closes
  kFlowSend = 3,     // message with flow id `flow` handed to the bus
  kFlowReceive = 4,  // message with flow id `flow` arrived
};

struct TraceRecord {
  SimTime when;
  std::string component;
  std::string event;
  std::string detail;
  TraceKind kind = TraceKind::kInstant;
  SpanId span = 0;    // the span this record describes (or is anchored to)
  SpanId parent = 0;  // causal parent (kSpanBegin only)
  FlowId flow = 0;    // flow id (kFlowSend / kFlowReceive only)
};

// Append-only trace log. Disabled by default so benchmarks pay ~nothing.
// One log serves a whole machine (or several, for side-by-side comparisons);
// span and flow ids are minted here so they are unique machine-wide.
class TraceLog {
 public:
  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // Appends a fully-formed record. No-op when disabled. Most callers should
  // go through a Tracer instead.
  void Append(TraceRecord record);

  // Fresh machine-unique ids. Valid ids start at 1; 0 means "none".
  SpanId MintSpanId() { return ++last_span_id_; }
  FlowId MintFlowId() { return ++last_flow_id_; }

  const std::vector<TraceRecord>& records() const { return records_; }
  void Clear() { records_.clear(); }

  // Records whose event name matches exactly, in emission order. Span-end
  // records are skipped so a span contributes one match, not two.
  std::vector<TraceRecord> FindByEvent(const std::string& event) const;

  // True if events appear in the trace in the given relative order (other
  // events may be interleaved). Matches instants and span names (at their
  // begin records). Used by the Figure-2 sequence tests.
  bool ContainsSequence(const std::vector<std::string>& events) const;

  void Dump(std::ostream& os) const;

 private:
  bool enabled_ = false;
  uint64_t last_span_id_ = 0;
  uint64_t last_flow_id_ = 0;
  std::vector<TraceRecord> records_;
};

class Simulator;

// A component-scoped handle over the machine's TraceLog. Cheap to copy and to
// hold disabled: every method starts with an inline enabled-check and only
// then reads the simulated clock and builds a record.
class Tracer {
 public:
  Tracer() = default;
  Tracer(TraceLog* log, const Simulator* simulator, std::string component)
      : log_(log), simulator_(simulator), component_(std::move(component)) {}

  bool enabled() const { return log_ != nullptr && log_->enabled(); }
  TraceLog* log() const { return log_; }

  // Opens a span named `name`, causally under `parent` (0 = root). Returns
  // the new span id, or 0 when tracing is disabled.
  SpanId BeginSpan(std::string_view name, SpanId parent = 0, std::string_view detail = {}) {
    if (!enabled()) {
      return 0;
    }
    return BeginSpanImpl(name, parent, detail);
  }

  void EndSpan(SpanId span) {
    if (!enabled() || span == 0) {
      return;
    }
    EndSpanImpl(span);
  }

  // Point event, optionally anchored to an owning span.
  void Instant(std::string_view name, std::string_view detail = {}, SpanId span = 0) {
    if (!enabled()) {
      return;
    }
    InstantImpl(name, detail, span);
  }

  // Marks a message (named `message`, e.g. its payload type) leaving this
  // component under span `span`. Mints and returns the flow id (or reuses
  // `flow` if nonzero). Returns 0 when disabled.
  FlowId FlowSend(std::string_view message, SpanId span, FlowId flow = 0) {
    if (!enabled()) {
      return 0;
    }
    return FlowSendImpl(message, span, flow);
  }

  // Marks the matching arrival; `span` is the handling span it starts.
  void FlowReceive(std::string_view message, FlowId flow, SpanId span) {
    if (!enabled() || flow == 0) {
      return;
    }
    FlowReceiveImpl(message, flow, span);
  }

 private:
  SpanId BeginSpanImpl(std::string_view name, SpanId parent, std::string_view detail);
  void EndSpanImpl(SpanId span);
  void InstantImpl(std::string_view name, std::string_view detail, SpanId span);
  FlowId FlowSendImpl(std::string_view message, SpanId span, FlowId flow);
  void FlowReceiveImpl(std::string_view message, FlowId flow, SpanId span);

  TraceLog* log_ = nullptr;
  const Simulator* simulator_ = nullptr;
  std::string component_;
};

}  // namespace lastcpu::sim

#endif  // SRC_SIM_TRACE_H_

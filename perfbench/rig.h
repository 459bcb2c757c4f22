// Shared vocabulary of the benchmark: generated operations, the span log the
// benchmark records around its calls into each layer, and the Rig interface
// each workload implements over one freshly built core::Machine.
#ifndef PERFBENCH_RIG_H_
#define PERFBENCH_RIG_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace perfbench {

namespace sim = lastcpu::sim;

// One generated operation. `unit_at` is its arrival time in seconds at an
// offered rate of one op per second; at rate r it is due at unit_at / r.
struct Op {
  double unit_at = 0;
  uint32_t client = 0;  // KVS client endpoint, or the requesting device
  uint32_t target = 0;  // key index, or the device a region is granted to
  bool write = false;   // KVS PUT (otherwise GET); unused by control ops
};

// What a rig issues for an op.
enum class OpKind : uint8_t { kGet, kPut, kControl };

// The name of an op's root span: "get", "put" or "control".
inline std::string_view SpanName(OpKind kind) {
  switch (kind) {
    case OpKind::kGet:
      return "get";
    case OpKind::kPut:
      return "put";
    case OpKind::kControl:
      break;
  }
  return "control";
}

// Spans the benchmark records at the layer boundaries it drives: one per
// client op, per NIC app call, per control phase and per setup phase. Each
// carries a name, start, end, parent and op id (in the detail field). Times
// are nanoseconds on whichever clock the caller uses: simulated for ops,
// host for setup. Everything is a no-op while disabled.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  bool enabled() const { return log_.enabled(); }
  void Enable() { log_.Enable(); }
  void Disable() { log_.Disable(); }
  sim::SpanId Begin(std::string_view component, std::string_view name, sim::SpanId parent,
                    uint64_t op, uint64_t at_ns);
  void End(sim::SpanId span, uint64_t at_ns);

  const sim::TraceLog& log() const { return log_; }
  void Clear() { log_.Clear(); }

 private:
  sim::TraceLog log_;
};

// Everything a workload's machine exposes to the runner. Implementations are
// built fresh per episode and driven only through the library's public API.
class Rig {
 public:
  using Done = std::function<void(bool ok)>;

  virtual ~Rig() = default;

  virtual sim::Simulator& simulator() = 0;

  // What the rig issues for `op`.
  virtual OpKind Kind(const Op& op) const = 0;

  // Issues generated op number `index` now. `done` fires exactly once, with
  // false when any step failed or the output check rejected the result.
  // `span` is the op's root span (0 when untraced).
  virtual void Issue(uint64_t index, const Op& op, sim::SpanId span, Done done) = 0;

  // Reads every layer's counters and histograms. Counters whose name starts
  // with "gauge." are levels (free pages, live allocations); the runner keeps
  // their value at the end of the measured phase instead of differencing it.
  virtual sim::StatsSnapshot Sample() = 0;

  // Checks the machine's state once the measured phase has drained; each
  // returned string describes one violated invariant.
  virtual std::vector<std::string> CheckDrained() = 0;
};

// Host-clock intervals of one episode's set-up, in order ("machine", "boot",
// "load", "warmup"), plus the minor page faults taken meanwhile.
struct SetupTimes {
  struct Phase {
    std::string name;
    uint64_t begin_ns = 0;
    uint64_t end_ns = 0;
  };
  std::vector<Phase> phases;
  uint64_t minor_faults = 0;

  // Appends the phase that began where the previous one ended (or at
  // `start_ns` for the first) and ends now.
  void Lap(std::string name, uint64_t start_ns);
  // Host seconds of every phase with this name.
  double Seconds(std::string_view name) const;
  double TotalSeconds() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_RIG_H_

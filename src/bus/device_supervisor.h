// DeviceSupervisor: the bus-side restart policy for failed devices.
//
// The paper's Sec. 4 story ends at "pulse the reset line in an attempt to
// restart it" — one pulse, fire-and-forget. A CPU-less machine needs an
// answer for the device that crashes again during self-test, crash-loops, or
// never comes back: somebody must bound the retries and reclaim what the
// device held, and that somebody cannot be a kernel. The supervisor is that
// answer, as simple bus hardware: per-device attempt counters, exponential
// backoff between reset pulses, a sliding-window crash-loop detector, and a
// terminal quarantine that broadcasts DevicePermanentlyFailed exactly once so
// consumers stop retrying and resource controllers reclaim.
//
// The centralized kernel baseline runs this same supervisor as software: it
// defers each decision (failure report, missed restart deadline) through its
// CPU model instead of taking it at once, so the two designs share one
// policy and differ only in where, and at what cost, it runs.
//
// State machine (see README "Robustness model"):
//
//   Healthy --failure--> Restarting --alive announce--> Healthy
//      |                    |  ^
//      |                    |  | backoff * 2^k, up to max_restart_attempts
//      |                    v  | pulses (deadline missed => next attempt)
//      |                 (pulse reset)
//      |                    |
//      +--crash loop--+     +--policy exhausted--+
//                     v                          v
//                  Quarantined (terminal; DevicePermanentlyFailed broadcast)
#ifndef SRC_BUS_DEVICE_SUPERVISOR_H_
#define SRC_BUS_DEVICE_SUPERVISOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "src/base/types.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace lastcpu::bus {

// Per-device restart policy, configured via BusConfig. The defaults supervise
// every device; max_restart_attempts = 0 reproduces the original single-pulse
// fire-and-forget behaviour (one reset per failure report, no follow-up, no
// quarantine — useful for A/B comparison and backward compatibility).
struct RestartPolicy {
  // Reset pulses per failure episode before the supervisor gives up. The
  // first pulse is immediate (exactly the legacy behaviour); later pulses
  // back off exponentially (kRestartBackoff in the .cc).
  uint32_t max_restart_attempts = 4;
  // Crash-loop detector: this many failure reports inside the sliding window
  // (kCrashLoopWindow) quarantine the device even when every individual
  // restart "succeeded". 0 disables the detector.
  uint32_t crash_loop_threshold = 8;

  bool supervised() const { return max_restart_attempts > 0; }
};

class DeviceSupervisor {
 public:
  enum class SupervisionState : uint8_t { kHealthy, kRestarting, kQuarantined };
  // The two decisions a host may defer: what to do about a failure report,
  // and what to do when a pulsed device missed its restart deadline.
  enum class Decision : uint8_t { kFailure, kDeadline };

  // The supervisor decides *when*; its host supplies the mechanism.
  struct Hooks {
    std::function<void(DeviceId)> pulse_reset;
    std::function<void(DeviceId, const std::string& reason)> quarantine;
    // Runs `decide`, the supervisor's decision about `device`, whenever the
    // host gets to it. Unset (bus hardware), decisions run at once.
    std::function<void(Decision, DeviceId, std::function<void()> decide)> defer;
  };

  DeviceSupervisor(sim::Simulator* simulator, RestartPolicy policy, sim::Tracer* tracer,
                   sim::StatsRegistry* stats);
  DeviceSupervisor(const DeviceSupervisor&) = delete;
  DeviceSupervisor& operator=(const DeviceSupervisor&) = delete;

  void SetHooks(Hooks hooks) { hooks_ = std::move(hooks); }

  // The host accepted a (first) failure report for `device`.
  void OnFailure(DeviceId device, const std::string& name);
  // The device announced alive: the episode (if any) ended well.
  void OnAlive(DeviceId device);
  void OnDetach(DeviceId device);

  bool IsQuarantined(DeviceId device) const;
  SupervisionState StateOf(DeviceId device) const;
  // Reset pulses issued in the current failure episode.
  uint32_t AttemptsOf(DeviceId device) const;

  const RestartPolicy& policy() const { return policy_; }

 private:
  struct Record {
    SupervisionState state = SupervisionState::kHealthy;
    uint32_t attempts = 0;  // pulses issued this episode
    std::deque<sim::SimTime> recent_failures;
    // RAII: erasing the record (detach) cancels whatever timer is armed.
    sim::ScopedEvent pending_pulse;
    sim::ScopedEvent deadline;
    sim::SpanId episode_span = 0;
    std::string name;
  };

  // Runs `decide` through the defer hook, or at once without one.
  void Defer(Decision decision, DeviceId device, std::function<void()> decide);
  // The failure decision: pulse, or quarantine on a crash loop or an
  // exhausted attempt budget.
  void DecideFailure(DeviceId device);
  // Issues the next pulse (attempt number rec.attempts, 0-based before the
  // increment) either immediately or after its backoff.
  void ScheduleAttempt(DeviceId device, Record& rec);
  void PulseNow(DeviceId device);
  // The restart deadline passed without an alive announce.
  void OnRestartDeadline(DeviceId device);
  void Quarantine(DeviceId device, Record& rec, const std::string& reason);
  void CancelTimers(Record& rec);
  sim::Duration BackoffFor(uint32_t attempt) const;

  sim::Simulator* simulator_;
  RestartPolicy policy_;
  sim::Tracer* tracer_;
  sim::StatsRegistry* stats_;
  Hooks hooks_;
  std::map<DeviceId, Record> records_;
};

}  // namespace lastcpu::bus

#endif  // SRC_BUS_DEVICE_SUPERVISOR_H_

#include "src/bus/device_supervisor.h"

#include <utility>

#include "src/base/check.h"

namespace lastcpu::bus {

// Pulse k of an episode waits kRestartBackoff * kBackoffMultiplier^(k-2).
constexpr sim::Duration kRestartBackoff = sim::Duration::Micros(50);
constexpr double kBackoffMultiplier = 2.0;
// A pulsed device must announce alive within this deadline, or the attempt
// counts as failed. This is what catches a crash *during self-test*: dead
// silicon sends no heartbeats for the watchdog to miss.
constexpr sim::Duration kRestartTimeout = sim::Duration::Micros(500);
// The crash-loop detector's sliding window.
constexpr sim::Duration kCrashLoopWindow = sim::Duration::Millis(5);

DeviceSupervisor::DeviceSupervisor(sim::Simulator* simulator, RestartPolicy policy,
                                   sim::Tracer* tracer, sim::StatsRegistry* stats)
    : simulator_(simulator), policy_(policy), tracer_(tracer), stats_(stats) {
  LASTCPU_CHECK(simulator != nullptr, "supervisor needs a simulator");
  LASTCPU_CHECK(stats != nullptr, "supervisor needs a stats registry");
}

bool DeviceSupervisor::IsQuarantined(DeviceId device) const {
  return StateOf(device) == SupervisionState::kQuarantined;
}

DeviceSupervisor::SupervisionState DeviceSupervisor::StateOf(DeviceId device) const {
  auto it = records_.find(device);
  return it == records_.end() ? SupervisionState::kHealthy : it->second.state;
}

uint32_t DeviceSupervisor::AttemptsOf(DeviceId device) const {
  auto it = records_.find(device);
  return it == records_.end() ? 0 : it->second.attempts;
}

sim::Duration DeviceSupervisor::BackoffFor(uint32_t attempt) const {
  // Attempt 0 pulses immediately (the legacy single-pulse timing); attempt k
  // waits kRestartBackoff * kBackoffMultiplier^(k-1).
  if (attempt == 0) {
    return sim::Duration::Zero();
  }
  double nanos = static_cast<double>(kRestartBackoff.nanos());
  for (uint32_t i = 1; i < attempt; ++i) {
    nanos *= kBackoffMultiplier;
  }
  return sim::Duration::Nanos(static_cast<uint64_t>(nanos));
}

void DeviceSupervisor::CancelTimers(Record& rec) {
  rec.pending_pulse.Cancel();
  rec.deadline.Cancel();
}

void DeviceSupervisor::Defer(Decision decision, DeviceId device, std::function<void()> decide) {
  if (hooks_.defer) {
    hooks_.defer(decision, device, std::move(decide));
  } else {
    decide();
  }
}

void DeviceSupervisor::OnFailure(DeviceId device, const std::string& name) {
  records_[device].name = name;
  Defer(Decision::kFailure, device, [this, device] { DecideFailure(device); });
}

void DeviceSupervisor::DecideFailure(DeviceId device) {
  if (!policy_.supervised()) {
    // Legacy mode: every failure report pulses reset once, nobody follows up.
    if (hooks_.pulse_reset) {
      hooks_.pulse_reset(device);
    }
    return;
  }
  Record& rec = records_[device];
  if (rec.state == SupervisionState::kQuarantined) {
    return;
  }
  sim::SimTime now = simulator_->Now();
  rec.recent_failures.push_back(now);
  while (!rec.recent_failures.empty() &&
         now - rec.recent_failures.front() > kCrashLoopWindow) {
    rec.recent_failures.pop_front();
  }
  CancelTimers(rec);  // an actual failure report supersedes any armed deadline
  if (rec.state == SupervisionState::kHealthy && tracer_ != nullptr && tracer_->enabled()) {
    rec.episode_span = tracer_->BeginSpan("SupervisedRestart", 0, rec.name);
  }
  rec.state = SupervisionState::kRestarting;
  if (policy_.crash_loop_threshold > 0 &&
      rec.recent_failures.size() >= policy_.crash_loop_threshold) {
    Quarantine(device, rec,
               "crash loop: " + std::to_string(rec.recent_failures.size()) + " failures within " +
                   kCrashLoopWindow.ToString());
    return;
  }
  if (rec.attempts >= policy_.max_restart_attempts) {
    Quarantine(device, rec, "restart policy exhausted");
    return;
  }
  ScheduleAttempt(device, rec);
}

void DeviceSupervisor::ScheduleAttempt(DeviceId device, Record& rec) {
  uint32_t attempt = rec.attempts++;
  sim::Duration backoff = BackoffFor(attempt);
  if (backoff == sim::Duration::Zero()) {
    PulseNow(device);
    return;
  }
  if (tracer_ != nullptr) {
    tracer_->Instant("supervisor-backoff",
                     rec.name + " attempt " + std::to_string(attempt + 1) + " in " +
                         backoff.ToString(),
                     rec.episode_span);
  }
  rec.pending_pulse = sim::ScopedEvent(
      simulator_, simulator_->Schedule(backoff, [this, device] { PulseNow(device); }));
}

void DeviceSupervisor::PulseNow(DeviceId device) {
  auto it = records_.find(device);
  if (it == records_.end() || it->second.state != SupervisionState::kRestarting) {
    return;
  }
  Record& rec = it->second;
  rec.pending_pulse.Release();  // it just fired; nothing left to cancel
  stats_->GetCounter("supervisor_restarts").Increment();
  if (tracer_ != nullptr) {
    tracer_->Instant("supervisor-pulse",
                     rec.name + " attempt " + std::to_string(rec.attempts), rec.episode_span);
  }
  rec.deadline = sim::ScopedEvent(
      simulator_, simulator_->Schedule(kRestartTimeout,
                                       [this, device] { OnRestartDeadline(device); }));
  if (hooks_.pulse_reset) {
    hooks_.pulse_reset(device);
  }
}

void DeviceSupervisor::OnRestartDeadline(DeviceId device) {
  auto it = records_.find(device);
  if (it == records_.end() || it->second.state != SupervisionState::kRestarting) {
    return;
  }
  Record& rec = it->second;
  rec.deadline.Release();  // it just fired; nothing left to cancel
  stats_->GetCounter("supervisor_restart_timeouts").Increment();
  if (tracer_ != nullptr) {
    tracer_->Instant("supervisor-timeout",
                     rec.name + " silent after attempt " + std::to_string(rec.attempts),
                     rec.episode_span);
  }
  Defer(Decision::kDeadline, device, [this, device] {
    auto found = records_.find(device);
    if (found == records_.end() || found->second.state != SupervisionState::kRestarting) {
      return;  // the device came back (or was quarantined) while this waited
    }
    Record& record = found->second;
    if (record.attempts >= policy_.max_restart_attempts) {
      Quarantine(device, record,
                 "no alive announce after " + std::to_string(record.attempts) + " reset pulses");
      return;
    }
    ScheduleAttempt(device, record);
  });
}

void DeviceSupervisor::OnAlive(DeviceId device) {
  auto it = records_.find(device);
  if (it == records_.end() || it->second.state == SupervisionState::kQuarantined) {
    return;
  }
  Record& rec = it->second;
  CancelTimers(rec);
  // A completed self-test wipes the attempt counter (the liveness table's
  // alive_since is the bus-side witness); the crash-loop window deliberately
  // survives, or a fail/revive/fail cycle would never trip the detector.
  bool recovered = rec.state == SupervisionState::kRestarting;
  rec.attempts = 0;
  rec.state = SupervisionState::kHealthy;
  if (recovered) {
    stats_->GetCounter("supervisor_recoveries").Increment();
    if (tracer_ != nullptr) {
      tracer_->Instant("supervisor-recovered", rec.name, rec.episode_span);
      if (rec.episode_span != 0) {
        tracer_->EndSpan(rec.episode_span);
        rec.episode_span = 0;
      }
    }
  }
}

void DeviceSupervisor::Quarantine(DeviceId device, Record& rec, const std::string& reason) {
  rec.state = SupervisionState::kQuarantined;
  CancelTimers(rec);
  stats_->GetCounter("supervisor_quarantines").Increment();
  stats_->GetCounter("supervisor_permanent_failures").Increment();
  if (tracer_ != nullptr) {
    tracer_->Instant("supervisor-quarantine", rec.name + ": " + reason, rec.episode_span);
    if (rec.episode_span != 0) {
      tracer_->EndSpan(rec.episode_span);
      rec.episode_span = 0;
    }
  }
  if (hooks_.quarantine) {
    hooks_.quarantine(device, reason);
  }
}

void DeviceSupervisor::OnDetach(DeviceId device) {
  // The record's ScopedEvents cancel any armed timers on destruction.
  records_.erase(device);
}

}  // namespace lastcpu::bus

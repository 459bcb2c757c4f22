// The discrete-event simulation core.
//
// Every hardware component in the emulator (bus, fabric, devices, NAND dies,
// embedded cores) is driven by callbacks scheduled on one Simulator. Events at
// equal timestamps run in scheduling order, which keeps runs deterministic for
// a fixed seed — a property the tests rely on.
//
// Engine shape (see DESIGN.md "The event core"): events live in pooled nodes
// addressed by generation-tagged EventIds, and one binary min-heap of small
// (timestamp, schedule-seq) refs orders them. This system keeps few events
// pending at a time, so one heap is cheaper than any bucketed structure.
// Execution order is globally (timestamp, schedule-seq) by construction.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/event_fn.h"
#include "src/sim/time.h"

namespace lastcpu::sim {

// Handle for a scheduled event, usable to cancel it before it fires. The
// generation tag makes a stale handle (event already ran, cancelled, or slot
// reused) a cheap miss instead of undefined behaviour.
class EventId {
 public:
  constexpr EventId() = default;

  constexpr bool valid() const { return generation_ != 0; }

  friend constexpr bool operator==(EventId, EventId) = default;

 private:
  friend class Simulator;
  constexpr EventId(uint32_t slot, uint32_t generation)
      : slot_(slot), generation_(generation) {}

  uint32_t slot_ = 0;
  uint32_t generation_ = 0;
};

// Single-threaded discrete-event scheduler with a monotonically advancing
// virtual clock.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current virtual time. Only advances inside Run*().
  SimTime Now() const { return now_; }

  // Schedules `fn` (anything an EventFn can hold) to run at Now() + delay.
  // Returns a handle that can cancel the event while it is still pending.
  // Templated so the callable is constructed directly inside the pooled
  // event node — no EventFn temporary, no relocation on the way in.
  template <typename F>
  EventId Schedule(Duration delay, F&& fn) {
    return ScheduleInternal(now_ + delay, std::forward<F>(fn), /*daemon=*/false,
                            /*periodic=*/false, Duration::Zero());
  }

  // Schedules at an absolute time, which must not be in the past.
  template <typename F>
  EventId ScheduleAt(SimTime when, F&& fn) {
    return ScheduleInternal(when, std::forward<F>(fn), /*daemon=*/false,
                            /*periodic=*/false, Duration::Zero());
  }

  // Daemon events (heartbeats, watchdog sweeps) do not keep Run() alive:
  // Run() returns once only daemons remain. RunUntil/RunFor still execute
  // daemons up to the deadline, and Step() executes them like any event.
  template <typename F>
  EventId ScheduleDaemon(Duration delay, F&& fn) {
    return ScheduleInternal(now_ + delay, std::forward<F>(fn), /*daemon=*/true,
                            /*periodic=*/false, Duration::Zero());
  }

  // Schedules `fn` to run every `period`, first at Now() + period. The event
  // re-arms itself after each invocation (the re-arm takes a fresh sequence
  // number at fire time, exactly as a hand-rolled reschedule-last loop
  // would), but the returned EventId stays valid across firings, so one
  // Cancel — from anywhere, including inside `fn` — stops the loop for good.
  // Periodic events are daemons: they never keep Run() alive.
  template <typename F>
  EventId SchedulePeriodic(Duration period, F&& fn) {
    return ScheduleInternal(now_ + period, std::forward<F>(fn), /*daemon=*/true,
                            /*periodic=*/true, period);
  }

  // Cancels a pending event in O(1): the node is reclaimed immediately (its
  // callback and captures are destroyed now, not when the timestamp would
  // have been reached). Returns false if it already ran or was cancelled.
  bool Cancel(EventId id);

  // Runs events until no non-daemon events remain.
  void Run();

  // Runs events with timestamp <= deadline; leaves Now() == deadline if the
  // queue drained earlier, so follow-up scheduling stays consistent.
  void RunUntil(SimTime deadline);

  // Convenience: RunUntil(Now() + delta).
  void RunFor(Duration delta);

  // Executes the single earliest pending event. Returns false if none.
  bool Step();

  // Number of events executed since construction.
  uint64_t events_executed() const { return events_executed_; }
  // Number of events currently pending (excluding cancelled ones).
  size_t pending_events() const { return pending_count_; }

  // Introspection for tests and the memory-compaction regression suite:
  // queue slots occupied by already-cancelled events, and how many times the
  // queue was compacted to drop them.
  size_t cancelled_refs() const { return cancelled_refs_; }
  uint64_t compactions() const { return compactions_; }

 private:
  // A queued reference to a pooled node. Ordering is (when, seq); the
  // generation detects refs whose node was cancelled (and maybe reused).
  struct Ref {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
    uint32_t generation;
  };

  struct Node {
    bool in_queue = false;
    bool daemon = false;
    bool periodic = false;
    Duration period;
    EventFn fn;
  };

  // Constructs the callable straight into the pool node, then hands the
  // bookkeeping to the non-template CommitSchedule (one copy of that code,
  // not one per lambda type).
  template <typename F>
  EventId ScheduleInternal(SimTime when, F&& fn, bool daemon, bool periodic,
                           Duration period) {
    uint32_t slot = AllocSlot();
    NodeAt(slot).fn = std::forward<F>(fn);
    return CommitSchedule(slot, when, daemon, periodic, period);
  }
  EventId CommitSchedule(uint32_t slot, SimTime when, bool daemon, bool periodic,
                         Duration period);
  uint32_t AllocSlot();
  // Reclaims a slot: destroys the callback, bumps the generation (so stale
  // refs and EventIds miss), and returns the slot to the freelist.
  void ReleaseSlot(uint32_t slot);
  // Invalidates the slot's generation without touching its contents — used
  // to retire a firing event's id before its callback runs in place.
  void BumpGeneration(uint32_t slot) {
    if (++generations_[slot] == 0) {
      generations_[slot] = 1;  // generation 0 is the invalid-EventId marker
    }
  }
  // Nodes live in fixed chunks so their addresses survive pool growth: a
  // callback executing in place may schedule (allocating nodes) without
  // moving itself.
  Node& NodeAt(uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  bool RefLive(const Ref& ref) const {
    return generations_[ref.slot] == ref.generation;
  }

  void PushRef(Ref ref);
  Ref PopRef();

  // Skims stale refs off the top of the queue. False if nothing is pending.
  bool EnsureNext();

  // Pops and runs the earliest event. Precondition: EnsureNext() was true.
  void RunTop();

  // Drops cancelled refs from the queue once they outnumber live ones (the
  // schedule-then-cancel burst pattern would otherwise grow memory
  // unboundedly within a run).
  void MaybeCompact();
  void Compact();

  SimTime now_ = SimTime::Zero();
  uint64_t next_seq_ = 1;
  uint64_t events_executed_ = 0;

  // Event pool: chunk-stable node storage plus a dense generation array.
  // Liveness checks (the inner loop of every pop) touch only the packed
  // uint32 array, not the ~300-byte nodes.
  static constexpr uint32_t kChunkShift = 8;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::vector<uint32_t> generations_;
  std::vector<uint32_t> free_slots_;

  // Min-heap on (when, seq): the front is the next event to run. Cancelled
  // events leave stale refs here until they are popped or compacted away.
  std::vector<Ref> queue_;

  size_t pending_count_ = 0;
  // Non-daemon events outstanding (what Run() waits on).
  uint64_t live_events_ = 0;
  size_t cancelled_refs_ = 0;
  uint64_t compactions_ = 0;
};

// RAII handle for a scheduled event: cancels it on destruction. Movable, so
// it can live in containers and records; assignment cancels the previously
// held event. Replaces the hand-rolled "store an EventId, remember to Cancel
// and null it on every exit path" pattern.
class ScopedEvent {
 public:
  ScopedEvent() = default;
  ScopedEvent(Simulator* simulator, EventId id) : simulator_(simulator), id_(id) {}

  ScopedEvent(ScopedEvent&& other) noexcept
      : simulator_(other.simulator_), id_(other.id_) {
    other.simulator_ = nullptr;
    other.id_ = EventId();
  }
  ScopedEvent& operator=(ScopedEvent&& other) noexcept {
    if (this != &other) {
      Cancel();
      simulator_ = other.simulator_;
      id_ = other.id_;
      other.simulator_ = nullptr;
      other.id_ = EventId();
    }
    return *this;
  }

  ScopedEvent(const ScopedEvent&) = delete;
  ScopedEvent& operator=(const ScopedEvent&) = delete;

  ~ScopedEvent() { Cancel(); }

  // Cancels the held event (if any still pending). Returns what
  // Simulator::Cancel returned; the handle becomes empty either way.
  bool Cancel() {
    bool cancelled = false;
    if (simulator_ != nullptr && id_.valid()) {
      cancelled = simulator_->Cancel(id_);
    }
    simulator_ = nullptr;
    id_ = EventId();
    return cancelled;
  }

  // Abandons ownership without cancelling; returns the raw id.
  EventId Release() {
    EventId id = id_;
    simulator_ = nullptr;
    id_ = EventId();
    return id;
  }

  EventId id() const { return id_; }
  bool armed() const { return id_.valid(); }

 private:
  Simulator* simulator_ = nullptr;
  EventId id_;
};

}  // namespace lastcpu::sim

#endif  // SRC_SIM_SIMULATOR_H_

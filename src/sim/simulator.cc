#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

#include "src/base/check.h"

namespace lastcpu::sim {

// Heap comparator: true when `a` runs after `b`, so the std:: heap algorithms
// keep the earliest (when, seq) at the front. Equal timestamps run first-in
// first-out.
constexpr auto kRunsAfter = [](const auto& a, const auto& b) {
  return a.when != b.when ? a.when > b.when : a.seq > b.seq;
};

void Simulator::PushRef(Ref ref) {
  queue_.push_back(ref);
  std::push_heap(queue_.begin(), queue_.end(), kRunsAfter);
}

Simulator::Ref Simulator::PopRef() {
  std::pop_heap(queue_.begin(), queue_.end(), kRunsAfter);
  Ref ref = queue_.back();
  queue_.pop_back();
  return ref;
}

uint32_t Simulator::AllocSlot() {
  if (!free_slots_.empty()) {
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  uint32_t slot = static_cast<uint32_t>(generations_.size());
  if ((slot & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
  }
  generations_.push_back(1);
  return slot;
}

void Simulator::ReleaseSlot(uint32_t slot) {
  Node& node = NodeAt(slot);
  node.fn = nullptr;
  node.in_queue = false;
  node.periodic = false;
  BumpGeneration(slot);
  free_slots_.push_back(slot);
}

EventId Simulator::CommitSchedule(uint32_t slot, SimTime when, bool daemon, bool periodic,
                                  Duration period) {
  LASTCPU_CHECK(when >= now_, "scheduling into the past: %lu < %lu",
                static_cast<unsigned long>(when.nanos()),
                static_cast<unsigned long>(now_.nanos()));
  if (periodic) {
    LASTCPU_CHECK(period > Duration::Zero(), "periodic event with zero period");
  }
  Node& node = NodeAt(slot);
  LASTCPU_CHECK(node.fn, "null event callback");
  node.in_queue = true;
  node.daemon = daemon;
  node.periodic = periodic;
  node.period = period;
  uint64_t seq = next_seq_++;
  ++pending_count_;
  if (!daemon) {
    ++live_events_;
  }
  uint32_t generation = generations_[slot];
  PushRef(Ref{when, seq, slot, generation});
  return EventId(slot, generation);
}

bool Simulator::Cancel(EventId id) {
  if (!id.valid() || id.slot_ >= generations_.size()) {
    return false;
  }
  if (generations_[id.slot_] != id.generation_) {
    return false;  // already ran, already cancelled, or slot reused
  }
  Node& node = NodeAt(id.slot_);
  if (node.in_queue) {
    --pending_count_;
    if (!node.daemon) {
      --live_events_;
    }
    // The queued ref goes stale; it is skimmed at pop or swept by Compact().
    ++cancelled_refs_;
  }
  // O(1) reclamation: the callback (and everything it captured) dies now.
  ReleaseSlot(id.slot_);
  MaybeCompact();
  return true;
}

bool Simulator::EnsureNext() {
  while (!queue_.empty() && !RefLive(queue_.front())) {
    PopRef();
    --cancelled_refs_;
  }
  return !queue_.empty();
}

void Simulator::RunTop() {
  Ref ref = PopRef();
  Node& node = NodeAt(ref.slot);
  now_ = ref.when;
  ++events_executed_;
  node.in_queue = false;
  --pending_count_;
  if (!node.daemon) {
    --live_events_;
  }
  if (!node.periodic) {
    // Retire the id, then invoke the callback in place: Cancel() on the own
    // id during the callback is a clean miss (generation already moved on),
    // and chunk-stable node storage means the callback may freely schedule
    // (growing the pool) without moving out from under itself. The slot
    // returns to the freelist only after the invocation, so nothing reuses
    // the storage mid-call.
    BumpGeneration(ref.slot);
    node.fn();
    node.fn = nullptr;
    free_slots_.push_back(ref.slot);
    return;
  }
  // Periodic: invoke, then re-arm the same slot (same generation, so the
  // original EventId keeps working) unless the callback cancelled itself.
  EventFn fn = std::move(node.fn);
  fn();
  Node& again = NodeAt(ref.slot);
  if (generations_[ref.slot] != ref.generation) {
    return;  // cancelled during its own invocation; slot already reclaimed
  }
  again.fn = std::move(fn);
  again.in_queue = true;
  ++pending_count_;
  PushRef(Ref{now_ + again.period, next_seq_++, ref.slot, ref.generation});
}

void Simulator::Run() {
  // Daemons alone do not sustain the run; they execute only while real work
  // remains ahead of them.
  while (live_events_ > 0 && EnsureNext()) {
    RunTop();
  }
}

void Simulator::RunUntil(SimTime deadline) {
  LASTCPU_CHECK(deadline >= now_, "RunUntil into the past");
  while (EnsureNext() && queue_.front().when <= deadline) {
    RunTop();
  }
  now_ = deadline;
}

void Simulator::RunFor(Duration delta) { RunUntil(now_ + delta); }

bool Simulator::Step() {
  if (!EnsureNext()) {
    return false;
  }
  RunTop();
  return true;
}

void Simulator::MaybeCompact() {
  // Compact once cancelled refs outnumber live ones (and are worth the
  // sweep): a schedule-then-cancel burst — per-attempt RPC deadlines that
  // almost always get cancelled — must not grow the queue unboundedly.
  constexpr size_t kCompactFloor = 64;
  if (cancelled_refs_ >= kCompactFloor && cancelled_refs_ * 2 > queue_.size()) {
    Compact();
  }
}

void Simulator::Compact() {
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [this](const Ref& ref) { return !RefLive(ref); }),
               queue_.end());
  std::make_heap(queue_.begin(), queue_.end(), kRunsAfter);
  cancelled_refs_ = 0;
  ++compactions_;
}

}  // namespace lastcpu::sim

// Discrete-event simulation engine.
//
// A single-threaded event queue over a virtual clock. Events fire in
// (time, insertion-sequence) order, so simultaneous events execute in
// the order they were scheduled — this makes every simulation run
// bit-for-bit deterministic, which the figure-reproduction benches and
// the trace-pinned schedule tests rely on.
//
// The engine underpins the simulated execution backend: the batch
// queue, pilot agent and data stager all schedule their activity here,
// which is how the toolkit reproduces O(1000)-core scaling experiments
// on a laptop — and, since the pool rework, O(100k)-unit ensembles.
//
// Storage model (the hot path of every simulation):
//  - Events live in a slab (std::vector) recycled through a free list,
//    so steady-state scheduling allocates nothing: no shared_ptr
//    control blocks, no map nodes. A slot holds its callback in a
//    TaskFn, whose 48 inline bytes fit every lifecycle closure the
//    agents schedule; only a larger capture costs a heap allocation.
//  - The pending set is an index-based binary heap of slot numbers
//    ordered by (time, seq); each slot stores its heap position, so
//    cancel() removes the entry immediately (O(log n)) instead of
//    leaving a tombstone to bloat the queue until popped.
//  - An EventId packs (slot, generation). Slot reuse bumps the
//    generation, so a stale handle — cancelled, already fired, or from
//    a previous occupant — is rejected in O(1) without any lookup
//    structure.
#pragma once

#include <cstdint>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "common/task_fn.hpp"
#include "common/types.hpp"

namespace entk::sim {

/// Handle to a scheduled event; used to cancel timers (e.g. walltime
/// expiry of a batch job that completed early). Packs (slot,
/// generation) — valid only against the engine that issued it.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time in seconds.
  TimePoint now() const { return clock_.now(); }

  /// Clock view for profilers.
  const Clock& clock() const { return clock_; }

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule(Duration delay, TaskFn fn);

  /// Schedules `fn` at absolute time `t` (t >= now()).
  EventId schedule_at(TimePoint t, TaskFn fn);

  /// Cancels a pending event. Returns false if the event already fired,
  /// was cancelled before, or never existed. The entry leaves the
  /// pending heap immediately; its slot is recycled.
  bool cancel(EventId id);

  /// Runs the next pending event; returns false if the queue is empty.
  bool step();

  /// Runs events until the queue drains.
  void run();

  /// Runs events with firing time <= horizon; advances the clock to
  /// `horizon` even if the queue drains earlier.
  void run_until(TimePoint horizon);

  /// Firing time of the next pending event, or kTimeInfinity when the
  /// queue is empty.
  TimePoint next_event_time() const;

  /// True iff `id` refers to an event that is still pending (not fired,
  /// not cancelled, slot not reused). Same validation as cancel().
  bool pending(EventId id) const;

  /// Firing time of a pending event; CHECK-fails on a stale id.
  TimePoint event_time(EventId id) const;

  /// Insertion sequence of a pending event; CHECK-fails on a stale id.
  /// Seqs are globally monotone, so sorting captured events by
  /// (time, seq) reproduces the engine's dispatch order.
  std::uint64_t event_seq(EventId id) const;

  /// Checkpoint restore: jumps the clock forward to the snapshot time.
  /// CHECK-fails if any pending event would then lie in the past.
  void restore_now(TimePoint t);

  /// Grows the slab to hold `events` pending events without
  /// reallocating (optional warm-up for large sweeps).
  void reserve(std::size_t events);

  std::size_t pending_events() const { return heap_.size(); }
  std::uint64_t dispatched_events() const { return dispatched_; }

  /// Slots ever allocated in the slab — the engine's high-water mark of
  /// simultaneously pending events. Stays flat under schedule/cancel
  /// churn because cancelled slots are recycled, which the bloat
  /// regression test pins.
  std::size_t pool_slots() const { return pool_.size(); }

  /// True while an event callback is executing (used to refuse
  /// re-entrant run()/run_until()).
  bool dispatching() const { return dispatching_; }

 private:
  static constexpr std::uint32_t kNoHeapPos = 0xffffffffu;

  struct Slot {
    TimePoint time = 0.0;
    std::uint64_t seq = 0;  // tie-breaker: FIFO among simultaneous events
    TaskFn fn;
    std::uint32_t generation = 1;  // bumped on every release; never 0
    std::uint32_t heap_pos = kNoHeapPos;
    std::uint32_t next_free = kNoHeapPos;  // free-list link
  };

  /// Strict weak order of two live slots: earlier time first, FIFO
  /// among equal times. (time, seq) is a total order because seq is
  /// unique, so dispatch order is independent of heap internals.
  bool before(std::uint32_t a, std::uint32_t b) const {
    const Slot& sa = pool_[a];
    const Slot& sb = pool_[b];
    if (sa.time != sb.time) return sa.time < sb.time;
    return sa.seq < sb.seq;
  }

  std::uint32_t acquire_slot();
  /// Returns a fired/cancelled slot to the free list and invalidates
  /// every outstanding EventId for it.
  void release_slot(std::uint32_t slot);
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  /// Removes the heap entry at `pos`, restoring the heap property.
  void heap_remove(std::uint32_t pos);

  ManualClock clock_;
  std::vector<Slot> pool_;
  std::vector<std::uint32_t> heap_;  // slot numbers, binary min-heap
  std::uint32_t free_head_ = kNoHeapPos;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  bool dispatching_ = false;
};

}  // namespace entk::sim

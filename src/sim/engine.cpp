#include "sim/engine.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace entk::sim {

namespace {

/// Packs a slot number and its generation into one opaque handle.
/// Generation 0 never occurs, so the packed id is never kInvalidEvent.
EventId pack_event_id(std::uint32_t slot, std::uint32_t generation) {
  return (static_cast<EventId>(slot) << 32) | generation;
}

std::uint32_t event_slot(EventId id) {
  return static_cast<std::uint32_t>(id >> 32);
}

std::uint32_t event_generation(EventId id) {
  return static_cast<std::uint32_t>(id & 0xffffffffu);
}

}  // namespace

EventId Engine::schedule(Duration delay, TaskFn fn) {
  ENTK_CHECK(delay >= 0.0, "cannot schedule an event in the past");
  return schedule_at(clock_.now() + delay, std::move(fn));
}

EventId Engine::schedule_at(TimePoint t, TaskFn fn) {
  ENTK_CHECK(t >= clock_.now(), "cannot schedule an event in the past");
  ENTK_CHECK(static_cast<bool>(fn), "event callback must be callable");
  const std::uint32_t slot = acquire_slot();
  Slot& event = pool_[slot];
  event.time = t;
  event.seq = next_seq_++;
  event.fn = std::move(fn);
  event.heap_pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(slot);
  sift_up(event.heap_pos);
  return pack_event_id(slot, event.generation);
}

bool Engine::cancel(EventId id) {
  const std::uint32_t slot = event_slot(id);
  if (slot >= pool_.size()) return false;
  Slot& event = pool_[slot];
  // A stale generation means the event already fired, was cancelled, or
  // the slot now belongs to a later event.
  if (event.generation != event_generation(id)) return false;
  if (event.heap_pos == kNoHeapPos) return false;
  heap_remove(event.heap_pos);
  release_slot(slot);
  obs::Metrics::instance()
      .counter(obs::WellKnownCounter::kEngineEventsCancelled)
      .add();
  return true;
}

bool Engine::step() {
  if (heap_.empty()) return false;
  const std::uint32_t slot = heap_.front();
  heap_remove(0);
  Slot& event = pool_[slot];
  clock_.advance_to(event.time);
  ++dispatched_;
  obs::Metrics::instance()
      .counter(obs::WellKnownCounter::kEngineEventsDispatched)
      .add();
  if ((dispatched_ & 0xfffu) == 0) {
    // Sampled: one queue-depth point every 4096 dispatches keeps the
    // traced hot path within the <5% overhead budget.
    obs::Metrics::instance()
        .gauge(obs::WellKnownGauge::kEnginePendingEvents)
        .set(static_cast<double>(heap_.size()));
    ENTK_TRACE_COUNTER("engine.pending_events", "engine", heap_.size());
  }
  // Move the callback out and retire the slot before dispatching: the
  // callback may schedule further events (possibly reusing this slot —
  // its generation is already bumped) or cancel() anything, including
  // its own now-stale id.
  auto fn = std::move(event.fn);
  release_slot(slot);
  const bool was_dispatching = dispatching_;
  dispatching_ = true;
  fn();
  dispatching_ = was_dispatching;
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

TimePoint Engine::next_event_time() const {
  return heap_.empty() ? kTimeInfinity : pool_[heap_.front()].time;
}

bool Engine::pending(EventId id) const {
  const std::uint32_t slot = event_slot(id);
  if (slot >= pool_.size()) return false;
  const Slot& event = pool_[slot];
  return event.generation == event_generation(id) &&
         event.heap_pos != kNoHeapPos;
}

TimePoint Engine::event_time(EventId id) const {
  ENTK_CHECK(pending(id), "event_time() on a stale event id");
  return pool_[event_slot(id)].time;
}

std::uint64_t Engine::event_seq(EventId id) const {
  ENTK_CHECK(pending(id), "event_seq() on a stale event id");
  return pool_[event_slot(id)].seq;
}

void Engine::restore_now(TimePoint t) {
  ENTK_CHECK(next_event_time() >= t,
             "cannot restore the clock past a pending event");
  clock_.advance_to(t);
}

void Engine::run_until(TimePoint horizon) {
  ENTK_CHECK(horizon >= clock_.now(), "horizon lies in the past");
  while (!heap_.empty() && pool_[heap_.front()].time <= horizon) {
    step();
  }
  clock_.advance_to(horizon);
}

void Engine::reserve(std::size_t events) {
  pool_.reserve(events);
  heap_.reserve(events);
}

std::uint32_t Engine::acquire_slot() {
  if (free_head_ != kNoHeapPos) {
    const std::uint32_t slot = free_head_;
    free_head_ = pool_[slot].next_free;
    pool_[slot].next_free = kNoHeapPos;
    return slot;
  }
  ENTK_CHECK(pool_.size() < kNoHeapPos, "event pool exhausted");
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Engine::release_slot(std::uint32_t slot) {
  Slot& event = pool_[slot];
  // Drop the closure's captures now — a recycled slot must not pin
  // shared_ptrs (units, agents) until its next occupant arrives.
  event.fn.reset();
  event.heap_pos = kNoHeapPos;
  ++event.generation;
  if (event.generation == 0) ++event.generation;  // 0 is reserved
  event.next_free = free_head_;
  free_head_ = slot;
}

void Engine::sift_up(std::uint32_t pos) {
  const std::uint32_t slot = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!before(slot, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pool_[heap_[pos]].heap_pos = pos;
    pos = parent;
  }
  heap_[pos] = slot;
  pool_[slot].heap_pos = pos;
}

void Engine::sift_down(std::uint32_t pos) {
  const std::uint32_t slot = heap_[pos];
  const std::uint32_t count = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= count) break;
    if (child + 1 < count && before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!before(heap_[child], slot)) break;
    heap_[pos] = heap_[child];
    pool_[heap_[pos]].heap_pos = pos;
    pos = child;
  }
  heap_[pos] = slot;
  pool_[slot].heap_pos = pos;
}

void Engine::heap_remove(std::uint32_t pos) {
  const std::uint32_t removed = heap_[pos];
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  pool_[removed].heap_pos = kNoHeapPos;
  if (pos < heap_.size()) {
    heap_[pos] = last;
    pool_[last].heap_pos = pos;
    // The replacement may need to move either way.
    sift_down(pos);
    sift_up(pool_[last].heap_pos);
  }
}

}  // namespace entk::sim

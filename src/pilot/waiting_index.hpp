// Core-count-bucketed index over an agent's waiting units.
//
// Agents used to keep waiting units in a flat deque and hand the whole
// thing to the scheduler every cycle; each policy then rescanned (or
// re-sorted) all n waiting units, so a scheduler cycle cost O(n) and a
// 100k-unit backlog spent most wall-clock selecting. This index keeps
// the backlog grouped by core demand instead:
//
//   buckets_:  cores -> FIFO of (arrival seq, unit)
//
// A unit records that it waits (ComputeUnit::waiting), and its bucket
// key is its own core count, so cancellation finds it in O(bucket)
// without a per-unit hash node.
//
// Arrival seqs are monotone, so "earliest waiting unit", "earliest
// unit fitting a budget" and "largest unit fitting a budget" are all
// answered from bucket fronts in O(distinct core counts) — never
// O(waiting units). Agents feed the index incrementally on
// submit/settle; nothing is rebuilt per cycle. A bucket that empties
// stays in place (the queries skip it), so an agent with no backlog
// does not build and free a bucket for every unit; drain() frees them
// all.
//
// The index is not thread-safe; its owner (SimAgent on the engine
// thread, LocalAgent under its mutex) serializes access.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "pilot/compute_unit.hpp"

namespace entk::pilot {

class WaitingIndex {
 public:
  /// A unit popped from the index, with its arrival seq so callers can
  /// restore global FIFO order across buckets (launch order).
  struct Picked {
    std::uint64_t seq = 0;
    ComputeUnitPtr unit;
  };

  WaitingIndex() = default;
  WaitingIndex(const WaitingIndex&) = delete;
  WaitingIndex& operator=(const WaitingIndex&) = delete;
  /// Clears the waiting mark of every unit still indexed.
  ~WaitingIndex();

  /// Appends a unit that waits nowhere else (arrival order is the push
  /// order).
  void push(ComputeUnitPtr unit);

  /// Removes one unit wherever it waits; returns false when absent.
  bool erase(const ComputeUnit* unit);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Smallest core demand among waiting units (0 when empty): lets the
  /// agent skip a cycle when nothing can possibly fit.
  Count min_cores() const;

  /// Earliest-arrived unit overall (FIFO head), nullptr when empty.
  const ComputeUnitPtr* fifo_head() const;
  Picked pop_fifo_head();

  /// Earliest-arrived unit with cores <= budget; false when none fits.
  bool pop_earliest_fitting(Count budget, Picked& out);

  /// Largest-cored unit with cores <= budget (FIFO among equals);
  /// false when none fits.
  bool pop_largest_fitting(Count budget, Picked& out);

  /// Removes and returns every unit in arrival order, and frees every
  /// bucket.
  std::vector<ComputeUnitPtr> drain();

  /// Every waiting unit in arrival order, without disturbing the index
  /// (checkpoint capture). Re-pushing the returned sequence into a
  /// fresh index reproduces the same relative scheduling order.
  std::vector<ComputeUnitPtr> snapshot() const;

 private:
  using Bucket = std::deque<Picked>;

  /// Pops the earliest-arrived unit among the buckets before `end`;
  /// false when they are all empty.
  bool pop_earliest(std::map<Count, Bucket>::iterator end, Picked& out);
  void pop_from(std::map<Count, Bucket>::iterator it, Picked& out);

  std::map<Count, Bucket> buckets_;  // emptied buckets are kept
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
};

}  // namespace entk::pilot

// ComputeUnit: one task in flight, with its profiling timeline.
//
// The timeline drives the paper's overhead decomposition:
//   created -> submitted  : EnTK pattern overhead (creation+submission)
//   submitted -> started  : runtime (agent) overhead: queueing + spawn
//   started -> stopped    : execution time
//   stopped -> finalised  : output staging + bookkeeping
// Thread-safe for the local backend (worker threads mutate state).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "pilot/descriptions.hpp"
#include "pilot/states.hpp"

namespace entk::pilot {

class CallbackGate;
class UnitManager;

class ComputeUnit {
 public:
  /// manager_index() of a unit no manager created, and agent_slot() of
  /// a unit holding no SimAgent cores.
  static constexpr std::size_t kNoIndex =
      std::numeric_limits<std::size_t>::max();

  /// `session_ordinal` is obs::session_ordinal(description.session),
  /// which the creator (a UnitManager) has already interned. A unit
  /// reports each transition to `manager` through `gate`; a unit built
  /// without a manager reports to nobody.
  ComputeUnit(std::string uid, UnitDescription description,
              const Clock& clock, std::uint32_t session_ordinal,
              UnitManager* manager = nullptr,
              std::shared_ptr<CallbackGate> gate = nullptr);

  const std::string& uid() const { return uid_; }
  const UnitDescription& description() const { return description_; }

  /// Stable trace identity (obs::trace_flow_id of the uid), computed
  /// once so hot-path instrumentation never re-hashes the uid.
  std::uint64_t trace_flow() const { return trace_flow_; }

  /// Trace ordinal of the owning session (obs::session_ordinal of
  /// description().session), held so instrumentation in agents never
  /// re-interns the name. 0 for legacy unnamed sessions.
  std::uint32_t session_ordinal() const { return session_ordinal_; }

  UnitState state() const ENTK_EXCLUDES(mutex_);
  Status final_status() const ENTK_EXCLUDES(mutex_);

  /// Number of times this unit has been (re)started after failure.
  Count retries() const ENTK_EXCLUDES(mutex_);

  /// Execution-attempt epoch: bumped every time the unit is rewound to
  /// kPendingExecution (retry or pilot-loss requeue). Agents capture
  /// it when scheduling lifecycle events so stale events from a dead
  /// attempt cannot act on a relaunched unit.
  Count epoch() const ENTK_EXCLUDES(mutex_);

  // Profiling timeline (kNoTime until stamped).
  /// Accepted by the unit manager.
  TimePoint created_at() const ENTK_EXCLUDES(mutex_);
  /// Handed to the agent.
  TimePoint submitted_at() const ENTK_EXCLUDES(mutex_);
  TimePoint exec_started_at() const ENTK_EXCLUDES(mutex_);
  TimePoint exec_stopped_at() const ENTK_EXCLUDES(mutex_);
  TimePoint finished_at() const ENTK_EXCLUDES(mutex_);

  /// Time spent occupying cores (exec_stopped - exec_started); 0 if the
  /// unit never executed.
  Duration execution_time() const ENTK_EXCLUDES(mutex_);

  /// Creation index within the manager that made this unit: where that
  /// manager keeps its entry. kNoIndex for a unit built without one.
  std::size_t manager_index() const { return manager_index_; }

  // --- runtime interface (agents and unit managers only) ---
  Status advance_state(UnitState to, Status failure = Status::ok())
      ENTK_EXCLUDES(mutex_);
  void stamp_created() ENTK_EXCLUDES(mutex_);
  void stamp_submitted() ENTK_EXCLUDES(mutex_);
  void note_retry() ENTK_EXCLUDES(mutex_);
  /// Rewinds a failed unit to kPendingExecution for resubmission.
  Status reset_for_retry() ENTK_EXCLUDES(mutex_);
  /// Set once by the creating manager, under its lock and before it
  /// hands the unit to anyone, so later readers need no lock.
  void set_manager_index(std::size_t index) { manager_index_ = index; }
  /// The SimAgent slot holding this unit's cores, kNoIndex while it
  /// holds none: set at launch and restore, cleared at release. Like
  /// the rest of a SimAgent's state it is touched only on the engine
  /// thread. An agent checks that the slot still holds this unit, so a
  /// slot recorded by another agent never matches.
  std::size_t agent_slot() const { return agent_slot_; }
  void set_agent_slot(std::size_t slot) { agent_slot_ = slot; }
  /// Whether the unit sits in a WaitingIndex: set by its push, cleared
  /// by every pop, erase and drain. Written only by the index's owner (a
  /// SimAgent on the engine thread, a LocalAgent under its mutex). It is
  /// atomic because UnitManager::cancel_unit asks every agent, so
  /// another LocalAgent may read it; relaxed, because such a reader
  /// then looks for the unit in its own index and does not find it.
  bool waiting() const { return waiting_.load(std::memory_order_relaxed); }
  void set_waiting(bool waiting) {
    waiting_.store(waiting, std::memory_order_relaxed);
  }

  // --- checkpoint/restart (ckpt::Coordinator only) ---
  /// All mutable state.
  struct SavedState {
    UnitState state = UnitState::kNew;
    Status final_status;
    Count retries = 0;
    Count epoch = 0;
    TimePoint created_at = kNoTime;
    TimePoint submitted_at = kNoTime;
    TimePoint exec_started_at = kNoTime;
    TimePoint exec_stopped_at = kNoTime;
    TimePoint finished_at = kNoTime;
  };
  SavedState save_state() const ENTK_EXCLUDES(mutex_);
  /// Injects a saved state directly; reports nothing to the manager and
  /// performs no transition validation (the snapshot was valid when
  /// taken).
  void restore_state(const SavedState& saved) ENTK_EXCLUDES(mutex_);

 private:
  const std::string uid_;
  const UnitDescription description_;
  const Clock& clock_;
  const std::uint64_t trace_flow_;
  const std::uint32_t session_ordinal_;
  UnitManager* const manager_;
  const std::shared_ptr<CallbackGate> gate_;
  std::size_t manager_index_ = kNoIndex;
  std::size_t agent_slot_ = kNoIndex;
  std::atomic<bool> waiting_{false};

  mutable Mutex mutex_{LockRank::kComputeUnit};
  UnitState state_ ENTK_GUARDED_BY(mutex_) = UnitState::kNew;
  Status final_status_ ENTK_GUARDED_BY(mutex_);
  Count retries_ ENTK_GUARDED_BY(mutex_) = 0;
  Count epoch_ ENTK_GUARDED_BY(mutex_) = 0;
  TimePoint created_at_ ENTK_GUARDED_BY(mutex_) = kNoTime;
  TimePoint submitted_at_ ENTK_GUARDED_BY(mutex_) = kNoTime;
  TimePoint exec_started_at_ ENTK_GUARDED_BY(mutex_) = kNoTime;
  TimePoint exec_stopped_at_ ENTK_GUARDED_BY(mutex_) = kNoTime;
  TimePoint finished_at_ ENTK_GUARDED_BY(mutex_) = kNoTime;
};

using ComputeUnitPtr = std::shared_ptr<ComputeUnit>;

}  // namespace entk::pilot

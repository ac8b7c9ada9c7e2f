// UnitManager: accepts compute-unit descriptions, routes them to pilot
// agents, tracks completion and drives automatic retries (the RP
// UnitManager analogue).
//
// Units submitted before any pilot is active are held and flushed the
// moment a pilot comes up — this is the late binding that lets an
// application describe more work than the resources instantaneously
// available. The same late binding powers fault tolerance: a failed
// unit with retry budget left is resubmitted after its RetryPolicy's
// backoff delay, and when a pilot fails (walltime expiry, container
// loss) its in-flight units are evicted, rewound to kPendingExecution
// and requeued onto surviving — or later-arriving replacement —
// pilots, without burning retry budget.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "common/uid.hpp"
#include "pilot/backend.hpp"
#include "pilot/pilot.hpp"

namespace entk::pilot {

/// Rundown protection for callbacks whose registrant may die first.
///
/// Objects the UnitManager does not own call back into it: pilots live
/// on in the shared PilotManager after a session is torn down,
/// retry-backoff timers live in the backend's engine, and the units it
/// creates (held by agents, patterns and reports) call in after every
/// transition. Each such caller holds a shared_ptr to its manager's gate
/// and brackets the call with enter()/exit(); the manager's destructor
/// close()s the gate, which flips new entries to no-ops and blocks until
/// every in-flight call has exited. After close() returns, the manager
/// can be destroyed: no callback can touch it again.
///
/// enter/exit are two relaxed-ish atomics on the hot path; the mutex +
/// condvar are touched only during close. Entries count nesting, not
/// threads, so callbacks that re-enter the manager stay cheap.
class CallbackGate {
 public:
  /// Returns false (after undoing its entry) when the gate is closed;
  /// the caller must return without touching the manager.
  bool enter() {
    active_.fetch_add(1, std::memory_order_acquire);
    if (closed_.load(std::memory_order_acquire)) {
      exit();
      return false;
    }
    return true;
  }

  void exit() {
    if (active_.fetch_sub(1, std::memory_order_release) == 1 &&
        closed_.load(std::memory_order_acquire)) {
      MutexLock lock(mutex_);
      drained_.notify_all();
    }
  }

  /// Closes the gate and blocks until every in-flight callback body has
  /// exited. Idempotent; must not be called from inside a callback.
  void close() ENTK_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    closed_.store(true, std::memory_order_release);
    while (active_.load(std::memory_order_acquire) != 0) {
      drained_.wait(mutex_);
    }
  }

 private:
  std::atomic<bool> closed_{false};
  std::atomic<std::int64_t> active_{0};
  Mutex mutex_{LockRank::kCallbackGate};
  CondVar drained_;
};

class UnitManager {
 public:
  /// `session` scopes the manager to one named session: unit uids draw
  /// from the "<session>.unit" counter family, submitted descriptions
  /// are stamped with the session, and unit trace events carry its
  /// ordinal. The empty name keeps the legacy process-wide "unit"
  /// family.
  explicit UnitManager(ExecutionBackend& backend,
                       std::string session = "");

  /// Closes the callback gate: blocks until in-flight pilot/unit/timer
  /// callbacks drain, then detaches this manager from all of them.
  ~UnitManager();

  UnitManager(const UnitManager&) = delete;
  UnitManager& operator=(const UnitManager&) = delete;

  /// Owning session name; "" for legacy unnamed managers.
  const std::string& session() const { return session_; }

  /// Registers a pilot as an execution target. Units are distributed
  /// round-robin over active pilots.
  void add_pilot(PilotPtr pilot);

  /// Creates units from descriptions and routes them. Returned units
  /// are kPendingExecution (or already kFailed if oversized).
  Result<std::vector<ComputeUnitPtr>> submit_units(
      std::vector<UnitDescription> descriptions);

  /// Drives the backend until every given unit is settled: done,
  /// cancelled, or failed with retries exhausted.
  Status wait_units(const std::vector<ComputeUnitPtr>& units,
                    Duration timeout = kTimeInfinity);

  /// Cancels every unsettled unit this manager holds — unrouted, in
  /// retry backoff, waiting in an agent, or (sim) executing — and
  /// drives the backend until all of them settle. Units the backend
  /// cannot kill (local executing) are waited out. Teardown path: a
  /// session destroyed with units in flight drains here instead of
  /// racing agent callbacks against destruction.
  Status drain(Duration timeout = kTimeInfinity) ENTK_EXCLUDES(mutex_);

  /// Kills one unit (the paper's kill/replace adaptivity): cancels it
  /// wherever it currently lives — held by this manager, waiting in an
  /// agent, or (simulated backend only) executing. See
  /// Agent::cancel_unit for backend-specific limits.
  Status cancel_unit(const ComputeUnitPtr& unit);

  /// Number of units handed to this manager over its lifetime.
  std::size_t total_units() const ENTK_EXCLUDES(mutex_);
  /// Units not yet settled (a kept count, not a scan).
  std::size_t inflight_units() const ENTK_EXCLUDES(mutex_);
  /// Retries performed so far (every resubmission after a failure).
  std::size_t total_retries() const ENTK_EXCLUDES(mutex_);
  /// Units requeued off failed pilots (pilot-loss recovery).
  std::size_t recovered_units() const ENTK_EXCLUDES(mutex_);

  /// Fired exactly once per managed unit when it settles: done,
  /// cancelled, or failed with retries exhausted. A kFailed state with
  /// retry budget left never reaches observers — the retry is internal.
  /// Observers run outside the manager lock and may re-enter the
  /// manager (submit more units, cancel, ...).
  using SettledObserver = std::function<void(const ComputeUnitPtr&,
                                             UnitState)>;
  /// Registers an observer; returns a token for removal.
  std::size_t add_settled_observer(SettledObserver observer)
      ENTK_EXCLUDES(mutex_);
  void remove_settled_observer(std::size_t token) ENTK_EXCLUDES(mutex_);

  ExecutionBackend& backend() { return backend_; }

  // --- runtime interface (units this manager created only) ---
  /// Called by a unit after each of its transitions, outside the unit's
  /// lock and inside this manager's gate: settles it, or schedules its
  /// retry.
  void handle_state_change(ComputeUnit& unit, UnitState state)
      ENTK_EXCLUDES(mutex_);

  // --- checkpoint/restart (ckpt::Coordinator only) ---
  struct SavedState {
    std::size_t next_pilot = 0;
    std::vector<std::string> unrouted;  ///< uids in queue order
    std::size_t total_units = 0;
    std::size_t total_retries = 0;
    std::size_t recovered_units = 0;
    Xoshiro256::State retry_rng;
  };
  using UnitResolver = std::function<ComputeUnitPtr(const std::string&)>;
  SavedState save_state() const ENTK_EXCLUDES(mutex_);
  /// Injects counters/cursors and rebuilds the unrouted queue. Call
  /// after every unit has been rebuilt via restore_unit().
  void restore_state(const SavedState& saved, const UnitResolver& resolve)
      ENTK_EXCLUDES(mutex_);
  /// Rebuilds a captured unit in its saved state and manages it with
  /// the captured entry flags, without counting it as a new submission.
  ComputeUnitPtr restore_unit(std::string uid, UnitDescription description,
                              const ComputeUnit::SavedState& state,
                              bool settled, bool notified)
      ENTK_EXCLUDES(mutex_);
  /// Entry flags for one managed unit; false when not managed here.
  bool unit_entry(const ComputeUnit* unit, bool& settled,
                  bool& notified) const ENTK_EXCLUDES(mutex_);
  /// Pending retry-backoff timers with their backend timer tokens
  /// (sim EventIds), sorted by unit uid for determinism.
  std::vector<std::pair<ComputeUnitPtr, std::uint64_t>> pending_retries()
      const ENTK_EXCLUDES(mutex_);
  /// Re-schedules a captured retry-backoff requeue after `delay`.
  void repost_retry(const ComputeUnitPtr& unit, Duration delay)
      ENTK_EXCLUDES(mutex_);

 private:
  bool settled_locked(const ComputeUnit& unit) const ENTK_REQUIRES(mutex_);
  /// Routes every held unit to an active pilot (takes the lock itself;
  /// agent submission happens outside it so callbacks can re-enter).
  void route_pending() ENTK_EXCLUDES(mutex_);
  /// Marks the unit settled and fires the settled observers (outside
  /// the lock, at most once per unit). Every settle path — completion,
  /// cancellation, final failure, oversized rejection — funnels here.
  void settle_and_notify(ComputeUnit& unit, UnitState state)
      ENTK_EXCLUDES(mutex_);
  /// Evicts and requeues the units stranded on a failed pilot.
  void recover_from_pilot(Pilot& pilot) ENTK_EXCLUDES(mutex_);
  /// Schedules the backoff-expiry requeue for a retrying unit and
  /// tracks its timer token for checkpoint capture.
  void schedule_retry_requeue(ComputeUnitPtr retry, Duration delay)
      ENTK_EXCLUDES(mutex_);

  ExecutionBackend& backend_;
  const std::string session_;
  const std::uint32_t session_ordinal_;
  /// Interned handle: unit creation takes one relaxed atomic increment
  /// per uid instead of a global map lookup under a mutex. Per-manager
  /// so each session draws from its own counter family.
  const UidSource unit_uids_;
  /// Shared with every unit this manager creates and every callback it
  /// registers on pilots and backend timers; closed (and drained) on
  /// destruction.
  const std::shared_ptr<CallbackGate> gate_;

  struct Entry {
    ComputeUnitPtr unit;
    bool settled = false;
    bool notified = false;  ///< Settled observers already fired.
  };
  /// The entry of a unit this manager created, found by its
  /// manager_index(); nullptr for any other unit.
  Entry* entry_locked(const ComputeUnit& unit) ENTK_REQUIRES(mutex_);
  const Entry* entry_locked(const ComputeUnit& unit) const
      ENTK_REQUIRES(mutex_);
  /// Appends the entry of a unit this manager just created or rebuilt,
  /// and gives the unit its index.
  void add_entry_locked(const ComputeUnitPtr& unit, bool settled,
                        bool notified) ENTK_REQUIRES(mutex_);
  /// Flips an entry to settled and keeps unsettled_ in step; every
  /// place that settles an entry goes through one of these.
  void settle_entry_locked(Entry& entry) ENTK_REQUIRES(mutex_);
  /// Same, found by unit; a unit not managed here is ignored.
  void settle_entry_locked(const ComputeUnit& unit) ENTK_REQUIRES(mutex_);

  mutable Mutex mutex_{LockRank::kUnitManager};
  std::vector<PilotPtr> pilots_ ENTK_GUARDED_BY(mutex_);
  std::size_t next_pilot_ ENTK_GUARDED_BY(mutex_) = 0;  // round-robin cursor
  std::deque<ComputeUnitPtr> unrouted_ ENTK_GUARDED_BY(mutex_);
  /// Every unit this manager created or rebuilt, in creation order:
  /// entries_[unit->manager_index()].
  std::vector<Entry> entries_ ENTK_GUARDED_BY(mutex_);
  /// Entries with settled == false: entk-serve's drive loop reads
  /// inflight_units() after each settlement and flush, so it must not
  /// scan entries_.
  std::size_t unsettled_ ENTK_GUARDED_BY(mutex_) = 0;
  std::size_t total_units_ ENTK_GUARDED_BY(mutex_) = 0;
  std::size_t total_retries_ ENTK_GUARDED_BY(mutex_) = 0;
  std::size_t recovered_units_ ENTK_GUARDED_BY(mutex_) = 0;
  /// Immutable snapshot, rebuilt only when an observer is added or
  /// removed; settle_and_notify grabs the shared_ptr under the lock
  /// (one refcount bump) instead of copying the vector per settled
  /// unit — at 100k units that copy dominated the settle path.
  using ObserverList = std::vector<std::pair<std::size_t, SettledObserver>>;
  std::shared_ptr<const ObserverList> observers_ ENTK_GUARDED_BY(mutex_);
  std::size_t next_observer_token_ ENTK_GUARDED_BY(mutex_) = 0;
  Xoshiro256 retry_rng_ ENTK_GUARDED_BY(mutex_){0x7e7c1ULL};
  /// Backend timer tokens of in-flight retry backoffs (checkpointing);
  /// entries are dropped when the timer fires, stale tokens are
  /// filtered against the engine at capture time.
  std::unordered_map<const ComputeUnit*, std::uint64_t> retry_timers_
      ENTK_GUARDED_BY(mutex_);
};

}  // namespace entk::pilot

// GraphExecutor: event-driven execution of one TaskGraph.
//
// The executor subscribes to the runtime's unit-settled events
// (PatternExecutor::subscribe_settled, backed by the unit manager's
// settled observers) instead of polling predicates. Each settlement
// pumps the graph: settled nodes update their groups, stage verdicts
// are decided, failures propagate as skips, and every newly unblocked
// frontier is submitted in ONE batched PatternExecutor::submit call —
// independent pipelines' stage N+1 tasks launch the instant their own
// stage N settles, with no global barrier.
//
// When the graph quiesces (nothing ready, nothing in flight) the
// executor evaluates chain-set verdicts and runs the graph's expanders
// (innermost-first) to grow the next generation; when the expanders
// are exhausted too, the run finishes. The executor never waits: its
// caller (Session::run, Runtime::run_concurrent, entk-serve's drive
// loop) drives the backend until finished() holds.
//
// Failure semantics (owned here, not by patterns):
//  - A stage group's verdict (fail-fast / continue / quorum over its
//    members) is computed once all members settle; a failing verdict
//    aborts the graph: unsubmitted nodes are skipped, in-flight units
//    settle, then the run finishes with the verdict.
//  - A submission failure inside a stage group aborts likewise (the
//    historical submit-error semantics); inside a chain it only ends
//    that chain.
//  - Chain sets (per-pipeline / per-replica scopes) are judged at
//    drain time under their own rules.
#pragma once

#include <deque>
#include <vector>

#include "common/mutex.hpp"
#include "common/status.hpp"
#include "core/pattern.hpp"
#include "core/task_graph.hpp"

namespace entk::core {

/// Runtime status of one graph node.
enum class NodeStatus {
  kPending,    ///< Waiting on dependencies or gates.
  kSubmitted,  ///< Unit in flight.
  kDone,
  kFailed,     ///< Unit settled failed, or submission failed.
  kCanceled,
  kSkipped,    ///< Abandoned: an upstream failure or a graph abort.
};

class GraphExecutor {
 public:
  /// With `deferred` the executor holds dispatch for its whole life:
  /// see the held-dispatch block below. Otherwise every settlement
  /// pumps the graph and submits what it unblocked before returning.
  GraphExecutor(TaskGraph& graph, PatternExecutor& executor,
                bool deferred = false);

  // --- non-blocking run control ---
  // A run is start() (or start_resumed()), a drive of the backend
  // until finished(), then unsubscribe() and outcome(); the caller
  // owns the wait, so one backend drive can advance N sessions'
  // executors together.
  /// Validates and syncs the graph, subscribes to settled events and
  /// pumps the initial frontier. Events now advance the graph whenever
  /// anything drives the backend.
  Status start();
  /// start() for a checkpoint-restored run: no initial sync (the
  /// restore injected runs_), same subscription and initial pump.
  Status start_resumed();
  /// Whether the run has finished (outcome() is then meaningful).
  bool finished() const ENTK_EXCLUDES(mutex_);
  /// The pattern verdict of a finished run.
  Status outcome() const ENTK_EXCLUDES(mutex_);
  /// Unsubscribes from settled events. Call once after the run
  /// finishes — or on teardown of an unfinished run, after which the
  /// executor no longer reacts to settlements.
  void unsubscribe();

  // --- held dispatch (entk-serve's fair-share scheduler) ---
  // A deferred executor never submits on its own: a settlement only
  // queues its event, and start()/cancel() only materialize. The
  // drive loop advances the graph with advance_local() and submits
  // with flush_submit_bounded(), both between engine steps and both on
  // the driver thread, so user SpecFns are never called concurrently.
  /// One advance round, everything but the submission: applies queued
  /// settlement events, decides groups, propagates skips, computes the
  /// next frontier and materializes its specs. Returns true when a
  /// batch is pending (including one left from an earlier bounded
  /// flush).
  bool advance_local() ENTK_EXCLUDES(mutex_);
  /// Submits the pending batch, in node-id order. Returns true when
  /// anything was submitted (another advance round may unblock more
  /// work). The settle-time pump calls it after each of its rounds.
  bool flush_submit() ENTK_EXCLUDES(mutex_);
  /// Bounded flush: submits at most `max_nodes` of the pending batch
  /// (lowest node ids first) and keeps the remainder pending for a
  /// later flush — the dispatch hook serve's deficit-round-robin
  /// interleaves contending sessions through. Returns the number of
  /// nodes actually submitted. Driver-thread only.
  std::size_t flush_submit_bounded(std::size_t max_nodes)
      ENTK_EXCLUDES(mutex_);
  /// Nodes advance_local() materialized that no flush has sent yet.
  /// Driver-thread only (reads the unannotated batch).
  std::size_t pending_submits() const { return pending_frontier_.size(); }

  // --- cancellation (Session::cancel_run) ---
  /// Aborts an unfinished run with `reason`: discards any held
  /// batch not yet flushed (its nodes are about to be swept), marks
  /// the graph aborted so the one-shot skip sweep retires every
  /// unsubmitted node, and returns the units still in flight so the
  /// caller can cancel them through its unit manager. Their
  /// settlements drain through the normal event path and the run
  /// finishes with `reason` at quiesce. Returns an empty vector on an
  /// already-finished run. Driver-thread only (must not race an
  /// active pump or advance_local/flush round).
  std::vector<pilot::ComputeUnitPtr> cancel(Status reason)
      ENTK_EXCLUDES(mutex_);

  /// Post-run introspection (tests, tools).
  NodeStatus node_status(NodeId id) const ENTK_EXCLUDES(mutex_);
  std::size_t nodes_submitted() const ENTK_EXCLUDES(mutex_);

  // --- checkpoint/restart (ckpt::Coordinator only) ---
  struct SavedState {
    struct Node {
      NodeStatus status = NodeStatus::kPending;
      std::string unit_uid;  ///< empty when no unit was adopted
      Status error;
    };
    struct Group {
      std::size_t settled = 0;
      std::size_t done = 0;
      bool decided = false;
      bool passed = false;
    };
    std::vector<Node> nodes;
    std::vector<Group> groups;
    std::vector<bool> chain_sets_decided;
    std::vector<std::size_t> expander_stack;
    std::size_t expanders_seen = 0;
    /// Every expander invocation so far as (index, produced) — replayed
    /// on restore to regrow the graph deterministically.
    std::vector<std::pair<std::size_t, bool>> expander_log;
    std::vector<std::pair<NodeId, Status>> errors;
    std::size_t inflight = 0;
    std::size_t submitted_count = 0;
    bool aborted = false;
    Status abort_status;
  };
  using UnitResolver =
      std::function<pilot::ComputeUnitPtr(const std::string&)>;
  /// Captures the executor at an engine-step boundary (events_ drained,
  /// no pump active).
  SavedState save_state() const ENTK_EXCLUDES(mutex_);
  /// Replays the captured expander invocations against the freshly
  /// compiled graph, regrowing the adaptive generations. Must run
  /// before restore_state(); fails if an expander diverges from the
  /// log (non-deterministic pattern).
  Status replay_expander_log(
      const std::vector<std::pair<std::size_t, bool>>& log);
  /// Injects the captured runtime state; `resolve` maps unit uids back
  /// to restored units.
  void restore_state(const SavedState& saved, const UnitResolver& resolve)
      ENTK_EXCLUDES(mutex_);

 private:
  struct Event {
    NodeId node;
    pilot::UnitState state;
  };
  struct NodeRun {
    NodeStatus status = NodeStatus::kPending;
    pilot::ComputeUnitPtr unit;
    Status error;
  };
  struct GroupRun {
    std::size_t settled = 0;
    std::size_t done = 0;
    bool decided = false;
    bool passed = false;
  };

  /// Event entry point: queues the settlement and, unless dispatch is
  /// held, pumps the graph. Safe against re-entrancy — a settlement
  /// arriving while a pump is active (a unit failing inside submit,
  /// local-backend worker threads) is queued and drained by the active
  /// pump.
  void on_unit_settled(const pilot::ComputeUnitPtr& unit)
      ENTK_EXCLUDES(mutex_);
  /// The settle-time pump: advance rounds, each followed by
  /// flush_submit(), until nothing more is unblocked. Under held
  /// dispatch it only runs advance_local().
  void pump() ENTK_EXCLUDES(mutex_);
  /// Claims the pump flag; false when another pump holds it or the
  /// run has finished.
  bool claim_pump() ENTK_EXCLUDES(mutex_);
  /// Advance rounds with the pump flag held, until a batch is pending
  /// (returns true, flag still held) or nothing can be submitted now
  /// (returns false, flag released under the same lock that decided
  /// it, so no queued event slips past).
  bool advance_round() ENTK_EXCLUDES(mutex_);
  /// Quiesced: abort resolution, chain-set verdicts, expanders.
  /// Returns true when an expander scheduled more work.
  bool handle_quiesce() ENTK_EXCLUDES(mutex_);
  /// Produces the frontier's specs at submission time, outside any
  /// lock, in node-id order on the calling thread.
  std::vector<TaskSpec> materialize_specs(
      const std::vector<NodeId>& frontier) ENTK_EXCLUDES(mutex_);
  /// Submits an already-materialized batch and adopts the units (the
  /// flush_submit work).
  void submit_specs(const std::vector<NodeId>& frontier,
                    std::vector<TaskSpec>& specs) ENTK_EXCLUDES(mutex_);
  void adopt_unit(NodeId id, const pilot::ComputeUnitPtr& unit)
      ENTK_EXCLUDES(mutex_);
  /// Records `unit` as node `id`'s in node_of_; node_base_ must be
  /// set.
  void map_unit_locked(const pilot::ComputeUnit& unit, NodeId id)
      ENTK_REQUIRES(mutex_);
  void fail_submission(NodeId id, const Status& error)
      ENTK_EXCLUDES(mutex_);
  Status decide_chain_sets() ENTK_EXCLUDES(mutex_);

  void sync_graph_locked() ENTK_REQUIRES(mutex_);
  void apply_events_locked() ENTK_REQUIRES(mutex_);
  void decide_stage_groups_locked() ENTK_REQUIRES(mutex_);
  void propagate_skips_locked() ENTK_REQUIRES(mutex_);
  std::vector<NodeId> frontier_locked() ENTK_REQUIRES(mutex_);
  /// Queues `id` for a readiness check at the next frontier drain.
  void queue_ready_locked(NodeId id) ENTK_REQUIRES(mutex_);
  void mark_group_dirty_locked(GroupId gid) ENTK_REQUIRES(mutex_);
  /// Records a settled node in all its groups and marks them dirty.
  void settle_into_groups_locked(NodeId id, bool done)
      ENTK_REQUIRES(mutex_);
  void queue_dependent_skips_locked(NodeId id) ENTK_REQUIRES(mutex_);
  Status stage_verdict_locked(GroupId group) const ENTK_REQUIRES(mutex_);
  void finish_locked(Status outcome) ENTK_REQUIRES(mutex_);

  TaskGraph& graph_;
  PatternExecutor& executor_;
  /// Held dispatch, fixed at construction (see the block above).
  const bool deferred_;

  mutable Mutex mutex_{LockRank::kGraphExecutor};
  std::vector<NodeRun> runs_ ENTK_GUARDED_BY(mutex_);
  std::vector<GroupRun> group_runs_ ENTK_GUARDED_BY(mutex_);
  /// Reverse adjacency and change worklists, maintained incrementally
  /// by sync_graph_locked and the event path. They keep every pump
  /// proportional to what actually changed instead of rescanning the
  /// whole graph — at 100k nodes the old full scans were quadratic.
  std::vector<std::vector<NodeId>> dependents_ ENTK_GUARDED_BY(mutex_);
  std::vector<std::vector<NodeId>> gated_nodes_ ENTK_GUARDED_BY(mutex_);
  std::vector<NodeId> ready_candidates_ ENTK_GUARDED_BY(mutex_);
  std::vector<char> ready_queued_ ENTK_GUARDED_BY(mutex_);
  std::vector<NodeId> skip_candidates_ ENTK_GUARDED_BY(mutex_);
  std::vector<GroupId> dirty_groups_ ENTK_GUARDED_BY(mutex_);
  /// decide_stage_groups_locked's working copy of dirty_groups_, kept
  /// so neither buffer is reallocated per pump.
  std::vector<GroupId> decide_batch_ ENTK_GUARDED_BY(mutex_);
  std::vector<char> group_dirty_ ENTK_GUARDED_BY(mutex_);
  std::size_t synced_nodes_ ENTK_GUARDED_BY(mutex_) = 0;
  std::size_t synced_groups_ ENTK_GUARDED_BY(mutex_) = 0;
  bool abort_swept_ ENTK_GUARDED_BY(mutex_) = false;
  std::vector<bool> chain_sets_decided_ ENTK_GUARDED_BY(mutex_);
  /// LIFO of pending expander indices (innermost on top).
  std::vector<std::size_t> expander_stack_ ENTK_GUARDED_BY(mutex_);
  std::size_t expanders_seen_ ENTK_GUARDED_BY(mutex_) = 0;
  /// Chronological (index, produced) record of expander invocations —
  /// the checkpoint replay script for adaptive graph growth.
  std::vector<std::pair<std::size_t, bool>> expander_log_
      ENTK_GUARDED_BY(mutex_);
  /// Node of each adopted unit, indexed by the unit's manager_index()
  /// minus node_base_, the index of the first unit adopted: a session
  /// that runs many graphs on one manager creates other graphs' units
  /// too. kNoNode where a unit is not this graph's.
  std::vector<NodeId> node_of_ ENTK_GUARDED_BY(mutex_);
  std::size_t node_base_ ENTK_GUARDED_BY(mutex_) = 0;
  std::deque<Event> events_ ENTK_GUARDED_BY(mutex_);
  /// Chronological (node, error) records for chain-set verdicts.
  std::vector<std::pair<NodeId, Status>> errors_ ENTK_GUARDED_BY(mutex_);
  std::size_t inflight_ ENTK_GUARDED_BY(mutex_) = 0;
  std::size_t submitted_count_ ENTK_GUARDED_BY(mutex_) = 0;
  bool pumping_ ENTK_GUARDED_BY(mutex_) = false;
  /// The batch an advance round materialized for the next flush.
  /// Unannotated by design: the pump flag (settle-time pump) or the
  /// drive loop's advance/flush alternation (held dispatch) is the
  /// synchronization, not mutex_.
  std::vector<NodeId> pending_frontier_;
  std::vector<TaskSpec> pending_specs_;
  bool aborted_ ENTK_GUARDED_BY(mutex_) = false;
  Status abort_status_ ENTK_GUARDED_BY(mutex_);
  bool finished_ ENTK_GUARDED_BY(mutex_) = false;
  Status outcome_ ENTK_GUARDED_BY(mutex_);
};

}  // namespace entk::core

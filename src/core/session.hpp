// Session and Runtime: concurrent workloads over one shared backend.
//
// The original toolkit object model allowed exactly one workload per
// process: a ResourceHandle owned the PilotManager, the UnitManager
// and the pilots, so two workloads meant two processes. This header
// splits that ownership the way RADICAL-Pilot splits it between the
// client module and the pilot system:
//
//   Runtime  — per process (per backend). Owns the shared
//              PilotManager, the kernel registry binding and the
//              session registry. The single point of truth for pilot
//              capacity.
//   Session  — per workload. Owns its UnitManager (session-scoped
//              unit uids, settled-observer routing, per-session
//              trace labels), its pilots' lifecycle, and at most one
//              in-flight pattern run.
//
// N sessions run concurrently in one process: each session starts its
// pattern without blocking (start_run), and one drive_until on the
// shared backend advances all of them (Runtime::run_concurrent). Two
// sessions' units never cross wires — each session's units carry its
// name, draw uids from its "<name>.unit" family, and settle through
// its own UnitManager's observers.
//
// ResourceHandle remains as a thin facade over an unnamed Session and
// a private Runtime, preserving the paper's five-step workflow (and
// the legacy process-wide "unit"/"pilot" uid families) byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/uid.hpp"
#include "core/execution_plugin.hpp"
#include "core/overheads.hpp"
#include "core/pattern.hpp"
#include "kernels/registry.hpp"
#include "pilot/pilot_manager.hpp"
#include "pilot/unit_manager.hpp"

namespace entk::core {

class Runtime;
class Session;

struct ResourceOptions {
  Count cores = 1;                ///< Total cores across all pilots.
  /// Number of pilots to split `cores` over (several smaller
  /// allocations often clear a busy queue far sooner than one wide
  /// request — see bench/abl_queue_model). Units are routed
  /// round-robin over the active pilots.
  Count n_pilots = 1;
  Duration runtime = 36000;       ///< Pilot walltime (seconds).
  std::string queue;              ///< Batch queue (informational).
  std::string project;            ///< Allocation (informational).
  std::string scheduler_policy = "backfill";  ///< In-pilot scheduler.

  // Toolkit overhead model (core overhead is their sum; constant per
  // run, matching the paper's Fig 3).
  Duration init_overhead = 1.2;        ///< Toolkit initialisation.
  Duration allocate_overhead = 0.9;    ///< Resource request handling.
  Duration deallocate_overhead = 0.8;  ///< Resource cancel handling.
  Duration per_task_overhead = 0.004;  ///< Task creation + submission.

  // Fault tolerance.
  /// Submit a replacement pilot when one fails (walltime expiry,
  /// container loss). Units evicted off the dead pilot rebind to the
  /// replacement through the unit manager's late binding.
  bool restart_failed_pilots = false;
  Count max_pilot_restarts = 1;   ///< Replacement budget per session.
};

/// What one run(pattern) produced.
struct RunReport {
  Status outcome;                 ///< Pattern-level success/failure.
  OverheadProfile overheads;      ///< TTC decomposition.
  std::vector<pilot::ComputeUnitPtr> units;  ///< All submitted units.
  Duration run_span = 0.0;        ///< Clock time inside run().
  std::string session;            ///< Owning session; "" = unnamed.

  // Fault-tolerance tallies for this run's units (retry/recovery
  // counters are session-lifetime totals from the unit manager).
  std::size_t units_done = 0;
  std::size_t units_failed = 0;      ///< Settled failed (budget spent).
  std::size_t units_cancelled = 0;
  std::size_t total_retries = 0;     ///< Failed attempts resubmitted.
  std::size_t recovered_units = 0;   ///< Requeued off failed pilots.
};

struct SessionOptions {
  /// Session name: scopes unit/pilot uid families, trace events and
  /// metrics. Must be unique among a Runtime's live sessions. The
  /// empty name keeps the legacy process-wide families (at most
  /// meaningful for one session per process — the ResourceHandle
  /// facade).
  std::string name;
  ResourceOptions resources;
};

/// One workload's execution scope: pilots, unit manager, pattern runs.
///
/// Lifecycle mirrors the paper's workflow — allocate(), run(pattern)
/// any number of times, deallocate() — plus the non-blocking
/// start_run / run_finished / finish_run triple that lets
/// Runtime::run_concurrent drive many sessions under one backend
/// wait. Sessions are created by Runtime::create_session and owned by
/// shared_ptr; all methods are driver-thread only (the concurrency is
/// between sessions' *units* on the backend, not between calls into
/// one Session).
class Session : public std::enable_shared_from_this<Session> {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& name() const { return name_; }

  /// Submits this session's pilots and waits for them to come up.
  Status allocate();

  /// Executes a pattern on the allocated resources, blocking until it
  /// settles. Task failures are reported in RunReport::outcome; an
  /// error Result means the session itself could not run (not
  /// allocated, run already in flight, ...).
  Result<RunReport> run(ExecutionPattern& pattern);

  /// Cancels/completes this session's pilots and releases resources.
  Status deallocate();

  // --- non-blocking run control (Runtime::run_concurrent) ---
  /// Starts a pattern run without blocking: submits the initial
  /// frontier and subscribes to settled events, so anything that
  /// drives the backend advances this run. Pattern-level failures
  /// (validation, compile, submission) do NOT fail start_run — the
  /// run is born finished and finish_run reports them as the outcome,
  /// exactly as the blocking run() does.
  /// With `deferred` the run's executor holds dispatch for the whole
  /// run: even the initial frontier only lands in the pending batch,
  /// so an external driver (entk-serve's fair-share scheduler) owns
  /// every submission via advance_local / flush_submit_bounded.
  Status start_run(ExecutionPattern& pattern, bool deferred = false);
  /// Whether a run is in flight (start_run succeeded, finish_run not
  /// yet called).
  bool run_active() const { return active_run_ != nullptr; }
  /// Whether the in-flight run has settled (finish_run may be called).
  /// False when no run is active.
  bool run_finished() const;
  /// Completes an in-flight run: resolves the outcome (`driven` is the
  /// caller's drive_until verdict), fires the pattern's end hooks and
  /// builds the report.
  Result<RunReport> finish_run(Status driven);
  /// The in-flight run's graph executor; nullptr when no run is
  /// active or the pattern or its observer refused the run. entk-serve
  /// drives a held-dispatch run through it.
  GraphExecutor* run_executor();
  /// Cancels an in-flight run: aborts the graph (unsubmitted nodes
  /// are swept to skipped) and cancels the units still in flight
  /// through this session's unit manager. The run is NOT finished
  /// here — drive the backend until run_finished(), then finish_run()
  /// reports the cancelled outcome. Safe between engine steps while
  /// other sessions' runs are live on the shared backend: cancelling
  /// touches only this session's graph and units, so the others'
  /// virtual schedules are unperturbed (pinned by
  /// tests/multi_session_test.cpp). No-op on an already-settled run.
  Status cancel_run();

  bool allocated() const;
  /// The first pilot (the only one unless n_pilots > 1).
  const pilot::PilotPtr& pilot() const;
  const std::vector<pilot::PilotPtr>& pilots() const { return pilots_; }
  pilot::UnitManager* unit_manager() { return unit_manager_.get(); }
  const ResourceOptions& options() const { return options_; }
  Runtime& runtime() { return runtime_; }

  /// Constant core overhead charged per run (init + allocate +
  /// deallocate model).
  Duration core_overhead() const {
    return options_.init_overhead + options_.allocate_overhead +
           options_.deallocate_overhead;
  }

 private:
  friend class Runtime;
  Session(Runtime& runtime, SessionOptions options);

  /// One in-flight pattern run. The plugin is declared first so the
  /// executor, which references it and the graph, dies before both.
  struct ActiveRun {
    ExecutionPattern* pattern = nullptr;
    std::unique_ptr<ExecutionPlugin> plugin;
    TaskGraph graph;
    /// Null when the pattern or its observer refused the run before it
    /// could start; finish_run then fires no end hook.
    std::unique_ptr<GraphExecutor> executor;
    TimePoint started = 0.0;
    /// Not ok when the run was refused or its start() failed: the run
    /// is finished on arrival and finish_run reports this.
    Status start_error;
  };

  /// validate -> compile -> build the executor -> prepare_run ->
  /// start() (or start_resumed()); returns the first refusal.
  Status start_graph(ActiveRun& run, bool deferred);

  pilot::ExecutionBackend& backend() const;

  /// Arms the pilot-restart hook: when `held` fails and the restart
  /// budget allows, submits a replacement with the same description.
  /// The callback may outlive this session (whoever holds the pilot
  /// keeps it), so it holds a weak_ptr and no-ops after teardown.
  void watch_for_restart(const pilot::PilotPtr& held);

  Runtime& runtime_;
  const std::string name_;
  /// Released on destruction (obs::release_session_ordinal).
  const std::uint32_t trace_ordinal_;
  /// Its uid families, held for the session's life: a named session's
  /// go with the last session that draws from them.
  const UidSource unit_uids_;
  const UidSource pilot_uids_;
  ResourceOptions options_;

  std::unique_ptr<pilot::UnitManager> unit_manager_;
  std::vector<pilot::PilotPtr> pilots_;
  Count restarts_used_ = 0;
  std::unique_ptr<ActiveRun> active_run_;
};

/// The per-process execution scope sessions share: one backend, one
/// kernel registry, one PilotManager (= one pool of pilot capacity),
/// and the registry of live sessions.
class Runtime {
 public:
  Runtime(pilot::ExecutionBackend& backend,
          const kernels::KernelRegistry& registry);

  /// Creates a session. Fails when `options.name` is non-empty and a
  /// live session already uses it.
  Result<std::shared_ptr<Session>> create_session(SessionOptions options);

  /// The live session with this name, or nullptr.
  std::shared_ptr<Session> find_session(const std::string& name) const
      ENTK_EXCLUDES(mutex_);

  /// One entry of a concurrent run: an allocated session and the
  /// pattern it executes. The pattern is borrowed for the call.
  struct SessionRun {
    std::shared_ptr<Session> session;
    ExecutionPattern* pattern = nullptr;
  };

  /// Runs every (session, pattern) pair concurrently over the shared
  /// backend: all runs start, ONE drive_until advances them together
  /// (a session whose pipeline stalls donates its cores' time to the
  /// others), and every run is finished and reported. Reports are in
  /// input order; per-pattern failures land in RunReport::outcome. An
  /// error Result means the runs could not be set up (a session not
  /// allocated, duplicate sessions, ...) or the backend could not
  /// drive them (deadlock, timeout).
  Result<std::vector<RunReport>> run_concurrent(
      const std::vector<SessionRun>& runs,
      Duration timeout = kTimeInfinity);

  pilot::ExecutionBackend& backend() { return backend_; }
  const kernels::KernelRegistry& registry() const { return registry_; }
  pilot::PilotManager& pilot_manager() { return pilot_manager_; }

 private:
  pilot::ExecutionBackend& backend_;
  const kernels::KernelRegistry& registry_;
  pilot::PilotManager pilot_manager_;

  /// Guards only the session registry — never held while driving the
  /// backend or calling into sessions.
  mutable Mutex mutex_{LockRank::kRuntime};
  std::vector<std::weak_ptr<Session>> sessions_ ENTK_GUARDED_BY(mutex_);
};

}  // namespace entk::core

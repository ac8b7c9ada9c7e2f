// The entk-serve core: a multi-tenant ensemble service.
//
// One Service owns one simulated machine (SimBackend), one Runtime
// and one admission queue, and runs N tenants' workloads as named
// concurrent sessions over the shared pilot pool. Three concerns,
// three mechanisms:
//
//   admission control   SUBMIT lands in a bounded queue; a full queue
//                       sheds the request with REJECTED instead of
//                       absorbing unbounded work. The drive loop
//                       admits queued workloads FIFO (skipping over
//                       entries whose gates are closed — no
//                       head-of-line blocking) whenever global
//                       session, per-tenant session and machine-core
//                       gates allow.
//   per-tenant quotas   max concurrent sessions and max in-flight
//                       units per tenant, enforced at admission and
//                       at dispatch respectively.
//   weighted fair-share deficit round-robin over frontier dispatch:
//                       every running session's graph executor holds
//                       dispatch. A session has news when it starts,
//                       when one of its units settles, when it is
//                       cancelled and after each flush; between
//                       engine steps the drive predicate advances only
//                       the sessions with news, then flushes ready
//                       nodes tenant-by-tenant in weight-proportional
//                       quanta, bounded by a global in-flight budget
//                       (the scarce resource the arbitration divides).
//                       A step in which no session has news costs no
//                       lock.
//
// Threading: listener/client threads call submit/status/cancel/
// results/stats/handle_line; ONE drive thread calls run() (or the
// test-friendly drain()) and is the only thread that touches the
// Runtime, the backend and the sessions. The two service mutexes are
// the outermost locks in the process (LockRank kServeMailbox <
// kServeRegistry < everything the runtime takes).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "core/session.hpp"
#include "core/workload_file.hpp"
#include "kernels/registry.hpp"
#include "pilot/sim_backend.hpp"
#include "serve/tenant.hpp"
#include "sim/machine.hpp"

namespace entk::serve {

enum class WorkloadState {
  kQueued,     ///< Accepted, waiting for admission.
  kRunning,    ///< Admitted: session allocated, pattern in flight.
  kDone,       ///< Settled successfully.
  kFailed,     ///< Settled with a failure outcome.
  kCancelled,  ///< Cancelled while queued or in flight.
};

/// "QUEUED", "RUNNING", ... (the wire spelling).
const char* workload_state_name(WorkloadState state);
bool is_terminal(WorkloadState state);

/// Client-visible snapshot of one workload.
struct WorkloadStatus {
  std::uint64_t id = 0;
  std::string tenant;
  std::string label;    ///< Client-supplied name ("" if none).
  std::string session;  ///< Session name the run executes under.
  WorkloadState state = WorkloadState::kQueued;
  std::uint64_t dispatched_units = 0;
  /// Wall seconds from SUBMIT to the first unit dispatch; < 0 until
  /// the workload dispatches.
  double submit_latency_seconds = -1.0;
  // Terminal-only unit tallies (0 while queued/running).
  std::size_t units_done = 0;
  std::size_t units_failed = 0;
  std::size_t units_cancelled = 0;
  Status outcome;  ///< Terminal only; ok() until then.
};

/// Service-wide snapshot (STATS verb).
struct ServiceStats {
  std::string machine;
  std::size_t machine_cores = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t active_sessions = 0;
  std::size_t max_active_sessions = 0;
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::vector<TenantStats> tenants;  ///< Sorted by name.
};

struct ServiceConfig {
  /// Simulated machine every workload runs on (workloads must name it,
  /// or "localhost" by default).
  std::string machine = "localhost";
  /// Admission queue bound; a full queue REJECTs further SUBMITs.
  std::size_t queue_capacity = 256;
  /// Max concurrently running sessions across all tenants.
  std::size_t max_active_sessions = 4;
  /// Fair-share quantum: frontier nodes credited per tenant per DRR
  /// round, scaled by the tenant weight.
  std::size_t drr_quantum = 8;
  /// Global in-flight dispatch budget: the DRR pass stops flushing
  /// once this many units are dispatched-but-unsettled across ALL
  /// tenants. This is the scarce resource fair-share arbitrates — it
  /// keeps one tenant's flood from monopolising the shared engine.
  /// 0 = derive: 2 * machine cores.
  std::size_t max_inflight_total = 0;
  /// Policy for tenants not explicitly configured.
  TenantConfig default_tenant;
};

class Service {
 public:
  /// Builds the backend, runtime and kernel registry for
  /// `config.machine`. Fails when the machine is unknown.
  static Result<std::unique_ptr<Service>> create(ServiceConfig config);
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // --- client-thread API (any thread) ---

  /// Admission: validates the spec against this service's machine and
  /// enqueues it. kResourceExhausted = queue full (wire REJECTED);
  /// kInvalidArgument = malformed (wire BAD_REQUEST). Returns the
  /// workload id.
  Result<std::uint64_t> submit(std::string_view tenant,
                               core::WorkloadSpec spec,
                               std::string_view label = "")
      ENTK_EXCLUDES(mailbox_mutex_, registry_mutex_);

  Result<WorkloadStatus> status(std::uint64_t id) const
      ENTK_EXCLUDES(registry_mutex_);

  /// Queued workloads cancel synchronously; running ones, and one the
  /// drive thread has taken off the queue to start, are handed to the
  /// drive thread (CANCELLED once the abort settles).
  /// kFailedPrecondition when already terminal.
  Status cancel(std::uint64_t id)
      ENTK_EXCLUDES(mailbox_mutex_, registry_mutex_);

  /// Terminal outcome + unit tallies; kFailedPrecondition while the
  /// workload is still queued/running.
  Result<WorkloadStatus> results(std::uint64_t id) const
      ENTK_EXCLUDES(registry_mutex_);

  ServiceStats stats() const
      ENTK_EXCLUDES(mailbox_mutex_, registry_mutex_);

  /// Creates or updates a tenant's policy.
  Status configure_tenant(std::string_view name, TenantConfig config)
      ENTK_EXCLUDES(registry_mutex_);

  /// Protocol entry point: one request line in, one reply line out
  /// (no trailing newline). Never throws, never returns an empty
  /// string — every malformed input maps to an error reply. The
  /// listener calls this per line; tests call it socket-free.
  std::string handle_line(std::string_view line);

  /// Asks the drive loop to stop: queued workloads are cancelled,
  /// running ones aborted and settled, then run() returns.
  void shutdown() ENTK_EXCLUDES(mailbox_mutex_);
  bool shutting_down() const ENTK_EXCLUDES(mailbox_mutex_);

  // --- drive-thread API (exactly one thread) ---

  /// The service main loop: admits, drives, reaps until shutdown().
  void run();

  /// Blocks until the queue is empty and no session is running (or
  /// shutdown). Call from a client thread while another thread is in
  /// run(); tests and the bench use it as a completion barrier.
  void drain() ENTK_EXCLUDES(mailbox_mutex_);

  const std::string& machine_name() const { return config_.machine; }
  Count machine_cores() const { return machine_cores_; }
  const ServiceConfig& config() const { return config_; }

 private:
  struct Tenant;

  /// What STATUS and RESULTS print for one workload, and all a
  /// terminal workload keeps: records_[id - 1], for the service's
  /// life. Guarded by registry_mutex_. The session name is rebuilt
  /// from tenant and id.
  struct Record {
    const Tenant* tenant = nullptr;
    std::string label;
    Status outcome;  ///< Terminal only; ok() until then.
    /// Wall seconds from SUBMIT to the first dispatch; < 0 until then.
    double submit_latency = -1.0;
    std::uint64_t dispatched_units = 0;
    // Terminal-only unit tallies.
    std::uint32_t units_done = 0;
    std::uint32_t units_failed = 0;
    std::uint32_t units_cancelled = 0;
    WorkloadState state = WorkloadState::kQueued;
  };

  /// One accepted workload on its way through the service: its spec
  /// while queued, then its session and pattern while running. Lives
  /// in queue_, then in active_ (the drive thread owns it once it
  /// leaves the queue), and dies when it is reaped or cancelled.
  struct Workload {
    std::uint64_t id = 0;
    Tenant* owner = nullptr;
    core::WorkloadSpec spec;
    double submit_wall = 0.0;

    // Drive-thread only.
    std::shared_ptr<core::Session> session;
    std::unique_ptr<core::ExecutionPattern> pattern;
    core::GraphExecutor* executor = nullptr;
    /// Its session's unsettled units, as read after its last news or
    /// flush.
    std::size_t inflight = 0;
    bool news = false;      ///< On news_.
    bool finished = false;  ///< Its run finished; not reaped yet.
  };

  /// Tenant policy + tallies; config and tally are guarded by
  /// registry_mutex_, the rest only the drive thread touches. stats()
  /// copies `tally` whole (name and weight are filled in there).
  struct Tenant {
    TenantConfig config;
    TenantStats tally;
    std::string_view name;  ///< Its key in tenants_.
    double deficit = 0.0;
    /// Sum of its running workloads' `inflight`.
    std::size_t inflight = 0;
    /// Its running workloads, in admission order.
    std::vector<Workload*> running;
  };

  explicit Service(ServiceConfig config, sim::MachineProfile machine);

  Tenant& tenant_locked(std::string_view name)
      ENTK_REQUIRES(registry_mutex_);
  /// The record of workload `id`; nullptr for an id never issued.
  const Record* record_locked(std::uint64_t id) const
      ENTK_REQUIRES(registry_mutex_);
  /// The record of a workload this service holds.
  Record& record_locked(const Workload& workload)
      ENTK_REQUIRES(registry_mutex_);
  WorkloadStatus snapshot_locked(std::uint64_t id, const Record& record) const
      ENTK_REQUIRES(registry_mutex_);

  // Drive-loop stages (drive thread only).
  void process_mailbox();
  std::unique_ptr<Workload> pop_admissible()
      ENTK_EXCLUDES(mailbox_mutex_, registry_mutex_);
  void start_workload(std::unique_ptr<Workload> workload);
  void drive_active();
  /// The fair-share heart: advance the running graphs with news, then
  /// flush ready nodes per tenant in weighted DRR quanta, bounded by
  /// each tenant's in-flight-unit headroom. Returns at once, touching
  /// no lock, when no session has news and no stalled round is due.
  void advance_and_flush();
  /// Records that the round just run over order_ dispatched nothing
  /// (see stalled_rounds_).
  void stall() ENTK_REQUIRES(registry_mutex_);
  /// Applies the repeats of a stalled round counted while no session
  /// had news.
  void repeat_stalled_rounds() ENTK_EXCLUDES(registry_mutex_);
  /// Puts a running workload on news_ (once); ignores one whose
  /// session is gone.
  void note_news(Workload& workload);
  /// Re-reads a running workload's in-flight units into its cache and
  /// its tenant's and the service's sums.
  void refresh_inflight(Workload& workload);
  void reap_finished();
  /// Fails every running workload with `verdict` (a drive that could
  /// not settle them).
  void fail_active(const Status& verdict);
  /// Ends a workload's session and records its terminal state; the
  /// caller then drops the workload.
  void finish_workload(Workload& workload, WorkloadState state,
                       Status outcome, const core::RunReport* report);
  void update_gauges() ENTK_EXCLUDES(mailbox_mutex_);
  /// Lock-free: the drive predicate calls it after every engine step.
  bool mailbox_dirty() const;

  ServiceConfig config_;
  Count machine_cores_ = 0;
  WallClock wall_;

  kernels::KernelRegistry kernel_registry_;
  std::unique_ptr<pilot::SimBackend> backend_;
  std::unique_ptr<core::Runtime> runtime_;

  /// Admission mailbox: what client threads hand the drive thread.
  mutable Mutex mailbox_mutex_{LockRank::kServeMailbox};
  CondVar mailbox_cv_;  ///< Signals the drive thread.
  CondVar idle_cv_;     ///< Signals drain() waiters.
  std::deque<std::unique_ptr<Workload>> queue_
      ENTK_GUARDED_BY(mailbox_mutex_);
  std::vector<std::uint64_t> pending_cancels_
      ENTK_GUARDED_BY(mailbox_mutex_);
  /// Written under mailbox_mutex_, so the condition-variable waits see
  /// every change; mailbox_dirty() reads them without it.
  std::atomic<bool> dirty_{false};
  std::atomic<bool> shutdown_{false};
  std::size_t running_count_ ENTK_GUARDED_BY(mailbox_mutex_) = 0;

  /// Workload + tenant registry: what client threads read back. The
  /// deque grows without copying its records; the map never moves its
  /// tenants, which records and workloads point to.
  mutable Mutex registry_mutex_{LockRank::kServeRegistry};
  std::deque<Record> records_ ENTK_GUARDED_BY(registry_mutex_);
  std::map<std::string, Tenant, std::less<>> tenants_
      ENTK_GUARDED_BY(registry_mutex_);

  // Drive-thread only.
  /// Running workloads, in admission order.
  std::vector<std::unique_ptr<Workload>> active_;
  /// Running workloads with news since the drive predicate last ran:
  /// a settled unit, a cancel, a flush, or a fresh start.
  std::vector<Workload*> news_;
  /// Running workloads whose run finished and awaits reaping; nonzero
  /// wakes the drive predicate.
  std::size_t finished_ = 0;
  /// Tenants with a running workload, in name order.
  std::vector<Tenant*> running_tenants_;
  /// The last DRR round's backlogged tenants, in service order.
  std::vector<Tenant*> order_;
  /// Sum of the running workloads' `inflight`.
  std::size_t inflight_total_ = 0;
  Count committed_cores_ = 0;
  std::size_t inflight_budget_ = 0;
  /// Rotates which backlogged tenant gets first crack at the global
  /// budget each DRR round (deficits even out credit; rotation evens
  /// out tie-breaks).
  std::size_t drr_cursor_ = 0;
  /// A round that flushed nothing while tenants were backlogged under
  /// the global budget stalls: until a session has news, every later
  /// predicate call would run the same round, each banking credit and
  /// turning the cursor. Those calls only count the repeats here; the
  /// next round that runs applies them first. stall_dispatch_round_ is
  /// 0 when not stalled, else the repeat at which a tenant with
  /// headroom reaches a whole unit of credit (SIZE_MAX: never), which
  /// the predicate runs as a full round.
  std::size_t stalled_rounds_ = 0;
  std::size_t stall_dispatch_round_ = 0;
};

}  // namespace entk::serve

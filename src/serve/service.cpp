#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/graph_executor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"

namespace entk::serve {

namespace {

/// Extra rounds of DRR credit an idle-but-throttled tenant may bank;
/// caps the burst it can dump when headroom returns.
constexpr double kDeficitCapRounds = 4.0;

obs::Metrics& metrics() { return obs::Metrics::instance(); }

/// Frees a terminal workload's spec: STATUS and RESULTS never read it,
/// so a served workload keeps none of its sections.
void release_spec(core::WorkloadSpec& spec) {
  core::WorkloadSpec empty;
  std::swap(spec, empty);
}

/// The credit one DRR round grants a tenant with `config`.
double round_credit(const TenantConfig& config, std::size_t quantum) {
  return config.weight * static_cast<double>(quantum);
}

/// The most a tenant earning `credit` per round can bank.
double deficit_cap(double credit) { return credit * kDeficitCapRounds; }

/// `deficit` after a round grants `credit`: banked up to
/// kDeficitCapRounds rounds' worth.
double bank_credit(double deficit, double credit) {
  return std::min(deficit + credit, deficit_cap(credit));
}

/// Refuses a tenant policy that could never dispatch at `quantum`.
Status check_tenant_config(const TenantConfig& config, std::size_t quantum) {
  if (config.weight <= 0.0 || !std::isfinite(config.weight)) {
    return make_error(Errc::kInvalidArgument,
                      "tenant weight must be positive and finite");
  }
  // A flush dispatches whole units of banked credit, so a tenant that
  // cannot bank one would never dispatch.
  const double cap = deficit_cap(round_credit(config, quantum));
  if (cap < 1.0) {
    return make_error(Errc::kInvalidArgument,
                      "tenant weight too small: it banks at most " +
                          std::to_string(cap) +
                          " units of credit at drr_quantum " +
                          std::to_string(quantum) +
                          ", and a dispatch needs 1");
  }
  if (config.max_sessions == 0 || config.max_inflight_units == 0) {
    return make_error(Errc::kInvalidArgument,
                      "tenant quotas must be at least 1");
  }
  return Status::ok();
}

}  // namespace

const char* workload_state_name(WorkloadState state) {
  switch (state) {
    case WorkloadState::kQueued: return "QUEUED";
    case WorkloadState::kRunning: return "RUNNING";
    case WorkloadState::kDone: return "DONE";
    case WorkloadState::kFailed: return "FAILED";
    case WorkloadState::kCancelled: return "CANCELLED";
  }
  return "?";
}

bool is_terminal(WorkloadState state) {
  return state == WorkloadState::kDone ||
         state == WorkloadState::kFailed ||
         state == WorkloadState::kCancelled;
}

Result<std::unique_ptr<Service>> Service::create(ServiceConfig config) {
  const auto catalog = sim::MachineCatalog::with_builtin_profiles();
  auto machine = catalog.find(config.machine);
  if (!machine.ok()) return machine.status();
  if (config.queue_capacity == 0) {
    return make_error(Errc::kInvalidArgument,
                      "queue_capacity must be at least 1");
  }
  if (config.max_active_sessions == 0) {
    return make_error(Errc::kInvalidArgument,
                      "max_active_sessions must be at least 1");
  }
  if (config.drr_quantum == 0) {
    return make_error(Errc::kInvalidArgument,
                      "drr_quantum must be at least 1");
  }
  ENTK_RETURN_IF_ERROR(
      check_tenant_config(config.default_tenant, config.drr_quantum));
  return std::unique_ptr<Service>(
      new Service(std::move(config), machine.take()));
}

Service::Service(ServiceConfig config, sim::MachineProfile machine)
    : config_(std::move(config)),
      machine_cores_(machine.total_cores()),
      kernel_registry_(kernels::KernelRegistry::with_builtin_kernels()),
      backend_(std::make_unique<pilot::SimBackend>(std::move(machine))) {
  inflight_budget_ = config_.max_inflight_total != 0
                         ? config_.max_inflight_total
                         : 2 * static_cast<std::size_t>(machine_cores_);
  runtime_ = std::make_unique<core::Runtime>(*backend_, kernel_registry_);
}

Service::~Service() {
  shutdown();
  // The drive thread (if any) is expected to have exited run() before
  // the owner destroys the service; active_ sessions settle through
  // their own destructors otherwise.
}

Service::Tenant& Service::tenant_locked(std::string_view name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    Tenant tenant;
    tenant.config = config_.default_tenant;
    it = tenants_.emplace(std::string(name), tenant).first;
    it->second.name = it->first;
  }
  return it->second;
}

Status Service::configure_tenant(std::string_view name,
                                 TenantConfig config) {
  if (!valid_tenant_name(name)) {
    return make_error(Errc::kInvalidArgument,
                      "invalid tenant name \"" + std::string(name) + "\"");
  }
  ENTK_RETURN_IF_ERROR(check_tenant_config(config, config_.drr_quantum));
  MutexLock lock(registry_mutex_);
  tenant_locked(name).config = config;
  return Status::ok();
}

Result<std::uint64_t> Service::submit(std::string_view tenant,
                                      core::WorkloadSpec spec,
                                      std::string_view label) {
  if (!valid_tenant_name(tenant)) {
    return make_error(Errc::kInvalidArgument,
                      "invalid tenant name \"" + std::string(tenant) +
                          "\" (want [A-Za-z0-9_.-], 1..64 bytes)");
  }
  Status valid = spec.validate();
  if (!valid.is_ok()) return valid;
  auto resolved = core::resolve_workload(spec, kernel_registry_);
  if (!resolved.ok()) return resolved.status();
  spec = resolved.take();
  if (spec.backend != "sim") {
    return make_error(Errc::kInvalidArgument,
                      "serve runs the sim backend only (backend = sim)");
  }
  if (spec.machine != config_.machine) {
    return make_error(Errc::kInvalidArgument,
                      "this service simulates machine \"" + config_.machine +
                          "\", not \"" + spec.machine + "\"");
  }
  if (spec.cores < 1 ||
      spec.cores > static_cast<Count>(machine_cores_)) {
    return make_error(Errc::kInvalidArgument,
                      "cores = " + std::to_string(spec.cores) +
                          " exceeds the machine's " +
                          std::to_string(machine_cores_) + " cores");
  }

  metrics().counter(obs::WellKnownCounter::kServeSubmitted).add();
  std::shared_ptr<Workload> workload;
  {
    MutexLock lock(mailbox_mutex_);
    if (shutdown_) {
      return make_error(Errc::kCancelled, "service is shutting down");
    }
    MutexLock registry(registry_mutex_);
    TenantStats& owner = tenant_locked(tenant).tally;
    ++owner.submitted;
    if (queue_.size() >= config_.queue_capacity) {
      ++owner.rejected;
      metrics().counter(obs::WellKnownCounter::kServeRejected).add();
      return make_error(Errc::kResourceExhausted,
                        "admission queue is full (capacity " +
                            std::to_string(config_.queue_capacity) + ")");
    }
    workload = std::make_shared<Workload>();
    workload->id = next_id_++;
    workload->tenant = tenant;
    workload->label = label;
    workload->session_name = "serve." + std::string(tenant) + "." +
                             std::to_string(workload->id);
    workload->spec = std::move(spec);
    workload->submit_wall = wall_.now();
    workloads_[workload->id] = workload;
    ++owner.accepted;
    ++owner.queued;
    queue_.push_back(workload);
    dirty_ = true;
    mailbox_cv_.notify_all();
  }
  metrics().counter(obs::WellKnownCounter::kServeAccepted).add();
  update_gauges();
  return workload->id;
}

WorkloadStatus Service::snapshot_locked(const Workload& workload) const {
  WorkloadStatus status;
  status.id = workload.id;
  status.tenant = workload.tenant;
  status.label = workload.label;
  status.session = workload.session_name;
  status.state = workload.state;
  status.dispatched_units = workload.dispatched_units;
  if (workload.first_dispatch_wall >= 0.0) {
    status.submit_latency_seconds =
        workload.first_dispatch_wall - workload.submit_wall;
  }
  status.units_done = workload.units_done;
  status.units_failed = workload.units_failed;
  status.units_cancelled = workload.units_cancelled;
  status.outcome = workload.outcome;
  return status;
}

Result<WorkloadStatus> Service::status(std::uint64_t id) const {
  MutexLock lock(registry_mutex_);
  auto it = workloads_.find(id);
  if (it == workloads_.end()) {
    return make_error(Errc::kNotFound,
                      "no workload with id " + std::to_string(id));
  }
  return snapshot_locked(*it->second);
}

Result<WorkloadStatus> Service::results(std::uint64_t id) const {
  MutexLock lock(registry_mutex_);
  auto it = workloads_.find(id);
  if (it == workloads_.end()) {
    return make_error(Errc::kNotFound,
                      "no workload with id " + std::to_string(id));
  }
  if (!is_terminal(it->second->state)) {
    return make_error(Errc::kFailedPrecondition,
                      "workload " + std::to_string(id) + " is still " +
                          workload_state_name(it->second->state));
  }
  return snapshot_locked(*it->second);
}

Status Service::cancel(std::uint64_t id) {
  MutexLock lock(mailbox_mutex_);
  MutexLock registry(registry_mutex_);
  auto it = workloads_.find(id);
  if (it == workloads_.end()) {
    return make_error(Errc::kNotFound,
                      "no workload with id " + std::to_string(id));
  }
  Workload& workload = *it->second;
  if (is_terminal(workload.state)) {
    return make_error(Errc::kFailedPrecondition,
                      "workload " + std::to_string(id) +
                          " already settled (" +
                          workload_state_name(workload.state) + ")");
  }
  const auto queued =
      std::find_if(queue_.begin(), queue_.end(),
                   [id](const std::shared_ptr<Workload>& entry) {
                     return entry->id == id;
                   });
  if (queued != queue_.end()) {
    // Never admitted: settle synchronously, no drive-thread state.
    queue_.erase(queued);
    workload.state = WorkloadState::kCancelled;
    workload.outcome =
        make_error(Errc::kCancelled, "cancelled while queued");
    release_spec(workload.spec);
    TenantStats& owner = tenant_locked(workload.tenant).tally;
    if (owner.queued > 0) --owner.queued;
    ++owner.cancelled;
    metrics().counter(obs::WellKnownCounter::kServeCancelled).add();
    return Status::ok();
  }
  // Running, or still QUEUED but already popped and starting on the
  // drive thread, which reads its spec without a lock: the drive
  // thread owns it — hand it the abort.
  pending_cancels_.push_back(id);
  dirty_ = true;
  mailbox_cv_.notify_all();
  return Status::ok();
}

ServiceStats Service::stats() const {
  ServiceStats stats;
  stats.machine = config_.machine;
  stats.machine_cores = static_cast<std::size_t>(machine_cores_);
  stats.queue_capacity = config_.queue_capacity;
  stats.max_active_sessions = config_.max_active_sessions;
  MutexLock lock(mailbox_mutex_);
  stats.queue_depth = queue_.size();
  stats.active_sessions = running_count_;
  MutexLock registry(registry_mutex_);
  for (const auto& [name, tenant] : tenants_) {
    TenantStats entry = tenant.tally;
    entry.name = name;
    entry.weight = tenant.config.weight;
    stats.submitted += entry.submitted;
    stats.accepted += entry.accepted;
    stats.rejected += entry.rejected;
    stats.completed += entry.completed;
    stats.failed += entry.failed;
    stats.cancelled += entry.cancelled;
    stats.tenants.push_back(std::move(entry));
  }
  return stats;
}

void Service::shutdown() {
  MutexLock lock(mailbox_mutex_);
  shutdown_ = true;
  mailbox_cv_.notify_all();
  idle_cv_.notify_all();
}

bool Service::shutting_down() const {
  MutexLock lock(mailbox_mutex_);
  return shutdown_;
}

void Service::drain() {
  MutexLock lock(mailbox_mutex_);
  while (!shutdown_ && (!queue_.empty() || running_count_ > 0 ||
                        !pending_cancels_.empty() || dirty_)) {
    idle_cv_.wait(mailbox_mutex_);
  }
}

bool Service::mailbox_dirty() const {
  return dirty_.load() || shutdown_.load();
}

void Service::update_gauges() {
  std::size_t depth = 0;
  std::size_t running = 0;
  {
    MutexLock lock(mailbox_mutex_);
    depth = queue_.size();
    running = running_count_;
  }
  metrics()
      .gauge(obs::WellKnownGauge::kServeQueueDepth)
      .set(static_cast<double>(depth));
  metrics()
      .gauge(obs::WellKnownGauge::kServeActiveSessions)
      .set(static_cast<double>(running));
}

// --- drive loop -------------------------------------------------------

void Service::run() {
  for (;;) {
    {
      MutexLock lock(mailbox_mutex_);
      while (!shutdown_ && !dirty_ && queue_.empty() &&
             pending_cancels_.empty() && active_.empty()) {
        idle_cv_.notify_all();
        mailbox_cv_.wait(mailbox_mutex_);
      }
      if (shutdown_) break;
    }
    process_mailbox();
    if (!active_.empty()) {
      drive_active();
      reap_finished();
    }
    {
      MutexLock lock(mailbox_mutex_);
      if (queue_.empty() && running_count_ == 0 &&
          pending_cancels_.empty() && !dirty_) {
        idle_cv_.notify_all();
      }
    }
  }

  // Shutdown: shed the queue, abort in-flight runs, settle, report.
  std::deque<std::shared_ptr<Workload>> queued;
  {
    MutexLock lock(mailbox_mutex_);
    queued.swap(queue_);
    pending_cancels_.clear();
    dirty_ = false;
  }
  for (const auto& workload : queued) {
    finish_workload(workload, WorkloadState::kCancelled,
                    make_error(Errc::kCancelled, "service shut down"),
                    nullptr);
  }
  for (const auto& workload : active_) {
    (void)workload->session->cancel_run();
    note_news(*workload);
  }
  if (!active_.empty()) {
    obs::ScopedTraceClock trace_clock(backend_->clock());
    const auto settled = [this] {
      advance_and_flush();
      return finished_ == active_.size();
    };
    const Status driven =
        settled() ? Status::ok() : backend_->drive_until(settled);
    reap_finished();
    // A run that could not settle fails with the drive verdict: no
    // session, and no settled observer, outlives run().
    if (!driven.is_ok()) fail_active(driven);
  }
  update_gauges();
  {
    MutexLock lock(mailbox_mutex_);
    idle_cv_.notify_all();
  }
}

void Service::process_mailbox() {
  std::vector<std::uint64_t> cancels;
  {
    MutexLock lock(mailbox_mutex_);
    dirty_ = false;
    cancels.swap(pending_cancels_);
  }
  for (const std::uint64_t id : cancels) {
    for (const auto& workload : active_) {
      if (workload->id == id) {
        (void)workload->session->cancel_run();
        note_news(*workload);
        break;
      }
    }
  }
  while (auto workload = pop_admissible()) {
    start_workload(workload);
  }
  update_gauges();
}

std::shared_ptr<Service::Workload> Service::pop_admissible() {
  MutexLock lock(mailbox_mutex_);
  if (active_.size() >= config_.max_active_sessions) return nullptr;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    const std::shared_ptr<Workload>& candidate = *it;
    bool open = committed_cores_ + candidate->spec.cores <=
                static_cast<Count>(machine_cores_);
    if (open) {
      MutexLock registry(registry_mutex_);
      const Tenant& owner = tenant_locked(candidate->tenant);
      open = owner.tally.active_sessions < owner.config.max_sessions;
    }
    // A closed gate skips this entry, not the whole queue: a narrow
    // workload behind a wide one still admits (no head-of-line block).
    if (!open) continue;
    std::shared_ptr<Workload> taken = candidate;
    queue_.erase(it);
    // Counted as running under the same lock as the pop, so drain()
    // sees the workload as queued or running for as long as
    // start_workload() takes to start it. Its failure paths undo this.
    ++running_count_;
    return taken;
  }
  return nullptr;
}

void Service::start_workload(const std::shared_ptr<Workload>& workload) {
  const auto fail = [this, &workload](Status status) {
    finish_workload(workload, WorkloadState::kFailed, std::move(status),
                    nullptr);
    MutexLock lock(mailbox_mutex_);
    --running_count_;  // taken by pop_admissible()
  };
  core::SessionOptions options;
  options.name = workload->session_name;
  options.resources.cores = workload->spec.cores;
  options.resources.runtime = workload->spec.runtime;
  options.resources.scheduler_policy = workload->spec.scheduler;
  // Zero toolkit overheads: admitting one tenant's workload must not
  // charge the shared virtual clock that every other tenant rides.
  options.resources.init_overhead = 0.0;
  options.resources.allocate_overhead = 0.0;
  options.resources.deallocate_overhead = 0.0;
  options.resources.per_task_overhead = 0.0;

  auto session = runtime_->create_session(std::move(options));
  if (!session.ok()) {
    fail(session.status());
    return;
  }
  workload->session = session.take();
  const Status allocated = workload->session->allocate();
  if (!allocated.is_ok()) {
    fail(allocated);
    return;
  }
  auto pattern = core::build_pattern(workload->spec);
  if (!pattern.ok()) {
    fail(pattern.status());
    return;
  }
  workload->pattern = pattern.take();
  // Serve sessions hold dispatch: even the initial frontier stays in
  // the pending batch, so the fair-share pass — not submission order —
  // decides every dispatch.
  const Status started =
      workload->session->start_run(*workload->pattern, /*deferred=*/true);
  if (!started.is_ok()) {
    fail(started);
    return;
  }
  workload->executor = workload->session->run_executor();
  committed_cores_ += workload->spec.cores;
  active_.push_back(workload);
  // Units settle only on this thread (inside engine steps, flushes and
  // session teardown), so the observer touches drive-thread state
  // alone and takes no service lock.
  Workload* raw = workload.get();
  workload->session->unit_manager()->add_settled_observer(
      [this, raw](const pilot::ComputeUnitPtr&, pilot::UnitState) {
        note_news(*raw);
      });

  double queue_wait = 0.0;
  {
    MutexLock registry(registry_mutex_);
    workload->state = WorkloadState::kRunning;
    workload->start_wall = wall_.now();
    queue_wait = workload->start_wall - workload->submit_wall;
    workload->owner = &tenant_locked(workload->tenant);
    TenantStats& owner = workload->owner->tally;
    if (owner.queued > 0) --owner.queued;
    ++owner.active_sessions;
    owner.peak_active_sessions =
        std::max(owner.peak_active_sessions, owner.active_sessions);
  }
  Tenant& owner = *workload->owner;
  if (owner.running.empty()) {
    auto at = running_tenants_.begin();
    while (at != running_tenants_.end() && (*at)->name < owner.name) ++at;
    running_tenants_.insert(at, &owner);
  }
  owner.running.push_back(raw);
  // Its first advance materializes the initial frontier; a run the
  // pattern refused is finished already and must wake the predicate.
  note_news(*workload);
  metrics()
      .histogram(obs::WellKnownHistogram::kServeQueueWaitSeconds)
      .observe(queue_wait);
  update_gauges();
}

void Service::drive_active() {
  obs::ScopedTraceClock trace_clock(backend_->clock());
  const auto wake = [this] {
    advance_and_flush();
    return finished_ > 0 || mailbox_dirty();
  };
  if (wake()) return;
  const Status driven = backend_->drive_until(wake);
  // The shared world refused to advance (engine deadlock / timeout):
  // no session can settle.
  if (!driven.is_ok()) fail_active(driven);
}

void Service::fail_active(const Status& verdict) {
  for (const auto& workload : active_) {
    workload->executor = nullptr;
    if (workload->session->run_active()) {
      (void)workload->session->finish_run(verdict);
    }
    finish_workload(workload, WorkloadState::kFailed, verdict, nullptr);
  }
  active_.clear();
}

void Service::note_news(Workload& workload) {
  if (workload.news || workload.session == nullptr) return;
  workload.news = true;
  news_.push_back(&workload);
}

void Service::refresh_inflight(Workload& workload) {
  const std::size_t inflight =
      workload.session->unit_manager()->inflight_units();
  workload.owner->inflight =
      workload.owner->inflight - workload.inflight + inflight;
  inflight_total_ = inflight_total_ - workload.inflight + inflight;
  workload.inflight = inflight;
}

void Service::repeat_stalled_rounds() {
  if (stall_dispatch_round_ == 0) return;
  drr_cursor_ += stalled_rounds_;
  if (stalled_rounds_ > 0) {
    MutexLock registry(registry_mutex_);
    for (Tenant* tenant : order_) {
      const double credit = round_credit(tenant->config, config_.drr_quantum);
      // Banked credit is capped, so a few repeats reach a fixed point.
      for (std::size_t round = 0; round < stalled_rounds_; ++round) {
        const double next = bank_credit(tenant->deficit, credit);
        if (next == tenant->deficit) break;
        tenant->deficit = next;
      }
    }
  }
  stalled_rounds_ = 0;
  stall_dispatch_round_ = 0;
}

void Service::advance_and_flush() {
  if (news_.empty()) {
    // Nothing a round reads changed since the last one, so its outcome
    // stands; a stalled round is repeated, counted until it would
    // dispatch.
    if (stall_dispatch_round_ == 0) return;
    if (stalled_rounds_ + 1 < stall_dispatch_round_) {
      ++stalled_rounds_;
      return;
    }
  }
  repeat_stalled_rounds();
  const auto backlogged = [](const Workload* workload) {
    return workload->executor != nullptr &&
           workload->executor->pending_submits() > 0;
  };
  for (;;) {
    // Phase 1: advance the graphs with news locally (no submissions
    // yet). The predicate runs between engine steps, so no settlement
    // is mid-flight.
    for (std::size_t i = 0; i < news_.size(); ++i) {
      Workload& workload = *news_[i];
      workload.news = false;
      if (workload.session == nullptr || workload.finished) continue;
      if (workload.executor != nullptr) workload.executor->advance_local();
      refresh_inflight(workload);
      if (workload.session->run_finished()) {
        workload.finished = true;
        ++finished_;
      }
    }
    news_.clear();

    // Phase 2: the backlogged tenants (name order; admission order
    // within each) against the global dispatch budget.
    order_.clear();
    for (Tenant* tenant : running_tenants_) {
      if (std::any_of(tenant->running.begin(), tenant->running.end(),
                      backlogged)) {
        order_.push_back(tenant);
      }
    }
    if (order_.empty()) return;
    std::size_t global_headroom = inflight_budget_ > inflight_total_
                                      ? inflight_budget_ - inflight_total_
                                      : 0;
    if (global_headroom == 0) return;
    // Contended round: two or more tenants want the budget at once —
    // exactly when the dispatch order is a policy decision. The
    // fairness-dispersion bench metric counts only these rounds.
    const bool contended = order_.size() >= 2;

    // Service order: rotate which tenant gets first crack at the
    // global budget. Deficits even out credit across rounds; the
    // rotation evens out the tie-break when the budget runs dry
    // mid-round.
    std::rotate(order_.begin(),
                order_.begin() +
                    static_cast<std::ptrdiff_t>(drr_cursor_ % order_.size()),
                order_.end());
    ++drr_cursor_;

    // Phase 3: weighted deficit round-robin over the backlogged
    // tenants, each bounded by its own in-flight headroom and by
    // what's left of the global budget.
    std::size_t flushed_total = 0;
    {
      MutexLock registry(registry_mutex_);
      for (Tenant* owner : order_) {
        if (global_headroom == 0) break;
        owner->deficit = bank_credit(
            owner->deficit, round_credit(owner->config, config_.drr_quantum));
        const std::size_t headroom =
            owner->config.max_inflight_units > owner->inflight
                ? owner->config.max_inflight_units - owner->inflight
                : 0;
        std::size_t allowance = std::min(
            {static_cast<std::size_t>(owner->deficit), headroom,
             global_headroom});
        for (Workload* workload : owner->running) {
          if (allowance == 0) break;
          if (workload->executor == nullptr) continue;
          const std::size_t flushed =
              workload->executor->flush_submit_bounded(allowance);
          if (flushed == 0) continue;
          allowance -= flushed;
          global_headroom -= flushed;
          owner->deficit -= static_cast<double>(flushed);
          flushed_total += flushed;
          workload->dispatched_units += flushed;
          owner->tally.dispatched_units += flushed;
          if (contended) owner->tally.contended_dispatched_units += flushed;
          if (workload->first_dispatch_wall < 0.0) {
            workload->first_dispatch_wall = wall_.now();
            metrics()
                .histogram(
                    obs::WellKnownHistogram::kServeSubmitLatencySeconds)
                .observe(workload->first_dispatch_wall -
                         workload->submit_wall);
          }
          metrics()
              .counter(obs::WellKnownCounter::kServeDispatchedUnits)
              .add(flushed);
          // A unit can fail inside submit. And advance_local() applies
          // no settlement while a batch is pending, so the next round
          // must advance this graph again.
          refresh_inflight(*workload);
          note_news(*workload);
        }
        // A drained tenant keeps no credit: deficits meter contention,
        // not idleness.
        if (std::none_of(owner->running.begin(), owner->running.end(),
                         backlogged)) {
          owner->deficit = 0.0;
        }
      }
      // Nothing moved: every backlogged tenant is at its in-flight cap
      // or short of a whole unit of credit. Let the engine settle units
      // to open headroom.
      if (flushed_total == 0) stall();
    }
    if (flushed_total == 0) {
      // With nothing in flight no step can bring news, so steps would
      // only pace the repeats, and a lone tenant short of a whole unit
      // would wait through them until its pilot's walltime. Run the
      // repeat that dispatches now.
      if (inflight_total_ != 0 ||
          stall_dispatch_round_ == std::numeric_limits<std::size_t>::max()) {
        return;
      }
      stalled_rounds_ = stall_dispatch_round_ - 1;
      repeat_stalled_rounds();
    }
  }
}

void Service::stall() {
  // A tenant with headroom dispatches in the first repeat that banks it
  // a whole unit of credit.
  stall_dispatch_round_ = std::numeric_limits<std::size_t>::max();
  for (const Tenant* owner : order_) {
    if (owner->config.max_inflight_units <= owner->inflight) continue;
    const double credit = round_credit(owner->config, config_.drr_quantum);
    double deficit = owner->deficit;
    for (std::size_t round = 1; round < stall_dispatch_round_; ++round) {
      const double next = bank_credit(deficit, credit);
      if (next >= 1.0) {
        stall_dispatch_round_ = round;
        break;
      }
      if (next == deficit) break;  // capped short of a unit: never
      deficit = next;
    }
  }
}

void Service::reap_finished() {
  for (auto it = active_.begin(); it != active_.end();) {
    const std::shared_ptr<Workload>& workload = *it;
    if (!workload->finished) {
      ++it;
      continue;
    }
    workload->executor = nullptr;
    auto report = workload->session->finish_run(Status::ok());
    if (!report.ok()) {
      finish_workload(workload, WorkloadState::kFailed, report.status(),
                      nullptr);
    } else {
      const core::RunReport& run = report.value();
      const WorkloadState state =
          run.outcome.is_ok() ? WorkloadState::kDone
          : run.outcome.code() == Errc::kCancelled
              ? WorkloadState::kCancelled
              : WorkloadState::kFailed;
      finish_workload(workload, state, run.outcome, &run);
    }
    it = active_.erase(it);
  }
  update_gauges();
}

void Service::finish_workload(const std::shared_ptr<Workload>& workload,
                              WorkloadState state, Status outcome,
                              const core::RunReport* report) {
  workload->executor = nullptr;
  {
    // Taken off the workload first: units that settle while the session
    // tears down must not put a workload that is leaving on news_.
    const std::shared_ptr<core::Session> session =
        std::move(workload->session);
    if (session != nullptr) (void)session->deallocate();
  }
  workload->pattern.reset();

  WorkloadState previous;
  {
    MutexLock registry(registry_mutex_);
    previous = workload->state;
    workload->state = state;
    workload->outcome = std::move(outcome);
    if (report != nullptr) {
      workload->units_done = report->units_done;
      workload->units_failed = report->units_failed;
      workload->units_cancelled = report->units_cancelled;
    }
    TenantStats& owner = tenant_locked(workload->tenant).tally;
    if (previous == WorkloadState::kQueued) {
      if (owner.queued > 0) --owner.queued;
    } else if (previous == WorkloadState::kRunning) {
      if (owner.active_sessions > 0) --owner.active_sessions;
    }
    switch (state) {
      case WorkloadState::kDone: ++owner.completed; break;
      case WorkloadState::kFailed: ++owner.failed; break;
      case WorkloadState::kCancelled: ++owner.cancelled; break;
      default: break;
    }
  }
  if (previous == WorkloadState::kRunning) {
    committed_cores_ -= workload->spec.cores;
    Tenant& owner = *workload->owner;
    std::erase(owner.running, workload.get());
    if (owner.running.empty()) std::erase(running_tenants_, &owner);
    owner.inflight -= workload->inflight;
    inflight_total_ -= workload->inflight;
    workload->inflight = 0;
    workload->owner = nullptr;
    if (std::exchange(workload->finished, false)) --finished_;
    MutexLock lock(mailbox_mutex_);
    if (running_count_ > 0) --running_count_;
  }
  release_spec(workload->spec);
  switch (state) {
    case WorkloadState::kDone:
      metrics().counter(obs::WellKnownCounter::kServeCompleted).add();
      break;
    case WorkloadState::kCancelled:
      metrics().counter(obs::WellKnownCounter::kServeCancelled).add();
      break;
    default:
      break;
  }
}

// --- protocol ---------------------------------------------------------

std::string Service::handle_line(std::string_view line) {
  auto parsed = parse_request(line);
  if (!parsed.ok()) {
    return error_reply("BAD_REQUEST", parsed.status().message());
  }
  const Request request = parsed.take();
  switch (request.verb) {
    case Verb::kSubmit: {
      auto spec = core::parse_workload(request.workload);
      if (!spec.ok()) {
        return error_reply("BAD_REQUEST",
                           "workload: " + spec.status().message());
      }
      auto id = submit(request.tenant, spec.take(), request.name);
      if (!id.ok()) {
        return error_reply(error_code_for(id.status()),
                           id.status().message());
      }
      Json body = Json::object();
      body.set("id", Json::number(static_cast<double>(id.value())));
      body.set("state",
               Json::string(workload_state_name(WorkloadState::kQueued)));
      return ok_reply(std::move(body));
    }
    case Verb::kStatus:
    case Verb::kResults: {
      auto snapshot = request.verb == Verb::kStatus
                          ? status(request.id)
                          : results(request.id);
      if (!snapshot.ok()) {
        return error_reply(error_code_for(snapshot.status()),
                           snapshot.status().message());
      }
      const WorkloadStatus& workload = snapshot.value();
      Json body = Json::object();
      body.set("id", Json::number(static_cast<double>(workload.id)));
      body.set("tenant", Json::string(workload.tenant));
      if (!workload.label.empty()) {
        body.set("name", Json::string(workload.label));
      }
      body.set("session", Json::string(workload.session));
      body.set("state",
               Json::string(workload_state_name(workload.state)));
      body.set("dispatched_units",
               Json::number(
                   static_cast<double>(workload.dispatched_units)));
      if (workload.submit_latency_seconds >= 0.0) {
        body.set("submit_latency_seconds",
                 Json::number(workload.submit_latency_seconds));
      }
      if (is_terminal(workload.state)) {
        body.set("units_done",
                 Json::number(static_cast<double>(workload.units_done)));
        body.set("units_failed",
                 Json::number(
                     static_cast<double>(workload.units_failed)));
        body.set("units_cancelled",
                 Json::number(
                     static_cast<double>(workload.units_cancelled)));
        body.set("outcome", Json::string(workload.outcome.to_string()));
      }
      return ok_reply(std::move(body));
    }
    case Verb::kCancel: {
      const Status cancelled = cancel(request.id);
      if (!cancelled.is_ok()) {
        return error_reply(error_code_for(cancelled),
                           cancelled.message());
      }
      Json body = Json::object();
      body.set("id", Json::number(static_cast<double>(request.id)));
      return ok_reply(std::move(body));
    }
    case Verb::kStats: {
      const ServiceStats service = stats();
      Json body = Json::object();
      body.set("machine", Json::string(service.machine));
      body.set("machine_cores",
               Json::number(static_cast<double>(service.machine_cores)));
      body.set("queue_depth",
               Json::number(static_cast<double>(service.queue_depth)));
      body.set("queue_capacity",
               Json::number(
                   static_cast<double>(service.queue_capacity)));
      body.set("active_sessions",
               Json::number(
                   static_cast<double>(service.active_sessions)));
      body.set("max_active_sessions",
               Json::number(
                   static_cast<double>(service.max_active_sessions)));
      body.set("submitted",
               Json::number(static_cast<double>(service.submitted)));
      body.set("accepted",
               Json::number(static_cast<double>(service.accepted)));
      body.set("rejected",
               Json::number(static_cast<double>(service.rejected)));
      body.set("completed",
               Json::number(static_cast<double>(service.completed)));
      body.set("failed",
               Json::number(static_cast<double>(service.failed)));
      body.set("cancelled",
               Json::number(static_cast<double>(service.cancelled)));
      Json tenants = Json::array();
      for (const TenantStats& tenant : service.tenants) {
        Json entry = Json::object();
        entry.set("name", Json::string(tenant.name));
        entry.set("weight", Json::number(tenant.weight));
        entry.set("submitted",
                  Json::number(static_cast<double>(tenant.submitted)));
        entry.set("accepted",
                  Json::number(static_cast<double>(tenant.accepted)));
        entry.set("rejected",
                  Json::number(static_cast<double>(tenant.rejected)));
        entry.set("completed",
                  Json::number(static_cast<double>(tenant.completed)));
        entry.set("failed",
                  Json::number(static_cast<double>(tenant.failed)));
        entry.set("cancelled",
                  Json::number(static_cast<double>(tenant.cancelled)));
        entry.set("dispatched_units",
                  Json::number(
                      static_cast<double>(tenant.dispatched_units)));
        entry.set("contended_dispatched_units",
                  Json::number(static_cast<double>(
                      tenant.contended_dispatched_units)));
        entry.set("active_sessions",
                  Json::number(
                      static_cast<double>(tenant.active_sessions)));
        entry.set("peak_active_sessions",
                  Json::number(
                      static_cast<double>(tenant.peak_active_sessions)));
        entry.set("queued",
                  Json::number(static_cast<double>(tenant.queued)));
        tenants.push_back(std::move(entry));
      }
      body.set("tenants", std::move(tenants));
      return ok_reply(std::move(body));
    }
    case Verb::kShutdown: {
      shutdown();
      Json body = Json::object();
      body.set("state", Json::string("SHUTTING_DOWN"));
      return ok_reply(std::move(body));
    }
  }
  return error_reply("INTERNAL", "unhandled verb");
}

}  // namespace entk::serve

#include "pilot/local_agent.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pilot/stager.hpp"

namespace entk::pilot {

namespace fs = std::filesystem;

LocalAgent::LocalAgent(sim::MachineProfile machine, Count cores,
                       std::unique_ptr<Scheduler> scheduler,
                       const Clock& clock, fs::path session_dir)
    : machine_(std::move(machine)),
      cores_(cores),
      scheduler_(std::move(scheduler)),
      clock_(clock),
      session_dir_(std::move(session_dir)),
      free_(cores),
      trace_ordinal_(obs::next_pilot_ordinal()) {
  ENTK_CHECK(cores_ >= 1, "agent needs at least one core");
  ENTK_CHECK(scheduler_ != nullptr, "agent needs a scheduler");
  shared_dir_ = session_dir_ / "shared";
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(cores_), 16);
  workers_.reserve(workers);
  try {
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop_workers();  // join the workers that did start
    throw;
  }
}

LocalAgent::~LocalAgent() { stop_workers(); }

void LocalAgent::stop_workers() {
  // From here schedule_locked() launches nothing, so a unit settling
  // during teardown leaves its follow-on in the backlog, and the
  // workers exit once the launched deque is empty.
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  launched_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void LocalAgent::start(std::function<void()> on_ready) {
  {
    MutexLock lock(mutex_);
    ENTK_CHECK(!started_, "agent started twice");
    fs::create_directories(shared_dir_);
    fs::create_directories(session_dir_ / "units");
    started_ = true;
  }
  if (on_ready) on_ready();
  MutexLock lock(mutex_);
  schedule_locked();
}

Status LocalAgent::submit(std::vector<ComputeUnitPtr> units) {
  std::vector<ComputeUnitPtr> rejected;
  Status precondition = Status::ok();
  {
    MutexLock lock(mutex_);
    for (auto& unit : units) {
      if (unit->state() != UnitState::kPendingExecution) {
        precondition = make_error(Errc::kFailedPrecondition,
                                  "unit " + unit->uid() + " is " +
                                      unit_state_name(unit->state()) +
                                      "; expected pending_execution");
        break;
      }
      if (unit->description().cores > cores_) {
        rejected.push_back(std::move(unit));
        continue;
      }
      unit->stamp_submitted();
      // Aggregate metrics by design. entk-lint: allow(global-run-state)
      obs::Metrics::instance()
          .counter(obs::WellKnownCounter::kSchedulerWaitingPushes)
          .add();
      waiting_.push(std::move(unit));
    }
    if (started_) schedule_locked();
  }
  // Fail over-sized units only after releasing mutex_: the kFailed
  // transition fires UnitManager/GraphExecutor callbacks whose locks
  // order BEFORE the agent's (and resubmission could re-enter this
  // agent).
  for (auto& unit : rejected) {
    ENTK_RETURN_IF_ERROR(unit->advance_state(
        UnitState::kFailed,
        make_error(Errc::kResourceExhausted,
                   "unit " + unit->uid() + " needs " +
                       std::to_string(unit->description().cores) +
                       " cores; pilot has " + std::to_string(cores_))));
  }
  return precondition;
}

Status LocalAgent::cancel_unit(const ComputeUnitPtr& unit) {
  {
    MutexLock lock(mutex_);
    if (waiting_.erase(unit.get())) {
      // removed from the backlog; finalized below
    } else if (!pilot::is_final(unit->state()) &&
               unit->state() != UnitState::kNew) {
      // Executing on a worker thread: payloads are uninterruptible.
      return make_error(Errc::kFailedPrecondition,
                        "unit " + unit->uid() +
                            " is executing locally and cannot be killed");
    } else {
      return make_error(Errc::kNotFound,
                        "unit " + unit->uid() +
                            " is not active on this agent");
    }
  }
  return unit->advance_state(UnitState::kCanceled);
}

void LocalAgent::cancel_waiting() {
  std::vector<ComputeUnitPtr> cancelled;
  {
    MutexLock lock(mutex_);
    cancelled = waiting_.drain();
  }
  for (const auto& unit : cancelled) {
    (void)unit->advance_state(UnitState::kCanceled);
  }
}

std::vector<ComputeUnitPtr> LocalAgent::evict_inflight() {
  // Waiting units are already kPendingExecution; running payloads are
  // on uninterruptible threads and settle on their own.
  MutexLock lock(mutex_);
  return waiting_.drain();
}

Count LocalAgent::free_cores() const {
  MutexLock lock(mutex_);
  return free_;
}

std::size_t LocalAgent::waiting_units() const {
  MutexLock lock(mutex_);
  return waiting_.size();
}

std::size_t LocalAgent::running_units() const {
  MutexLock lock(mutex_);
  return running_;
}

Duration LocalAgent::total_spawn_overhead() const {
  MutexLock lock(mutex_);
  return spawn_total_;
}

void LocalAgent::schedule_locked() {
  if (stopping_ || waiting_.empty() || free_ <= 0) return;
  if (waiting_.min_cores() > free_) return;  // nothing can fit
  ENTK_TRACE_SPAN("agent.schedule", "agent");
  // Aggregate metrics by design. entk-lint: allow(global-run-state)
  auto& metrics = obs::Metrics::instance();
  metrics.counter(obs::WellKnownCounter::kSchedulerCycles).add();
  auto selected = scheduler_->select_from(waiting_, free_);
  metrics.gauge(obs::WellKnownGauge::kSchedulerWaitingUnits)
      .set(static_cast<double>(waiting_.size()));
  if (selected.empty()) return;
  metrics.counter(obs::WellKnownCounter::kSchedulerPicks)
      .add(selected.size());
  Count requested = 0;
  for (const auto& unit : selected) {
    requested += unit->description().cores;
  }
  ENTK_CHECK(requested <= free_, "scheduler over-committed cores");
  for (auto& unit : selected) {
    free_ -= unit->description().cores;
    ++running_;
    spawn_total_ += machine_.unit_spawn_overhead;
    ENTK_TRACE_INSTANT_FLOW_S("unit.launched", "agent",
                              unit->trace_flow(), trace_ordinal_,
                              unit->session_ordinal());
    launched_.push_back(std::move(unit));
    launched_cv_.notify_one();
  }
}

void LocalAgent::worker_loop() {
  for (;;) {
    ComputeUnitPtr unit;
    {
      MutexLock lock(mutex_);
      while (launched_.empty() && !stopping_) launched_cv_.wait(mutex_);
      if (launched_.empty()) return;  // stopping, and drained
      unit = std::move(launched_.front());
      launched_.pop_front();
    }
    execute(std::move(unit));
  }
}

void LocalAgent::execute(ComputeUnitPtr unit) {
  const auto& desc = unit->description();
  ENTK_TRACE_SPAN_S("unit.run_payload", "agent", unit->trace_flow(),
                    trace_ordinal_, unit->session_ordinal());
  const fs::path sandbox = session_dir_ / "units" / unit->uid();
  Status status;
  std::error_code ec;
  fs::create_directories(sandbox, ec);
  if (ec) {
    status = make_error(Errc::kIoError,
                        "cannot create sandbox: " + ec.message());
  }

  if (status.is_ok()) {
    (void)unit->advance_state(UnitState::kStagingInput);
    status = execute_staging(desc.input_staging, shared_dir_, sandbox);
  }
  if (status.is_ok()) {
    (void)unit->advance_state(UnitState::kExecuting);
    if (desc.simulated_fail && unit->retries() == 0) {
      status = make_error(Errc::kExecutionFailed,
                          "unit " + unit->uid() + " failed (injected)");
    } else if (desc.payload) {
      UnitRuntimeContext context;
      context.sandbox = sandbox;
      context.shared = shared_dir_;
      context.cores = desc.cores;
      context.environment = &desc.environment;
      // A payload that throws must fail its unit, not kill the worker
      // thread (and with it the whole process).
      try {
        status = desc.payload(context);
      } catch (const std::exception& error) {
        status = make_error(Errc::kExecutionFailed,
                            "unit " + unit->uid() +
                                " payload threw: " + error.what());
      } catch (...) {
        status = make_error(Errc::kExecutionFailed,
                            "unit " + unit->uid() +
                                " payload threw a non-exception");
      }
    }
  }
  if (status.is_ok()) {
    (void)unit->advance_state(UnitState::kStagingOutput);
    status = execute_staging(desc.output_staging, sandbox, shared_dir_);
  }

  // Finalize the unit before releasing cores: by the time
  // running_units() reads 0, every launched unit is in a final state.
  if (status.is_ok()) {
    (void)unit->advance_state(UnitState::kDone);
  } else {
    (void)unit->advance_state(UnitState::kFailed, status);
  }
  {
    MutexLock lock(mutex_);
    free_ += desc.cores;
    ENTK_CHECK(free_ <= cores_, "core accounting out of sync");
    --running_;
    schedule_locked();
  }
}

}  // namespace entk::pilot

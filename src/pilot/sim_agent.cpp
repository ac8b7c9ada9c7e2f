#include "pilot/sim_agent.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/log.hpp"
#include "common/task_fn.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pilot/stager.hpp"

namespace entk::pilot {

namespace {

constexpr std::size_t kNoSlot = ComputeUnit::kNoIndex;

/// Schedules a lifecycle closure, which must fit TaskFn's inline
/// buffer: one that does not costs a heap allocation per event.
template <typename Fn>
sim::EventId schedule_inline(sim::Engine& engine, TimePoint at, Fn&& fn) {
  static_assert(TaskFn::stores_inline<std::decay_t<Fn>>,
                "lifecycle closure outgrew TaskFn's inline buffer");
  return engine.schedule_at(at, std::forward<Fn>(fn));
}

}  // namespace

SimAgent::SimAgent(sim::Engine& engine, sim::MachineProfile machine,
                   Count cores, std::unique_ptr<Scheduler> scheduler,
                   sim::FaultModel* faults)
    : engine_(engine),
      machine_(std::move(machine)),
      initial_cores_(cores),
      scheduler_(std::move(scheduler)),
      faults_(faults),
      capacity_(cores),
      free_(cores),
      trace_ordinal_(obs::next_pilot_ordinal()) {
  ENTK_CHECK(capacity_ >= 1, "agent needs at least one core");
  ENTK_CHECK(scheduler_ != nullptr, "agent needs a scheduler");
}

SimAgent::~SimAgent() {
  (void)engine_.cancel(bootstrap_event_);
  for (const Slot& slot : slots_) {
    for (std::uint8_t i = 0; i < slot.events.count; ++i) {
      (void)engine_.cancel(slot.events.entries[i].id);
    }
  }
  if (fault_consumer_ != sim::FaultModel::kNoConsumer) {
    faults_->unwatch(fault_consumer_);
  }
}

void SimAgent::start(std::function<void()> on_ready) {
  ENTK_CHECK(!start_requested_, "agent started twice");
  start_requested_ = true;
  // Agent bootstrap: units submitted in the meantime queue up.
  bootstrap_event_ = engine_.schedule(
      machine_.pilot_bootstrap, [this, on_ready = std::move(on_ready)] {
        started_ = true;
        spawner_free_at_.assign(
            static_cast<std::size_t>(
                std::max<Count>(machine_.spawner_concurrency, 1)),
            engine_.now());
        if (faults_ != nullptr) {
          const Count nodes =
              (initial_cores_ + machine_.cores_per_node - 1) /
              machine_.cores_per_node;
          fault_consumer_ =
              faults_->watch_nodes(nodes, [this] { handle_node_failure(); });
        }
        if (on_ready) on_ready();
        schedule_loop();
      });
}

Status SimAgent::submit(std::vector<ComputeUnitPtr> units) {
  for (auto& unit : units) {
    if (unit->state() != UnitState::kPendingExecution) {
      return make_error(Errc::kFailedPrecondition,
                        "unit " + unit->uid() + " is " +
                            unit_state_name(unit->state()) +
                            "; expected pending_execution");
    }
    if (unit->description().cores > capacity_) {
      ENTK_RETURN_IF_ERROR(unit->advance_state(
          UnitState::kFailed,
          make_error(Errc::kResourceExhausted,
                     "unit " + unit->uid() + " needs " +
                         std::to_string(unit->description().cores) +
                         " cores; pilot has " +
                         std::to_string(capacity_))));
      continue;
    }
    unit->stamp_submitted();
    // Aggregate metrics by design. entk-lint: allow(global-run-state)
    obs::Metrics::instance()
        .counter(obs::WellKnownCounter::kSchedulerWaitingPushes)
        .add();
    waiting_.push(std::move(unit));
  }
  if (started_) schedule_loop();
  return Status::ok();
}

void SimAgent::cancel_waiting() {
  const std::vector<ComputeUnitPtr> cancelled = waiting_.drain();
  for (const auto& unit : cancelled) {
    (void)unit->advance_state(UnitState::kCanceled);
  }
  // Checked after the cancellations: their observers may have routed
  // new work here. A finished pilot need not keep a slot table sized
  // for its peak while its holders keep it.
  if (running_units() == 0) {
    std::vector<Slot>().swap(slots_);
    std::vector<std::size_t>().swap(free_slots_);
  }
}

std::vector<ComputeUnitPtr> SimAgent::evict_inflight() {
  // Waiting units are already kPendingExecution.
  std::vector<ComputeUnitPtr> evicted = waiting_.drain();
  // In-flight units rewind, in launch order; vacating their slots
  // cancels their pending events.
  std::vector<ComputeUnitPtr> inflight;
  for (const std::size_t slot : slots_by_launch()) {
    free_ += slots_[slot].unit->description().cores;
    inflight.push_back(vacate(slot, /*killed=*/true));
  }
  ENTK_CHECK(free_ <= capacity_, "core accounting out of sync");
  evicted.reserve(evicted.size() + inflight.size());
  for (auto& unit : inflight) {
    if (unit->advance_state(UnitState::kPendingExecution).is_ok()) {
      evicted.push_back(std::move(unit));
    }
  }
  return evicted;
}

void SimAgent::schedule_loop() {
  if (!started_ || waiting_.empty() || free_ <= 0) return;
  // Cheap pre-check: when even the smallest waiting unit cannot fit,
  // no policy can select anything.
  if (waiting_.min_cores() > free_) return;
  ++scheduler_cycles_;
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
  // Validate the scheduler's core budget before committing.
  Count requested = 0;
  for (const auto& unit : selected) {
    requested += unit->description().cores;
  }
  ENTK_CHECK(requested <= free_, "scheduler over-committed cores");
  // Launch in the order the scheduler returned (arrival order).
  for (auto& unit : selected) {
    free_ -= unit->description().cores;
    const std::size_t slot = occupy(unit, next_launch_seq_++);
    launch(std::move(unit), slot);
  }
}

Status SimAgent::cancel_unit(const ComputeUnitPtr& unit) {
  // Waiting: remove from the index.
  if (waiting_.erase(unit.get())) {
    return unit->advance_state(UnitState::kCanceled);
  }
  // Occupying cores: cancel its future events and reclaim the cores
  // now.
  const std::size_t slot = slot_of(*unit);
  if (slot != kNoSlot) {
    vacate(slot, /*killed=*/true);
    ENTK_RETURN_IF_ERROR(unit->advance_state(UnitState::kCanceled));
    free_ += unit->description().cores;
    ENTK_CHECK(free_ <= capacity_, "core accounting out of sync");
    schedule_loop();
    return Status::ok();
  }
  return make_error(Errc::kNotFound,
                    "unit " + unit->uid() + " is not active on this agent");
}

std::size_t SimAgent::slot_of(const ComputeUnit& unit) const {
  const std::size_t slot = unit.agent_slot();
  if (slot < slots_.size() && slots_[slot].unit.get() == &unit) return slot;
  return kNoSlot;
}

std::size_t SimAgent::occupy(ComputeUnitPtr unit, std::uint64_t seq) {
  std::size_t slot;
  if (free_slots_.empty()) {
    slot = slots_.size();
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  unit->set_agent_slot(slot);
  Slot& held = slots_[slot];
  held.seq = seq;
  held.unit = std::move(unit);
  held.events.count = 0;
  return slot;
}

ComputeUnitPtr SimAgent::vacate(std::size_t slot, bool killed) {
  // Whatever of the unit's lifecycle is still scheduled would only find
  // it gone: cancel it now, or each closure keeps the unit in the
  // engine until its original firing time. Fired ids are refused. A
  // release at the end of a run cancels only the execution timeout:
  // the other events have fired, or fire next as no-ops.
  TrackedEvents& tracked = slots_[slot].events;
  for (std::uint8_t i = 0; i < tracked.count; ++i) {
    if (killed || tracked.entries[i].kind == UnitEventKind::kTimeout) {
      (void)engine_.cancel(tracked.entries[i].id);
    }
  }
  tracked.count = 0;
  ComputeUnitPtr unit = std::move(slots_[slot].unit);
  unit->set_agent_slot(kNoSlot);
  free_slots_.push_back(slot);
  return unit;
}

std::vector<std::size_t> SimAgent::slots_by_launch() const {
  std::vector<std::size_t> order;
  order.reserve(running_units());
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].unit != nullptr) order.push_back(slot);
  }
  std::sort(order.begin(), order.end(),
            [this](std::size_t a, std::size_t b) {
              return slots_[a].seq < slots_[b].seq;
            });
  return order;
}

void SimAgent::release(std::size_t slot, const ComputeUnit* unit) {
  // Cancelled, evicted or killed earlier: the slot is free, holds
  // another unit by now, or went with the slot table.
  if (slot >= slots_.size() || slots_[slot].unit.get() != unit) return;
  free_ += unit->description().cores;
  vacate(slot, /*killed=*/false);
  ENTK_CHECK(free_ <= capacity_, "core accounting out of sync");
  schedule_loop();
}

void SimAgent::handle_node_failure() {
  // One node is gone: its cores leave the pool, taken first from the
  // free ones, then by killing executing units (newest launch first —
  // the lost node was the last to be filled).
  const Count lost = std::min(capacity_, machine_.cores_per_node);
  if (lost < 1) return;
  capacity_ -= lost;
  Count deficit = lost;
  const Count from_free = std::min(free_, deficit);
  free_ -= from_free;
  deficit -= from_free;
  // Settle all accounting before firing any state change: a victim's
  // failure callback can re-enter this agent (immediate retry), and it
  // must see a consistent pool — and never find a relaunched unit on
  // the kill list.
  std::vector<ComputeUnitPtr> victims;
  std::vector<std::size_t> by_launch = slots_by_launch();
  while (deficit > 0 && !by_launch.empty()) {
    ComputeUnitPtr victim = vacate(by_launch.back(), /*killed=*/true);
    by_launch.pop_back();
    const Count cores = victim->description().cores;
    if (cores >= deficit) {
      free_ += cores - deficit;
      deficit = 0;
    } else {
      deficit -= cores;
    }
    victims.push_back(std::move(victim));
  }
  ENTK_CHECK(free_ <= capacity_, "core accounting out of sync");
  std::vector<ComputeUnitPtr> stranded;
  if (capacity_ < 1) {
    // The pilot lost its last node: nothing can ever run here again.
    stranded = waiting_.drain();
  }
  for (const auto& victim : victims) {
    (void)victim->advance_state(
        UnitState::kFailed,
        make_error(Errc::kExecutionFailed,
                   "unit " + victim->uid() + " killed by node failure"));
  }
  for (const auto& unit : stranded) {
    (void)unit->advance_state(
        UnitState::kFailed,
        make_error(Errc::kExecutionFailed,
                   "unit " + unit->uid() +
                       " lost: pilot has no nodes left"));
  }
  if (capacity_ >= 1) schedule_loop();
}

void SimAgent::launch(ComputeUnitPtr unit, std::size_t slot) {
  const auto& desc = unit->description();
  ENTK_TRACE_INSTANT_FLOW_S("unit.launched", "agent", unit->trace_flow(),
                            trace_ordinal_, unit->session_ordinal());
  ENTK_CHECK(unit->advance_state(UnitState::kStagingInput).is_ok(),
             "launch on non-pending unit");
  const Count epoch = unit->epoch();

  const TimePoint now = engine_.now();
  const Duration stage_in = staging_delay(machine_, desc.input_staging);
  // Spawn on the earliest-free spawner worker; per-worker FIFO.
  auto earliest = std::min_element(spawner_free_at_.begin(),
                                   spawner_free_at_.end());
  ENTK_CHECK(earliest != spawner_free_at_.end(), "agent not bootstrapped");
  const TimePoint spawn_start = std::max(now + stage_in, *earliest);
  *earliest = spawn_start + machine_.unit_spawn_overhead;
  spawn_total_ += machine_.unit_spawn_overhead;
  const TimePoint exec_start =
      spawn_start + machine_.unit_spawn_overhead +
      machine_.unit_launch_latency;

  // Transient launch failure: the spawn itself fails — no execution,
  // no output staging; a retry usually succeeds.
  if (faults_ != nullptr && faults_->draw_launch_failure()) {
    schedule_launch_fail(unit, epoch, slot, exec_start);
    return;
  }

  const TimePoint exec_stop = exec_start + desc.simulated_duration;
  // A hung unit enters execution but its completion event never comes;
  // only the execution timeout below can reclaim it.
  const bool hangs =
      (desc.simulated_hang && unit->retries() == 0) ||
      (faults_ != nullptr && faults_->draw_hang());

  schedule_exec_start(unit, epoch, slot, exec_start);
  if (!hangs) schedule_complete(unit, epoch, slot, exec_stop);
  if (desc.retry.execution_timeout > 0.0) {
    schedule_timeout(unit, epoch, slot,
                     exec_start + desc.retry.execution_timeout);
  }
}

void SimAgent::schedule_launch_fail(const ComputeUnitPtr& unit,
                                    Count epoch, std::size_t slot,
                                    TimePoint at) {
  const sim::EventId id =
      schedule_inline(engine_, at, [this, unit, epoch, slot] {
        if (unit->epoch() != epoch ||
            unit->state() != UnitState::kStagingInput) {
          return;
        }
        (void)unit->advance_state(
            UnitState::kFailed,
            make_error(Errc::kExecutionFailed,
                       "unit " + unit->uid() + " launch failed (transient)"));
        release(slot, unit.get());
      });
  record_event(slot, UnitEventKind::kLaunchFail, epoch, id);
}

void SimAgent::schedule_exec_start(const ComputeUnitPtr& unit, Count epoch,
                                   std::size_t slot, TimePoint at) {
  const sim::EventId id = schedule_inline(engine_, at, [unit, epoch] {
    if (unit->epoch() != epoch ||
        unit->state() != UnitState::kStagingInput) {
      return;
    }
    ENTK_CHECK(unit->advance_state(UnitState::kExecuting).is_ok(),
               "unit lost before execution");
  });
  record_event(slot, UnitEventKind::kExecStart, epoch, id);
}

void SimAgent::schedule_complete(const ComputeUnitPtr& unit, Count epoch,
                                 std::size_t slot, TimePoint at) {
  const sim::EventId id =
      schedule_inline(engine_, at, [this, unit, epoch, slot] {
        if (unit->epoch() != epoch ||
            unit->state() != UnitState::kExecuting) {
          return;
        }
        finalize(unit, slot);
      });
  record_event(slot, UnitEventKind::kComplete, epoch, id);
}

void SimAgent::schedule_timeout(const ComputeUnitPtr& unit, Count epoch,
                                std::size_t slot, TimePoint at) {
  const sim::EventId id =
      schedule_inline(engine_, at, [this, unit, epoch, slot] {
        if (unit->epoch() != epoch ||
            unit->state() != UnitState::kExecuting) {
          return;
        }
        (void)unit->advance_state(
            UnitState::kFailed,
            make_error(Errc::kTimedOut,
                       "unit " + unit->uid() +
                           " exceeded its execution timeout"));
        release(slot, unit.get());
      });
  record_event(slot, UnitEventKind::kTimeout, epoch, id);
}

void SimAgent::schedule_stage_out(const ComputeUnitPtr& unit, Count epoch,
                                  std::size_t slot, TimePoint at) {
  const sim::EventId id =
      schedule_inline(engine_, at, [this, unit, epoch, slot] {
        if (unit->epoch() != epoch ||
            unit->state() != UnitState::kStagingOutput) {
          return;
        }
        ENTK_CHECK(unit->advance_state(UnitState::kDone).is_ok(),
                   "unit lost before done");
        release(slot, unit.get());
      });
  record_event(slot, UnitEventKind::kStageOutDone, epoch, id);
}

void SimAgent::record_event(std::size_t slot, UnitEventKind kind,
                            Count epoch, sim::EventId id) {
  TrackedEvents& tracked = slots_[slot].events;
  if (tracked.count == tracked.entries.size()) {
    // Compact: drop records whose event already fired or was voided.
    std::uint8_t kept = 0;
    for (std::uint8_t i = 0; i < tracked.count; ++i) {
      if (engine_.pending(tracked.entries[i].id)) {
        tracked.entries[kept++] = tracked.entries[i];
      }
    }
    tracked.count = kept;
    ENTK_CHECK(tracked.count < tracked.entries.size(),
               "unit lifecycle event record overflow");
  }
  tracked.entries[tracked.count++] = {id, kind, epoch};
}

void SimAgent::repost_event(const ComputeUnitPtr& unit, UnitEventKind kind,
                            TimePoint at) {
  const std::size_t slot = slot_of(*unit);
  ENTK_CHECK(slot != kNoSlot,
             "event reposted for unit " + unit->uid() +
                 ", which holds no cores on this agent");
  const Count epoch = unit->epoch();
  switch (kind) {
    case UnitEventKind::kLaunchFail:
      schedule_launch_fail(unit, epoch, slot, at);
      break;
    case UnitEventKind::kExecStart:
      schedule_exec_start(unit, epoch, slot, at);
      break;
    case UnitEventKind::kComplete:
      schedule_complete(unit, epoch, slot, at);
      break;
    case UnitEventKind::kTimeout:
      schedule_timeout(unit, epoch, slot, at);
      break;
    case UnitEventKind::kStageOutDone:
      schedule_stage_out(unit, epoch, slot, at);
      break;
  }
}

SimAgent::SavedState SimAgent::save_state() const {
  ENTK_CHECK(started_, "cannot checkpoint an agent before bootstrap");
  SavedState saved;
  saved.capacity = capacity_;
  saved.free = free_;
  saved.running = running_units();
  saved.next_launch_seq = next_launch_seq_;
  saved.scheduler_cycles = scheduler_cycles_;
  saved.spawn_total = spawn_total_;
  saved.spawner_free_at = spawner_free_at_;
  for (const auto& unit : waiting_.snapshot()) {
    saved.waiting.push_back(unit->uid());
  }
  // Launch order makes the serialized unit order — and with it the
  // event order below — deterministic.
  for (const std::size_t slot : slots_by_launch()) {
    const Slot& held = slots_[slot];
    const ComputeUnitPtr& unit = held.unit;
    saved.active.emplace_back(held.seq, unit->uid());
    const Count epoch = unit->epoch();
    for (std::uint8_t i = 0; i < held.events.count; ++i) {
      const auto& entry = held.events.entries[i];
      // Stale (already fired) or void (dead attempt) events would be
      // behavioral no-ops in the uninterrupted run too: drop them.
      if (entry.epoch != epoch || !engine_.pending(entry.id)) continue;
      saved.events.push_back({unit->uid(), entry.kind,
                              engine_.event_time(entry.id),
                              engine_.event_seq(entry.id)});
    }
  }
  return saved;
}

void SimAgent::restore_state(const SavedState& saved,
                             const UnitResolver& resolve) {
  ENTK_CHECK(started_, "cannot restore into an unstarted agent");
  ENTK_CHECK(running_units() == 0 && waiting_.empty(),
             "cannot restore into an agent with units in flight");
  ENTK_CHECK(saved.running == saved.active.size(),
             "checkpoint counts " + std::to_string(saved.running) +
                 " running units but lists " +
                 std::to_string(saved.active.size()));
  capacity_ = saved.capacity;
  free_ = saved.free;
  next_launch_seq_ = saved.next_launch_seq;
  scheduler_cycles_ = saved.scheduler_cycles;
  spawn_total_ = saved.spawn_total;
  spawner_free_at_ = saved.spawner_free_at;
  for (const auto& uid : saved.waiting) {
    ComputeUnitPtr unit = resolve(uid);
    ENTK_CHECK(unit != nullptr, "checkpoint names unknown unit " + uid);
    waiting_.push(std::move(unit));
  }
  for (const auto& [seq, uid] : saved.active) {
    ComputeUnitPtr unit = resolve(uid);
    ENTK_CHECK(unit != nullptr, "checkpoint names unknown unit " + uid);
    occupy(std::move(unit), seq);
  }
}

void SimAgent::finalize(const ComputeUnitPtr& unit, std::size_t slot) {
  const auto& desc = unit->description();
  // `simulated_fail` injects one failure on the first execution so that
  // retry logic can be exercised deterministically.
  const bool fail_now = desc.simulated_fail && unit->retries() == 0;
  const Duration stage_out =
      fail_now ? 0.0 : staging_delay(machine_, desc.output_staging);

  if (fail_now) {
    ENTK_CHECK(unit->advance_state(
                       UnitState::kFailed,
                       make_error(Errc::kExecutionFailed,
                                  "unit " + unit->uid() +
                                      " failed (injected)"))
                   .is_ok(),
               "failing unit");
    release(slot, unit.get());
    return;
  }
  const Count epoch = unit->epoch();
  ENTK_CHECK(unit->advance_state(UnitState::kStagingOutput).is_ok(),
             "unit lost before output staging");
  schedule_stage_out(unit, epoch, slot, engine_.now() + stage_out);
}

}  // namespace entk::pilot

#include "pilot/unit_manager.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pilot/agent.hpp"

namespace entk::pilot {

UnitManager::UnitManager(ExecutionBackend& backend, std::string session)
    : backend_(backend),
      session_(std::move(session)),
      session_ordinal_(obs::session_ordinal(session_)),
      unit_uids_(UidSource::session_family(session_, "unit")),
      gate_(std::make_shared<CallbackGate>()) {}

UnitManager::~UnitManager() {
  gate_->close();
  obs::release_session_ordinal(session_ordinal_);
}

void UnitManager::add_pilot(PilotPtr pilot) {
  {
    MutexLock lock(mutex_);
    pilots_.push_back(pilot);
  }
  // Flush held units the moment the pilot comes up; recover stranded
  // units the moment it fails. The pilot may outlive this manager
  // (another holder may keep it), so the callback is gated: after
  // this manager closes the gate, later pilot transitions no-op.
  std::shared_ptr<CallbackGate> gate = gate_;
  pilot->on_state_change(
      [this, gate](Pilot& changed, PilotState state) {
        if (!gate->enter()) return;
        if (state == PilotState::kActive) route_pending();
        if (state == PilotState::kFailed) recover_from_pilot(changed);
        gate->exit();
      });
  if (pilot->state() == PilotState::kActive) route_pending();
}

Result<std::vector<ComputeUnitPtr>> UnitManager::submit_units(
    std::vector<UnitDescription> descriptions) {
  std::vector<ComputeUnitPtr> units;
  units.reserve(descriptions.size());
  for (auto& description : descriptions) {
    ENTK_RETURN_IF_ERROR(description.validate());
    description.session = session_;
    auto unit = std::make_shared<ComputeUnit>(
        unit_uids_.next(), std::move(description), backend_.clock(),
        session_ordinal_, this, gate_);
    unit->stamp_created();
    ENTK_TRACE_INSTANT_FLOW_S("unit.created", "unit", unit->trace_flow(),
                              0, session_ordinal_);
    ENTK_CHECK(unit->advance_state(UnitState::kPendingExecution).is_ok(),
               "fresh unit");
    units.push_back(std::move(unit));
  }
  {
    MutexLock lock(mutex_);
    for (const auto& unit : units) {
      add_entry_locked(unit, false, false);
      unrouted_.push_back(unit);
      ++total_units_;
    }
  }
  // Aggregate metrics by design. entk-lint: allow(global-run-state)
  obs::Metrics::instance()
      .counter(obs::WellKnownCounter::kUnitsSubmitted)
      .add(units.size());
  route_pending();
  return units;
}

// Routes every held unit to an active pilot, round-robin. Agent
// submission and state transitions happen outside the manager lock so
// their callbacks can re-enter the manager.
void UnitManager::route_pending() {
  struct Batch {
    Agent* agent;
    std::vector<ComputeUnitPtr> units;
  };
  std::vector<Batch> batches;
  std::vector<ComputeUnitPtr> oversized;
  {
    MutexLock lock(mutex_);
    if (unrouted_.empty()) return;
    std::vector<Agent*> agents;
    for (const auto& pilot : pilots_) {
      if (pilot->state() == PilotState::kActive && pilot->agent()) {
        agents.push_back(pilot->agent());
      }
    }
    if (agents.empty()) return;
    while (!unrouted_.empty()) {
      ComputeUnitPtr unit = std::move(unrouted_.front());
      unrouted_.pop_front();
      // Find a pilot large enough, starting at the round-robin cursor.
      Agent* target = nullptr;
      for (std::size_t probe = 0; probe < agents.size(); ++probe) {
        Agent* candidate = agents[(next_pilot_ + probe) % agents.size()];
        if (unit->description().cores <= candidate->total_cores()) {
          target = candidate;
          next_pilot_ = (next_pilot_ + probe + 1) % agents.size();
          break;
        }
      }
      if (target == nullptr) {
        // Settled (or retried) by the kFailed transition below.
        oversized.push_back(std::move(unit));
        continue;
      }
      // At most one batch per pilot: a scan beats hashing.
      auto batch = std::find_if(
          batches.begin(), batches.end(),
          [target](const Batch& candidate) {
            return candidate.agent == target;
          });
      if (batch == batches.end()) {
        batch = batches.insert(batches.end(), Batch{target, {}});
      }
      batch->units.push_back(std::move(unit));
    }
  }
  for (auto& batch : batches) {
    const Status status = batch.agent->submit(std::move(batch.units));
    ENTK_CHECK(status.is_ok(),
               "agent rejected routed units: " + status.to_string());
  }
  for (const auto& unit : oversized) {
    (void)unit->advance_state(
        UnitState::kFailed,
        make_error(Errc::kResourceExhausted,
                   "unit " + unit->uid() + " needs " +
                       std::to_string(unit->description().cores) +
                       " cores; no pilot is large enough"));
  }
}

void UnitManager::handle_state_change(ComputeUnit& unit, UnitState state) {
  if (state == UnitState::kDone || state == UnitState::kCanceled) {
    settle_and_notify(unit, state);
    return;
  }
  if (state != UnitState::kFailed) return;

  const RetryPolicy& policy = unit.description().retry;
  ComputeUnitPtr retry;
  {
    MutexLock lock(mutex_);
    const Entry* entry = entry_locked(unit);
    if (entry == nullptr) return;  // not managed here
    if (unit.retries() < policy.max_retries) retry = entry->unit;
  }
  if (retry == nullptr) {  // retry budget exhausted: final failure
    settle_and_notify(unit, UnitState::kFailed);
    return;
  }
  // Reset before bumping the retry counter: observers treat "failed
  // with retries left" as not-settled, so the unit must never be
  // visible as (failed, retries == max) while a retry is coming.
  if (!unit.reset_for_retry().is_ok()) {
    settle_and_notify(unit, UnitState::kFailed);
    return;
  }
  unit.note_retry();
  // Aggregate metrics by design. entk-lint: allow(global-run-state)
  obs::Metrics::instance()
      .counter(obs::WellKnownCounter::kUnitsRetried)
      .add();
  ENTK_TRACE_INSTANT_FLOW_S("unit.retry", "unit", unit.trace_flow(), 0,
                            session_ordinal_);
  Duration delay;
  {
    MutexLock lock(mutex_);
    ++total_retries_;
    const double draw =
        policy.jitter > 0.0 ? retry_rng_.uniform() : 0.5;
    delay = policy.delay_for(unit.retries(), draw);
  }
  ENTK_INFO("pilot.umgr") << unit.uid() << " retry " << unit.retries()
                          << "/" << policy.max_retries
                          << " (backoff " << delay << "s)";
  if (delay <= 0.0) {
    {
      MutexLock lock(mutex_);
      unrouted_.push_back(std::move(retry));
    }
    route_pending();
    return;
  }
  // Exponential backoff: hold the unit until the delay elapses, then
  // requeue it — unless something (cancellation, pilot recovery)
  // already moved it on.
  schedule_retry_requeue(std::move(retry), delay);
}

void UnitManager::schedule_retry_requeue(ComputeUnitPtr retry,
                                         Duration delay) {
  const ComputeUnit* key = retry.get();
  // The timer lives in the backend's engine, which outlives this
  // manager — gate the expiry so a timer firing after teardown no-ops.
  std::shared_ptr<CallbackGate> gate = gate_;
  const std::uint64_t token =
      backend_.schedule_after(delay, [this, gate, retry] {
        if (!gate->enter()) return;
        bool requeued = false;
        {
          MutexLock lock(mutex_);
          retry_timers_.erase(retry.get());
          const Entry* entry = entry_locked(*retry);
          if (entry != nullptr && !entry->settled &&
              retry->state() == UnitState::kPendingExecution) {
            unrouted_.push_back(retry);
            requeued = true;
          }
        }
        if (requeued) route_pending();
        gate->exit();
      });
  // Token 0 means the backend cannot introspect timers (local backend):
  // nothing to capture. The sim engine fires strictly later on this
  // thread, so tracking after the call cannot miss the event.
  if (token != 0) {
    MutexLock lock(mutex_);
    retry_timers_[key] = token;
  }
}

void UnitManager::settle_and_notify(ComputeUnit& unit, UnitState state) {
  ComputeUnitPtr settled;
  std::shared_ptr<const ObserverList> observers;
  {
    MutexLock lock(mutex_);
    Entry* entry = entry_locked(unit);
    if (entry == nullptr) return;  // not managed here
    settle_entry_locked(*entry);
    if (entry->notified) return;  // already reported
    entry->notified = true;
    settled = entry->unit;
    // Snapshot by refcount, not by copy: the list is immutable (adds
    // and removes swap in a fresh one), so it stays valid — and any
    // observer registered mid-settle simply misses this unit, the same
    // race window the per-event copy had.
    observers = observers_;
  }
  // Aggregate metrics by design. entk-lint: allow(global-run-state)
  auto& metrics = obs::Metrics::instance();
  switch (state) {
    case UnitState::kDone:
      metrics.counter(obs::WellKnownCounter::kUnitsDone).add();
      break;
    case UnitState::kFailed:
      metrics.counter(obs::WellKnownCounter::kUnitsFailed).add();
      break;
    case UnitState::kCanceled:
      metrics.counter(obs::WellKnownCounter::kUnitsCanceled).add();
      break;
    default:
      break;
  }
  const Duration execution = settled->execution_time();
  if (execution > 0.0) {
    metrics.histogram(obs::WellKnownHistogram::kUnitExecutionSeconds)
        .observe(execution);
  }
  if (settled->submitted_at() != kNoTime &&
      settled->exec_started_at() != kNoTime) {
    metrics.histogram(obs::WellKnownHistogram::kUnitQueueWaitSeconds)
        .observe(settled->exec_started_at() - settled->submitted_at());
  }
  // Outside the lock: observers may re-enter the manager.
  if (observers == nullptr) return;
  for (const auto& [token, observer] : *observers) {
    observer(settled, state);
  }
}

std::size_t UnitManager::add_settled_observer(SettledObserver observer) {
  ENTK_CHECK(static_cast<bool>(observer), "null settled observer");
  MutexLock lock(mutex_);
  const std::size_t token = next_observer_token_++;
  auto next = observers_ == nullptr
                  ? std::make_shared<ObserverList>()
                  : std::make_shared<ObserverList>(*observers_);
  next->emplace_back(token, std::move(observer));
  observers_ = std::move(next);
  return token;
}

void UnitManager::remove_settled_observer(std::size_t token) {
  MutexLock lock(mutex_);
  if (observers_ == nullptr) return;
  auto next = std::make_shared<ObserverList>(*observers_);
  next->erase(std::remove_if(next->begin(), next->end(),
                             [token](const auto& entry) {
                               return entry.first == token;
                             }),
              next->end());
  observers_ = std::move(next);
}

void UnitManager::recover_from_pilot(Pilot& pilot) {
  Agent* agent = pilot.agent();
  if (agent == nullptr) return;
  std::vector<ComputeUnitPtr> stranded = agent->evict_inflight();
  if (stranded.empty()) return;
  std::size_t requeued = 0;
  {
    MutexLock lock(mutex_);
    for (auto& unit : stranded) {
      const Entry* entry = entry_locked(*unit);
      if (entry == nullptr || entry->settled) continue;
      unrouted_.push_back(std::move(unit));
      ++requeued;
    }
    recovered_units_ += requeued;
  }
  // Aggregate metrics by design. entk-lint: allow(global-run-state)
  obs::Metrics::instance()
      .counter(obs::WellKnownCounter::kUnitsRecovered)
      .add(requeued);
  ENTK_INFO("pilot.umgr") << "pilot " << pilot.uid() << " failed; "
                          << requeued << " unit(s) requeued";
  // Surviving pilots pick the units up now; otherwise they wait for a
  // replacement pilot (late binding).
  route_pending();
}

Status UnitManager::cancel_unit(const ComputeUnitPtr& unit) {
  ENTK_CHECK(unit != nullptr, "cannot cancel a null unit");
  std::vector<Agent*> agents;
  {
    MutexLock lock(mutex_);
    const auto held =
        std::find(unrouted_.begin(), unrouted_.end(), unit);
    if (held != unrouted_.end()) {
      unrouted_.erase(held);
      settle_entry_locked(*unit);
    } else {
      for (const auto& pilot : pilots_) {
        if (pilot->agent() != nullptr) agents.push_back(pilot->agent());
      }
    }
  }
  if (agents.empty()) {
    // Was unrouted: finalize outside the lock.
    return unit->advance_state(UnitState::kCanceled);
  }
  for (Agent* agent : agents) {
    const Status status = agent->cancel_unit(unit);
    if (status.is_ok() || status.code() == Errc::kFailedPrecondition) {
      return status;  // cancelled, or found-but-unkillable
    }
  }
  return make_error(Errc::kNotFound,
                    "unit " + unit->uid() + " is not active anywhere");
}

Status UnitManager::drain(Duration timeout) {
  std::vector<ComputeUnitPtr> open;
  {
    MutexLock lock(mutex_);
    for (const Entry& entry : entries_) {
      if (!entry.settled) open.push_back(entry.unit);
    }
  }
  if (open.empty()) return Status::ok();
  // Cancel in uid order, the order teardown has always used.
  std::sort(open.begin(), open.end(),
            [](const ComputeUnitPtr& a, const ComputeUnitPtr& b) {
              return a->uid() < b->uid();
            });
  for (const ComputeUnitPtr& unit : open) {
    const Status cancelled = cancel_unit(unit);
    if (cancelled.is_ok() ||
        cancelled.code() == Errc::kFailedPrecondition) {
      // Cancelled, or found-but-unkillable: wait_units rides it out.
      continue;
    }
    // kNotFound: held by nothing — the unit sits in a retry backoff
    // whose timer would requeue it. Settle it directly; the stale
    // timer no-ops against the settled entry.
    bool was_held = false;
    {
      MutexLock lock(mutex_);
      Entry* entry = entry_locked(*unit);
      if (entry != nullptr && !entry->settled) {
        settle_entry_locked(*entry);
        retry_timers_.erase(unit.get());
        was_held = true;
      }
    }
    if (was_held) (void)unit->advance_state(UnitState::kCanceled);
  }
  return wait_units(open, timeout);
}

Status UnitManager::wait_units(const std::vector<ComputeUnitPtr>& units,
                               Duration timeout) {
  // Plain loop, not std::all_of: thread-safety analysis treats a
  // nested lambda as a separate function that does not hold mutex_.
  return backend_.drive_until(
      [&] {
        MutexLock lock(mutex_);
        for (const ComputeUnitPtr& unit : units) {
          if (!settled_locked(*unit)) return false;
        }
        return true;
      },
      timeout);
}

bool UnitManager::settled_locked(const ComputeUnit& unit) const {
  const Entry* entry = entry_locked(unit);
  if (entry == nullptr) return is_final(unit.state());
  return entry->settled;
}

std::size_t UnitManager::total_units() const {
  MutexLock lock(mutex_);
  return total_units_;
}

std::size_t UnitManager::inflight_units() const {
  MutexLock lock(mutex_);
  return unsettled_;
}

void UnitManager::settle_entry_locked(Entry& entry) {
  if (entry.settled) return;
  entry.settled = true;
  --unsettled_;
}

void UnitManager::settle_entry_locked(const ComputeUnit& unit) {
  if (Entry* entry = entry_locked(unit)) settle_entry_locked(*entry);
}

UnitManager::Entry* UnitManager::entry_locked(const ComputeUnit& unit) {
  const std::size_t index = unit.manager_index();
  if (index >= entries_.size()) return nullptr;
  Entry& entry = entries_[index];
  return entry.unit.get() == &unit ? &entry : nullptr;
}

const UnitManager::Entry* UnitManager::entry_locked(
    const ComputeUnit& unit) const {
  const std::size_t index = unit.manager_index();
  if (index >= entries_.size()) return nullptr;
  const Entry& entry = entries_[index];
  return entry.unit.get() == &unit ? &entry : nullptr;
}

void UnitManager::add_entry_locked(const ComputeUnitPtr& unit, bool settled,
                                   bool notified) {
  unit->set_manager_index(entries_.size());
  entries_.push_back(Entry{unit, settled, notified});
  if (!settled) ++unsettled_;
}

std::size_t UnitManager::total_retries() const {
  MutexLock lock(mutex_);
  return total_retries_;
}

std::size_t UnitManager::recovered_units() const {
  MutexLock lock(mutex_);
  return recovered_units_;
}

UnitManager::SavedState UnitManager::save_state() const {
  MutexLock lock(mutex_);
  SavedState saved;
  saved.next_pilot = next_pilot_;
  for (const auto& unit : unrouted_) saved.unrouted.push_back(unit->uid());
  saved.total_units = total_units_;
  saved.total_retries = total_retries_;
  saved.recovered_units = recovered_units_;
  saved.retry_rng = retry_rng_.save_state();
  return saved;
}

void UnitManager::restore_state(const SavedState& saved,
                                const UnitResolver& resolve) {
  MutexLock lock(mutex_);
  next_pilot_ = saved.next_pilot;
  total_units_ = saved.total_units;
  total_retries_ = saved.total_retries;
  recovered_units_ = saved.recovered_units;
  retry_rng_.restore_state(saved.retry_rng);
  unrouted_.clear();
  for (const auto& uid : saved.unrouted) {
    ComputeUnitPtr unit = resolve(uid);
    ENTK_CHECK(unit != nullptr, "checkpoint names unknown unit " + uid);
    unrouted_.push_back(std::move(unit));
  }
}

ComputeUnitPtr UnitManager::restore_unit(
    std::string uid, UnitDescription description,
    const ComputeUnit::SavedState& state, bool settled, bool notified) {
  auto unit = std::make_shared<ComputeUnit>(
      std::move(uid), std::move(description), backend_.clock(),
      session_ordinal_, this, gate_);
  unit->restore_state(state);
  MutexLock lock(mutex_);
  add_entry_locked(unit, settled, notified);
  return unit;
}

bool UnitManager::unit_entry(const ComputeUnit* unit, bool& settled,
                             bool& notified) const {
  MutexLock lock(mutex_);
  const Entry* entry = entry_locked(*unit);
  if (entry == nullptr) return false;
  settled = entry->settled;
  notified = entry->notified;
  return true;
}

std::vector<std::pair<ComputeUnitPtr, std::uint64_t>>
UnitManager::pending_retries() const {
  std::vector<std::pair<ComputeUnitPtr, std::uint64_t>> out;
  {
    MutexLock lock(mutex_);
    out.reserve(retry_timers_.size());
    for (const auto& [key, token] : retry_timers_) {
      const Entry* entry = entry_locked(*key);
      if (entry == nullptr) continue;
      out.emplace_back(entry->unit, token);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) {
              return a.first->uid() < b.first->uid();
            });
  return out;
}

void UnitManager::repost_retry(const ComputeUnitPtr& unit, Duration delay) {
  schedule_retry_requeue(unit, delay);
}

}  // namespace entk::pilot

#include "pilot/compute_unit.hpp"

#include "common/log.hpp"
#include "obs/trace.hpp"
#include "pilot/unit_manager.hpp"

namespace entk::pilot {

ComputeUnit::ComputeUnit(std::string uid, UnitDescription description,
                         const Clock& clock, std::uint32_t session_ordinal,
                         UnitManager* manager,
                         std::shared_ptr<CallbackGate> gate)
    : uid_(std::move(uid)),
      description_(std::move(description)),
      clock_(clock),
      trace_flow_(obs::trace_flow_id(uid_)),
      session_ordinal_(session_ordinal),
      manager_(manager),
      gate_(std::move(gate)) {}

UnitState ComputeUnit::state() const {
  MutexLock lock(mutex_);
  return state_;
}

Status ComputeUnit::final_status() const {
  MutexLock lock(mutex_);
  return final_status_;
}

Count ComputeUnit::retries() const {
  MutexLock lock(mutex_);
  return retries_;
}

Count ComputeUnit::epoch() const {
  MutexLock lock(mutex_);
  return epoch_;
}

TimePoint ComputeUnit::created_at() const {
  MutexLock lock(mutex_);
  return created_at_;
}
TimePoint ComputeUnit::submitted_at() const {
  MutexLock lock(mutex_);
  return submitted_at_;
}
TimePoint ComputeUnit::exec_started_at() const {
  MutexLock lock(mutex_);
  return exec_started_at_;
}
TimePoint ComputeUnit::exec_stopped_at() const {
  MutexLock lock(mutex_);
  return exec_stopped_at_;
}
TimePoint ComputeUnit::finished_at() const {
  MutexLock lock(mutex_);
  return finished_at_;
}

Duration ComputeUnit::execution_time() const {
  MutexLock lock(mutex_);
  if (exec_started_at_ == kNoTime || exec_stopped_at_ == kNoTime) return 0.0;
  return exec_stopped_at_ - exec_started_at_;
}

Status ComputeUnit::advance_state(UnitState to, Status failure) {
  {
    MutexLock lock(mutex_);
    if (!is_valid_transition(state_, to)) {
      return make_error(Errc::kFailedPrecondition,
                        "unit " + uid_ + ": illegal transition " +
                            unit_state_name(state_) + " -> " +
                            unit_state_name(to));
    }
    const UnitState from = state_;
    state_ = to;
    const TimePoint now = clock_.now();
    switch (to) {
      case UnitState::kPendingExecution:
        if (from != UnitState::kNew) {
          // Pilot-loss rewind: the old attempt's timestamps and any
          // events an agent scheduled for it are void.
          exec_started_at_ = kNoTime;
          exec_stopped_at_ = kNoTime;
          finished_at_ = kNoTime;
          ++epoch_;
          ENTK_TRACE_INSTANT_FLOW_S("unit.exec_reset", "unit",
                                    trace_flow_, 0, session_ordinal_);
        }
        break;
      case UnitState::kExecuting:
        exec_started_at_ = now;
        ENTK_TRACE_SPAN_BEGIN_S("unit.exec", "unit", trace_flow_, 0,
                                session_ordinal_);
        break;
      case UnitState::kStagingOutput:
        exec_stopped_at_ = now;
        ENTK_TRACE_SPAN_END_S("unit.exec", "unit", trace_flow_, 0,
                              session_ordinal_);
        break;
      case UnitState::kDone:
      case UnitState::kFailed:
      case UnitState::kCanceled:
        if (exec_started_at_ != kNoTime && exec_stopped_at_ == kNoTime) {
          exec_stopped_at_ = now;
          ENTK_TRACE_SPAN_END_S("unit.exec", "unit", trace_flow_, 0,
                              session_ordinal_);
        }
        finished_at_ = now;
        break;
      default:
        break;
    }
    ENTK_TRACE_INSTANT_FLOW_S(unit_state_name(to), "unit.state",
                              trace_flow_, 0, session_ordinal_);
    if (to == UnitState::kFailed) {
      final_status_ = failure.is_ok()
                          ? make_error(Errc::kExecutionFailed,
                                       "unit " + uid_ + " failed")
                          : failure;
    }
  }
  ENTK_DEBUG("pilot.unit") << uid_ << " -> " << unit_state_name(to);
  // Outside the lock: the manager may re-enter this unit. The gate
  // turns the call into a no-op once the manager is being destroyed.
  if (manager_ != nullptr && gate_->enter()) {
    manager_->handle_state_change(*this, to);
    gate_->exit();
  }
  return Status::ok();
}

void ComputeUnit::stamp_created() {
  MutexLock lock(mutex_);
  if (created_at_ == kNoTime) created_at_ = clock_.now();
}

void ComputeUnit::stamp_submitted() {
  MutexLock lock(mutex_);
  submitted_at_ = clock_.now();
}

void ComputeUnit::note_retry() {
  MutexLock lock(mutex_);
  ++retries_;
}

ComputeUnit::SavedState ComputeUnit::save_state() const {
  MutexLock lock(mutex_);
  SavedState saved;
  saved.state = state_;
  saved.final_status = final_status_;
  saved.retries = retries_;
  saved.epoch = epoch_;
  saved.created_at = created_at_;
  saved.submitted_at = submitted_at_;
  saved.exec_started_at = exec_started_at_;
  saved.exec_stopped_at = exec_stopped_at_;
  saved.finished_at = finished_at_;
  return saved;
}

void ComputeUnit::restore_state(const SavedState& saved) {
  MutexLock lock(mutex_);
  state_ = saved.state;
  final_status_ = saved.final_status;
  retries_ = saved.retries;
  epoch_ = saved.epoch;
  created_at_ = saved.created_at;
  submitted_at_ = saved.submitted_at;
  exec_started_at_ = saved.exec_started_at;
  exec_stopped_at_ = saved.exec_stopped_at;
  finished_at_ = saved.finished_at;
}

Status ComputeUnit::reset_for_retry() {
  MutexLock lock(mutex_);
  if (state_ != UnitState::kFailed) {
    return make_error(Errc::kFailedPrecondition,
                      "unit " + uid_ + " is not failed; cannot retry");
  }
  state_ = UnitState::kPendingExecution;
  final_status_ = Status::ok();
  exec_started_at_ = kNoTime;
  exec_stopped_at_ = kNoTime;
  finished_at_ = kNoTime;
  ++epoch_;
  ENTK_TRACE_INSTANT_FLOW_S("unit.exec_reset", "unit", trace_flow_, 0,
                            session_ordinal_);
  return Status::ok();
}

}  // namespace entk::pilot

#include "pilot/pilot.hpp"

#include "common/log.hpp"
#include "pilot/agent.hpp"

namespace entk::pilot {

Pilot::Pilot(std::string uid, PilotDescription description,
             const Clock& clock)
    : uid_(std::move(uid)),
      description_(std::move(description)),
      clock_(clock) {}

Pilot::~Pilot() = default;

PilotState Pilot::state() const {
  MutexLock lock(mutex_);
  return state_;
}

Status Pilot::final_status() const {
  MutexLock lock(mutex_);
  return final_status_;
}

TimePoint Pilot::submitted_at() const {
  MutexLock lock(mutex_);
  return submitted_at_;
}
TimePoint Pilot::active_at() const {
  MutexLock lock(mutex_);
  return active_at_;
}
TimePoint Pilot::finished_at() const {
  MutexLock lock(mutex_);
  return finished_at_;
}

Duration Pilot::startup_time() const {
  MutexLock lock(mutex_);
  if (submitted_at_ == kNoTime || active_at_ == kNoTime) return 0.0;
  return active_at_ - submitted_at_;
}

Agent* Pilot::agent() const {
  MutexLock lock(mutex_);
  return agent_.get();
}

void Pilot::on_state_change(Callback callback) {
  MutexLock lock(mutex_);
  callbacks_.push_back(std::move(callback));
}

Status Pilot::advance_state(PilotState to, Status failure) {
  std::vector<Callback> callbacks;
  {
    MutexLock lock(mutex_);
    if (!is_valid_transition(state_, to)) {
      return make_error(Errc::kFailedPrecondition,
                        "pilot " + uid_ + ": illegal transition " +
                            pilot_state_name(state_) + " -> " +
                            pilot_state_name(to));
    }
    state_ = to;
    const TimePoint now = clock_.now();
    switch (to) {
      case PilotState::kPendingQueue:
        submitted_at_ = now;
        break;
      case PilotState::kActive:
        active_at_ = now;
        break;
      default:
        finished_at_ = now;
        break;
    }
    if (to == PilotState::kFailed) {
      final_status_ = failure.is_ok()
                          ? make_error(Errc::kExecutionFailed,
                                       "pilot " + uid_ + " failed")
                          : failure;
    }
    callbacks = callbacks_;
  }
  ENTK_DEBUG("pilot") << uid_ << " -> " << pilot_state_name(to);
  for (const auto& callback : callbacks) callback(*this, to);
  return Status::ok();
}

void Pilot::attach_container(sim::BatchJobId id) {
  MutexLock lock(mutex_);
  container_ = id;
}

sim::BatchJobId Pilot::container() const {
  MutexLock lock(mutex_);
  return container_;
}

void Pilot::attach_agent(std::unique_ptr<Agent> agent) {
  MutexLock lock(mutex_);
  agent_ = std::move(agent);
}

}  // namespace entk::pilot

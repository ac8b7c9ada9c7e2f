// Pilot: a placeholder/container job plus the agent living inside it.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "pilot/descriptions.hpp"
#include "pilot/states.hpp"
#include "sim/batch.hpp"

namespace entk::pilot {

class Agent;

class Pilot {
 public:
  using Callback = std::function<void(Pilot&, PilotState)>;

  Pilot(std::string uid, PilotDescription description, const Clock& clock);
  ~Pilot();

  const std::string& uid() const { return uid_; }
  const PilotDescription& description() const { return description_; }

  PilotState state() const ENTK_EXCLUDES(mutex_);
  Status final_status() const ENTK_EXCLUDES(mutex_);

  // Profiling timeline.
  /// Container job entered the queue.
  TimePoint submitted_at() const ENTK_EXCLUDES(mutex_);
  /// Agent finished bootstrapping.
  TimePoint active_at() const ENTK_EXCLUDES(mutex_);
  TimePoint finished_at() const ENTK_EXCLUDES(mutex_);

  /// Queue wait + bootstrap: active_at - submitted_at (0 until active).
  Duration startup_time() const ENTK_EXCLUDES(mutex_);

  /// The agent executing units inside this pilot; null until active.
  /// The pointer stays valid for the pilot's lifetime once attached.
  Agent* agent() const ENTK_EXCLUDES(mutex_);

  void on_state_change(Callback callback) ENTK_EXCLUDES(mutex_);

  // --- runtime interface (pilot manager only) ---
  Status advance_state(PilotState to, Status failure = Status::ok())
      ENTK_EXCLUDES(mutex_);
  void attach_container(sim::BatchJobId id) ENTK_EXCLUDES(mutex_);
  /// The backend's id of the container job; 0 until attached.
  sim::BatchJobId container() const ENTK_EXCLUDES(mutex_);
  void attach_agent(std::unique_ptr<Agent> agent) ENTK_EXCLUDES(mutex_);

 private:
  const std::string uid_;
  const PilotDescription description_;
  const Clock& clock_;

  mutable Mutex mutex_{LockRank::kPilot};
  PilotState state_ ENTK_GUARDED_BY(mutex_) = PilotState::kNew;
  Status final_status_ ENTK_GUARDED_BY(mutex_);
  TimePoint submitted_at_ ENTK_GUARDED_BY(mutex_) = kNoTime;
  TimePoint active_at_ ENTK_GUARDED_BY(mutex_) = kNoTime;
  TimePoint finished_at_ ENTK_GUARDED_BY(mutex_) = kNoTime;
  sim::BatchJobId container_ ENTK_GUARDED_BY(mutex_) = 0;
  std::unique_ptr<Agent> agent_ ENTK_GUARDED_BY(mutex_);
  std::vector<Callback> callbacks_ ENTK_GUARDED_BY(mutex_);
};

using PilotPtr = std::shared_ptr<Pilot>;

}  // namespace entk::pilot

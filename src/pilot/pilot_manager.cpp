#include "pilot/pilot_manager.hpp"

#include "common/log.hpp"
#include "common/uid.hpp"
#include "pilot/agent.hpp"

namespace entk::pilot {

PilotManager::PilotManager(ExecutionBackend& backend) : backend_(backend) {}

Result<PilotPtr> PilotManager::submit_pilot(
    PilotDescription description, const std::string& scheduler_policy) {
  ENTK_RETURN_IF_ERROR(description.validate());
  const auto& machine = backend_.machine();
  if (description.resource != machine.name) {
    return make_error(Errc::kInvalidArgument,
                      "pilot targets '" + description.resource +
                          "' but the backend executes on '" + machine.name +
                          "'");
  }
  if (description.cores > machine.total_cores()) {
    return make_error(Errc::kResourceExhausted,
                      "pilot requests " + std::to_string(description.cores) +
                          " cores; " + machine.name + " has " +
                          std::to_string(machine.total_cores()));
  }

  auto agent = backend_.make_agent(description.cores, scheduler_policy);
  if (!agent.ok()) return agent.status();

  // Session-scoped uid family ("alpha.pilot.000000"): two sessions
  // allocating through one shared manager draw from independent
  // counters, so each session's pilot uids match its solo run.
  // resubmit_like() reuses the finished pilot's description, session
  // included, so replacements stay in the owner's family.
  const std::string prefix = description.session.empty()
                                 ? "pilot"
                                 : description.session + ".pilot";
  // prefix is already the owning session's pilot uid family.
  // entk-lint: allow(global-run-state)
  auto pilot = std::make_shared<Pilot>(next_uid(prefix), description,
                                       backend_.clock());
  pilot->attach_agent(agent.take());

  ENTK_CHECK(pilot->advance_state(PilotState::kPendingQueue).is_ok(),
             "fresh pilot");

  // The container holds the pilot's cores; the agent runs inside it.
  sim::BatchJobRequest request;
  request.cores = description.cores;
  request.walltime = description.runtime;
  std::weak_ptr<Pilot> weak = pilot;
  request.on_start = [weak](const sim::Allocation&) {
    auto held = weak.lock();
    if (!held) return;
    // The pilot is Active only once its agent bootstrapped.
    held->agent()->start([weak] {
      auto ready = weak.lock();
      if (!ready) return;
      ENTK_CHECK(ready->advance_state(PilotState::kActive).is_ok(),
                 "pilot became active twice");
    });
  };
  request.on_end = [weak](sim::BatchJobState state) {
    auto held = weak.lock();
    if (!held || is_final(held->state())) return;
    switch (state) {
      case sim::BatchJobState::kExpired:
        (void)held->advance_state(
            PilotState::kFailed,
            make_error(Errc::kTimedOut,
                       "pilot " + held->uid() + " exceeded its walltime"));
        break;
      case sim::BatchJobState::kCancelled:
        (void)held->advance_state(PilotState::kCanceled);
        break;
      default:  // kCompleted only follows deallocate(), which ended it
        return;
    }
    held->agent()->cancel_waiting();
  };
  auto container = backend_.submit_container(std::move(request));
  if (!container.ok()) return container.status();
  pilot->attach_container(container.value());
  pilots_.push_back(pilot);
  ENTK_INFO("pilot.manager") << pilot->uid() << " submitted to "
                             << backend_.name() << " ("
                             << description.cores << " cores)";
  return pilot;
}

Status PilotManager::wait_active(const PilotPtr& pilot, Duration timeout) {
  ENTK_RETURN_IF_ERROR(backend_.drive_until(
      [&] {
        const PilotState state = pilot->state();
        return state == PilotState::kActive || is_final(state);
      },
      timeout));
  if (pilot->state() == PilotState::kActive) return Status::ok();
  return make_error(Errc::kExecutionFailed,
                    "pilot " + pilot->uid() + " ended up " +
                        pilot_state_name(pilot->state()));
}

Status PilotManager::deallocate(const PilotPtr& pilot) {
  if (pilot->state() != PilotState::kActive) {
    return make_error(Errc::kFailedPrecondition,
                      "pilot " + pilot->uid() + " is " +
                          pilot_state_name(pilot->state()) + ", not active");
  }
  pilot->agent()->cancel_waiting();
  ENTK_RETURN_IF_ERROR(pilot->advance_state(PilotState::kDone));
  return backend_.complete_container(pilot->container());
}

Result<PilotPtr> PilotManager::resubmit_like(
    const Pilot& finished, const std::string& scheduler_policy) {
  if (!is_final(finished.state())) {
    return make_error(Errc::kFailedPrecondition,
                      "pilot " + finished.uid() + " is " +
                          pilot_state_name(finished.state()) +
                          "; replace only finished pilots");
  }
  ENTK_INFO("pilot.manager") << "resubmitting a replacement for "
                             << finished.uid();
  return submit_pilot(finished.description(), scheduler_policy);
}

Status PilotManager::cancel(const PilotPtr& pilot) {
  const PilotState state = pilot->state();
  if (is_final(state)) {
    return make_error(Errc::kFailedPrecondition,
                      "pilot " + pilot->uid() + " already final");
  }
  pilot->agent()->cancel_waiting();
  // The container's on_end transitions the pilot itself.
  return backend_.cancel_container(pilot->container());
}

}  // namespace entk::pilot

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

  saga::JobDescription job_description;
  job_description.name = pilot->uid();
  job_description.executable = "entk-agent";  // the bootstrap script
  job_description.total_cpu_count = description.cores;
  job_description.wall_time_limit = description.runtime;
  job_description.queue = description.queue;
  job_description.project = description.project;

  auto job = backend_.job_service().submit(std::move(job_description));
  if (!job.ok()) return job.status();
  pilot->attach_job(job.value());

  std::weak_ptr<Pilot> weak = pilot;
  auto handle_job_state =
      [weak](saga::Job& container, saga::JobState state) {
        auto held = weak.lock();
        if (!held) return;
        switch (state) {
          case saga::JobState::kRunning:
            // The pilot is Active only once its agent bootstrapped.
            held->agent()->start([weak] {
              auto ready = weak.lock();
              if (!ready) return;
              ENTK_CHECK(
                  ready->advance_state(PilotState::kActive).is_ok(),
                  "pilot became active twice");
            });
            break;
          case saga::JobState::kFailed:
            if (!is_final(held->state())) {
              (void)held->advance_state(PilotState::kFailed,
                                        container.final_status());
              held->agent()->cancel_waiting();
            }
            break;
          case saga::JobState::kCanceled:
            if (!is_final(held->state())) {
              (void)held->advance_state(PilotState::kCanceled);
              held->agent()->cancel_waiting();
            }
            break;
          default:
            break;
        }
      };

  ENTK_CHECK(pilot->advance_state(PilotState::kPendingQueue).is_ok(),
             "fresh pilot");
  job.value()->on_state_change(handle_job_state);
  // The local adaptor starts container jobs synchronously inside
  // submit(), i.e. before the callback above existed — replay the
  // current state so such pilots still come up.
  const saga::JobState current = job.value()->state();
  if (current != saga::JobState::kNew &&
      current != saga::JobState::kPending &&
      pilot->state() == PilotState::kPendingQueue) {
    handle_job_state(*job.value(), current);
  }
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
  return backend_.job_service().complete(*pilot->job());
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
  // The job callback transitions the pilot itself.
  return backend_.job_service().cancel(*pilot->job());
}

}  // namespace entk::pilot

#include "pilot/sim_backend.hpp"

#include "pilot/sim_agent.hpp"

namespace entk::pilot {

SimBackend::SimBackend(sim::MachineProfile machine,
                       sim::BatchPolicy batch_policy)
    : cluster_(machine), batch_(engine_, cluster_, batch_policy) {
  if (machine.fault.enabled()) {
    faults_ = std::make_unique<sim::FaultModel>(engine_, machine.fault);
  }
}

Result<std::unique_ptr<Agent>> SimBackend::make_agent(
    Count cores, const std::string& scheduler_policy) {
  auto scheduler = make_scheduler(scheduler_policy);
  if (!scheduler.ok()) return scheduler.status();
  return std::unique_ptr<Agent>(std::make_unique<SimAgent>(
      engine_, cluster_.profile(), cores, scheduler.take(),
      faults_.get()));
}

Status SimBackend::drive_until(const std::function<bool()>& done,
                               Duration timeout) {
  const TimePoint deadline =
      timeout == kTimeInfinity ? kTimeInfinity : engine_.now() + timeout;
  while (!done()) {
    // Between engine steps every callback cascade has run to
    // completion, so this is a crash-consistent capture point.
    for (const auto& [token, hook] : step_hooks_) {
      Status status = hook();
      if (!status.is_ok()) return status;
    }
    const TimePoint next = engine_.next_event_time();
    if (next == kTimeInfinity) {
      // Drained queue: the condition can never become true.
      if (deadline == kTimeInfinity) {
        return make_error(Errc::kInternal,
                          "simulation drained with the wait condition "
                          "unmet (deadlock in the modelled system?)");
      }
      engine_.run_until(deadline);
      return make_error(Errc::kTimedOut,
                        "simulation passed the wait deadline");
    }
    // Never step past the deadline: the next event may lie hours ahead
    // of it (a hung unit, a long task), and a finite wait must expire
    // at its deadline, not whenever the simulation next wakes up.
    if (next > deadline) {
      engine_.run_until(deadline);
      return make_error(Errc::kTimedOut,
                        "simulation passed the wait deadline");
    }
    engine_.step();
  }
  return Status::ok();
}

}  // namespace entk::pilot

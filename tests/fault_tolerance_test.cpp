// Fault injection and fault-tolerant execution.
//
// Exercises the FaultModel (node failures, transient launch failures,
// hung units), the RetryPolicy (budget, exponential backoff, execution
// timeout), pilot-loss recovery (walltime expiry re-queuing in-flight
// units onto survivors or replacements) and the determinism guarantee
// (same seed => same fault trace and unit timeline).
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <utility>
#include <vector>

#include "ckpt/coordinator.hpp"
#include "ckpt/snapshot.hpp"
#include "common/uid.hpp"
#include "core/entk.hpp"
#include "pilot/agent.hpp"
#include "pilot/pilot_manager.hpp"
#include "pilot/sim_backend.hpp"
#include "pilot/unit_manager.hpp"
#include "scale_test_util.hpp"

namespace entk::pilot {
namespace {

UnitDescription simple_unit(Duration duration, Count cores = 1) {
  UnitDescription description;
  description.name = "ft.unit";
  description.executable = "/bin/true";
  description.cores = cores;
  description.uses_mpi = cores > 1;
  description.simulated_duration = duration;
  return description;
}

PilotPtr make_active_pilot(SimBackend& backend, Count cores,
                           Duration runtime = 100000.0) {
  PilotManager manager(backend);
  PilotDescription description;
  description.resource = "localhost";
  description.cores = cores;
  description.runtime = runtime;
  auto pilot = manager.submit_pilot(description);
  EXPECT_TRUE(pilot.ok()) << pilot.status().to_string();
  EXPECT_TRUE(manager.wait_active(pilot.value()).is_ok());
  return pilot.take();
}

// ------------------------------------------------------------ RetryPolicy

TEST(RetryPolicy, ValidatesItsParameters) {
  RetryPolicy policy;
  EXPECT_TRUE(policy.validate().is_ok());  // defaults are valid

  policy.max_retries = -1;
  EXPECT_EQ(policy.validate().code(), Errc::kInvalidArgument);
  policy.max_retries = 3;

  policy.backoff_multiplier = 0.5;
  EXPECT_EQ(policy.validate().code(), Errc::kInvalidArgument);
  policy.backoff_multiplier = 2.0;

  policy.jitter = 1.0;  // must stay < 1
  EXPECT_EQ(policy.validate().code(), Errc::kInvalidArgument);
  policy.jitter = 0.25;

  policy.execution_timeout = -1.0;
  EXPECT_EQ(policy.validate().code(), Errc::kInvalidArgument);
  policy.execution_timeout = 60.0;
  EXPECT_TRUE(policy.validate().is_ok());
}

TEST(RetryPolicy, ExponentialBackoffWithCap) {
  RetryPolicy policy;
  policy.backoff_base = 2.0;
  policy.backoff_multiplier = 3.0;
  EXPECT_DOUBLE_EQ(policy.delay_for(1), 2.0);
  EXPECT_DOUBLE_EQ(policy.delay_for(2), 6.0);
  EXPECT_DOUBLE_EQ(policy.delay_for(3), 18.0);
  policy.backoff_max = 10.0;
  EXPECT_DOUBLE_EQ(policy.delay_for(3), 10.0);
  // No base delay => immediate retries regardless of attempt.
  policy.backoff_base = 0.0;
  EXPECT_DOUBLE_EQ(policy.delay_for(5), 0.0);
}

TEST(RetryPolicy, JitterScalesTheDelay) {
  RetryPolicy policy;
  policy.backoff_base = 10.0;
  policy.jitter = 0.2;
  // jitter_draw 0 => low edge, 0.5 => nominal, 1 => high edge.
  EXPECT_DOUBLE_EQ(policy.delay_for(1, 0.0), 8.0);
  EXPECT_DOUBLE_EQ(policy.delay_for(1, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(policy.delay_for(1, 1.0), 12.0);
}

// -------------------------------------------------------------- FaultSpec

TEST(FaultSpec, DisabledByDefaultAndValidated) {
  sim::FaultSpec spec;
  EXPECT_FALSE(spec.enabled());
  EXPECT_TRUE(spec.validate().is_ok());
  spec.node_mtbf = 100.0;
  EXPECT_TRUE(spec.enabled());
  EXPECT_TRUE(spec.validate().is_ok());
  spec.launch_failure_rate = 1.5;
  EXPECT_EQ(spec.validate().code(), Errc::kInvalidArgument);
  spec.launch_failure_rate = 0.0;
  spec.node_mtbf = -1.0;
  EXPECT_EQ(spec.validate().code(), Errc::kInvalidArgument);
}

// --------------------------------------------- scenario: node failure

TEST(FaultTolerance, NodeFailureKillsUnitsAndRetryCompletesTheRun) {
  auto machine = sim::localhost_profile();
  machine.fault.seed = 42;
  machine.fault.node_mtbf = 100.0;      // 2 nodes => mean ~50 s to first
  machine.fault.max_node_failures = 1;  // lose exactly one node
  SimBackend backend(machine);
  auto pilot = make_active_pilot(backend, 16);  // 2 nodes x 8 cores

  UnitManager manager(backend);
  manager.add_pilot(pilot);
  auto description = simple_unit(300.0, 8);
  description.retry.max_retries = 3;
  description.retry.backoff_base = 5.0;
  auto units = manager.submit_units(
      {description, description, description, description});
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());

  ASSERT_NE(backend.faults(), nullptr);
  EXPECT_EQ(backend.faults()->node_failures(), 1);
  EXPECT_EQ(pilot->agent()->total_cores(), 8);  // one node gone
  // The unit executing on the dead node was killed and retried; the
  // whole ensemble still completed on the surviving node.
  EXPECT_GE(manager.total_retries(), 1u);
  for (const auto& unit : units.value()) {
    EXPECT_EQ(unit->state(), UnitState::kDone);
  }
}

TEST(FaultTolerance, NodeFailureAfterSlotReuseKillsTheNewestLaunch) {
  // Two nodes of 8 cores run A and B; A is cancelled and C launches
  // into the slot A held. A node failure takes the newest launch, which
  // is C, whatever slot it sits in.
  auto machine = sim::localhost_profile();
  machine.fault.seed = 42;
  machine.fault.node_mtbf = 2000.0;
  machine.fault.max_node_failures = 1;
  SimBackend backend(machine);
  auto pilot = make_active_pilot(backend, 16);
  UnitManager manager(backend);
  manager.add_pilot(pilot);

  auto first = manager.submit_units(
      {simple_unit(100000.0, 8), simple_unit(100000.0, 8)});
  ASSERT_TRUE(first.ok());
  const ComputeUnitPtr a = first.value()[0];
  const ComputeUnitPtr b = first.value()[1];
  ASSERT_TRUE(backend
                  .drive_until([&] {
                    return a->state() == UnitState::kExecuting &&
                           b->state() == UnitState::kExecuting;
                  })
                  .is_ok());
  ASSERT_TRUE(manager.cancel_unit(a).is_ok());
  auto second = manager.submit_units({simple_unit(100000.0, 8)});
  ASSERT_TRUE(second.ok());
  const ComputeUnitPtr c = second.value()[0];
  ASSERT_TRUE(backend
                  .drive_until([&] {
                    return c->state() == UnitState::kExecuting;
                  })
                  .is_ok());
  ASSERT_EQ(backend.faults()->node_failures(), 0);

  ASSERT_TRUE(backend
                  .drive_until([&] {
                    return backend.faults()->node_failures() == 1;
                  })
                  .is_ok());
  EXPECT_EQ(c->state(), UnitState::kFailed);
  EXPECT_EQ(c->final_status().code(), Errc::kExecutionFailed);
  EXPECT_EQ(b->state(), UnitState::kExecuting);
  EXPECT_EQ(pilot->agent()->total_cores(), 8);
  EXPECT_EQ(pilot->agent()->free_cores(), 0);
  EXPECT_EQ(pilot->agent()->running_units(), 1u);
}

// ------------------------------------- scenario: transient launch failure

TEST(FaultTolerance, TransientLaunchFailureConsumesRetryBudget) {
  auto machine = sim::localhost_profile();
  machine.fault.seed = 7;
  machine.fault.launch_failure_rate = 1.0;  // every launch fails
  SimBackend backend(machine);
  auto pilot = make_active_pilot(backend, 4);

  UnitManager manager(backend);
  manager.add_pilot(pilot);
  auto description = simple_unit(5.0);
  description.retry.max_retries = 2;
  auto units = manager.submit_units({std::move(description)});
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());

  // Rate 1.0: the first attempt and both retries all fail at launch.
  const auto& unit = units.value()[0];
  EXPECT_EQ(unit->state(), UnitState::kFailed);
  EXPECT_EQ(unit->final_status().code(), Errc::kExecutionFailed);
  EXPECT_EQ(unit->retries(), 2);
  EXPECT_EQ(backend.faults()->launch_failures(), 3);
}

// ------------------------------------------- scenario: hung unit, timeout

TEST(FaultTolerance, ExecutionTimeoutKillsHungUnitAndRetrySucceeds) {
  SimBackend backend(sim::localhost_profile());
  auto pilot = make_active_pilot(backend, 4);
  UnitManager manager(backend);
  manager.add_pilot(pilot);

  auto description = simple_unit(5.0);
  description.simulated_hang = true;  // first attempt never finishes
  description.retry.max_retries = 1;
  description.retry.execution_timeout = 10.0;
  auto units = manager.submit_units({std::move(description)});
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());

  // Attempt 1 hung and was killed after 10 s; attempt 2 ran normally.
  const auto& unit = units.value()[0];
  EXPECT_EQ(unit->state(), UnitState::kDone);
  EXPECT_EQ(unit->retries(), 1);
  EXPECT_NEAR(unit->execution_time(), 5.0, 1e-9);
  EXPECT_GT(unit->exec_started_at(), 10.0);  // relaunched after the kill
}

TEST(FaultTolerance, HungUnitWithoutRetryBudgetFailsWithTimeout) {
  SimBackend backend(sim::localhost_profile());
  auto pilot = make_active_pilot(backend, 4);
  UnitManager manager(backend);
  manager.add_pilot(pilot);

  auto description = simple_unit(5.0);
  description.simulated_hang = true;
  description.retry.execution_timeout = 10.0;
  auto units = manager.submit_units({std::move(description)});
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());
  EXPECT_EQ(units.value()[0]->state(), UnitState::kFailed);
  EXPECT_EQ(units.value()[0]->final_status().code(), Errc::kTimedOut);
  // The timeout kill released the cores: the agent is idle again.
  EXPECT_EQ(pilot->agent()->free_cores(), 4);
}

TEST(FaultTolerance, HangRateDrawsApplyToEveryAttempt) {
  auto machine = sim::localhost_profile();
  machine.fault.seed = 11;
  machine.fault.hang_rate = 1.0;
  SimBackend backend(machine);
  auto pilot = make_active_pilot(backend, 4);
  UnitManager manager(backend);
  manager.add_pilot(pilot);

  auto description = simple_unit(5.0);
  description.retry.max_retries = 1;
  description.retry.execution_timeout = 8.0;
  auto units = manager.submit_units({std::move(description)});
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());
  EXPECT_EQ(units.value()[0]->state(), UnitState::kFailed);
  EXPECT_EQ(units.value()[0]->final_status().code(), Errc::kTimedOut);
  EXPECT_EQ(backend.faults()->hangs(), 2);
}

// --------------------------------------------- scenario: retry backoff

TEST(FaultTolerance, RetryWaitsForTheBackoffDelay) {
  SimBackend backend(sim::localhost_profile());
  auto pilot = make_active_pilot(backend, 4);
  UnitManager manager(backend);
  manager.add_pilot(pilot);

  auto description = simple_unit(2.0);
  description.simulated_fail = true;  // attempt 1 fails at exec end
  description.retry.max_retries = 1;
  description.retry.backoff_base = 50.0;
  auto units = manager.submit_units({std::move(description)});
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());

  const auto& unit = units.value()[0];
  EXPECT_EQ(unit->state(), UnitState::kDone);
  EXPECT_EQ(unit->retries(), 1);
  // The relaunch (the timestamps belong to attempt 2) happened only
  // after the 50 s backoff window.
  EXPECT_GE(unit->exec_started_at(), 50.0);
  EXPECT_EQ(manager.total_retries(), 1u);
}

TEST(FaultTolerance, OversizedUnitWithBackoffSettlesFailedAfterItsRetries) {
  // No pilot can hold the unit: every routing attempt fails it, each
  // retry waits out its backoff, and the spent budget settles it failed
  // with its observers told exactly once.
  SimBackend backend(sim::localhost_profile());
  auto pilot = make_active_pilot(backend, 8);
  UnitManager manager(backend);
  manager.add_pilot(pilot);
  std::size_t settled = 0;
  manager.add_settled_observer([&](const ComputeUnitPtr&, UnitState state) {
    EXPECT_EQ(state, UnitState::kFailed);
    ++settled;
  });

  auto description = simple_unit(5.0, 16);
  description.retry.max_retries = 2;
  description.retry.backoff_base = 10.0;
  const TimePoint submitted_at = backend.engine().now();
  auto units = manager.submit_units({std::move(description)});
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());

  const auto& unit = units.value()[0];
  EXPECT_EQ(unit->state(), UnitState::kFailed);
  EXPECT_EQ(unit->final_status().code(), Errc::kResourceExhausted);
  EXPECT_EQ(unit->retries(), 2);
  EXPECT_EQ(manager.total_retries(), 2u);
  EXPECT_EQ(manager.inflight_units(), 0u);
  EXPECT_EQ(settled, 1u);
  // The final failure came after both backoffs: 10 s, then 20 s.
  EXPECT_NEAR(unit->finished_at() - submitted_at, 30.0, 1e-9);
}

// ----------------------------------- scenario: pilot walltime expiry

TEST(FaultTolerance, PilotWalltimeExpiryRequeuesUnitsOntoSurvivor) {
  SimBackend backend(sim::localhost_profile());
  PilotManager pilot_manager(backend);
  PilotDescription doomed;
  doomed.resource = "localhost";
  doomed.cores = 8;
  doomed.runtime = 50.0;  // expires mid-workload
  auto short_pilot = pilot_manager.submit_pilot(doomed);
  ASSERT_TRUE(short_pilot.ok());
  PilotDescription survivor = doomed;
  survivor.runtime = 100000.0;
  auto long_pilot = pilot_manager.submit_pilot(survivor);
  ASSERT_TRUE(long_pilot.ok());
  ASSERT_TRUE(pilot_manager.wait_active(short_pilot.value()).is_ok());
  ASSERT_TRUE(pilot_manager.wait_active(long_pilot.value()).is_ok());

  UnitManager manager(backend);
  manager.add_pilot(short_pilot.value());
  manager.add_pilot(long_pilot.value());

  // 4 x 8-core units of 40 s, routed round-robin: two land on each
  // pilot and serialize there. The short pilot dies at t=50 with its
  // second unit executing; that unit must finish on the survivor.
  std::vector<UnitDescription> descriptions(4, simple_unit(40.0, 8));
  auto units = manager.submit_units(std::move(descriptions));
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());

  EXPECT_EQ(short_pilot.value()->state(), PilotState::kFailed);
  EXPECT_EQ(short_pilot.value()->final_status().code(), Errc::kTimedOut);
  EXPECT_GE(manager.recovered_units(), 1u);
  for (const auto& unit : units.value()) {
    EXPECT_EQ(unit->state(), UnitState::kDone);
    // Pilot-loss recovery must not burn retry budget.
    EXPECT_EQ(unit->retries(), 0);
  }
}

// --------------------------------------------- scenario: determinism

struct TraceRun {
  std::vector<std::string> fault_trace;
  std::vector<std::pair<TimePoint, TimePoint>> unit_times;
};

TraceRun run_faulty_workload(std::uint64_t seed) {
  auto machine = sim::localhost_profile();
  machine.fault.seed = seed;
  machine.fault.node_mtbf = 60.0;
  machine.fault.max_node_failures = 1;
  machine.fault.launch_failure_rate = 0.2;
  SimBackend backend(machine);
  auto pilot = make_active_pilot(backend, 16);
  UnitManager manager(backend);
  manager.add_pilot(pilot);

  auto description = simple_unit(60.0, 4);
  description.retry.max_retries = 6;
  description.retry.backoff_base = 2.0;
  description.retry.backoff_multiplier = 2.0;
  description.retry.jitter = 0.3;
  std::vector<UnitDescription> descriptions(8, description);
  auto units = manager.submit_units(std::move(descriptions));
  EXPECT_TRUE(units.ok());
  EXPECT_TRUE(manager.wait_units(units.value()).is_ok());

  TraceRun run;
  run.fault_trace = backend.faults()->trace();
  for (const auto& unit : units.value()) {
    run.unit_times.emplace_back(unit->exec_started_at(),
                                unit->finished_at());
  }
  return run;
}

TEST(FaultTolerance, SameSeedYieldsIdenticalFaultTraceAndTimeline) {
  const TraceRun first = run_faulty_workload(0xdecafULL);
  const TraceRun second = run_faulty_workload(0xdecafULL);
  EXPECT_FALSE(first.fault_trace.empty());
  EXPECT_EQ(first.fault_trace, second.fault_trace);
  EXPECT_EQ(first.unit_times, second.unit_times);
}

// ------------------------------------------ scenario: replacement pilot

TEST(FaultTolerance, ResourceHandleRestartsFailedPilot) {
  SimBackend backend(sim::localhost_profile());
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  core::ResourceOptions options;
  options.cores = 4;
  options.runtime = 50.0;  // the pilot dies before the workload is done
  options.restart_failed_pilots = true;
  options.max_pilot_restarts = 3;
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());

  // 8 x 30 s tasks on 4 cores: two waves; the second wave outlives the
  // first pilot's walltime and finishes on the replacement.
  core::BagOfTasks bag(8, [](const core::StageContext&) {
    core::TaskSpec spec;
    spec.kernel = "misc.sleep";
    spec.args.set("duration", 30.0);
    return spec;
  });
  auto report = handle.run(bag);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  EXPECT_EQ(report.value().units_done, 8u);
  EXPECT_GE(report.value().recovered_units, 1u);
  EXPECT_GE(handle.pilots().size(), 2u);  // original + replacement
}

// ------------------------------------------------ wait_units deadline

TEST(FaultTolerance, WaitUnitsFiniteTimeoutExpiresWithoutSettling) {
  SimBackend backend(sim::localhost_profile());
  auto pilot = make_active_pilot(backend, 4);
  UnitManager manager(backend);
  manager.add_pilot(pilot);
  auto units = manager.submit_units({simple_unit(1000.0)});
  ASSERT_TRUE(units.ok());

  const TimePoint wait_start = backend.clock().now();
  const Status expired = manager.wait_units(units.value(), 10.0);
  EXPECT_EQ(expired.code(), Errc::kTimedOut);
  // The deadline truly bounded the wait — the unit's completion event
  // lies far beyond it and must not have been dispatched — and the
  // unit was not spuriously settled.
  EXPECT_NEAR(backend.clock().now(), wait_start + 10.0, 1e-9);
  EXPECT_FALSE(is_final(units.value()[0]->state()));
  EXPECT_EQ(manager.inflight_units(), 1u);

  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());
  EXPECT_EQ(units.value()[0]->state(), UnitState::kDone);
  EXPECT_EQ(manager.inflight_units(), 0u);
}

/// inflight_units() recomputed by scanning every unit the test made.
std::size_t scan_unsettled(const UnitManager& manager,
                           const std::vector<ComputeUnitPtr>& units) {
  std::size_t count = 0;
  for (const auto& unit : units) {
    bool settled = false;
    bool notified = false;
    if (manager.unit_entry(unit.get(), settled, notified) && !settled) {
      ++count;
    }
  }
  return count;
}

TEST(FaultTolerance, InflightCountMatchesAScanThroughEverySettlePath) {
  SimBackend backend(sim::localhost_profile());
  PilotManager pilot_manager(backend);
  PilotDescription doomed;
  doomed.resource = "localhost";
  doomed.cores = 8;
  doomed.runtime = 50.0;  // expires mid-workload: pilot-loss requeue
  auto short_pilot = pilot_manager.submit_pilot(doomed);
  ASSERT_TRUE(short_pilot.ok());
  PilotDescription survivor = doomed;
  survivor.runtime = 100000.0;
  auto long_pilot = pilot_manager.submit_pilot(survivor);
  ASSERT_TRUE(long_pilot.ok());
  ASSERT_TRUE(pilot_manager.wait_active(short_pilot.value()).is_ok());
  ASSERT_TRUE(pilot_manager.wait_active(long_pilot.value()).is_ok());

  UnitManager manager(backend);
  std::vector<ComputeUnitPtr> all;
  const auto submit = [&](std::vector<UnitDescription> descriptions) {
    auto units = manager.submit_units(std::move(descriptions));
    EXPECT_TRUE(units.ok()) << units.status().to_string();
    all.insert(all.end(), units.value().begin(), units.value().end());
    return units.take();
  };
  const auto expect_scan = [&](const char* where) {
    EXPECT_EQ(manager.inflight_units(), scan_unsettled(manager, all))
        << where;
  };

  // No pilot yet: submitted units are held unrouted; cancel one there.
  const auto held = submit({simple_unit(5.0), simple_unit(5.0)});
  expect_scan("held");
  ASSERT_TRUE(manager.cancel_unit(held[0]).is_ok());
  expect_scan("cancelled while unrouted");
  EXPECT_EQ(manager.inflight_units(), 1u);

  manager.add_pilot(short_pilot.value());
  manager.add_pilot(long_pilot.value());
  expect_scan("routed");
  const auto oversized = submit({simple_unit(1.0, 64)});
  EXPECT_EQ(oversized[0]->state(), UnitState::kFailed);
  expect_scan("oversized");

  auto failing = simple_unit(2.0);
  failing.simulated_fail = true;  // fails once, then backs off 1000 s
  failing.retry.max_retries = 1;
  failing.retry.backoff_base = 1000.0;
  submit({failing});
  const auto cancelled = submit({simple_unit(500.0)});
  std::vector<UnitDescription> wide(4, simple_unit(40.0, 8));
  const auto big = submit(std::move(wide));
  expect_scan("submitted");

  EXPECT_EQ(manager.wait_units(all, 10.0).code(), Errc::kTimedOut);
  expect_scan("executing");
  ASSERT_TRUE(manager.cancel_unit(cancelled[0]).is_ok());
  expect_scan("cancelled while executing");

  ASSERT_TRUE(manager.wait_units(big).is_ok());
  EXPECT_GE(manager.recovered_units(), 1u);
  EXPECT_EQ(manager.pending_retries().size(), 1u);
  expect_scan("pilot lost, retry in backoff");
  EXPECT_EQ(manager.inflight_units(), 1u);

  ASSERT_TRUE(manager.drain().is_ok());
  expect_scan("drained");
  EXPECT_EQ(manager.inflight_units(), 0u);

  // Checkpoint restore rebuilds units with their captured flags.
  UnitManager restored(backend);
  ComputeUnit::SavedState waiting;
  waiting.state = UnitState::kPendingExecution;
  const ComputeUnitPtr pending = restored.restore_unit(
      "inflight.restored", simple_unit(1.0), waiting, false, false);
  const ComputeUnitPtr done =
      restored.restore_unit(big[0]->uid(), big[0]->description(),
                            big[0]->save_state(), true, true);
  EXPECT_EQ(restored.inflight_units(), 1u);
  EXPECT_EQ(restored.inflight_units(),
            scan_unsettled(restored, {pending, done}));
  ASSERT_TRUE(restored.drain().is_ok());
  EXPECT_EQ(restored.inflight_units(), 0u);
  EXPECT_EQ(pending->state(), UnitState::kCanceled);
}

// ----------------------------------------- exhaustive transition tables

TEST(StateMachines, UnitTransitionTableIsExact) {
  using U = UnitState;
  const U all[] = {U::kNew,       U::kPendingExecution, U::kStagingInput,
                   U::kExecuting, U::kStagingOutput,    U::kDone,
                   U::kFailed,    U::kCanceled};
  std::set<std::pair<U, U>> allowed;
  auto allow = [&allowed](U from, U to) { allowed.insert({from, to}); };
  // Forward lifecycle.
  allow(U::kNew, U::kPendingExecution);
  allow(U::kPendingExecution, U::kStagingInput);
  allow(U::kPendingExecution, U::kExecuting);
  allow(U::kStagingInput, U::kExecuting);
  allow(U::kExecuting, U::kStagingOutput);
  allow(U::kExecuting, U::kDone);
  allow(U::kStagingOutput, U::kDone);
  // Failure/cancellation exits from every non-final state.
  for (U from : all) {
    if (is_final(from)) continue;
    allow(from, U::kFailed);
    allow(from, U::kCanceled);
  }
  // Pilot-loss rewind of in-flight units.
  allow(U::kStagingInput, U::kPendingExecution);
  allow(U::kExecuting, U::kPendingExecution);
  allow(U::kStagingOutput, U::kPendingExecution);

  for (U from : all) {
    for (U to : all) {
      EXPECT_EQ(is_valid_transition(from, to),
                allowed.count({from, to}) == 1)
          << unit_state_name(from) << " -> " << unit_state_name(to);
    }
  }
}

TEST(StateMachines, PilotTransitionTableIsExact) {
  using P = PilotState;
  const P all[] = {P::kNew,  P::kPendingQueue, P::kActive,
                   P::kDone, P::kFailed,       P::kCanceled};
  std::set<std::pair<P, P>> allowed;
  auto allow = [&allowed](P from, P to) { allowed.insert({from, to}); };
  allow(P::kNew, P::kPendingQueue);
  allow(P::kPendingQueue, P::kActive);
  allow(P::kActive, P::kDone);
  for (P from : all) {
    if (is_final(from)) continue;
    allow(from, P::kFailed);
    allow(from, P::kCanceled);
  }

  for (P from : all) {
    for (P to : all) {
      EXPECT_EQ(is_valid_transition(from, to),
                allowed.count({from, to}) == 1)
          << pilot_state_name(from) << " -> " << pilot_state_name(to);
    }
  }
}

// --------------------------------------------- pattern failure policies

class FailurePolicyTest : public ::testing::Test {
 protected:
  FailurePolicyTest()
      : registry_(kernels::KernelRegistry::with_builtin_kernels()),
        backend_(sim::localhost_profile()) {}

  Status run_bag(core::FailureRules rules) {
    core::ResourceOptions options;
    options.cores = 4;
    core::ResourceHandle handle(backend_, registry_, options);
    EXPECT_TRUE(handle.allocate().is_ok());
    // Task 1 of 4 fails permanently (no retry budget).
    core::BagOfTasks bag(4, [](const core::StageContext& context) {
      core::TaskSpec spec;
      spec.kernel = "misc.sleep";
      spec.args.set("duration", 1.0);
      spec.inject_failure = context.instance == 1;
      return spec;
    });
    bag.set_failure_rules(rules);
    auto report = handle.run(bag);
    EXPECT_TRUE(report.ok()) << report.status().to_string();
    if (!report.ok()) return report.status();
    EXPECT_EQ(report.value().units_failed, 1u);
    EXPECT_EQ(report.value().units_done, 3u);
    return report.value().outcome;
  }

  kernels::KernelRegistry registry_;
  pilot::SimBackend backend_;
};

TEST_F(FailurePolicyTest, FailFastReportsTheFailure) {
  EXPECT_FALSE(run_bag({core::FailurePolicy::kFailFast, 1.0}).is_ok());
}

TEST_F(FailurePolicyTest, ContinueOnFailureSucceeds) {
  EXPECT_TRUE(
      run_bag({core::FailurePolicy::kContinueOnFailure, 1.0}).is_ok());
}

TEST_F(FailurePolicyTest, QuorumComparesTheDoneFraction) {
  // 3/4 done: a 0.75 quorum passes, a 0.9 quorum fails.
  EXPECT_TRUE(run_bag({core::FailurePolicy::kQuorum, 0.75}).is_ok());
  EXPECT_FALSE(run_bag({core::FailurePolicy::kQuorum, 0.9}).is_ok());
}

// --------------------------------- scenario: checkpoint/resume × faults
//
// The recovery tiers must compose: a snapshot carries retry budgets,
// fault-model RNG streams and graph verdicts across a kill/resume, so
// faults that strike after the resume play out exactly as they would
// have in a run that never died. See docs/RESILIENCE.md.

/// Heterogeneous bag under a quorum verdict: generous retry budgets
/// (transient launch failures + node loss burn them) plus a sprinkle
/// of permanent failures the quorum must absorb (instances 1, 25, 49,
/// 73, 97 — five of 120).
core::BagOfTasks faulty_checkpoint_bag() {
  core::BagOfTasks bag(120, [](const core::StageContext& context) {
    Xoshiro256 rng(static_cast<std::uint64_t>(context.instance) * 977 + 5);
    core::TaskSpec spec;
    spec.kernel = "misc.sleep";
    spec.args.set("duration", 20.0 + 20.0 * rng.uniform());
    spec.cores = context.instance % 3 == 0 ? 2 : 1;
    spec.retry.max_retries = 6;
    spec.retry.backoff_base = 2.0;
    spec.retry.backoff_multiplier = 2.0;
    spec.retry.jitter = 0.3;
    if (context.instance % 24 == 1) {
      spec.inject_failure = true;
      spec.retry.max_retries = 0;  // settles failed, verdict decides
    }
    return spec;
  });
  bag.set_failure_rules({core::FailurePolicy::kQuorum, 0.75});
  return bag;
}

sim::MachineProfile faulty_checkpoint_machine() {
  auto machine = sim::localhost_profile();
  machine.fault.seed = 0xC0FFEE;
  machine.fault.node_mtbf = 150.0;
  machine.fault.max_node_failures = 2;
  machine.fault.launch_failure_rate = 0.05;
  return machine;
}

struct CheckpointFtReport {
  std::vector<ComputeUnitPtr> units;
  std::size_t units_done = 0;
  std::size_t units_failed = 0;
  std::size_t total_retries = 0;
  std::size_t recovered_units = 0;
};

CheckpointFtReport unpack(core::RunReport report) {
  CheckpointFtReport out;
  out.units_done = report.units_done;
  out.units_failed = report.units_failed;
  out.total_retries = report.total_retries;
  out.recovered_units = report.recovered_units;
  out.units = std::move(report.units);
  return out;
}

std::string fresh_ckpt_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

template <typename MakeMachine, typename MakePattern>
CheckpointFtReport run_ft_uninterrupted(MakeMachine make_machine,
                                        MakePattern make_pattern,
                                        core::ResourceOptions options) {
  reset_uid_counters_for_testing();
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  SimBackend backend(make_machine());
  core::ResourceHandle handle(backend, registry, options);
  EXPECT_TRUE(handle.allocate().is_ok());
  auto pattern = make_pattern();
  auto report = handle.run(pattern);
  EXPECT_TRUE(report.ok()) << report.status().to_string();
  if (!report.ok()) return {};
  EXPECT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  return unpack(report.take());
}

template <typename MakeMachine, typename MakePattern>
CheckpointFtReport run_ft_kill_resume(MakeMachine make_machine,
                                      MakePattern make_pattern,
                                      core::ResourceOptions options,
                                      const std::string& dir,
                                      std::uint64_t every_settled,
                                      std::uint64_t crash_after) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  ckpt::Snapshot snapshot;
  {
    reset_uid_counters_for_testing();
    SimBackend backend(make_machine());
    core::ResourceHandle handle(backend, registry, options);
    EXPECT_TRUE(handle.allocate().is_ok());
    ckpt::Coordinator::Options coordinator_options;
    coordinator_options.directory = dir;
    coordinator_options.policy.every_settled = every_settled;
    coordinator_options.crash_after_snapshots = crash_after;
    ckpt::Coordinator coordinator(backend, handle,
                                  std::move(coordinator_options));
    auto pattern = make_pattern();
    coordinator.set_identity(pattern.name(), "");
    pattern.set_graph_run_observer(&coordinator);
    auto report = handle.run(pattern);
    EXPECT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_TRUE(
        ckpt::Coordinator::is_checkpoint_stop(report.value().outcome))
        << report.value().outcome.to_string();
    auto loaded =
        ckpt::read_snapshot_file(coordinator.last_snapshot_path());
    EXPECT_TRUE(loaded.ok()) << loaded.status().to_string();
    if (!loaded.ok()) return {};
    snapshot = loaded.take();
  }
  reset_uid_counters_for_testing();
  SimBackend backend(make_machine());
  core::ResourceHandle handle(backend, registry, options);
  EXPECT_TRUE(handle.allocate().is_ok());
  ckpt::Coordinator::Options coordinator_options;
  coordinator_options.directory = dir;
  ckpt::Coordinator coordinator(backend, handle,
                                std::move(coordinator_options));
  auto pattern = make_pattern();
  coordinator.set_identity(pattern.name(), "");
  const Status restored = coordinator.restore_runtime(snapshot);
  EXPECT_TRUE(restored.is_ok()) << restored.to_string();
  if (!restored.is_ok()) return {};
  pattern.set_graph_run_observer(&coordinator);
  auto report = handle.run(pattern);
  EXPECT_TRUE(report.ok()) << report.status().to_string();
  if (!report.ok()) return {};
  EXPECT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  return unpack(report.take());
}

TEST(FaultTolerance, CheckpointResumeCarriesRetryBudgetsAndVerdicts) {
  core::ResourceOptions options;
  // All 4 localhost nodes: losing max_node_failures = 2 of them still
  // leaves capacity, so the run can always finish.
  options.cores = 32;
  options.runtime = 100000.0;
  const CheckpointFtReport baseline = run_ft_uninterrupted(
      faulty_checkpoint_machine, faulty_checkpoint_bag, options);
  ASSERT_EQ(baseline.units.size(), 120u);
  EXPECT_EQ(baseline.units_failed, 5u);  // quorum absorbed them
  EXPECT_GT(baseline.total_retries, 0u)
      << "the fault spec must actually burn retry budget for this "
         "test to mean anything";

  const CheckpointFtReport resumed = run_ft_kill_resume(
      faulty_checkpoint_machine, faulty_checkpoint_bag, options,
      fresh_ckpt_dir("ckpt_ft_faults"), /*every_settled=*/25,
      /*crash_after=*/2);
  ASSERT_EQ(resumed.units.size(), 120u);
  // Identical timelines => retry budgets, backoff RNG draws, fault
  // strikes and quorum verdicts all carried across the snapshot.
  EXPECT_EQ(core::scale_test::trace_digest(resumed.units),
            core::scale_test::trace_digest(baseline.units));
  EXPECT_EQ(resumed.units_done, baseline.units_done);
  EXPECT_EQ(resumed.units_failed, baseline.units_failed);
  EXPECT_EQ(resumed.total_retries, baseline.total_retries);
}

TEST(FaultTolerance, ResumeThenPilotLossRecoversWithRestoredState) {
  // Mirror of ResourceHandleRestartsFailedPilot with a kill/resume
  // before the pilot's walltime expiry: the expiry, the replacement
  // pilot and the requeue all happen AFTER the resume, driven purely
  // by restored state.
  core::ResourceOptions options;
  options.cores = 4;
  options.runtime = 50.0;  // the pilot dies before the workload is done
  options.restart_failed_pilots = true;
  options.max_pilot_restarts = 3;
  const auto make_machine = [] { return sim::localhost_profile(); };
  const auto make_pattern = [] {
    return core::BagOfTasks(8, [](const core::StageContext&) {
      core::TaskSpec spec;
      spec.kernel = "misc.sleep";
      spec.args.set("duration", 30.0);
      return spec;
    });
  };
  const CheckpointFtReport baseline =
      run_ft_uninterrupted(make_machine, make_pattern, options);
  ASSERT_EQ(baseline.units.size(), 8u);
  ASSERT_GE(baseline.recovered_units, 1u);

  // Crash after 2 settles (t ~= 30, before the t = 50 expiry).
  const CheckpointFtReport resumed = run_ft_kill_resume(
      make_machine, make_pattern, options,
      fresh_ckpt_dir("ckpt_ft_pilot_loss"), /*every_settled=*/2,
      /*crash_after=*/1);
  ASSERT_EQ(resumed.units.size(), 8u);
  EXPECT_EQ(resumed.units_done, 8u);
  EXPECT_GE(resumed.recovered_units, 1u)
      << "the pilot loss must have happened after the resume";
  EXPECT_EQ(core::scale_test::trace_digest(resumed.units),
            core::scale_test::trace_digest(baseline.units));
}

TEST(FailureRules, QuorumValidation) {
  core::FailureRules rules{core::FailurePolicy::kQuorum, 0.0};
  EXPECT_EQ(rules.validate().code(), Errc::kInvalidArgument);
  rules.quorum = 1.5;
  EXPECT_EQ(rules.validate().code(), Errc::kInvalidArgument);
  rules.quorum = 0.5;
  EXPECT_TRUE(rules.validate().is_ok());
  // Quorum bounds only matter under the quorum policy.
  core::FailureRules fail_fast{core::FailurePolicy::kFailFast, 99.0};
  EXPECT_TRUE(fail_fast.validate().is_ok());
}

}  // namespace
}  // namespace entk::pilot

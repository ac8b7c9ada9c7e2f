// Integration tests of the pilot runtime on the simulated backend.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "kernels/registry.hpp"
#include "pilot/agent.hpp"
#include "pilot/pilot_manager.hpp"
#include "pilot/sim_agent.hpp"
#include "pilot/sim_backend.hpp"
#include "pilot/unit_manager.hpp"

namespace entk::pilot {
namespace {

UnitDescription simple_unit(Duration duration, Count cores = 1) {
  UnitDescription description;
  description.name = "test.unit";
  description.executable = "/bin/true";
  description.cores = cores;
  description.uses_mpi = cores > 1;
  description.simulated_duration = duration;
  return description;
}

class SimPilotTest : public ::testing::Test {
 protected:
  SimPilotTest() : backend_(sim::localhost_profile()) {}

  PilotPtr make_active_pilot(Count cores,
                             const std::string& policy = "backfill") {
    PilotManager manager(backend_);
    PilotDescription description;
    description.resource = "localhost";
    description.cores = cores;
    description.runtime = 100000.0;
    auto pilot = manager.submit_pilot(description, policy);
    EXPECT_TRUE(pilot.ok()) << pilot.status().to_string();
    EXPECT_TRUE(manager.wait_active(pilot.value()).is_ok());
    return pilot.take();
  }

  SimBackend backend_;
};

TEST_F(SimPilotTest, PilotGoesActiveAfterQueueAndBootstrap) {
  auto pilot = make_active_pilot(8);
  EXPECT_EQ(pilot->state(), PilotState::kActive);
  EXPECT_GT(pilot->startup_time(), 0.0);
  ASSERT_NE(pilot->agent(), nullptr);
  EXPECT_EQ(pilot->agent()->total_cores(), 8);
  EXPECT_EQ(pilot->agent()->free_cores(), 8);
}

TEST_F(SimPilotTest, UnitsRunThroughTheFullLifecycle) {
  auto pilot = make_active_pilot(4);
  UnitManager manager(backend_);
  manager.add_pilot(pilot);

  auto units = manager.submit_units({simple_unit(5.0), simple_unit(5.0)});
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());
  for (const auto& unit : units.value()) {
    EXPECT_EQ(unit->state(), UnitState::kDone);
    EXPECT_NEAR(unit->execution_time(), 5.0, 1e-9);
    EXPECT_GE(unit->submitted_at(), unit->created_at());
    EXPECT_GE(unit->exec_started_at(), unit->submitted_at());
    EXPECT_GE(unit->finished_at(), unit->exec_stopped_at());
  }
}

TEST_F(SimPilotTest, MoreTasksThanCoresExecuteInWaves) {
  // 4 cores, 8 one-second tasks: the pilot must run them in two waves,
  // never exceeding its core count.
  auto pilot = make_active_pilot(4);
  UnitManager manager(backend_);
  manager.add_pilot(pilot);

  std::vector<UnitDescription> descriptions(8, simple_unit(10.0));
  auto units = manager.submit_units(std::move(descriptions));
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());

  // Waves: at most 4 units may overlap at any time.
  std::vector<std::pair<TimePoint, int>> edges;
  for (const auto& unit : units.value()) {
    EXPECT_EQ(unit->state(), UnitState::kDone);
    edges.emplace_back(unit->exec_started_at(), +1);
    edges.emplace_back(unit->exec_stopped_at(), -1);
  }
  std::sort(edges.begin(), edges.end());
  int concurrent = 0;
  int peak = 0;
  for (const auto& [time, delta] : edges) {
    concurrent += delta;
    peak = std::max(peak, concurrent);
  }
  EXPECT_LE(peak, 4);
  EXPECT_GE(peak, 3);  // the backfill scheduler should fill the pilot
}

TEST_F(SimPilotTest, MpiUnitsOccupyMultipleCores) {
  auto pilot = make_active_pilot(8);
  UnitManager manager(backend_);
  manager.add_pilot(pilot);

  auto units = manager.submit_units(
      {simple_unit(4.0, 8), simple_unit(4.0, 8)});
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());
  // Both need the whole pilot, so they must serialise.
  const auto& first = units.value()[0];
  const auto& second = units.value()[1];
  EXPECT_EQ(first->state(), UnitState::kDone);
  EXPECT_EQ(second->state(), UnitState::kDone);
  EXPECT_GE(second->exec_started_at(), first->exec_stopped_at());
}

TEST_F(SimPilotTest, OversizedUnitFailsCleanly) {
  auto pilot = make_active_pilot(4);
  UnitManager manager(backend_);
  manager.add_pilot(pilot);
  auto units = manager.submit_units({simple_unit(1.0, 16)});
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());
  EXPECT_EQ(units.value()[0]->state(), UnitState::kFailed);
  EXPECT_EQ(units.value()[0]->final_status().code(),
            Errc::kResourceExhausted);
}

TEST_F(SimPilotTest, InjectedFailureWithoutRetriesFails) {
  auto pilot = make_active_pilot(4);
  UnitManager manager(backend_);
  manager.add_pilot(pilot);
  auto description = simple_unit(2.0);
  description.simulated_fail = true;
  auto units = manager.submit_units({std::move(description)});
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());
  EXPECT_EQ(units.value()[0]->state(), UnitState::kFailed);
}

TEST_F(SimPilotTest, InjectedFailureWithRetrySucceedsSecondTime) {
  auto pilot = make_active_pilot(4);
  UnitManager manager(backend_);
  manager.add_pilot(pilot);
  auto description = simple_unit(2.0);
  description.simulated_fail = true;
  description.retry.max_retries = 1;
  auto units = manager.submit_units({std::move(description)});
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());
  EXPECT_EQ(units.value()[0]->state(), UnitState::kDone);
  EXPECT_EQ(units.value()[0]->retries(), 1);
}

TEST_F(SimPilotTest, UnitsSubmittedBeforePilotActiveAreHeld) {
  PilotManager pilot_manager(backend_);
  PilotDescription description;
  description.resource = "localhost";
  description.cores = 4;
  description.runtime = 100000.0;
  auto pilot = pilot_manager.submit_pilot(description);
  ASSERT_TRUE(pilot.ok());

  UnitManager unit_manager(backend_);
  unit_manager.add_pilot(pilot.value());
  // Pilot still pending: units must queue in the manager.
  auto units = unit_manager.submit_units({simple_unit(3.0)});
  ASSERT_TRUE(units.ok());
  EXPECT_EQ(units.value()[0]->state(), UnitState::kPendingExecution);
  ASSERT_TRUE(unit_manager.wait_units(units.value()).is_ok());
  EXPECT_EQ(units.value()[0]->state(), UnitState::kDone);
}

TEST_F(SimPilotTest, SpawnOverheadAccumulatesPerUnit) {
  auto pilot = make_active_pilot(8);
  UnitManager manager(backend_);
  manager.add_pilot(pilot);
  std::vector<UnitDescription> descriptions(8, simple_unit(1.0));
  auto units = manager.submit_units(std::move(descriptions));
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());
  const auto& machine = backend_.machine();
  EXPECT_NEAR(pilot->agent()->total_spawn_overhead(),
              8.0 * machine.unit_spawn_overhead, 1e-12);
}

TEST(SimAgentSpawner, SingleWorkerSerializesLaunches) {
  // With spawner_concurrency = 1 unit starts must stagger by at least
  // the per-unit spawn overhead.
  auto machine = sim::localhost_profile();
  machine.spawner_concurrency = 1;
  SimBackend backend(machine);
  PilotManager pilot_manager(backend);
  PilotDescription description;
  description.resource = "localhost";
  description.cores = 8;
  description.runtime = 100000.0;
  auto pilot = pilot_manager.submit_pilot(description);
  ASSERT_TRUE(pilot.ok());
  ASSERT_TRUE(pilot_manager.wait_active(pilot.value()).is_ok());

  UnitManager manager(backend);
  manager.add_pilot(pilot.value());
  std::vector<UnitDescription> descriptions(8, simple_unit(1.0));
  auto units = manager.submit_units(std::move(descriptions));
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());
  std::vector<TimePoint> starts;
  for (const auto& unit : units.value()) {
    starts.push_back(unit->exec_started_at());
  }
  std::sort(starts.begin(), starts.end());
  for (std::size_t i = 1; i < starts.size(); ++i) {
    EXPECT_GE(starts[i] - starts[i - 1],
              machine.unit_spawn_overhead - 1e-12);
  }
}

TEST(SimAgentSpawner, ParallelWorkersSpawnConcurrently) {
  // With 8 spawner workers, 8 units all start together.
  auto machine = sim::localhost_profile();
  machine.spawner_concurrency = 8;
  SimBackend backend(machine);
  PilotManager pilot_manager(backend);
  PilotDescription description;
  description.resource = "localhost";
  description.cores = 8;
  description.runtime = 100000.0;
  auto pilot = pilot_manager.submit_pilot(description);
  ASSERT_TRUE(pilot.ok());
  ASSERT_TRUE(pilot_manager.wait_active(pilot.value()).is_ok());

  UnitManager manager(backend);
  manager.add_pilot(pilot.value());
  std::vector<UnitDescription> descriptions(8, simple_unit(1.0));
  auto units = manager.submit_units(std::move(descriptions));
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(manager.wait_units(units.value()).is_ok());
  TimePoint first = kTimeInfinity, last = -kTimeInfinity;
  for (const auto& unit : units.value()) {
    first = std::min(first, unit->exec_started_at());
    last = std::max(last, unit->exec_started_at());
  }
  EXPECT_NEAR(first, last, 1e-12);
}

TEST_F(SimPilotTest, DeallocateCancelsWaitingUnits) {
  PilotManager pilot_manager(backend_);
  PilotDescription description;
  description.resource = "localhost";
  description.cores = 1;
  description.runtime = 100000.0;
  auto pilot = pilot_manager.submit_pilot(description);
  ASSERT_TRUE(pilot.ok());
  ASSERT_TRUE(pilot_manager.wait_active(pilot.value()).is_ok());

  UnitManager unit_manager(backend_);
  unit_manager.add_pilot(pilot.value());
  // One long unit runs, one waits.
  auto units = unit_manager.submit_units(
      {simple_unit(1000.0), simple_unit(1000.0)});
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(backend_
                  .drive_until([&] {
                    return units.value()[0]->state() ==
                           UnitState::kExecuting;
                  })
                  .is_ok());
  ASSERT_TRUE(pilot_manager.deallocate(pilot.value()).is_ok());
  EXPECT_EQ(pilot.value()->state(), PilotState::kDone);
  EXPECT_EQ(units.value()[1]->state(), UnitState::kCanceled);
}

TEST_F(SimPilotTest, CancelAndDeallocateReturnTheClusterCores) {
  PilotManager manager(backend_);
  PilotDescription description;
  description.resource = "localhost";
  description.cores = 4;
  description.runtime = 100000.0;
  auto cancelled = manager.submit_pilot(description);
  auto deallocated = manager.submit_pilot(description);
  ASSERT_TRUE(cancelled.ok());
  ASSERT_TRUE(deallocated.ok());
  ASSERT_TRUE(manager.wait_active(cancelled.value()).is_ok());
  ASSERT_TRUE(manager.wait_active(deallocated.value()).is_ok());
  sim::Cluster& cluster = backend_.cluster();
  EXPECT_EQ(cluster.free_cores(), cluster.total_cores() - 8);

  ASSERT_TRUE(manager.cancel(cancelled.value()).is_ok());
  EXPECT_EQ(cancelled.value()->state(), PilotState::kCanceled);
  EXPECT_EQ(manager.cancel(cancelled.value()).code(),
            Errc::kFailedPrecondition);
  ASSERT_TRUE(manager.deallocate(deallocated.value()).is_ok());
  EXPECT_EQ(deallocated.value()->state(), PilotState::kDone);

  // Draining the engine fires no walltime expiry on either container.
  backend_.engine().run();
  EXPECT_EQ(cancelled.value()->state(), PilotState::kCanceled);
  EXPECT_EQ(deallocated.value()->state(), PilotState::kDone);
  EXPECT_EQ(cluster.free_cores(), cluster.total_cores());
}

TEST_F(SimPilotTest, PilotCancelledWhileItsAgentBootstrapsStaysCanceled) {
  PilotManager manager(backend_);
  PilotDescription description;
  description.resource = "localhost";
  description.cores = 8;
  description.runtime = 1000.0;
  auto pilot = manager.submit_pilot(description);
  ASSERT_TRUE(pilot.ok());
  const sim::BatchJobId container = pilot.value()->container();
  while (backend_.batch().state(container).value() !=
         sim::BatchJobState::kRunning) {
    ASSERT_TRUE(backend_.engine().step());
  }
  ASSERT_TRUE(manager.cancel(pilot.value()).is_ok());
  // The bootstrap still completes inside the dead container; the pilot
  // stays canceled.
  backend_.engine().run();
  EXPECT_EQ(pilot.value()->state(), PilotState::kCanceled);
  EXPECT_EQ(pilot.value()->active_at(), kNoTime);
}

TEST_F(SimPilotTest, PilotValidation) {
  PilotManager manager(backend_);
  PilotDescription wrong_machine;
  wrong_machine.resource = "xsede.comet";
  wrong_machine.cores = 8;
  EXPECT_EQ(manager.submit_pilot(wrong_machine).status().code(),
            Errc::kInvalidArgument);
  PilotDescription too_big;
  too_big.resource = "localhost";
  too_big.cores = 1000;
  EXPECT_EQ(manager.submit_pilot(too_big).status().code(),
            Errc::kResourceExhausted);
  PilotDescription bad_policy;
  bad_policy.resource = "localhost";
  bad_policy.cores = 4;
  EXPECT_EQ(manager.submit_pilot(bad_policy, "no-such-policy")
                .status()
                .code(),
            Errc::kNotFound);
}

// A pilot, and the SimAgent inside it, live only as long as their
// session: nothing the engine or the fault model holds may reach an
// agent once it is freed. Each test frees an agent while something
// still points at it, then runs the engine to empty; under asan a
// callback that reached the freed agent is a heap-use-after-free.

/// A one-pilot session of `runtime`; nullptr on failure.
std::shared_ptr<core::Session> make_session(core::Runtime& runtime,
                                            const std::string& name,
                                            Count cores) {
  core::ResourceOptions options;
  options.cores = cores;
  options.runtime = 1.0e6;
  auto session = runtime.create_session({name, options});
  return session.ok() ? session.take() : nullptr;
}

TEST(AgentLifetime, SessionFreedWithUnitsHoldingCoresCancelsTheirEvents) {
  SimBackend backend(sim::localhost_profile());
  const auto registry = kernels::KernelRegistry::with_builtin_kernels();
  core::Runtime runtime(backend, registry);
  auto session = make_session(runtime, "lifetime.inflight", 8);
  ASSERT_NE(session, nullptr);
  ASSERT_TRUE(session->allocate().is_ok());
  std::vector<UnitDescription> descriptions;
  for (int i = 0; i < 8; ++i) {
    UnitDescription description = simple_unit(1000.0);
    description.retry.execution_timeout = 2000.0;
    descriptions.push_back(description);
  }
  auto units = session->unit_manager()->submit_units(descriptions);
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(backend
                  .drive_until([&] {
                    for (const auto& unit : units.value()) {
                      if (unit->state() != UnitState::kExecuting) {
                        return false;
                      }
                    }
                    return true;
                  })
                  .is_ok());
  // Each of the 8 units holds cores with its completion and its
  // execution timeout pending.
  EXPECT_EQ(backend.engine().pending_events(), 16u + 1u);  // + walltime

  ASSERT_TRUE(session->deallocate().is_ok());
  session.reset();
  EXPECT_EQ(backend.engine().pending_events(), 0u);
  backend.engine().run();
  for (const auto& unit : units.value()) {
    EXPECT_EQ(unit->state(), UnitState::kExecuting);
  }
}

TEST(AgentLifetime, PilotCancelledBeforeBootstrapCancelsItsBootstrapEvent) {
  SimBackend backend(sim::localhost_profile());
  const auto registry = kernels::KernelRegistry::with_builtin_kernels();
  core::Runtime runtime(backend, registry);
  auto session = make_session(runtime, "lifetime.bootstrap", 8);
  ASSERT_NE(session, nullptr);
  // Cancel the pilot between the start of its container and the end of
  // its agent's bootstrap, from inside allocate()'s wait, and stop the
  // wait there: the bootstrap event is still pending.
  bool cancelled = false;
  const std::uint64_t hook = backend.add_step_hook([&]() -> Status {
    if (cancelled || session->pilots().empty()) return Status::ok();
    const PilotPtr& pilot = session->pilots().front();
    const auto container = backend.batch().state(pilot->container());
    if (!container.ok() || container.value() != sim::BatchJobState::kRunning) {
      return Status::ok();
    }
    const auto* agent = dynamic_cast<const SimAgent*>(pilot->agent());
    EXPECT_TRUE(agent != nullptr && !agent->started());
    cancelled = true;
    ENTK_RETURN_IF_ERROR(runtime.pilot_manager().cancel(pilot));
    return make_error(Errc::kCancelled, "cancelled during bootstrap");
  });
  const Status allocated = session->allocate();
  backend.remove_step_hook(hook);
  ASSERT_TRUE(cancelled);
  EXPECT_FALSE(allocated.is_ok());
  EXPECT_EQ(session->pilot()->state(), PilotState::kCanceled);

  EXPECT_EQ(backend.engine().pending_events(), 1u);  // the bootstrap
  session.reset();
  EXPECT_EQ(backend.engine().pending_events(), 0u);
  backend.engine().run();
}

TEST(AgentLifetime, NodeFailuresAfterASessionEndsReachNoFreedAgent) {
  sim::MachineProfile machine = sim::localhost_profile();
  machine.fault.seed = 0x11fe;
  machine.fault.node_mtbf = 4000.0;
  SimBackend backend(machine);
  const auto registry = kernels::KernelRegistry::with_builtin_kernels();
  core::Runtime runtime(backend, registry);

  // Session A holds one node and ends at once; B holds two and runs.
  auto a = make_session(runtime, "lifetime.a", 8);
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->allocate().is_ok());
  ASSERT_TRUE(a->deallocate().is_ok());
  a.reset();
  const TimePoint a_ended = backend.engine().now();

  auto b = make_session(runtime, "lifetime.b", 16);
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->allocate().is_ok());
  std::vector<UnitDescription> descriptions;
  for (int i = 0; i < 4; ++i) {
    UnitDescription description = simple_unit(3000.0);
    description.retry.max_retries = 3;
    descriptions.push_back(description);
  }
  auto units = b->unit_manager()->submit_units(descriptions);
  ASSERT_TRUE(units.ok());
  ASSERT_TRUE(b->unit_manager()->wait_units(units.value()).is_ok());
  ASSERT_TRUE(b->deallocate().is_ok());
  b.reset();
  backend.engine().run();

  // A's stream kept firing after A was freed: its failures are traced
  // as before, and reached no one.
  const std::vector<std::string>& trace = backend.faults()->trace();
  bool a_failed_after_it_ended = false;
  for (const std::string& entry : trace) {
    if (entry.find("consumer=0") != std::string::npos &&
        std::stod(entry.substr(2)) > a_ended) {
      a_failed_after_it_ended = true;
    }
  }
  EXPECT_TRUE(a_failed_after_it_ended);
  // The trace of the runtime that kept every pilot for its own life.
  const std::vector<std::string> expected = {
      "t=362.027475 node_failure consumer=1 nodes_left=1",
      "t=992.369355 node_failure consumer=1 nodes_left=0",
      "t=2141.152715 node_failure consumer=0 nodes_left=0",
  };
  EXPECT_EQ(trace, expected);
}

}  // namespace
}  // namespace entk::pilot

// Integration tests of the pilot runtime on the simulated backend.
#include <gtest/gtest.h>

#include "pilot/agent.hpp"
#include "pilot/pilot_manager.hpp"
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

}  // namespace
}  // namespace entk::pilot

// Tests of the adaptive-execution features: kill/replace of units,
// the AdaptiveLoop higher-order pattern, and profile export.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/entk.hpp"
#include "pilot/agent.hpp"
#include "pilot/pilot_manager.hpp"
#include "pilot/unit_manager.hpp"

namespace entk {
namespace {

pilot::UnitDescription sim_unit(Duration duration) {
  pilot::UnitDescription description;
  description.name = "adaptive.unit";
  description.executable = "x";
  description.simulated_duration = duration;
  return description;
}

class CancelUnitTest : public ::testing::Test {
 protected:
  CancelUnitTest() : backend_(sim::localhost_profile()) {}

  pilot::PilotPtr make_active_pilot(Count cores) {
    pilot::PilotDescription description;
    description.resource = "localhost";
    description.cores = cores;
    description.runtime = 100000.0;
    auto pilot = manager_.submit_pilot(description);
    EXPECT_TRUE(pilot.ok());
    EXPECT_TRUE(manager_.wait_active(pilot.value()).is_ok());
    return pilot.take();
  }

  pilot::SimBackend backend_;
  pilot::PilotManager manager_{backend_};
};

TEST_F(CancelUnitTest, CancelWaitingUnitFreesNothing) {
  auto pilot = make_active_pilot(1);
  pilot::UnitManager units(backend_);
  units.add_pilot(pilot);
  auto submitted = units.submit_units({sim_unit(100.0), sim_unit(100.0)});
  ASSERT_TRUE(submitted.ok());
  // Drive until the first is executing; the second waits.
  ASSERT_TRUE(backend_
                  .drive_until([&] {
                    return submitted.value()[0]->state() ==
                           pilot::UnitState::kExecuting;
                  })
                  .is_ok());
  ASSERT_TRUE(units.cancel_unit(submitted.value()[1]).is_ok());
  EXPECT_EQ(submitted.value()[1]->state(), pilot::UnitState::kCanceled);
  // The first unit still completes normally.
  ASSERT_TRUE(units.wait_units(submitted.value()).is_ok());
  EXPECT_EQ(submitted.value()[0]->state(), pilot::UnitState::kDone);
}

TEST_F(CancelUnitTest, KillExecutingUnitReclaimsCores) {
  auto pilot = make_active_pilot(1);
  pilot::UnitManager units(backend_);
  units.add_pilot(pilot);
  auto submitted = units.submit_units({sim_unit(1000.0), sim_unit(5.0)});
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(backend_
                  .drive_until([&] {
                    return submitted.value()[0]->state() ==
                           pilot::UnitState::kExecuting;
                  })
                  .is_ok());
  const TimePoint killed_at = backend_.engine().now();
  ASSERT_TRUE(units.cancel_unit(submitted.value()[0]).is_ok());
  EXPECT_EQ(submitted.value()[0]->state(), pilot::UnitState::kCanceled);
  // The waiting unit takes over the freed core immediately — it
  // finishes long before the killed unit would have.
  ASSERT_TRUE(units.wait_units({submitted.value()[1]}).is_ok());
  EXPECT_EQ(submitted.value()[1]->state(), pilot::UnitState::kDone);
  EXPECT_LT(backend_.engine().now(), killed_at + 50.0);
}

TEST_F(CancelUnitTest,
       StaleEventsOfAKilledUnitLeaveItsSlotsNextOccupantAlone) {
  // The agent reuses a killed unit's slot for the next launch, and
  // nothing left of the killed unit's lifecycle may finish or release
  // the new occupant.
  auto pilot = make_active_pilot(1);
  pilot::UnitManager units(backend_);
  units.add_pilot(pilot);
  auto submitted = units.submit_units({sim_unit(100.0), sim_unit(1000.0)});
  ASSERT_TRUE(submitted.ok());
  const pilot::ComputeUnitPtr killed = submitted.value()[0];
  const pilot::ComputeUnitPtr next = submitted.value()[1];
  ASSERT_TRUE(backend_
                  .drive_until([&] {
                    return killed->state() == pilot::UnitState::kExecuting;
                  })
                  .is_ok());
  const TimePoint killed_started = killed->exec_started_at();
  ASSERT_TRUE(units.cancel_unit(killed).is_ok());
  ASSERT_TRUE(backend_
                  .drive_until([&] {
                    return next->state() == pilot::UnitState::kExecuting;
                  })
                  .is_ok());
  // Well past where the killed unit would have completed and staged
  // out.
  EXPECT_EQ(backend_.drive_until([] { return false; }, 200.0).code(),
            Errc::kTimedOut);
  ASSERT_GT(backend_.engine().now(), killed_started + 200.0);
  EXPECT_EQ(next->state(), pilot::UnitState::kExecuting);
  EXPECT_EQ(pilot->agent()->free_cores(), 0);
  EXPECT_EQ(pilot->agent()->running_units(), 1u);

  ASSERT_TRUE(units.wait_units({next}).is_ok());
  EXPECT_EQ(next->state(), pilot::UnitState::kDone);
  EXPECT_NEAR(next->execution_time(), 1000.0, 1e-9);
  EXPECT_EQ(pilot->agent()->free_cores(), 1);
  EXPECT_EQ(pilot->agent()->running_units(), 0u);
}

TEST_F(CancelUnitTest, KillingAUnitCancelsItsPendingEvents) {
  // A killed unit's completion and timeout events would only find it
  // gone. The agent cancels them with its slot, so neither waits in the
  // engine, holding the unit, until its original firing time.
  auto pilot = make_active_pilot(1);
  std::weak_ptr<pilot::ComputeUnit> watched;
  {
    pilot::UnitManager units(backend_);
    units.add_pilot(pilot);
    pilot::UnitDescription description = sim_unit(1000.0);
    description.retry.execution_timeout = 5000.0;
    auto submitted = units.submit_units({description});
    ASSERT_TRUE(submitted.ok());
    const pilot::ComputeUnitPtr killed = submitted.value()[0];
    watched = killed;
    ASSERT_TRUE(backend_
                    .drive_until([&] {
                      return killed->state() == pilot::UnitState::kExecuting;
                    })
                    .is_ok());
    const std::size_t pending = backend_.engine().pending_events();
    ASSERT_TRUE(units.cancel_unit(killed).is_ok());
    EXPECT_EQ(backend_.engine().pending_events(), pending - 2);
  }
  EXPECT_TRUE(watched.expired());
}

TEST_F(CancelUnitTest, AFinishedUnitLeavesNoTimeoutEventBehind) {
  // A unit that finishes well inside its execution timeout has no use
  // for the timeout's event. Its release cancels it, so the event does
  // not hold the unit in the engine until the timeout's original time.
  auto pilot = make_active_pilot(1);
  std::weak_ptr<pilot::ComputeUnit> watched;
  {
    pilot::UnitManager units(backend_);
    units.add_pilot(pilot);
    pilot::UnitDescription description = sim_unit(10.0);
    description.retry.execution_timeout = 5000.0;
    auto submitted = units.submit_units({description});
    ASSERT_TRUE(submitted.ok());
    const pilot::ComputeUnitPtr finished = submitted.value()[0];
    watched = finished;
    ASSERT_TRUE(units.wait_units(submitted.value()).is_ok());
    ASSERT_EQ(finished->state(), pilot::UnitState::kDone);
  }
  EXPECT_TRUE(watched.expired());
}

TEST_F(CancelUnitTest, KillReplacePattern) {
  // The paper's kill/replace: cancel a straggler and resubmit its work.
  auto pilot = make_active_pilot(2);
  pilot::UnitManager units(backend_);
  units.add_pilot(pilot);
  auto first = units.submit_units({sim_unit(10.0), sim_unit(10000.0)});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(units.wait_units({first.value()[0]}).is_ok());
  // The straggler is still going; kill and replace it.
  ASSERT_TRUE(units.cancel_unit(first.value()[1]).is_ok());
  auto replacement = units.submit_units({sim_unit(10.0)});
  ASSERT_TRUE(replacement.ok());
  ASSERT_TRUE(units.wait_units(replacement.value()).is_ok());
  EXPECT_EQ(replacement.value()[0]->state(), pilot::UnitState::kDone);
  EXPECT_LT(backend_.engine().now(), 100.0);  // nowhere near 10000 s
}

TEST_F(CancelUnitTest, CancelUnknownUnitFails) {
  auto pilot = make_active_pilot(1);
  pilot::UnitManager units(backend_);
  units.add_pilot(pilot);
  WallClock clock;
  auto stranger = std::make_shared<pilot::ComputeUnit>(
      "unit.stranger", sim_unit(1.0), clock, 0);
  EXPECT_EQ(units.cancel_unit(stranger).code(), Errc::kNotFound);
}

TEST_F(CancelUnitTest, CancelUnroutedUnit) {
  // No active pilot yet: units are held by the manager.
  pilot::PilotDescription description;
  description.resource = "localhost";
  description.cores = 2;
  description.runtime = 100000.0;
  auto pilot = manager_.submit_pilot(description);
  ASSERT_TRUE(pilot.ok());
  pilot::UnitManager units(backend_);
  units.add_pilot(pilot.value());
  auto submitted = units.submit_units({sim_unit(5.0)});
  ASSERT_TRUE(submitted.ok());
  ASSERT_EQ(submitted.value()[0]->state(),
            pilot::UnitState::kPendingExecution);
  ASSERT_TRUE(units.cancel_unit(submitted.value()[0]).is_ok());
  EXPECT_EQ(submitted.value()[0]->state(), pilot::UnitState::kCanceled);
}

// -------------------------------------------------------------- AdaptiveLoop

class AdaptiveLoopTest : public ::testing::Test {
 protected:
  AdaptiveLoopTest()
      : registry_(kernels::KernelRegistry::with_builtin_kernels()),
        backend_(sim::localhost_profile()) {}

  kernels::KernelRegistry registry_;
  pilot::SimBackend backend_;
};

TEST_F(AdaptiveLoopTest, RunsUntilConvergence) {
  core::ResourceOptions options;
  options.cores = 8;
  core::ResourceHandle handle(backend_, registry_, options);
  ASSERT_TRUE(handle.allocate().is_ok());

  auto body = std::make_unique<core::BagOfTasks>(
      4, [](const core::StageContext&) {
        core::TaskSpec spec;
        spec.kernel = "misc.sleep";
        spec.args.set("duration", 1.0);
        return spec;
      });
  // "Converge" after three rounds.
  core::AdaptiveLoop loop(std::move(body), 10,
                          [](Count round) { return round < 3; });
  auto report = handle.run(loop);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().outcome.is_ok());
  EXPECT_EQ(loop.rounds_completed(), 3);
  EXPECT_EQ(report.value().units.size(), 12u);
}

TEST_F(AdaptiveLoopTest, RoundCapStopsRunawayLoops) {
  core::ResourceOptions options;
  options.cores = 4;
  core::ResourceHandle handle(backend_, registry_, options);
  ASSERT_TRUE(handle.allocate().is_ok());
  auto body = std::make_unique<core::BagOfTasks>(
      1, [](const core::StageContext&) {
        core::TaskSpec spec;
        spec.kernel = "misc.sleep";
        spec.args.set("duration", 0.5);
        return spec;
      });
  core::AdaptiveLoop loop(std::move(body), 5,
                          [](Count) { return true; });  // never converges
  auto report = handle.run(loop);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().outcome.is_ok());
  EXPECT_EQ(loop.rounds_completed(), 5);
}

TEST_F(AdaptiveLoopTest, Validation) {
  core::AdaptiveLoop no_body(nullptr, 3, [](Count) { return false; });
  EXPECT_EQ(no_body.validate().code(), Errc::kInvalidArgument);
  auto body = std::make_unique<core::BagOfTasks>(
      1, [](const core::StageContext&) { return core::TaskSpec{}; });
  core::AdaptiveLoop no_fn(std::move(body), 3, nullptr);
  EXPECT_EQ(no_fn.validate().code(), Errc::kInvalidArgument);
}

// ------------------------------------------------------------ profile export

TEST(ProfileExport, CsvRoundTrip) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::localhost_profile());
  core::ResourceOptions options;
  options.cores = 4;
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());
  core::BagOfTasks pattern(3, [](const core::StageContext&) {
    core::TaskSpec spec;
    spec.kernel = "misc.sleep";
    spec.args.set("duration", 2.0);
    return spec;
  });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());

  const std::string csv = core::units_timeline_csv(report.value().units);
  // Header + one row per unit.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
  EXPECT_NE(csv.find("misc.sleep"), std::string::npos);
  EXPECT_NE(csv.find("done"), std::string::npos);

  const std::string overheads =
      core::overheads_csv(report.value().overheads);
  EXPECT_NE(overheads.find("ttc,"), std::string::npos);
  EXPECT_NE(overheads.find("pattern_overhead,"), std::string::npos);

  const auto prefix =
      (std::filesystem::temp_directory_path() / "entk_profile_test")
          .string();
  ASSERT_TRUE(core::export_run_profile(report.value(), prefix).is_ok());
  EXPECT_TRUE(std::filesystem::exists(prefix + "_units.csv"));
  EXPECT_TRUE(std::filesystem::exists(prefix + "_overheads.csv"));
  std::filesystem::remove(prefix + "_units.csv");
  std::filesystem::remove(prefix + "_overheads.csv");
}

TEST(ProfileExport, RejectsUnwritablePath) {
  core::RunReport report;
  EXPECT_EQ(core::export_run_profile(report, "/nonexistent/dir/prefix")
                .code(),
            Errc::kIoError);
}

}  // namespace
}  // namespace entk

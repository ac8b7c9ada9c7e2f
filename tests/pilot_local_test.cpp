// Integration tests of the local backend: real payload execution,
// real staging, and the full EnTK stack running genuine work.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/entk.hpp"
#include "obs/metrics.hpp"
#include "pilot/local_agent.hpp"
#include "pilot/local_backend.hpp"
#include "pilot/pilot_manager.hpp"
#include "pilot/scheduler.hpp"
#include "pilot/stager.hpp"
#include "pilot/unit_manager.hpp"

namespace entk::pilot {
namespace {

namespace fs = std::filesystem;

UnitDescription payload_unit(UnitPayload payload, Count cores = 1) {
  UnitDescription description;
  description.name = "local.unit";
  description.executable = "inproc";
  description.cores = cores;
  description.uses_mpi = cores > 1;
  description.payload = std::move(payload);
  return description;
}

TEST(Stager, CopiesLinksAndMoves) {
  const fs::path root = fs::temp_directory_path() / "entk-stager-test";
  fs::remove_all(root);
  fs::create_directories(root / "from");
  fs::create_directories(root / "to");
  {
    std::ofstream f(root / "from" / "a.txt");
    f << "alpha";
  }
  {
    std::ofstream f(root / "from" / "b.txt");
    f << "beta";
  }
  {
    std::ofstream f(root / "from" / "c.txt");
    f << "gamma";
  }
  std::vector<StagingDirective> directives;
  directives.push_back({"a.txt", "", StagingDirective::Action::kCopy, 0});
  directives.push_back(
      {"b.txt", "renamed/b2.txt", StagingDirective::Action::kLink, 0});
  directives.push_back({"c.txt", "", StagingDirective::Action::kMove, 0});
  ASSERT_TRUE(
      execute_staging(directives, root / "from", root / "to").is_ok());
  EXPECT_TRUE(fs::exists(root / "to" / "a.txt"));
  EXPECT_TRUE(fs::exists(root / "from" / "a.txt"));  // copy keeps source
  EXPECT_TRUE(fs::exists(root / "to" / "renamed" / "b2.txt"));
  EXPECT_TRUE(fs::exists(root / "to" / "c.txt"));
  EXPECT_FALSE(fs::exists(root / "from" / "c.txt"));  // move removes it

  // Missing source is an error.
  std::vector<StagingDirective> missing;
  missing.push_back({"ghost.txt", "", StagingDirective::Action::kCopy, 0});
  EXPECT_EQ(execute_staging(missing, root / "from", root / "to").code(),
            Errc::kIoError);
  fs::remove_all(root);
}

TEST(Stager, SimDelayModel) {
  const auto machine = sim::comet_profile();
  std::vector<StagingDirective> directives;
  directives.push_back({"x", "", StagingDirective::Action::kCopy, 500.0});
  directives.push_back({"y", "", StagingDirective::Action::kCopy, 0.0});
  const Duration delay = staging_delay(machine, directives);
  EXPECT_NEAR(delay,
              2 * machine.staging_latency +
                  500.0 / machine.staging_bandwidth_mb_per_s,
              1e-12);
  EXPECT_DOUBLE_EQ(staging_delay(machine, {}), 0.0);
}

/// The calling process's thread count, from the `Threads:` line of
/// /proc/self/status; -1 when the line is missing.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(LocalBackend, ConstructionStartsNoThread) {
  // The backend only accounts core slots for pilot containers; threads
  // appear with a pilot's LocalAgent, which runs the unit payloads.
  const int before = process_threads();
  ASSERT_GT(before, 0);
  LocalBackend backend(8);
  EXPECT_EQ(process_threads(), before);
}

TEST(LocalBackend, PilotContainersStartFifoAsCoresFree) {
  // Six one-core pilots on two cores: two come up inside submit_pilot,
  // the rest queue in submission order, and each deallocation starts
  // exactly the next queued pilot.
  LocalBackend backend(2);
  PilotManager manager(backend);
  std::vector<PilotPtr> pilots;
  for (int i = 0; i < 6; ++i) {
    PilotDescription description;
    description.resource = "localhost";
    description.cores = 1;
    auto pilot = manager.submit_pilot(description);
    ASSERT_TRUE(pilot.ok()) << pilot.status().to_string();
    pilots.push_back(pilot.take());
  }
  auto active = [&pilots] {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < pilots.size(); ++i) {
      if (pilots[i]->state() == PilotState::kActive) indices.push_back(i);
    }
    return indices;
  };
  EXPECT_EQ(active(), (std::vector<std::size_t>{0, 1}));
  for (std::size_t i = 2; i < pilots.size(); ++i) {
    EXPECT_EQ(pilots[i]->state(), PilotState::kPendingQueue) << i;
  }

  ASSERT_TRUE(manager.cancel(pilots[3]).is_ok());
  EXPECT_EQ(pilots[3]->state(), PilotState::kCanceled);

  const std::vector<std::size_t> order = {0, 1, 2, 4, 5};
  const std::vector<std::vector<std::size_t>> active_after = {
      {1, 2}, {2, 4}, {4, 5}, {5}, {}};
  for (std::size_t step = 0; step < order.size(); ++step) {
    ASSERT_TRUE(manager.deallocate(pilots[order[step]]).is_ok());
    EXPECT_EQ(pilots[order[step]]->state(), PilotState::kDone);
    EXPECT_EQ(active(), active_after[step]) << "after pilot " << order[step];
  }
  EXPECT_EQ(pilots[3]->state(), PilotState::kCanceled);
}

class LocalBackendTest : public ::testing::Test {
 protected:
  LocalBackendTest() : backend_(4) {}

  PilotPtr make_active_pilot(Count cores) {
    PilotDescription description;
    description.resource = "localhost";
    description.cores = cores;
    description.runtime = 3600.0;
    auto pilot = manager_.submit_pilot(description);
    EXPECT_TRUE(pilot.ok()) << pilot.status().to_string();
    EXPECT_TRUE(manager_.wait_active(pilot.value()).is_ok());
    return pilot.take();
  }

  LocalBackend backend_;
  PilotManager manager_{backend_};
};

TEST_F(LocalBackendTest, PayloadsReallyExecute) {
  auto pilot = make_active_pilot(4);
  UnitManager units(backend_);
  units.add_pilot(pilot);
  std::atomic<int> executed{0};
  std::vector<UnitDescription> descriptions;
  for (int i = 0; i < 10; ++i) {
    descriptions.push_back(payload_unit(
        [&executed](const UnitRuntimeContext& context) -> Status {
          executed.fetch_add(1);
          std::ofstream marker(context.sandbox / "ran.txt");
          marker << "yes";
          return Status::ok();
        }));
  }
  auto submitted = units.submit_units(std::move(descriptions));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(units.wait_units(submitted.value(), 30.0).is_ok());
  EXPECT_EQ(executed.load(), 10);
  for (const auto& unit : submitted.value()) {
    EXPECT_EQ(unit->state(), UnitState::kDone);
    EXPECT_GT(unit->execution_time(), 0.0);
  }
}

TEST_F(LocalBackendTest, StagingMovesDataBetweenUnits) {
  auto pilot = make_active_pilot(2);
  UnitManager units(backend_);
  units.add_pilot(pilot);

  // Producer: writes a file, stages it out to the shared space.
  auto producer = payload_unit(
      [](const UnitRuntimeContext& context) -> Status {
        std::ofstream out(context.sandbox / "data.txt");
        out << "42 bytes of very important science data here";
        return Status::ok();
      });
  producer.output_staging.push_back(
      {"data.txt", "", StagingDirective::Action::kCopy, 0.001});
  auto produced = units.submit_units({std::move(producer)});
  ASSERT_TRUE(produced.ok());
  ASSERT_TRUE(units.wait_units(produced.value(), 30.0).is_ok());
  ASSERT_EQ(produced.value()[0]->state(), UnitState::kDone);

  // Consumer: stages it in and reads it.
  std::string consumed_content;
  auto consumer = payload_unit(
      [&consumed_content](const UnitRuntimeContext& context) -> Status {
        std::ifstream in(context.sandbox / "data.txt");
        if (!in) return make_error(Errc::kIoError, "input not staged");
        std::getline(in, consumed_content);
        return Status::ok();
      });
  consumer.input_staging.push_back(
      {"data.txt", "", StagingDirective::Action::kCopy, 0.001});
  auto consumed = units.submit_units({std::move(consumer)});
  ASSERT_TRUE(consumed.ok());
  ASSERT_TRUE(units.wait_units(consumed.value(), 30.0).is_ok());
  EXPECT_EQ(consumed.value()[0]->state(), UnitState::kDone);
  EXPECT_EQ(consumed_content,
            "42 bytes of very important science data here");
}

TEST_F(LocalBackendTest, MissingInputStagingFailsTheUnit) {
  auto pilot = make_active_pilot(2);
  UnitManager units(backend_);
  units.add_pilot(pilot);
  auto description = payload_unit(
      [](const UnitRuntimeContext&) -> Status { return Status::ok(); });
  description.input_staging.push_back(
      {"not-there.bin", "", StagingDirective::Action::kCopy, 0.0});
  auto submitted = units.submit_units({std::move(description)});
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(units.wait_units(submitted.value(), 30.0).is_ok());
  EXPECT_EQ(submitted.value()[0]->state(), UnitState::kFailed);
  EXPECT_EQ(submitted.value()[0]->final_status().code(), Errc::kIoError);
}

TEST_F(LocalBackendTest, FailingPayloadRetriesThenSucceeds) {
  auto pilot = make_active_pilot(2);
  UnitManager units(backend_);
  units.add_pilot(pilot);
  std::atomic<int> attempts{0};
  auto description = payload_unit(
      [&attempts](const UnitRuntimeContext&) -> Status {
        if (attempts.fetch_add(1) == 0) {
          return make_error(Errc::kExecutionFailed, "flaky first run");
        }
        return Status::ok();
      });
  description.retry.max_retries = 2;
  auto submitted = units.submit_units({std::move(description)});
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(units.wait_units(submitted.value(), 30.0).is_ok());
  EXPECT_EQ(submitted.value()[0]->state(), UnitState::kDone);
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_EQ(submitted.value()[0]->retries(), 1);
}

TEST_F(LocalBackendTest, MpiUnitsSeeTheirCoreCount) {
  auto pilot = make_active_pilot(4);
  UnitManager units(backend_);
  units.add_pilot(pilot);
  std::atomic<Count> seen{0};
  auto description = payload_unit(
      [&seen](const UnitRuntimeContext& context) -> Status {
        seen = context.cores;
        return Status::ok();
      },
      /*cores=*/4);
  auto submitted = units.submit_units({std::move(description)});
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(units.wait_units(submitted.value(), 30.0).is_ok());
  EXPECT_EQ(seen.load(), 4);
}

// Full stack on the local backend: the paper's character-count
// validation application, really executed.
TEST(LocalEndToEnd, CharacterCountApplication) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  LocalBackend backend(4);
  core::ResourceOptions options;
  options.cores = 4;
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());

  core::EnsembleOfPipelines pattern(4, 2);
  pattern.set_stage(1, [](const core::StageContext& context) {
    core::TaskSpec spec;
    spec.kernel = "misc.mkfile";
    spec.args.set("size_kb", 1.0 + static_cast<double>(context.instance));
    spec.args.set("filename",
                  "file_" + std::to_string(context.instance) + ".txt");
    return spec;
  });
  pattern.set_stage(2, [](const core::StageContext& context) {
    core::TaskSpec spec;
    spec.kernel = "misc.ccount";
    spec.args.set("input",
                  "file_" + std::to_string(context.instance) + ".txt");
    return spec;
  });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  EXPECT_EQ(report.value().units.size(), 8u);
  EXPECT_GT(report.value().overheads.execution_time, 0.0);
  ASSERT_TRUE(handle.deallocate().is_ok());
}

// The paper's SAL workload, small scale, with real MD + real CoCo.
TEST(LocalEndToEnd, SimulationAnalysisLoopWithRealMd) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  LocalBackend backend(4);
  core::ResourceOptions options;
  options.cores = 4;
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());

  const int n_sims = 3;
  core::SimulationAnalysisLoop pattern(2, n_sims, 1);
  pattern.set_simulation([](const core::StageContext& context) {
    core::TaskSpec spec;
    spec.kernel = "md.simulate";
    spec.args.set("steps", 40);
    spec.args.set("n_particles", 27);
    spec.args.set("sample_every", 8);
    spec.args.set("seed", 1000 * context.iteration + context.instance);
    spec.args.set("out", "traj_" + std::to_string(context.instance) +
                             ".dat");
    return spec;
  });
  pattern.set_analysis([n_sims](const core::StageContext&) {
    core::TaskSpec spec;
    spec.kernel = "md.coco";
    spec.args.set("n_sims", n_sims);
    spec.args.set("n_new_points", 2);
    return spec;
  });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  EXPECT_EQ(pattern.simulation_units().size(), 6u);
  EXPECT_EQ(pattern.analysis_units().size(), 2u);
  ASSERT_TRUE(handle.deallocate().is_ok());
}

/// Polls `done` every millisecond for up to `seconds`; returns whether
/// it became true. Bounds every wait in these tests, so a lost wakeup
/// fails the test instead of hanging it.
bool wait_for(const std::function<bool()>& done, double seconds = 30.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Runs `descriptions` on one `cores`-core pilot of a LocalBackend of
/// the same size and returns the units once all have settled.
std::vector<ComputeUnitPtr> run_on_local_pilot(
    Count cores, std::vector<UnitDescription> descriptions) {
  LocalBackend backend(cores);
  PilotManager manager(backend);
  PilotDescription pilot_description;
  pilot_description.resource = "localhost";
  pilot_description.cores = cores;
  pilot_description.runtime = 3600.0;
  auto pilot = manager.submit_pilot(pilot_description);
  EXPECT_TRUE(pilot.ok()) << pilot.status().to_string();
  if (!pilot.ok()) return {};
  EXPECT_TRUE(manager.wait_active(pilot.value()).is_ok());
  UnitManager units(backend);
  units.add_pilot(pilot.value());
  auto submitted = units.submit_units(std::move(descriptions));
  EXPECT_TRUE(submitted.ok()) << submitted.status().to_string();
  if (!submitted.ok()) return {};
  EXPECT_TRUE(units.wait_units(submitted.value(), 60.0).is_ok());
  return submitted.take();
}

TEST(LocalAgent, RunsOnePayloadPerCoreAtOnce) {
  // Each payload counts itself in and holds its core until all have
  // entered, so the units can only finish if the agent runs as many
  // payloads at once as the pilot has cores. A shortfall times the
  // payloads out, which fails their units.
  for (const Count cores : {Count{4}, Count{16}}) {
    SCOPED_TRACE(cores);
    std::atomic<Count> entered{0};
    std::vector<UnitDescription> descriptions;
    for (Count i = 0; i < cores; ++i) {
      descriptions.push_back(payload_unit(
          [&entered, cores](const UnitRuntimeContext&) -> Status {
            entered.fetch_add(1);
            if (!wait_for([&] { return entered.load() == cores; })) {
              return make_error(Errc::kTimedOut,
                                std::to_string(entered.load()) + " of " +
                                    std::to_string(cores) +
                                    " payloads ran at once");
            }
            return Status::ok();
          }));
    }
    const auto units = run_on_local_pilot(cores, std::move(descriptions));
    ASSERT_EQ(units.size(), static_cast<std::size_t>(cores));
    for (const auto& unit : units) {
      EXPECT_EQ(unit->state(), UnitState::kDone)
          << unit->final_status().to_string();
    }
    EXPECT_EQ(entered.load(), cores);
  }
}

TEST(LocalAgent, MoreCoresThanWorkersRunsEveryPayloadOnce) {
  // 32 cores get 16 workers, so launched units queue for a worker.
  constexpr std::size_t kUnits = 256;
  std::vector<std::atomic<int>> runs(kUnits);
  std::vector<UnitDescription> descriptions;
  for (std::size_t i = 0; i < kUnits; ++i) {
    descriptions.push_back(payload_unit(
        [&runs, i](const UnitRuntimeContext&) -> Status {
          runs[i].fetch_add(1);
          return Status::ok();
        }));
  }
  const auto units = run_on_local_pilot(32, std::move(descriptions));
  ASSERT_EQ(units.size(), kUnits);
  for (std::size_t i = 0; i < kUnits; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "payload " << i;
    EXPECT_EQ(units[i]->state(), UnitState::kDone);
  }
}

TEST(LocalAgentShutdown, TeardownDrainsLaunchedUnitsAndLaunchesNoMore) {
  // 20 cores, 16 workers: 16 units block in their payloads, 4 wait in
  // the launched deque, and a 21st unit waits in the backlog. Teardown
  // must run all 20 launched units to DONE and launch nothing more.
  const fs::path root =
      fs::temp_directory_path() /
      ("entk-agent-drain-test-" + std::to_string(::getpid()));
  fs::remove_all(root);
  WallClock clock;
  auto scheduler = make_scheduler("fifo");
  ASSERT_TRUE(scheduler.ok());
  auto agent = std::make_unique<LocalAgent>(
      sim::comet_profile(), 20, scheduler.take(), clock, root);
  agent->start({});

  std::atomic<int> entered{0};
  std::atomic<bool> release{false};
  std::vector<ComputeUnitPtr> launched;
  for (int i = 0; i < 20; ++i) {
    launched.push_back(std::make_shared<ComputeUnit>(
        "drain.u" + std::to_string(i),
        payload_unit([&entered, &release](const UnitRuntimeContext&)
                         -> Status {
          entered.fetch_add(1);
          if (!wait_for([&] { return release.load(); })) {
            return make_error(Errc::kTimedOut, "never released");
          }
          return Status::ok();
        }),
        clock, 0));
  }
  auto backlog = std::make_shared<ComputeUnit>(
      "drain.backlog",
      payload_unit(
          [](const UnitRuntimeContext&) -> Status { return Status::ok(); }),
      clock, 0);
  std::vector<ComputeUnitPtr> all = launched;
  all.push_back(backlog);
  for (const auto& unit : all) {
    unit->stamp_created();
    ASSERT_TRUE(unit->advance_state(UnitState::kPendingExecution).is_ok());
  }
  ASSERT_TRUE(agent->submit(all).is_ok());
  ASSERT_TRUE(wait_for([&] { return entered.load() == 16; }));
  EXPECT_EQ(agent->running_units(), 20u);
  EXPECT_EQ(agent->waiting_units(), 1u);

  // The destructor stops the agent, then blocks joining the workers;
  // the payloads return only after it has had time to stop it.
  std::thread closer([&agent] { agent.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.store(true);
  closer.join();
  EXPECT_EQ(entered.load(), 20);
  for (const auto& unit : launched) {
    EXPECT_EQ(unit->state(), UnitState::kDone) << unit->uid();
  }
  EXPECT_EQ(backlog->state(), UnitState::kPendingExecution);
  fs::remove_all(root);
}

TEST(LocalAgentShutdown, TeardownWhileAUnitFinishesDoesNotAbort) {
  // Regression for the shutdown footgun: a unit settling while the
  // agent tears down re-enters schedule_locked from its worker thread
  // with a unit still waiting. A stopping agent launches nothing, so
  // the follower stays in the backlog. An earlier thread pool aborted
  // the whole process on exactly this race.
  const fs::path root =
      fs::temp_directory_path() / "entk-agent-teardown-test";
  fs::remove_all(root);
  WallClock clock;
  auto scheduler = make_scheduler("fifo");
  ASSERT_TRUE(scheduler.ok());
  auto agent = std::make_unique<LocalAgent>(
      sim::comet_profile(), 1, scheduler.take(), clock, root);
  agent->start({});

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  auto blocked = std::make_shared<ComputeUnit>(
      "teardown.u0",
      payload_unit([&entered, &release](const UnitRuntimeContext&)
                       -> Status {
        entered.store(true, std::memory_order_release);
        while (!release.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        return Status::ok();
      }),
      clock, 0);
  auto follower = std::make_shared<ComputeUnit>(
      "teardown.u1",
      payload_unit(
          [](const UnitRuntimeContext&) -> Status { return Status::ok(); }),
      clock, 0);
  for (const auto& unit : {blocked, follower}) {
    unit->stamp_created();
    ASSERT_TRUE(unit->advance_state(UnitState::kPendingExecution).is_ok());
  }
  // One core: `blocked` launches, `follower` queues behind it.
  ASSERT_TRUE(agent->submit({blocked, follower}).is_ok());
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // Tear down while the payload is mid-flight; the destructor blocks
  // joining the worker, so the settle -> reschedule happens with the
  // agent already stopping.
  std::thread closer([&agent] { agent.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true, std::memory_order_release);
  closer.join();
  EXPECT_EQ(blocked->state(), UnitState::kDone);
  // The stopping agent never launched the follower: still pending,
  // never started, not lost.
  EXPECT_EQ(follower->state(), UnitState::kPendingExecution);
  fs::remove_all(root);
}

/// A started agent with a FIFO scheduler, its session dir at `root`.
std::unique_ptr<LocalAgent> started_agent(Count cores, const Clock& clock,
                                          const fs::path& root) {
  auto scheduler = make_scheduler("fifo");
  EXPECT_TRUE(scheduler.ok());
  auto agent = std::make_unique<LocalAgent>(
      sim::comet_profile(), cores, scheduler.take(), clock, root);
  agent->start({});
  return agent;
}

/// A one-core unit already kPendingExecution, as LocalAgent::submit
/// expects.
ComputeUnitPtr pending_unit(const std::string& uid, UnitPayload payload,
                            const Clock& clock) {
  auto unit = std::make_shared<ComputeUnit>(
      uid, payload_unit(std::move(payload)), clock, 0);
  unit->stamp_created();
  EXPECT_TRUE(unit->advance_state(UnitState::kPendingExecution).is_ok());
  return unit;
}

/// Units launched so far: schedule_locked() counts each as one pick.
std::uint64_t launches() {
  return obs::Metrics::instance()
      .counter(obs::WellKnownCounter::kSchedulerPicks)
      .get();
}

/// After a teardown: exactly `launched` units ran, once each, to DONE,
/// and every other unit still waits in kPendingExecution, unrun.
void expect_only_launched_units_ran(const std::vector<ComputeUnitPtr>& units,
                                    const std::vector<std::atomic<int>>& runs,
                                    std::uint64_t launched) {
  std::uint64_t done = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (units[i]->state() == UnitState::kDone) {
      ++done;
      EXPECT_EQ(runs[i].load(), 1) << units[i]->uid();
    } else {
      EXPECT_EQ(units[i]->state(), UnitState::kPendingExecution)
          << units[i]->uid();
      EXPECT_EQ(runs[i].load(), 0) << units[i]->uid();
    }
  }
  EXPECT_EQ(done, launched) << "teardown lost a launched unit";
}

/// Submits `units` one at a time from three threads at once, and
/// returns once all three are done.
void submit_from_three_threads(LocalAgent& agent,
                               const std::vector<ComputeUnitPtr>& units) {
  std::atomic<bool> go{false};
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < 3; ++s) {
    submitters.emplace_back([&agent, &units, &go, s] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = s; i < units.size(); i += 3) {
        EXPECT_TRUE(agent.submit({units[i]}).is_ok()) << units[i]->uid();
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& submitter : submitters) submitter.join();
}

TEST(LocalAgentShutdown, TeardownUnderLoadRunsEveryLaunchedUnit) {
  // Three threads fill a 2-core agent's backlog, and teardown starts at
  // once, racing the workers that settle units and launch the next.
  const fs::path root =
      fs::temp_directory_path() /
      ("entk-agent-load-test-" + std::to_string(::getpid()));
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE(round);
    fs::remove_all(root);
    WallClock clock;
    auto agent = started_agent(2, clock, root);
    constexpr std::size_t kUnits = 150;
    std::vector<std::atomic<int>> runs(kUnits);
    std::vector<ComputeUnitPtr> units;
    for (std::size_t i = 0; i < kUnits; ++i) {
      units.push_back(pending_unit(
          "load.u" + std::to_string(i),
          [&runs, i](const UnitRuntimeContext&) -> Status {
            runs[i].fetch_add(1);
            return Status::ok();
          },
          clock));
    }
    const std::uint64_t launched_before = launches();
    submit_from_three_threads(*agent, units);
    agent.reset();
    expect_only_launched_units_ran(units, runs, launches() - launched_before);
  }
  fs::remove_all(root);
}

TEST(LocalAgentShutdown, SubmitFromAWorkerDuringTeardownLaunchesNothing) {
  // A payload still running when teardown starts submits a follow-on
  // from its worker, as a settle callback resubmitting work does. The
  // submit returns cleanly, and the stopping agent leaves the follow-on
  // waiting although a core is free for it.
  const fs::path root =
      fs::temp_directory_path() /
      ("entk-agent-resubmit-test-" + std::to_string(::getpid()));
  fs::remove_all(root);
  WallClock clock;
  auto agent = started_agent(2, clock, root);
  LocalAgent* const raw = agent.get();

  std::atomic<int> follow_on_runs{0};
  auto follow_on = pending_unit(
      "resubmit.follow_on",
      [&follow_on_runs](const UnitRuntimeContext&) -> Status {
        follow_on_runs.fetch_add(1);
        return Status::ok();
      },
      clock);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  // Written by the worker, read after the teardown joined it.
  Status submitted = make_error(Errc::kInternal, "never submitted");
  auto blocked = pending_unit(
      "resubmit.blocked",
      [&](const UnitRuntimeContext&) -> Status {
        entered.store(true);
        if (!wait_for([&] { return release.load(); })) {
          return make_error(Errc::kTimedOut, "never released");
        }
        submitted = raw->submit({follow_on});
        return Status::ok();
      },
      clock);
  ASSERT_TRUE(agent->submit({blocked}).is_ok());
  ASSERT_TRUE(wait_for([&] { return entered.load(); }));

  std::thread closer([&agent] { agent.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.store(true);
  closer.join();
  EXPECT_TRUE(submitted.is_ok()) << submitted.to_string();
  EXPECT_EQ(blocked->state(), UnitState::kDone);
  EXPECT_EQ(follow_on->state(), UnitState::kPendingExecution);
  EXPECT_EQ(follow_on_runs.load(), 0);
  fs::remove_all(root);
}

// The ThreadPool and ThreadPoolStressTest suites first pinned these
// contracts on the pools that ran payloads before the agent had its
// own workers. They keep their names and now run against a LocalAgent,
// where a unit reaches the workers either from outside the agent or
// from one of its own workers, as a settle callback resubmitting a
// follow-on does.

TEST(ThreadPool, RunsAllTasks) {
  // Both ways in, in one run: 100 units submitted from outside, each
  // of whose payloads submits one follow-on from its worker.
  const fs::path root =
      fs::temp_directory_path() /
      ("entk-agent-runs-all-test-" + std::to_string(::getpid()));
  fs::remove_all(root);
  WallClock clock;
  auto agent = started_agent(4, clock, root);
  LocalAgent* const raw = agent.get();
  constexpr std::size_t kSeeds = 100;
  std::atomic<int> counter{0};
  std::atomic<int> refused{0};
  std::vector<ComputeUnitPtr> follow_ons;
  std::vector<ComputeUnitPtr> seeds;
  for (std::size_t i = 0; i < kSeeds; ++i) {
    follow_ons.push_back(pending_unit(
        "runs_all.f" + std::to_string(i),
        [&counter](const UnitRuntimeContext&) -> Status {
          counter.fetch_add(1);
          return Status::ok();
        },
        clock));
    const ComputeUnitPtr follow_on = follow_ons.back();
    seeds.push_back(pending_unit(
        "runs_all.s" + std::to_string(i),
        [&, follow_on](const UnitRuntimeContext&) -> Status {
          counter.fetch_add(1);
          if (!raw->submit({follow_on}).is_ok()) refused.fetch_add(1);
          return Status::ok();
        },
        clock));
  }
  ASSERT_TRUE(agent->submit(seeds).is_ok());
  std::vector<ComputeUnitPtr> all = seeds;
  all.insert(all.end(), follow_ons.begin(), follow_ons.end());
  EXPECT_TRUE(wait_for([&] {
    return std::all_of(all.begin(), all.end(), [](const auto& unit) {
      return is_final(unit->state());
    });
  }));
  agent.reset();
  EXPECT_EQ(refused.load(), 0);
  EXPECT_EQ(counter.load(), 200);
  for (const auto& unit : all) {
    EXPECT_EQ(unit->state(), UnitState::kDone) << unit->uid();
  }
  fs::remove_all(root);
}

TEST(ThreadPoolStressTest, SubmittersRacingShutdownNeverLoseAcceptedTasks) {
  // Relay chains: three threads submit each chain's head to a 2-core
  // agent, and every payload submits the next unit of its chain from
  // its worker, so the workers are still submitting when teardown
  // starts. Every launched unit must run to DONE, and every other unit
  // must stay pending, unrun.
  constexpr std::size_t kChains = 30;
  constexpr std::size_t kLength = 5;
  const fs::path root =
      fs::temp_directory_path() /
      ("entk-agent-relay-test-" + std::to_string(::getpid()));
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE(round);
    fs::remove_all(root);
    WallClock clock;
    auto agent = started_agent(2, clock, root);
    LocalAgent* const raw = agent.get();
    std::vector<std::atomic<int>> runs(kChains * kLength);
    std::vector<ComputeUnitPtr> units(kChains * kLength);
    std::vector<ComputeUnitPtr> heads;
    for (std::size_t c = 0; c < kChains; ++c) {
      // Back to front, so each payload can hold its successor.
      for (std::size_t k = kLength; k-- > 0;) {
        const std::size_t i = c * kLength + k;
        ComputeUnitPtr next = k + 1 < kLength ? units[i + 1] : nullptr;
        units[i] = pending_unit(
            "relay.u" + std::to_string(i),
            [&runs, i, raw, next](const UnitRuntimeContext&) -> Status {
              runs[i].fetch_add(1);
              return next ? raw->submit({next}) : Status::ok();
            },
            clock);
      }
      heads.push_back(units[c * kLength]);
    }
    const std::uint64_t launched_before = launches();
    submit_from_three_threads(*agent, heads);
    agent.reset();
    expect_only_launched_units_ran(units, runs, launches() - launched_before);
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace entk::pilot

// Kill/resume equivalence: a run killed at a checkpoint and resumed
// from the snapshot must replay the remaining schedule bit-for-bit.
//
// The strongest correctness statement the ckpt module can make is not
// "the resumed run finishes" but "the resumed run is indistinguishable
// from one that never died": every unit uid and every submit/start/
// stop/finish timestamp — before and after the cut — matches the
// uninterrupted same-seed run exactly. These tests pin that claim at
// >= 10k units for both the bag-of-tasks and the simulation-analysis-
// loop patterns (the latter exercising stage-group barriers across the
// cut), using the FNV-1a trace digest the scale-determinism suite pins
// its golden constant with.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/checkpointed_run.hpp"
#include "ckpt/coordinator.hpp"
#include "ckpt/snapshot.hpp"
#include "common/uid.hpp"
#include "core/entk.hpp"
#include "scale_test_util.hpp"
#include "sim/machine.hpp"

namespace entk::core {
namespace {

constexpr Count kBagUnits = 10000;
constexpr Count kSalIterations = 2;
constexpr Count kSalSimulations = 5000;
constexpr Count kSalAnalyses = 1;  // 2 * (5000 + 1) = 10002 units

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

SimulationAnalysisLoop sal_workload() {
  SimulationAnalysisLoop pattern(kSalIterations, kSalSimulations,
                                 kSalAnalyses);
  pattern.set_simulation(scale_test::scale_task);
  pattern.set_analysis([](const StageContext& context) {
    TaskSpec spec = scale_test::scale_task(context);
    spec.cores = 8;  // the barrier task is wide, exercising backfill
    return spec;
  });
  return pattern;
}

/// One fresh backend + handle on the shared scale machine.
struct Runtime {
  Runtime()
      : registry(kernels::KernelRegistry::with_builtin_kernels()),
        backend(scale_test::scale_machine()),
        handle(backend, registry,
               [] {
                 ResourceOptions options;
                 options.cores = 2048;
                 options.runtime = 4.0e6;
                 options.scheduler_policy = "backfill";
                 return options;
               }()) {}

  kernels::KernelRegistry registry;
  pilot::SimBackend backend;
  ResourceHandle handle;
};

template <typename Pattern>
std::vector<pilot::ComputeUnitPtr> run_uninterrupted(Pattern pattern) {
  reset_uid_counters_for_testing();
  Runtime rt;
  EXPECT_TRUE(rt.handle.allocate().is_ok());
  auto report = rt.handle.run(pattern);
  EXPECT_TRUE(report.ok()) << report.status().to_string();
  if (!report.ok()) return {};
  EXPECT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  return report.take().units;
}

/// Runs with checkpointing and the crash hook armed; returns the
/// snapshot the simulated crash left behind.
template <typename Pattern>
ckpt::Snapshot run_until_crash(Pattern pattern, const std::string& dir,
                               std::uint64_t every_settled,
                               std::uint64_t crash_after) {
  reset_uid_counters_for_testing();
  Runtime rt;
  EXPECT_TRUE(rt.handle.allocate().is_ok());
  ckpt::Coordinator::Options options;
  options.directory = dir;
  options.policy.every_settled = every_settled;
  options.crash_after_snapshots = crash_after;
  ckpt::Coordinator coordinator(rt.backend, rt.handle,
                                std::move(options));
  coordinator.set_identity(pattern.name(), "");
  pattern.set_graph_run_observer(&coordinator);
  auto report = rt.handle.run(pattern);
  EXPECT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(
      ckpt::Coordinator::is_checkpoint_stop(report.value().outcome))
      << report.value().outcome.to_string();
  EXPECT_EQ(coordinator.snapshots_written(), crash_after);
  auto snapshot =
      ckpt::read_snapshot_file(coordinator.last_snapshot_path());
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().to_string();
  return snapshot.ok() ? snapshot.take() : ckpt::Snapshot{};
}

/// Restores the snapshot into a fresh runtime and runs to completion.
template <typename Pattern>
std::vector<pilot::ComputeUnitPtr> resume_run(
    Pattern pattern, const ckpt::Snapshot& snapshot,
    const std::string& dir) {
  // The restore contract: reset the uid counters BEFORE allocate() so
  // the pilot creation replay reproduces the snapshot's pilot uids.
  reset_uid_counters_for_testing();
  Runtime rt;
  EXPECT_TRUE(rt.handle.allocate().is_ok());
  ckpt::Coordinator::Options options;
  options.directory = dir;
  ckpt::Coordinator coordinator(rt.backend, rt.handle,
                                std::move(options));
  coordinator.set_identity(pattern.name(), "");
  const Status restored = coordinator.restore_runtime(snapshot);
  EXPECT_TRUE(restored.is_ok()) << restored.to_string();
  if (!restored.is_ok()) return {};
  pattern.set_graph_run_observer(&coordinator);
  auto report = rt.handle.run(pattern);
  EXPECT_TRUE(report.ok()) << report.status().to_string();
  if (!report.ok()) return {};
  EXPECT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  return report.take().units;
}

template <typename MakePattern>
void expect_kill_resume_equivalence(MakePattern make,
                                    std::size_t expected_units,
                                    const std::string& dir_name) {
  const std::vector<pilot::ComputeUnitPtr> baseline =
      run_uninterrupted(make());
  ASSERT_EQ(baseline.size(), expected_units);

  const std::string dir = fresh_dir(dir_name);
  const ckpt::Snapshot snapshot =
      run_until_crash(make(), dir, /*every_settled=*/2000,
                      /*crash_after=*/2);
  ASSERT_FALSE(snapshot.units.empty());
  EXPECT_GT(snapshot.engine_now, 0.0);

  const std::vector<pilot::ComputeUnitPtr> resumed =
      resume_run(make(), snapshot, dir);
  ASSERT_EQ(resumed.size(), expected_units);

  // Full-trace equality: the pre-cut timeline comes out of the
  // snapshot, the post-cut timeline out of the resumed engine; both
  // must match the run that never died.
  EXPECT_EQ(scale_test::trace_digest(resumed),
            scale_test::trace_digest(baseline));
  // And the post-cut remaining schedule alone, so a regression that
  // only corrupts restored history cannot mask one that reorders the
  // live remainder (and vice versa).
  EXPECT_EQ(
      scale_test::remaining_schedule_digest(resumed, snapshot.engine_now),
      scale_test::remaining_schedule_digest(baseline,
                                            snapshot.engine_now));
  EXPECT_NE(
      scale_test::remaining_schedule_digest(resumed, snapshot.engine_now),
      scale_test::trace_digest(resumed))
      << "the crash point must leave work to resume";
}

TEST(CheckpointRestart, BagKillResumeReplaysRemainingScheduleBitIdentical) {
  expect_kill_resume_equivalence(
      [] { return scale_test::scale_workload(kBagUnits); },
      static_cast<std::size_t>(kBagUnits), "ckpt_bag");
}

TEST(CheckpointRestart, SalKillResumeReplaysRemainingScheduleBitIdentical) {
  expect_kill_resume_equivalence(
      [] { return sal_workload(); },
      static_cast<std::size_t>(kSalIterations *
                               (kSalSimulations + kSalAnalyses)),
      "ckpt_sal");
}

TEST(CheckpointRestart, SnapshotSurvivesEncodeDecodeRoundTrip) {
  const std::string dir = fresh_dir("ckpt_roundtrip");
  const ckpt::Snapshot snapshot = run_until_crash(
      scale_test::scale_workload(200), dir, /*every_settled=*/50,
      /*crash_after=*/1);
  const std::string bytes = ckpt::encode_snapshot(snapshot);
  auto decoded = ckpt::decode_snapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(ckpt::encode_snapshot(decoded.value()), bytes)
      << "decode must be the exact inverse of encode";
  EXPECT_EQ(decoded.value().units.size(), snapshot.units.size());
  EXPECT_EQ(decoded.value().engine_now, snapshot.engine_now);
}

TEST(CheckpointRestart, StopRequestWritesFinalSnapshotAndStops) {
  const std::string dir = fresh_dir("ckpt_stop");
  reset_uid_counters_for_testing();
  Runtime rt;
  ASSERT_TRUE(rt.handle.allocate().is_ok());
  ckpt::Coordinator::Options options;
  options.directory = dir;
  bool stop = false;
  options.stop_requested = [&stop] { return stop; };
  ckpt::Coordinator coordinator(rt.backend, rt.handle,
                                std::move(options));
  BagOfTasks pattern = scale_test::scale_workload(500);
  coordinator.set_identity(pattern.name(), "");
  pattern.set_graph_run_observer(&coordinator);
  // Fire the "signal" the moment a unit settles, mid-run.
  const auto token = rt.handle.unit_manager()->add_settled_observer(
      [&stop](const pilot::ComputeUnitPtr&, pilot::UnitState) {
        stop = true;
      });
  auto report = rt.handle.run(pattern);
  rt.handle.unit_manager()->remove_settled_observer(token);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(
      ckpt::Coordinator::is_checkpoint_stop(report.value().outcome));
  EXPECT_EQ(coordinator.snapshots_written(), 1u);
  EXPECT_TRUE(
      std::filesystem::exists(coordinator.last_snapshot_path()));
}

TEST(CheckpointRestart, WorkloadRunCrashesAndResumesThroughFrontDoor) {
  WorkloadSpec spec;
  spec.backend = "sim";
  spec.machine = "xsede.comet";
  spec.cores = 24;
  spec.runtime = 36000.0;
  spec.scheduler = "backfill";
  spec.pattern = "bag";
  spec.simulations = 64;
  Config task;
  task.set("kernel", "misc.sleep");
  task.set("duration", 30.0);
  spec.sections["task"] = task;
  ASSERT_TRUE(spec.validate().is_ok());
  auto registry = kernels::KernelRegistry::with_builtin_kernels();

  const std::string dir = fresh_dir("ckpt_front_door");
  ckpt::CheckpointedRunOptions options;
  options.directory = dir;
  options.policy.every_settled = 16;
  options.crash_after_snapshots = 1;
  reset_uid_counters_for_testing();
  auto crashed =
      ckpt::run_workload_with_checkpoints(spec, registry, options);
  ASSERT_TRUE(crashed.ok()) << crashed.status().to_string();
  ASSERT_TRUE(crashed.value().checkpoint_stop);
  ASSERT_EQ(crashed.value().snapshots_written, 1u);

  ckpt::CheckpointedRunOptions resume_options;
  resume_options.directory = dir;
  resume_options.resume_path = crashed.value().last_snapshot_path;
  auto resumed = ckpt::run_workload_with_checkpoints(spec, registry,
                                                     resume_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
  EXPECT_FALSE(resumed.value().checkpoint_stop);
  EXPECT_TRUE(resumed.value().report.outcome.is_ok())
      << resumed.value().report.outcome.to_string();
  EXPECT_EQ(resumed.value().report.units.size(), 64u);

  // A snapshot from workload A must not resume workload B.
  WorkloadSpec other = spec;
  other.simulations = 65;
  reset_uid_counters_for_testing();
  auto mismatch = ckpt::run_workload_with_checkpoints(other, registry,
                                                      resume_options);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.status().message().find("different workload"),
            std::string::npos)
      << mismatch.status().to_string();
}

TEST(CheckpointRestart, V2SnapshotResumesThroughFrontDoor) {
  // tests/data/sal-v2.entkckpt is examples/sal.entk as `entk-run
  // --checkpoint-dir D --checkpoint-every 2` left it in format v2: the
  // 2nd of its 4 snapshots. Resumed by a build that writes v3, it must
  // finish every unit as a run that never stopped does.
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  auto loaded = load_workload(std::string(ENTK_EXAMPLES_DIR) + "/sal.entk");
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  auto spec = resolve_workload(loaded.value(), registry);
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();

  reset_uid_counters_for_testing();
  auto baseline = run_workload(spec.value(), registry);
  ASSERT_TRUE(baseline.ok()) << baseline.status().to_string();

  ckpt::CheckpointedRunOptions options;
  options.directory = fresh_dir("ckpt_v2_resume");
  options.resume_path =
      std::string(ENTK_SOURCE_DIR) + "/tests/data/sal-v2.entkckpt";
  auto cut = ckpt::read_snapshot_file(options.resume_path);
  ASSERT_TRUE(cut.ok()) << cut.status().to_string();
  const auto settled =
      std::count_if(cut.value().units.begin(), cut.value().units.end(),
                    [](const ckpt::UnitRecord& unit) { return unit.settled; });
  EXPECT_GT(settled, 0) << "the cut must follow some settled units";
  EXPECT_LT(static_cast<std::size_t>(settled), baseline.value().units.size())
      << "the cut must leave work to resume";

  reset_uid_counters_for_testing();
  auto resumed =
      ckpt::run_workload_with_checkpoints(spec.value(), registry, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
  EXPECT_FALSE(resumed.value().checkpoint_stop);
  EXPECT_TRUE(resumed.value().report.outcome.is_ok())
      << resumed.value().report.outcome.to_string();

  const auto& want = baseline.value().units;
  const auto& got = resumed.value().report.units;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i]->uid(), want[i]->uid());
    EXPECT_EQ(got[i]->state(), want[i]->state()) << want[i]->uid();
  }
  EXPECT_EQ(scale_test::trace_digest(got), scale_test::trace_digest(want));
}

TEST(CheckpointRestart, RefusedResumeLeavesTheCoordinatorIdle) {
  // A resume whose expander replay fails never starts, so it gets no
  // end hook; the coordinator must not keep watching its executor while
  // the restored units go on settling on the backend.
  const std::string dir = fresh_dir("ckpt_refused_resume");
  ckpt::Snapshot snapshot =
      run_until_crash(scale_test::scale_workload(500), dir,
                      /*every_settled=*/50, /*crash_after=*/1);
  snapshot.graph.expander_log = {{7, true}};  // no such expander
  reset_uid_counters_for_testing();
  Runtime rt;
  ASSERT_TRUE(rt.handle.allocate().is_ok());
  ckpt::Coordinator::Options options;
  options.directory = dir;
  options.policy.every_settled = 50;
  ckpt::Coordinator coordinator(rt.backend, rt.handle,
                                std::move(options));
  BagOfTasks pattern = scale_test::scale_workload(500);
  coordinator.set_identity(pattern.name(), "");
  ASSERT_TRUE(coordinator.restore_runtime(snapshot).is_ok());
  pattern.set_graph_run_observer(&coordinator);
  auto report = rt.handle.run(pattern);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().outcome.code(), Errc::kInternal)
      << report.value().outcome.to_string();
  (void)rt.backend.drive_until([] { return false; });
  EXPECT_EQ(coordinator.snapshots_written(), 0u);
}

TEST(CheckpointRestart,
     ResumingAnUnnamedWorkloadLeavesNamedSessionUidsAlone) {
  // A named session keeps drawing uids in the process where an unnamed
  // workload crashes and resumes: the resume rewinds only the unnamed
  // session's own "unit" and "pilot" families, never alpha's.
  reset_uid_counters_for_testing();
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend alpha_backend(sim::localhost_profile());
  ::entk::core::Runtime alpha_runtime(alpha_backend, registry);
  SessionOptions alpha_options;
  alpha_options.name = "alpha";
  auto alpha = alpha_runtime.create_session(alpha_options);
  ASSERT_TRUE(alpha.ok()) << alpha.status().to_string();
  ASSERT_TRUE(alpha.value()->allocate().is_ok());
  // Submits n units to alpha; returns the last uid drawn.
  const auto submit = [&alpha](std::size_t n) {
    pilot::UnitDescription unit;
    unit.name = "alpha.task";
    unit.executable = "/bin/true";
    unit.simulated_duration = 1.0;
    auto units = alpha.value()->unit_manager()->submit_units(
        std::vector<pilot::UnitDescription>(n, unit));
    EXPECT_TRUE(units.ok()) << units.status().to_string();
    return units.ok() ? units.value().back()->uid() : std::string();
  };
  EXPECT_EQ(submit(3), "alpha.unit.000002");

  auto spec = load_workload(std::string(ENTK_EXAMPLES_DIR) + "/sal.entk");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  const std::string dir = fresh_dir("ckpt_unnamed_beside_named");
  ckpt::CheckpointedRunOptions options;
  options.directory = dir;
  options.policy.every_settled = 2;
  options.crash_after_snapshots = 1;
  auto crashed =
      ckpt::run_workload_with_checkpoints(spec.value(), registry, options);
  ASSERT_TRUE(crashed.ok()) << crashed.status().to_string();
  ASSERT_TRUE(crashed.value().checkpoint_stop);

  EXPECT_EQ(submit(2), "alpha.unit.000004");

  ckpt::CheckpointedRunOptions resume_options;
  resume_options.directory = dir;
  resume_options.resume_path = crashed.value().last_snapshot_path;
  auto resumed = ckpt::run_workload_with_checkpoints(
      spec.value(), registry, resume_options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
  EXPECT_TRUE(resumed.value().report.outcome.is_ok())
      << resumed.value().report.outcome.to_string();
  EXPECT_EQ(resumed.value().report.units.size(), 10u);

  EXPECT_EQ(submit(1), "alpha.unit.000005")
      << "the resume rewound another session's uid family";
}

}  // namespace
}  // namespace entk::core

// loop_ckpt: one named session runs a SimulationAnalysisLoop on fewer
// cores than a stage is wide, under a checkpoint coordinator that
// snapshots every N settled units (the `entk-run --checkpoint-dir`
// path); resume_s restores a fixed mid-run snapshot and finishes (the
// `--resume` path). One thread, closed loop.
//
// The checkpoint layer does most of the work here: capture, encode,
// checksum and the crash-consistent write on the way out, read, decode
// and restore on the way back, so a change that trades one for the
// other shows. The backlog also drives the WaitingIndex / backfill
// scheduler that `pipelines` never touches.
//
// Snapshots go under the run's work directory inside the checkout (the
// benchmark writes nowhere else), so the capture bracket includes the
// fsync of whatever filesystem holds the checkout; the traced run
// reports that wait as ckpt.capture_io_wait_ms.
#include <algorithm>

#include "common/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr long kIterations = 3;
constexpr long kSimulations = 1500;
constexpr long kAnalyses = 150;
constexpr long kCores = 512;
constexpr std::uint64_t kUnits = kIterations * (kSimulations + kAnalyses);
constexpr std::uint64_t kCheckpointEvery = 1250;
constexpr std::uint64_t kDefaultSeedDigest = 0xc90b11e11ddde82fULL;

}  // namespace

Outcome run_loop_ckpt(const RunOptions& options) {
  // Seeded virtual durations: simulations 20..60 s, analyses 5..15 s.
  auto sims = std::make_shared<std::vector<double>>();
  auto analyses = std::make_shared<std::vector<double>>();
  entk::Xoshiro256 rng(options.seed * 7919ULL + 17);
  for (long i = 0; i < kIterations * kSimulations; ++i) {
    sims->push_back(40.0 * (0.5 + rng.uniform()));
  }
  for (long i = 0; i < kIterations * kAnalyses; ++i) {
    analyses->push_back(10.0 * (0.5 + rng.uniform()));
  }

  SessionPlan session;
  session.name = "loop";
  session.resources.cores = kCores;
  session.resources.runtime = 4.0e6;
  session.resources.scheduler_policy = "backfill";
  session.units = kUnits;
  // Each iteration's barrier stage cannot finish before its longest
  // member; the iterations run back to back.
  const auto longest = [](const std::vector<double>& durations, long it,
                          long width) {
    return *std::max_element(durations.begin() + it * width,
                             durations.begin() + (it + 1) * width);
  };
  for (long it = 0; it < kIterations; ++it) {
    session.min_ttc += longest(*sims, it, kSimulations);
    session.min_ttc += longest(*analyses, it, kAnalyses);
  }
  session.make_pattern = [sims, analyses](SessionMarks& marks) {
    auto pattern = std::make_unique<entk::core::SimulationAnalysisLoop>(
        kIterations, kSimulations, kAnalyses);
    pattern->set_simulation(
        [sims, &marks](const entk::core::StageContext& c) {
          marks.note_spec();
          return sleep_task(
              (*sims)[(c.iteration - 1) * kSimulations + c.instance]);
        });
    pattern->set_analysis(
        [analyses, &marks](const entk::core::StageContext& c) {
          marks.note_spec();
          return sleep_task(
              (*analyses)[(c.iteration - 1) * kAnalyses + c.instance]);
        });
    return std::unique_ptr<entk::core::ExecutionPattern>(
        std::move(pattern));
  };

  BatchPlan plan;
  plan.name = "loop_ckpt";
  plan.seed = options.seed;
  plan.work_dir = options.work_dir;
  plan.machine = bench_machine("perfbench.loop", kCores);
  plan.sessions.push_back(std::move(session));
  plan.checkpoint_every = kCheckpointEvery;
  plan.resume_every = kCheckpointEvery;
  plan.resume_at = 2;  // the snapshot at 2500 of 4950 settled units
  plan.default_seed_digest = kDefaultSeedDigest;

  Outcome outcome;
  BatchWorkload workload(std::move(plan), outcome);
  if (outcome.correct) measure_batch(workload, options, outcome);
  return outcome;
}

}  // namespace perfbench

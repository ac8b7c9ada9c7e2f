// pipelines: four named sessions, each an EnsembleOfPipelines of four
// stages on its own pilot with one core per pipeline (no backlog), all
// driven together over one SimBackend by Runtime::run_concurrent (the
// `entk-run --concurrent` path). One thread, closed loop.
//
// Every settled unit releases its successor through GraphExecutor ->
// UnitManager -> agent scheduler -> engine, so this workload measures
// the per-unit cost of the core, pilot and sim layers at an ensemble
// size where that cost grows. It has no checkpoint coordinator, no
// serve layer and no backlog, so changes to those should not move its
// units_per_s. Its resume_s restores the first pipeline session alone
// from a fixed mid-run snapshot.
#include <algorithm>

#include "common/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSessions = 4;
constexpr long kPipelines = 250;
constexpr long kStages = 4;
constexpr std::uint64_t kDefaultSeedDigest = 0xdfd8b38070b9278fULL;

}  // namespace

Outcome run_pipelines(const RunOptions& options) {
  BatchPlan plan;
  plan.name = "pipelines";
  plan.seed = options.seed;
  plan.work_dir = options.work_dir;
  plan.machine = bench_machine("perfbench.pipelines", kSessions * kPipelines);
  plan.default_seed_digest = kDefaultSeedDigest;
  plan.resume_every = kPipelines * kStages / 2;
  plan.resume_at = 1;
  for (int s = 0; s < kSessions; ++s) {
    // Seeded virtual durations, 30..90 s, per (pipeline, stage).
    auto durations = std::make_shared<std::vector<double>>();
    entk::Xoshiro256 rng(options.seed * 1000003ULL +
                         static_cast<std::uint64_t>(s));
    for (long i = 0; i < kPipelines * kStages; ++i) {
      durations->push_back(60.0 * (0.5 + rng.uniform()));
    }
    SessionPlan session;
    session.name = "pipe" + std::to_string(s + 1);
    session.resources.cores = kPipelines;  // a core per pipeline: no backlog
    session.resources.runtime = 4.0e6;
    session.resources.scheduler_policy = "backfill";
    session.units = static_cast<std::uint64_t>(kPipelines * kStages);
    for (long p = 0; p < kPipelines; ++p) {
      double chain = 0.0;
      for (long k = 0; k < kStages; ++k) {
        chain += (*durations)[p * kStages + k];
      }
      session.min_ttc = std::max(session.min_ttc, chain);
    }
    session.make_pattern = [durations](SessionMarks& marks) {
      auto pattern = std::make_unique<entk::core::EnsembleOfPipelines>(
          kPipelines, kStages);
      for (long k = 1; k <= kStages; ++k) {
        pattern->set_stage(
            k, [durations, &marks](const entk::core::StageContext& c) {
              marks.note_spec();
              return sleep_task(
                  (*durations)[c.instance * kStages + c.stage - 1]);
            });
      }
      return std::unique_ptr<entk::core::ExecutionPattern>(
          std::move(pattern));
    };
    plan.sessions.push_back(std::move(session));
  }

  Outcome outcome;
  BatchWorkload workload(std::move(plan), outcome);
  if (outcome.correct) measure_batch(workload, options, outcome);
  return outcome;
}

}  // namespace perfbench

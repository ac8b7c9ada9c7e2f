// The three benchmark workloads and the measurement loop the two batch
// workloads share.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "batch.hpp"
#include "core/session.hpp"
#include "harness.hpp"
#include "kernels/registry.hpp"
#include "sim/machine.hpp"

namespace perfbench {

/// Seed whose output digests are recorded in the workloads' sources.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct RunOptions {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< Existing scratch directory in the checkout.
  std::string trace_path;  ///< Chrome-trace output of a traced run.
};

Outcome run_pipelines(const RunOptions& options);
Outcome run_loop_ckpt(const RunOptions& options);
Outcome run_serve_mix(const RunOptions& options);

/// A synthetic machine with `cores` cores, no batch-queue wait and light
/// launch overheads, so the virtual schedule is set by the toolkit's
/// scheduling decisions.
entk::sim::MachineProfile bench_machine(const std::string& name, long cores);

/// A single-core task that sleeps `seconds` of virtual time.
entk::core::TaskSpec sleep_task(double seconds);

// --- batch workloads ---------------------------------------------------

/// What one repetition of a batch workload measured.
struct RepResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t units = 0;
  std::uint64_t units_failed = 0;
  /// Per session, in start order: run entry -> first task spec.
  std::vector<double> first_dispatch_s;

  // Traced repetitions only.
  double allocate_s = 0.0;
  std::uint64_t allocate_calls = 0;
  PhaseSplit phases;
  double step_s = 0.0;
  std::uint64_t step_allocs = 0;
  double hook_bracket_s = 0.0;
  std::vector<Capture> captures;
  std::uint64_t events = 0;
  std::uint64_t scheduler_cycles = 0;
  std::uint64_t scheduler_picks = 0;
  std::uint64_t frontier_batches = 0;
  std::uint64_t recorder_events = 0;
  std::vector<double> snapshot_bytes;
  std::vector<double> encode_s;
  std::vector<double> decode_s;
};

/// What one resume from the fixed snapshot measured.
struct ResumeResult {
  double total_s = 0.0;
  double restore_s = 0.0;  ///< read + decode + allocate + restore_runtime
  std::uint64_t units = 0;
  std::uint64_t units_failed = 0;
};

/// One named session of a batch workload.
struct SessionPlan {
  std::string name;
  entk::core::ResourceOptions resources;
  std::uint64_t units = 0;  ///< Units the generated pattern must run.
  double min_ttc = 0.0;     ///< Lower bound on the virtual TTC.
  /// Builds the session's pattern; its stage callbacks call
  /// marks.note_spec().
  std::function<std::unique_ptr<entk::core::ExecutionPattern>(SessionMarks&)>
      make_pattern;
};

/// A batch workload: sessions run together over one SimBackend
/// (Runtime::run_concurrent), optionally with a checkpoint coordinator
/// on the (single) session.
struct BatchPlan {
  std::string name;
  std::uint64_t seed = kDefaultSeed;
  std::string work_dir;
  entk::sim::MachineProfile machine;
  std::vector<SessionPlan> sessions;
  /// Snapshot every N settled units during repetitions (0 = no
  /// coordinator; needs a single session).
  std::uint64_t checkpoint_every = 0;
  /// The resume point: the `resume_at`-th snapshot of a solo run of
  /// sessions[0] snapshotting every `resume_every` settled units.
  std::uint64_t resume_every = 0;
  std::uint64_t resume_at = 1;
  /// Output digest of the default seed (all sessions' unit states and
  /// virtual timelines plus their TTCs).
  std::uint64_t default_seed_digest = 0;
};

class BatchWorkload {
 public:
  /// Runs the two untimed solo passes the resume point needs.
  BatchWorkload(BatchPlan plan, Outcome& outcome);

  std::uint64_t workloads_per_rep() const { return plan_.sessions.size(); }
  /// One fresh repetition. With `spans` the run is traced: phase spans
  /// go under `parent` and the traced fields are filled. With
  /// `recorder` the toolkit's own TraceRecorder is on for the run.
  RepResult rep(Outcome& outcome, SpanRecorder* spans, int parent,
                bool recorder);
  /// Restores the fixed mid-run snapshot into a fresh runtime and runs
  /// the rest, checking the remaining schedule.
  ResumeResult resume(Outcome& outcome, SpanRecorder* spans, int parent);

 private:
  void check_digest(Outcome& outcome, std::uint64_t digest);

  BatchPlan plan_;
  entk::kernels::KernelRegistry registry_;
  std::string resume_path_;
  double cut_ = 0.0;
  std::uint64_t solo_digest_ = 0;
  std::uint64_t solo_remaining_digest_ = 0;
  bool have_digest_ = false;
  std::uint64_t digest_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t reps_ = 0;
};

/// Warms up, then alternates repetitions and resumes until the run's
/// time is spent, and turns them into the end-to-end metrics (untraced)
/// or the per-layer metrics (traced).
void measure_batch(BatchWorkload& workload, const RunOptions& options,
                   Outcome& outcome);

}  // namespace perfbench

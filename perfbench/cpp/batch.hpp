// Phase boundaries of a batch run, observed from outside the toolkit.
//
// A run goes compile -> start -> engine steps -> finish. The benchmark
// sees the boundaries through public extension points only:
//   - MarkedPattern forwards to the real pattern and stamps the moment
//     validate() is called (the start of that session's compile);
//   - MarkObserver is the pattern's GraphRunObserver and stamps
//     prepare_run (compile done, run about to start), forwarding to an
//     inner observer such as the checkpoint coordinator;
//   - StepProbe registers SimBackend step hooks, one before and one
//     after any hook the coordinator registers, so the intervals
//     between hooks are engine steps and the bracket is a capture.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/coordinator.hpp"
#include "core/pattern.hpp"
#include "harness.hpp"
#include "pilot/sim_backend.hpp"

namespace perfbench {

/// Per-session boundary stamps of one run (seconds, allocation counts).
struct SessionMarks {
  double compile_begin = -1.0;
  double prepared = -1.0;
  double first_spec = -1.0;  ///< First task spec handed to the toolkit.
  std::uint64_t allocs_compile_begin = 0;
  std::uint64_t allocs_prepared = 0;

  /// Called by the benchmark's stage callbacks: the first call of a run
  /// is the moment the session's first unit goes out for dispatch.
  void note_spec() {
    if (first_spec < 0.0) first_spec = now_s();
  }
};

class MarkedPattern final : public entk::core::ExecutionPattern {
 public:
  MarkedPattern(entk::core::ExecutionPattern& inner, SessionMarks& marks)
      : inner_(inner), marks_(marks) {}

  std::string name() const override { return inner_.name(); }
  entk::Status validate() const override {
    marks_.compile_begin = now_s();
    marks_.allocs_compile_begin = thread_allocs();
    return inner_.validate();
  }
  entk::Status compile(entk::core::TaskGraph& graph) override {
    return inner_.compile(graph);
  }

 private:
  entk::core::ExecutionPattern& inner_;
  SessionMarks& marks_;
};

class MarkObserver final : public entk::core::GraphRunObserver {
 public:
  MarkObserver(SessionMarks& marks, entk::core::GraphRunObserver* inner)
      : marks_(marks), inner_(inner) {}

  entk::Result<bool> prepare_run(
      entk::core::TaskGraph& graph, entk::core::GraphExecutor& runner,
      entk::core::PatternExecutor& executor) override {
    marks_.prepared = now_s();
    marks_.allocs_prepared = thread_allocs();
    if (inner_ == nullptr) return false;
    return inner_->prepare_run(graph, runner, executor);
  }
  void on_graph_run_end(entk::core::GraphExecutor& runner,
                        const entk::Status& outcome) override {
    if (inner_ != nullptr) inner_->on_graph_run_end(runner, outcome);
  }

 private:
  SessionMarks& marks_;
  entk::core::GraphRunObserver* inner_;
};

/// One snapshot capture, bracketed by the probe's two hooks.
struct Capture {
  double start = 0.0;
  double end = 0.0;
  double cpu_s = 0.0;  ///< < 0 when the probe did not expect the capture
  std::uint64_t allocs = 0;
};

/// Step-hook timing of one run. attach_before() goes in before the
/// coordinator (if any) is constructed, attach_after() after it.
class StepProbe {
 public:
  void attach_before(entk::pilot::SimBackend& backend);
  /// `every_settled` is the coordinator's policy: the thread's CPU clock
  /// (a system call) is read only on steps where a capture may be due,
  /// judged from the toolkit's units.done counter.
  void attach_after(entk::pilot::SimBackend& backend,
                    const entk::ckpt::Coordinator* coordinator,
                    std::uint64_t every_settled = 0);

  std::uint64_t hooks = 0;
  double first = -1.0;          ///< First "before" hook.
  double last = -1.0;           ///< Last "after" hook.
  std::uint64_t allocs_first = 0;
  std::uint64_t allocs_last = 0;
  double step_s = 0.0;          ///< Sum of after->before intervals.
  std::uint64_t step_allocs = 0;
  double bracket_s = 0.0;       ///< Hook brackets without a capture.
  std::vector<Capture> captures;

 private:
  bool capture_may_be_due() const;

  const entk::ckpt::Coordinator* coordinator_ = nullptr;
  std::uint64_t every_settled_ = 0;
  std::uint64_t seen_snapshots_ = 0;
  std::uint64_t done_at_capture_ = 0;
  double before_ = 0.0;
  double before_cpu_ = 0.0;
  std::uint64_t before_allocs_ = 0;
};

/// Phase split of one traced run, from the marks and the probe.
struct PhaseSplit {
  double compile_s = 0.0;
  double start_s = 0.0;
  double finish_s = 0.0;
  std::uint64_t compile_allocs = 0;
  std::uint64_t start_allocs = 0;
  std::uint64_t finish_allocs = 0;
};

/// `entry`/`ret` bracket the run call; `sessions` in start order.
PhaseSplit split_phases(double entry, std::uint64_t allocs_entry, double ret,
                        std::uint64_t allocs_ret,
                        const std::vector<const SessionMarks*>& sessions,
                        const StepProbe& probe);

/// Adds the run's phase spans under `parent` (compile and start
/// segments per session, the engine-step span with its captures, and
/// finish).
void add_phase_spans(SpanRecorder& spans, int parent, double entry, double ret,
                     const std::vector<const SessionMarks*>& sessions,
                     const StepProbe& probe);

}  // namespace perfbench

#include "batch.hpp"

#include "obs/metrics.hpp"

namespace perfbench {

namespace {
std::uint64_t units_done() {
  return entk::obs::Metrics::instance()
      .counter(entk::obs::WellKnownCounter::kUnitsDone)
      .get();
}
}  // namespace

bool StepProbe::capture_may_be_due() const {
  // A margin below the policy, in case the toolkit counts a settle a
  // step before it counts the unit done.
  constexpr std::uint64_t kMargin = 16;
  return coordinator_ != nullptr &&
         units_done() + kMargin >= done_at_capture_ + every_settled_;
}

void StepProbe::attach_before(entk::pilot::SimBackend& backend) {
  captures.reserve(64);  // no allocation inside the hooks
  backend.add_step_hook([this] {
    before_ = now_s();
    before_allocs_ = thread_allocs();
    before_cpu_ = capture_may_be_due() ? thread_cpu_s() : -1.0;
    if (hooks == 0) {
      first = before_;
      allocs_first = before_allocs_;
    } else {
      step_s += before_ - last;
      step_allocs += before_allocs_ - allocs_last;
    }
    ++hooks;
    return entk::Status::ok();
  });
}

void StepProbe::attach_after(entk::pilot::SimBackend& backend,
                             const entk::ckpt::Coordinator* coordinator,
                             std::uint64_t every_settled) {
  coordinator_ = coordinator;
  every_settled_ = every_settled;
  done_at_capture_ = units_done();
  seen_snapshots_ =
      coordinator != nullptr ? coordinator->snapshots_written() : 0;
  backend.add_step_hook([this] {
    last = now_s();
    allocs_last = thread_allocs();
    if (coordinator_ != nullptr &&
        coordinator_->snapshots_written() != seen_snapshots_) {
      seen_snapshots_ = coordinator_->snapshots_written();
      done_at_capture_ = units_done();
      if (captures.size() < captures.capacity()) {
        const double cpu =
            before_cpu_ < 0.0 ? -1.0 : thread_cpu_s() - before_cpu_;
        captures.push_back({before_, last, cpu, allocs_last - before_allocs_});
      }
    } else {
      bracket_s += last - before_;
    }
    return entk::Status::ok();
  });
}

PhaseSplit split_phases(double entry, std::uint64_t allocs_entry, double ret,
                        std::uint64_t allocs_ret,
                        const std::vector<const SessionMarks*>& sessions,
                        const StepProbe& probe) {
  PhaseSplit split;
  double cursor = entry;  // start of the current compile segment
  std::uint64_t cursor_allocs = allocs_entry;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const SessionMarks& marks = *sessions[i];
    if (i > 0) {
      // The previous session's start ends where this compile begins.
      split.start_s += marks.compile_begin - cursor;
      split.start_allocs += marks.allocs_compile_begin - cursor_allocs;
      cursor = marks.compile_begin;
      cursor_allocs = marks.allocs_compile_begin;
    }
    split.compile_s += marks.prepared - cursor;
    split.compile_allocs += marks.allocs_prepared - cursor_allocs;
    cursor = marks.prepared;
    cursor_allocs = marks.allocs_prepared;
  }
  const bool stepped = probe.hooks > 0;
  const double steps_begin = stepped ? probe.first : ret;
  const std::uint64_t steps_allocs = stepped ? probe.allocs_first : allocs_ret;
  split.start_s += steps_begin - cursor;
  split.start_allocs += steps_allocs - cursor_allocs;
  const double steps_end = stepped ? probe.last : ret;
  const std::uint64_t end_allocs = stepped ? probe.allocs_last : allocs_ret;
  split.finish_s = ret - steps_end;
  split.finish_allocs = allocs_ret - end_allocs;
  return split;
}

void add_phase_spans(SpanRecorder& spans, int parent, double entry, double ret,
                     const std::vector<const SessionMarks*>& sessions,
                     const StepProbe& probe) {
  double cursor = entry;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const SessionMarks& marks = *sessions[i];
    if (i > 0) {
      spans.add("core.run.start", cursor, marks.compile_begin, parent);
      cursor = marks.compile_begin;
    }
    spans.add("core.pattern.compile", cursor, marks.prepared, parent);
    cursor = marks.prepared;
  }
  if (probe.hooks == 0) {
    spans.add("core.run.start", cursor, ret, parent);
    return;
  }
  spans.add("core.run.start", cursor, probe.first, parent);
  const int steps =
      spans.add("sim.engine.steps", probe.first, probe.last, parent);
  for (const Capture& capture : probe.captures) {
    spans.add("ckpt.capture", capture.start, capture.end, steps);
  }
  spans.add("core.run.finish", probe.last, ret, parent);
}

}  // namespace perfbench

// The measurement loop shared by the two batch workloads.
//
// Identical runs on a small shared box slow down by up to 2x in phases
// lasting seconds to a minute, and the slowdown is in CPU time, not in
// waiting, so no per-run average escapes it. What stays put is the
// fastest of many short repetitions: each repetition runs identical work
// on a fresh runtime, and every timing is reported as the fastest
// repetition of the run, which a slow phase covering part of the run
// cannot move.
#include <algorithm>
#include <iostream>

#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kWarmupReps = 2;

template <typename T, typename F>
std::vector<double> collect(const std::vector<T>& items, F field) {
  std::vector<double> out;
  out.reserve(items.size());
  for (const T& item : items) out.push_back(field(item));
  return out;
}

template <typename T, typename F>
double fastest(const std::vector<T>& items, F field) {
  const std::vector<double> values = collect(items, field);
  return values.empty() ? 0.0
                        : *std::min_element(values.begin(), values.end());
}

double per_unit(std::uint64_t count, std::uint64_t units) {
  return static_cast<double>(count) / static_cast<double>(units);
}

}  // namespace

void measure_batch(BatchWorkload& workload, const RunOptions& options,
                   Outcome& outcome) {
  SpanRecorder spans;
  SpanRecorder* traced = options.trace ? &spans : nullptr;

  for (int i = 0; i < kWarmupReps && outcome.correct; ++i) {
    const RepResult warm = workload.rep(outcome, nullptr, -1, false);
    std::cerr << "warm-up rep " << i << ": setup " << warm.setup_s * 1e3
              << " ms, run " << warm.run_s * 1e3 << " ms\n";
  }
  if (outcome.correct) {
    const ResumeResult warm = workload.resume(outcome, nullptr, -1);
    std::cerr << "warm-up resume: " << warm.total_s * 1e3 << " ms\n";
  }
  // The warm-up ran every part of the workload; later repetitions repeat
  // identical work, so the peak read here does not depend on how many
  // repetitions fit in the run.
  const double rss_mb = peak_rss_mb();

  std::vector<RepResult> plain;
  std::vector<RepResult> spanned;
  std::vector<RepResult> recorded;
  std::vector<ResumeResult> resumes;
  const double deadline = now_s() + options.seconds;
  while (now_s() < deadline && outcome.correct) {
    plain.push_back(workload.rep(outcome, nullptr, -1, false));
    if (traced != nullptr) {
      const int root = spans.open("bench.rep", -1);
      spanned.push_back(workload.rep(outcome, traced, root, false));
      spans.close(root);
      recorded.push_back(workload.rep(outcome, nullptr, -1, true));
    }
    const int root = traced != nullptr ? spans.open("bench.resume", -1) : -1;
    resumes.push_back(workload.resume(outcome, traced, root));
    if (root >= 0) spans.close(root);
  }

  for (const auto* reps : {&plain, &spanned, &recorded}) {
    for (const RepResult& r : *reps) {
      outcome.attempted += r.units;
      outcome.failed += r.units_failed;
    }
  }
  for (const ResumeResult& r : resumes) {
    outcome.attempted += r.units;
    outcome.failed += r.units_failed;
  }
  if (!outcome.correct) return;
  if (plain.empty() || resumes.empty() ||
      (traced != nullptr && spanned.empty())) {
    outcome.fail("no repetition completed");
    return;
  }
  const auto run_time = [](const RepResult& r) { return r.run_s; };
  const double run_s = fastest(plain, run_time);
  const std::uint64_t units_per_rep = plain.front().units;
  std::cerr << plain.size() << " repetitions, " << resumes.size()
            << " resumes; fastest run " << run_s * 1e3 << " ms for "
            << units_per_rep << " units\n";

  Metrics& m = outcome.metrics;
  if (!options.trace) {
    m["units_per_s"] = {static_cast<double>(units_per_rep) / run_s,
                        "units/s"};
    m["workloads_per_s"] = {
        static_cast<double>(workload.workloads_per_rep()) / run_s,
        "workloads/s"};
    m["resume_s"] = {
        fastest(resumes, [](const ResumeResult& r) { return r.total_s; }),
        "s"};
    std::vector<double> first_dispatch;
    for (std::size_t k = 0; k < plain.front().first_dispatch_s.size(); ++k) {
      first_dispatch.push_back(fastest(
          plain, [k](const RepResult& r) { return r.first_dispatch_s[k]; }));
    }
    m["dispatch_p50_ms"] = {1e3 * nearest_rank(first_dispatch, 50).value,
                            "ms"};
    m["setup_s"] = {
        fastest(plain, [](const RepResult& r) { return r.setup_s; }), "s"};
    m["peak_rss_mb"] = {rss_mb, "MB"};
    return;
  }

  // Times: totals over the traced repetitions, per unit. Counts are
  // exact per repetition, so their median is what every one counted.
  std::uint64_t units = 0;
  double compile = 0.0, start = 0.0, step = 0.0, finish = 0.0, hook = 0.0;
  std::vector<double> allocate_us, compile_allocs, start_allocs, step_allocs,
      finish_allocs, capture_ms, capture_wait_ms, capture_allocs, snapshots,
      snapshot_mb, encode_ms, decode_ms;
  for (const RepResult& r : spanned) {
    units += r.units;
    compile += r.phases.compile_s;
    start += r.phases.start_s;
    step += r.step_s;
    finish += r.phases.finish_s;
    hook += r.hook_bracket_s;
    allocate_us.push_back(1e6 * r.allocate_s /
                          static_cast<double>(r.allocate_calls));
    compile_allocs.push_back(per_unit(r.phases.compile_allocs, r.units));
    start_allocs.push_back(per_unit(r.phases.start_allocs, r.units));
    step_allocs.push_back(per_unit(r.step_allocs, r.units));
    finish_allocs.push_back(per_unit(r.phases.finish_allocs, r.units));
    for (const Capture& c : r.captures) {
      const double wall = c.end - c.start;
      capture_ms.push_back(1e3 * wall);
      if (c.cpu_s >= 0.0) {
        capture_wait_ms.push_back(1e3 * std::max(0.0, wall - c.cpu_s));
      }
      capture_allocs.push_back(static_cast<double>(c.allocs));
    }
    snapshots.push_back(static_cast<double>(r.captures.size()));
    if (!r.snapshot_bytes.empty()) {
      double bytes = 0.0;
      for (const double b : r.snapshot_bytes) bytes += b;
      snapshot_mb.push_back(bytes / 1e6 /
                            static_cast<double>(r.snapshot_bytes.size()));
    }
    for (const double s : r.encode_s) encode_ms.push_back(1e3 * s);
    for (const double s : r.decode_s) decode_ms.push_back(1e3 * s);
  }
  const double us_per_unit = 1e6 / static_cast<double>(units);
  const RepResult& first = spanned.front();
  m["core.session.allocate_us"] = {median(allocate_us), "us"};
  m["core.pattern.compile_us_per_unit"] = {compile * us_per_unit, "us"};
  m["core.run.start_us_per_unit"] = {start * us_per_unit, "us"};
  m["sim.engine.step_us_per_unit"] = {step * us_per_unit, "us"};
  m["core.run.finish_us_per_unit"] = {finish * us_per_unit, "us"};
  m["ckpt.hook_us_per_unit"] = {hook * us_per_unit, "us"};
  m["sim.engine.events_per_unit"] = {per_unit(first.events, first.units),
                                     "count"};
  m["pilot.scheduler.cycles_per_unit"] = {
      per_unit(first.scheduler_cycles, first.units), "count"};
  m["pilot.scheduler.picks_per_unit"] = {
      per_unit(first.scheduler_picks, first.units), "count"};
  m["core.graph.frontier_batches_per_unit"] = {
      per_unit(first.frontier_batches, first.units), "count"};
  m["core.pattern.compile_allocs_per_unit"] = {median(compile_allocs),
                                               "count"};
  m["core.run.start_allocs_per_unit"] = {median(start_allocs), "count"};
  m["sim.engine.step_allocs_per_unit"] = {median(step_allocs), "count"};
  m["core.run.finish_allocs_per_unit"] = {median(finish_allocs), "count"};
  m["ckpt.capture_ms"] = {median(capture_ms), "ms"};
  m["ckpt.capture_io_wait_ms"] = {median(capture_wait_ms), "ms"};
  m["ckpt.capture_allocs"] = {median(capture_allocs), "count"};
  m["ckpt.snapshots"] = {median(snapshots), "count"};
  m["ckpt.snapshot_mb"] = {median(snapshot_mb), "MB"};
  m["ckpt.encode_ms"] = {median(encode_ms), "ms"};
  m["ckpt.decode_ms"] = {median(decode_ms), "ms"};
  m["ckpt.restore_ms"] = {
      1e3 * median(collect(resumes,
                           [](const ResumeResult& r) { return r.restore_s; })),
      "ms"};
  m["obs.recorder_overhead_frac"] = {
      fastest(recorded, run_time) / run_s - 1.0, "ratio"};
  m["obs.recorder_events"] = {
      static_cast<double>(recorded.front().recorder_events), "count"};
  m["bench.trace_overhead_frac"] = {fastest(spanned, run_time) / run_s - 1.0,
                                    "ratio"};
  m["bench.span_coverage_frac"] = {span_coverage(spans.spans()), "ratio"};

  const std::vector<double> self = self_times(spans.spans());
  std::map<std::string, double> by_layer;
  double total = 0.0;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    by_layer[layer_of(spans.spans()[i].name)] += self[i];
    total += self[i];
  }
  std::cerr << "self time by layer over " << spanned.size()
            << " traced repetitions and " << resumes.size() << " resumes:\n";
  for (const auto& [layer, seconds] : by_layer) {
    std::cerr << "  " << layer << ": " << seconds * 1e3 << " ms ("
              << 100.0 * seconds / total << "%)\n";
  }
  if (!options.trace_path.empty() &&
      !write_chrome_trace(spans.spans(), options.trace_path)) {
    outcome.fail("cannot write " + options.trace_path);
  }
}

}  // namespace perfbench

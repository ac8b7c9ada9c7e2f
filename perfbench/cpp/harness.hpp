// Measurement tooling shared by the perfbench workloads: clocks, the
// allocation counter, percentiles, the unit digest, and the span
// recorder with its Chrome-trace writer and self-time reducer.
//
// Everything here lives in the benchmark, not in the toolkit: spans are
// recorded around the benchmark's own calls into the toolkit's public
// API, so the program under test is built and run unmodified.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "pilot/compute_unit.hpp"

namespace perfbench {

/// Monotonic wall time in seconds (steady clock).
double now_s();
/// CPU time consumed by the calling thread, in seconds.
double thread_cpu_s();
/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();

/// Calls of the global operator new made by the calling thread since it
/// started. The benchmark binary replaces operator new to count them;
/// exact for work done on one thread.
std::uint64_t thread_allocs();

// --- statistics -----------------------------------------------------

double median(std::vector<double> values);

/// A percentile and the samples it was taken over.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< Samples strictly above `value`.
};

/// Nearest-rank percentile (p in (0, 100]) of `values`: the smallest
/// sample with at least p% of the samples at or below it.
Percentile nearest_rank(std::vector<double> values, double p);

// --- digest ---------------------------------------------------------

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size);

/// FNV-1a over each unit's final state and its submitted / started /
/// stopped / finished virtual times, in the order given (submission
/// order). Uids are left out, so the digest does not depend on how a
/// run names its units. With `cut` >= 0 only units finishing after the
/// cut are hashed (the schedule a resumed run must reproduce).
std::uint64_t unit_digest(
    const std::vector<entk::pilot::ComputeUnitPtr>& units, double cut = -1.0);

// --- spans ----------------------------------------------------------

struct Span {
  std::string name;  ///< "<layer>.<what>", e.g. "core.pattern.compile".
  double start = 0.0;
  double end = 0.0;
  int parent = -1;            ///< Index of the enclosing span, -1 = root.
  std::uint64_t workload = 0; ///< Request id for serve spans, else 0.
};

/// In-memory span store; written out once at exit.
class SpanRecorder {
 public:
  /// Opens a span starting now; close it with close().
  int open(std::string name, int parent, std::uint64_t workload = 0);
  void close(int id);
  /// Records an already measured interval.
  int add(std::string name, double start, double end, int parent,
          std::uint64_t workload = 0);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// open()/close() on an optional recorder: -1 and a no-op without one.
int open_span(SpanRecorder* spans, std::string name, int parent);
void close_span(SpanRecorder* spans, int id);

/// A span's layer: the part of its name before the first '.'.
std::string layer_of(const std::string& name);

/// Self time of every span: its duration minus the part of it that its
/// children cover (children are clipped to the parent; overlapping
/// children count once).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Share of the root spans' time that their descendants account for:
/// 1 - (root self time / root time).
double span_coverage(const std::vector<Span>& spans);

/// Writes the spans as a Chrome-trace JSON document (loads in Perfetto):
/// one complete ("X") event per span, timestamps in microseconds from
/// the earliest span. Returns false when the file cannot be written.
bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

// --- result ---------------------------------------------------------

/// One metric as printed: value and unit.
using Metrics = std::map<std::string, std::pair<double, std::string>>;

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> errors;  ///< Failed output checks.

  /// Records a failed output check (the run then reports correct=false).
  void fail(const std::string& what);
  /// Records an output check; fails the run when `ok` is false.
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

/// The result line: one JSON object with correct/attempted/failed and
/// every metric at full precision.
std::string result_json(const Outcome& outcome);

}  // namespace perfbench

// Process-wide metrics: named counters, gauges, log2 histograms.
//
// Hot-path updates are single relaxed atomic operations. Every metric
// is named at compile time (the X-macro tables below) and resolves to
// an array index, so instrumented code pays no name lookup and the
// registry takes no lock. Snapshots (to_text/to_json) are approximate
// under concurrent updates, exact when quiescent. See
// docs/OBSERVABILITY.md.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

// clang-format off
/// Monotone event counts, one per instrumented runtime site.
#define ENTK_WELL_KNOWN_COUNTERS(X)                                    \
  X(kEngineEventsDispatched, "engine.events_dispatched")               \
  X(kEngineEventsCancelled, "engine.events_cancelled")                 \
  X(kSchedulerCycles, "scheduler.cycles")                              \
  X(kSchedulerPicks, "scheduler.picks")                                \
  X(kSchedulerWaitingPushes, "scheduler.waiting_pushes")               \
  X(kUnitsSubmitted, "units.submitted")                                \
  X(kUnitsDone, "units.done")                                          \
  X(kUnitsFailed, "units.failed")                                      \
  X(kUnitsCanceled, "units.canceled")                                  \
  X(kUnitsRetried, "units.retried")                                    \
  X(kUnitsRecovered, "units.recovered")                                \
  X(kGraphFrontierBatches, "graph.frontier_batches")                   \
  X(kGraphNodesSubmitted, "graph.nodes_submitted")                     \
  X(kGraphNodesSkipped, "graph.nodes_skipped")                         \
  X(kStagingDirectives, "staging.directives")                          \
  X(kCheckpointsWritten, "ckpt.snapshots_written")                     \
  X(kCheckpointRestores, "ckpt.restores")                              \
  X(kServeSubmitted, "serve.submitted")                                \
  X(kServeAccepted, "serve.accepted")                                  \
  X(kServeRejected, "serve.rejected")                                  \
  X(kServeCancelled, "serve.cancelled")                                \
  X(kServeCompleted, "serve.completed")                                \
  X(kServeDispatchedUnits, "serve.dispatched_units")

/// Last-write-wins instantaneous values.
#define ENTK_WELL_KNOWN_GAUGES(X)                                      \
  X(kEnginePendingEvents, "engine.pending_events")                     \
  X(kSchedulerWaitingUnits, "scheduler.waiting_units")                 \
  X(kServeQueueDepth, "serve.queue_depth")                             \
  X(kServeActiveSessions, "serve.active_sessions")

/// Log2-bucketed distributions (seconds unless noted).
#define ENTK_WELL_KNOWN_HISTOGRAMS(X)                                  \
  X(kUnitExecutionSeconds, "unit.execution_seconds")                   \
  X(kUnitQueueWaitSeconds, "unit.queue_wait_seconds")                  \
  X(kGraphFrontierBatchSize, "graph.frontier_batch_size")              \
  X(kServeSubmitLatencySeconds, "serve.submit_latency_seconds")        \
  X(kServeQueueWaitSeconds, "serve.queue_wait_seconds")
// clang-format on

namespace entk::obs {

#define ENTK_OBS_ENUM(id, name) id,
enum class WellKnownCounter : std::size_t {
  ENTK_WELL_KNOWN_COUNTERS(ENTK_OBS_ENUM) kCount
};
enum class WellKnownGauge : std::size_t {
  ENTK_WELL_KNOWN_GAUGES(ENTK_OBS_ENUM) kCount
};
enum class WellKnownHistogram : std::size_t {
  ENTK_WELL_KNOWN_HISTOGRAMS(ENTK_OBS_ENUM) kCount
};
#undef ENTK_OBS_ENUM

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t get() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double get() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Power-of-two bucketed histogram covering [2^-32, 2^31] with
/// underflow/overflow clamped to the edge buckets. Tracks count and
/// sum so means are exact even though quantiles are bucket-resolution.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(double value);
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  /// Upper bound of the bucket holding quantile `q` in [0,1]; 0 when
  /// the histogram is empty.
  double quantile(double q) const;
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound (exclusive) of bucket `i`: 2^(i-32).
  static double bucket_upper_bound(std::size_t i);
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// The process-wide registry (leaky singleton, like TraceRecorder).
class Metrics {
 public:
  static Metrics& instance();

  Counter& counter(WellKnownCounter id) {
    return counters_[static_cast<std::size_t>(id)];
  }
  Gauge& gauge(WellKnownGauge id) {
    return gauges_[static_cast<std::size_t>(id)];
  }
  Histogram& histogram(WellKnownHistogram id) {
    return histograms_[static_cast<std::size_t>(id)];
  }

  /// Every metric name, sorted.
  std::vector<std::string> names() const;

  /// `name value` lines (histograms add count/sum/mean/p50/p99).
  std::string to_text() const;
  std::string to_json() const;

  /// Zeroes every metric. Test/bench hook; not synchronized against
  /// concurrent updates.
  void reset();

 private:
  Metrics() = default;
  ~Metrics() = delete;  // leaky by design

  std::array<Counter, static_cast<std::size_t>(WellKnownCounter::kCount)>
      counters_;
  std::array<Gauge, static_cast<std::size_t>(WellKnownGauge::kCount)>
      gauges_;
  std::array<Histogram,
             static_cast<std::size_t>(WellKnownHistogram::kCount)>
      histograms_;
};

/// True when the translation units of the runtime were compiled with
/// ENTK_TRACE_* macros enabled (ENTK_ENABLE_TRACING=1).
bool tracing_compiled_in();

}  // namespace entk::obs

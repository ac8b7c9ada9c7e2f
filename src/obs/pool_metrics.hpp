// Binds a WorkStealingPool's metric sink to the well-known "pool.*"
// registry counters. The pool lives in common/ and cannot depend on
// obs/, so the layer that constructs a pool (pilot's LocalAgent) injects
// this adapter at construction. Counter::add is one relaxed atomic on
// a compile-time array slot — safe from worker threads with any locks
// held.
#pragma once

#include "common/work_stealing_pool.hpp"
#include "obs/metrics.hpp"

namespace entk::obs {

/// Sink that forwards steal/park/execute deltas to Metrics::instance().
inline PoolMetricFn pool_metric_fn() {
  return [](PoolMetric metric, std::uint64_t n) {
    Metrics& metrics = Metrics::instance();
    switch (metric) {
      case PoolMetric::kExecuted:
        metrics.counter(WellKnownCounter::kPoolTasksExecuted).add(n);
        break;
      case PoolMetric::kStolen:
        metrics.counter(WellKnownCounter::kPoolTasksStolen).add(n);
        break;
      case PoolMetric::kParked:
        metrics.counter(WellKnownCounter::kPoolParks).add(n);
        break;
    }
  };
}

}  // namespace entk::obs

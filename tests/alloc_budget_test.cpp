// Allocation budget of the per-unit submit -> settle path.
//
// Every global operator new is counted while a 250-pipeline x 4-stage
// EnsembleOfPipelines (the benchmark's `pipelines` session shape) runs
// through Session::run on the simulated backend, and the count per unit
// is gated. A unit's trip through common, sim, pilot, kernels and core
// is where the toolkit's per-task overhead lives; a change that adds a
// heap copy to it shows up here as a count long before it shows up in a
// timing. The run is single-threaded and seeded, so the count repeats
// exactly.
//
// This is its own executable because it replaces the global
// operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "common/rng.hpp"
#include "common/uid.hpp"
#include "core/entk.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The other replaceable forms (array, nothrow) forward to these. Not
// inlined: gcc would otherwise pair the malloc inside operator new with
// the free inside an inlined delete and warn about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* memory = std::malloc(size == 0 ? 1 : size)) return memory;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* memory) noexcept {
  std::free(memory);
}
[[gnu::noinline]] void operator delete(void* memory, std::size_t) noexcept {
  std::free(memory);
}

namespace entk::core {
namespace {

constexpr Count kPipelines = 250;
constexpr Count kStages = 4;
constexpr double kUnits = static_cast<double>(kPipelines * kStages);

/// Heap allocations per unit of the whole Session::run (compile, start,
/// every engine step, finish): 28.49 when this budget was set (gcc 12,
/// libstdc++, RelWithDebInfo), plus 10%. The same run made 43.75
/// before the submit -> settle path stopped round-tripping numbers
/// through text and copying callbacks on every transition.
constexpr double kAllocationsPerUnitBudget = 28.49 * 1.10;

sim::MachineProfile budget_machine() {
  sim::MachineProfile p;
  p.name = "test.alloc_budget";
  p.nodes = 4;
  p.cores_per_node = 64;
  p.memory_per_node_gb = 256.0;
  p.performance_factor = 1.0;
  p.unit_spawn_overhead = 0.001;
  p.spawner_concurrency = 64;
  p.unit_launch_latency = 0.002;
  p.pilot_bootstrap = 0.1;
  p.staging_latency = 0.001;
  p.staging_bandwidth_mb_per_s = 1000.0;
  return p;
}

std::unique_ptr<ExecutionPattern> pipelines_pattern() {
  auto pattern = std::make_unique<EnsembleOfPipelines>(kPipelines, kStages);
  for (Count stage = 1; stage <= kStages; ++stage) {
    pattern->set_stage(stage, [](const StageContext& context) {
      Xoshiro256 rng(static_cast<std::uint64_t>(
          context.stage * 100003 + context.instance));
      TaskSpec spec;
      spec.kernel = "misc.sleep";
      spec.args.set("duration", 60.0 * (0.5 + rng.uniform()));
      spec.cores = 1;
      return spec;
    });
  }
  return pattern;
}

TEST(AllocBudget, EopUnitsStayWithinTheirAllocationBudget) {
  reset_uid_counters_for_testing();
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(budget_machine());
  Runtime runtime(backend, registry);
  ResourceOptions options;
  options.cores = kPipelines;
  options.runtime = 1.0e6;
  auto session = runtime.create_session({"budget", options});
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  ASSERT_TRUE(session.value()->allocate().is_ok());
  auto pattern = pipelines_pattern();

  const std::uint64_t before = g_allocations.load();
  auto report = session.value()->run(*pattern);
  const std::uint64_t after = g_allocations.load();

  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  ASSERT_EQ(report.value().units.size(), kPipelines * kStages);
  const double per_unit = static_cast<double>(after - before) / kUnits;
  std::printf("allocations per unit: %.2f (budget %.2f)\n", per_unit,
              kAllocationsPerUnitBudget);
  EXPECT_LE(per_unit, kAllocationsPerUnitBudget);
}

}  // namespace
}  // namespace entk::core

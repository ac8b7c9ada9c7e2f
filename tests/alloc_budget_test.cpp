// Allocation budgets of the per-unit submit -> settle path and of
// entk-serve.
//
// Every global operator new is counted while a pattern runs through
// Session::run on the simulated backend, and the count per unit is
// gated: a 250-pipeline x 4-stage EnsembleOfPipelines (the benchmark's
// `pipelines` session shape, no backlog), and a SimulationAnalysisLoop
// whose simulation stage is wider than its cores (a backlog, so the
// agent's WaitingIndex and backfill scheduler hold units). A unit's
// trip through common, sim, pilot, kernels and core is where the
// toolkit's per-task overhead lives; a change that adds a heap copy to
// it shows up here as a count long before it shows up in a timing.
// The same count is gated for a serve::Service draining a queued
// contended mix, and the bytes the service keeps per served workload
// are gated too. Each counted run is seeded and has one thread doing
// the work (the session runs on the test thread; the service's drive
// thread works while the test thread waits in drain()), so the counts
// repeat exactly.
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
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/uid.hpp"
#include "core/entk.hpp"
#include "serve_test_util.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
/// Bytes requested through operator new and not yet deleted. Each block
/// carries its requested size in a header, so the count is the same
/// under every allocator and sanitizer.
std::atomic<std::int64_t> g_live_bytes{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);
}  // namespace

// The other replaceable forms (array, nothrow) forward to these. Not
// inlined: gcc would otherwise pair the malloc inside operator new with
// the free inside an inlined delete and warn about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* block = std::malloc(kHeader + size);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  return static_cast<char*>(block) + kHeader;
}
[[gnu::noinline]] void operator delete(void* memory) noexcept {
  if (memory == nullptr) return;
  void* block = static_cast<char*>(memory) - kHeader;
  const std::size_t size = *static_cast<std::size_t*>(block);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* memory, std::size_t) noexcept {
  operator delete(memory);
}

namespace entk::core {
namespace {

constexpr Count kPipelines = 250;
constexpr Count kStages = 4;

constexpr Count kIterations = 3;
constexpr Count kSimulations = 300;
constexpr Count kAnalyses = 30;
constexpr Count kSalCores = 64;

/// Heap allocations per unit of the whole EoP Session::run (compile,
/// start, every engine step, finish): 15.54 when this budget was set
/// (gcc 12, libstdc++, RelWithDebInfo), plus 10%. The same run made
/// 16.54 while the waiting index kept a hash node per waiting unit,
/// 24.74 while the runtime found in-flight units through hash maps
/// (one node per unit in the agent's launch map, its event map and the
/// unit manager's, and a bucket built and freed per unit in the
/// waiting index), and 43.75 before the submit -> settle path stopped
/// round-tripping numbers through text and copying callbacks on every
/// transition.
constexpr double kAllocationsPerUnitBudget = 15.54 * 1.10;

/// The same for the backlogged SAL run: 8.93 when this budget was set
/// (9.94 with the waiting index's hash node), plus 10%.
constexpr double kBackloggedAllocationsPerUnitBudget = 8.93 * 1.10;

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

/// A 1-core misc.sleep task of 30-90 s, seeded by its place.
TaskSpec sleep_task(Count stage, Count instance) {
  Xoshiro256 rng(static_cast<std::uint64_t>(stage * 100003 + instance));
  TaskSpec spec;
  spec.kernel = "misc.sleep";
  spec.args.set("duration", 60.0 * (0.5 + rng.uniform()));
  spec.cores = 1;
  return spec;
}

/// Runs `pattern` to success in a fresh session of `cores` cores and
/// returns the heap allocations per unit of its Session::run.
void measure(ExecutionPattern& pattern, Count cores, Count units,
             double& per_unit) {
  reset_uid_counters_for_testing();
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(budget_machine());
  Runtime runtime(backend, registry);
  ResourceOptions options;
  options.cores = cores;
  options.runtime = 1.0e6;
  auto session = runtime.create_session({"budget", options});
  ASSERT_TRUE(session.ok()) << session.status().to_string();
  ASSERT_TRUE(session.value()->allocate().is_ok());

  const std::uint64_t before = g_allocations.load();
  auto report = session.value()->run(pattern);
  const std::uint64_t after = g_allocations.load();

  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  ASSERT_EQ(report.value().units.size(), static_cast<std::size_t>(units));
  per_unit =
      static_cast<double>(after - before) / static_cast<double>(units);
}

TEST(AllocBudget, EopUnitsStayWithinTheirAllocationBudget) {
  EnsembleOfPipelines pattern(kPipelines, kStages);
  for (Count stage = 1; stage <= kStages; ++stage) {
    pattern.set_stage(stage, [](const StageContext& context) {
      return sleep_task(context.stage, context.instance);
    });
  }
  double per_unit = 0.0;
  ASSERT_NO_FATAL_FAILURE(
      measure(pattern, kPipelines, kPipelines * kStages, per_unit));
  std::printf("allocations per unit: %.2f (budget %.2f)\n", per_unit,
              kAllocationsPerUnitBudget);
  EXPECT_LE(per_unit, kAllocationsPerUnitBudget);
}

TEST(AllocBudget, BackloggedSalUnitsStayWithinTheirAllocationBudget) {
  SimulationAnalysisLoop pattern(kIterations, kSimulations, kAnalyses);
  pattern.set_simulation([](const StageContext& context) {
    return sleep_task(2 * context.iteration, context.instance);
  });
  pattern.set_analysis([](const StageContext& context) {
    return sleep_task(2 * context.iteration + 1, context.instance);
  });
  double per_unit = 0.0;
  ASSERT_NO_FATAL_FAILURE(
      measure(pattern, kSalCores, kIterations * (kSimulations + kAnalyses),
              per_unit));
  std::printf("backlogged allocations per unit: %.2f (budget %.2f)\n",
              per_unit, kBackloggedAllocationsPerUnitBudget);
  EXPECT_LE(per_unit, kBackloggedAllocationsPerUnitBudget);
}

/// Heap allocations per unit while a Service's drive thread drains the
/// queued contended mix: 26.62 when this budget was set, plus 10%. The
/// drive loop made 42.37 while it advanced and re-counted every running
/// session after every engine step and built string-keyed maps for
/// each fair-share round.
constexpr double kServedAllocationsPerUnitBudget = 26.62 * 1.10;

/// Bytes a Service keeps per workload it has served (requested sizes,
/// the test run alone): 2188.5 when this budget was set, plus 10%. It
/// kept 2637.2 while a finished workload held its WorkloadSpec. What is
/// still kept: the pilot and its agent, the batch-queue job record, the
/// session's uid counter families and its interned ordinal, and the
/// workload's own record for STATUS and RESULTS.
constexpr double kRetainedBytesPerWorkloadBudget = 2188.5 * 1.10;

/// Runs `service` on a drive thread until it has served `mix`, queued
/// before the thread starts; returns the allocations the drain made.
std::uint64_t serve_queued(
    serve::Service& service,
    const std::vector<serve::mix_test::MixWorkload>& mix) {
  EXPECT_TRUE(serve::mix_test::submit_mix(service, mix));
  const std::uint64_t before = g_allocations.load();
  std::thread driver([&service] { service.run(); });
  service.drain();
  const std::uint64_t after = g_allocations.load();
  service.shutdown();
  driver.join();
  EXPECT_EQ(service.stats().completed, mix.size());
  return after - before;
}

TEST(AllocBudget, ServedBurstStaysWithinItsAllocationBudget) {
  const std::vector<serve::mix_test::MixWorkload> mix =
      serve::mix_test::contended_mix(1, 256);
  ASSERT_EQ(mix.size(), 256u);
  // The first service pays for what the process interns once (uid
  // families, session ordinals); the second is measured.
  std::uint64_t allocations = 0;
  for (int round = 0; round < 2; ++round) {
    std::unique_ptr<serve::Service> service =
        serve::mix_test::make_mix_service();
    ASSERT_NE(service, nullptr);
    allocations = serve_queued(*service, mix);
  }
  const double per_unit = static_cast<double>(allocations) /
                          static_cast<double>(serve::mix_test::mix_units(mix));
  std::printf("served allocations per unit: %.2f (budget %.2f)\n", per_unit,
              kServedAllocationsPerUnitBudget);
  EXPECT_LE(per_unit, kServedAllocationsPerUnitBudget);
}

TEST(AllocBudget, ServedWorkloadsRetainAtMostTheirByteBudget) {
  constexpr std::size_t kBatch = 128;
  const std::vector<serve::mix_test::MixWorkload> batch =
      serve::mix_test::contended_mix(1, kBatch);
  ASSERT_EQ(batch.size(), kBatch);
  std::unique_ptr<serve::Service> service =
      serve::mix_test::make_mix_service();
  ASSERT_NE(service, nullptr);
  std::thread driver([&service] { service->run(); });
  std::int64_t live[2] = {0, 0};
  for (std::int64_t& after : live) {
    ASSERT_TRUE(serve::mix_test::submit_mix(*service, batch));
    service->drain();
    after = g_live_bytes.load();
  }
  const serve::ServiceStats stats = service->stats();
  service->shutdown();
  driver.join();
  ASSERT_EQ(stats.completed, 2 * kBatch);
  const double per_workload = static_cast<double>(live[1] - live[0]) /
                              static_cast<double>(kBatch);
  std::printf("bytes kept per served workload: %.1f (budget %.1f)\n",
              per_workload, kRetainedBytesPerWorkloadBudget);
  EXPECT_LE(per_workload, kRetainedBytesPerWorkloadBudget);
}

}  // namespace
}  // namespace entk::core

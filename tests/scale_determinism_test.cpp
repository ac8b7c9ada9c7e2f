// Same-seed trace equality at ensemble scale.
//
// The pooled event engine and the bucketed waiting index must not
// change WHAT the toolkit schedules, only how fast it decides: the
// (time, seq) dispatch order is a total order, so any correct heap —
// and a pick-for-pick-identical scheduler — reproduces the exact same
// schedule. This test pins that claim at 10k units: two fresh runs of
// an identical heterogeneous workload must produce bit-for-bit equal
// traces (uids, submit/start/stop/finish timestamps), and the trace
// must match a golden digest captured when the test was written. A
// digest change means the runtime reordered something — either an
// intentional semantic change (re-pin the constant, explain it in the
// commit) or a determinism bug (fix it).
//
// The machine, workload and digest live in scale_test_util.hpp, shared
// with the checkpoint/restart equivalence suite.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/uid.hpp"
#include "core/entk.hpp"
#include "scale_test_util.hpp"

namespace entk::core {
namespace {

constexpr Count kUnits = 10000;

std::uint64_t run_once(const std::string& policy) {
  // Fresh uid counters so both runs name units identically.
  reset_uid_counters_for_testing();
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(scale_test::scale_machine());
  ResourceOptions options;
  options.cores = 2048;
  options.runtime = 4.0e6;
  options.scheduler_policy = policy;
  ResourceHandle handle(backend, registry, options);
  EXPECT_TRUE(handle.allocate().is_ok());
  BagOfTasks pattern = scale_test::scale_workload(kUnits);
  auto report = handle.run(pattern);
  EXPECT_TRUE(report.ok()) << report.status().to_string();
  if (!report.ok()) return 0;
  EXPECT_TRUE(report.value().outcome.is_ok())
      << report.value().outcome.to_string();
  EXPECT_EQ(report.value().units.size(), static_cast<std::size_t>(kUnits));
  return scale_test::trace_digest(report.value().units);
}

TEST(ScaleDeterminism, SameSeedTracesAreBitIdenticalAt10k) {
  const std::uint64_t first = run_once("backfill");
  const std::uint64_t second = run_once("backfill");
  EXPECT_EQ(first, second);
  EXPECT_NE(first, 0u);
}

TEST(ScaleDeterminism, BackfillTraceMatchesGoldenDigest) {
  // Golden digest of the 10k-unit backfill schedule, captured when the
  // pooled engine + indexed scheduler landed. See the file comment for
  // what a mismatch means.
  constexpr std::uint64_t kGolden = 0x26C511C7D6394E68ULL;
  EXPECT_EQ(run_once("backfill"), kGolden);
}

TEST(ScaleDeterminism, LargestFirstTraceIsStableAcrossRuns) {
  const std::uint64_t first = run_once("largest_first");
  const std::uint64_t second = run_once("largest_first");
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace entk::core

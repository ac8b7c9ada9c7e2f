// Self-tests of the benchmark's own tooling: the self-time reducer, the
// nearest-rank percentile and the unit digest. Run after every build by
// perfbench/run.py; exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/uid.hpp"
#include "core/session.hpp"
#include "harness.hpp"
#include "pilot/sim_backend.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAILED: " << what << "\n";
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void reducer_subtracts_children() {
  // root [0, 10] with children a [1, 4] and b [3, 6] (overlapping) and
  // c [8, 12] (reaching past the root); a has a child d [2, 3].
  perfbench::SpanRecorder spans;
  const int root = spans.add("bench.rep", 0.0, 10.0, -1);
  const int a = spans.add("core.a", 1.0, 4.0, root);
  spans.add("core.b", 3.0, 6.0, root);
  spans.add("sim.c", 8.0, 12.0, root);
  spans.add("sim.d", 2.0, 3.0, a);
  const std::vector<double> self = perfbench::self_times(spans.spans());
  expect(near(self[0], 10.0 - 5.0 - 2.0),
         "root self time = 10 - [1,6] - [8,10]");
  expect(near(self[1], 3.0 - 1.0), "a self time = its span minus d");
  expect(near(self[2], 3.0), "b self time = its whole span");
  expect(near(self[3], 4.0), "c keeps its whole span");
  expect(near(self[4], 1.0), "a leaf keeps its whole span");
  expect(near(perfbench::span_coverage(spans.spans()), 7.0 / 10.0),
         "coverage = 1 - root self time / root time");
  expect(perfbench::layer_of("core.pattern.compile") == "core",
         "layer of a span name");
}

void nearest_rank_percentiles() {
  const auto rank = [](std::vector<double> values, double p) {
    return perfbench::nearest_rank(std::move(values), p).value;
  };
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // 1..100, unsorted
  expect(near(rank(values, 50), 50.0), "p50 of 1..100 is 50");
  expect(near(rank(values, 99), 99.0), "p99 of 1..100 is 99");
  expect(near(rank(values, 100), 100.0), "p100 is the maximum");
  expect(near(rank({7.0}, 99), 7.0), "one sample is every percentile");
  expect(near(rank({1.0, 2.0, 3.0, 4.0}, 50), 2.0),
         "p50 of four samples is the 2nd");
  expect(near(rank({1.0, 2.0, 3.0, 4.0}, 51), 3.0),
         "p51 of four samples is the 3rd");
  const perfbench::Percentile p99 = perfbench::nearest_rank(values, 99);
  expect(p99.samples == 100 && p99.beyond == 1,
         "p99 of 100 samples has one sample beyond it");
  const perfbench::Percentile ties =
      perfbench::nearest_rank({1.0, 2.0, 2.0, 2.0, 3.0}, 50);
  expect(near(ties.value, 2.0) && ties.samples == 5 && ties.beyond == 1,
         "samples equal to the percentile are not beyond it");
  expect(near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5),
         "median of an even count");
}

/// Runs a small ensemble of pipelines in a session called `name`.
std::uint64_t run_digest(const std::string& name, double duration) {
  const auto registry = entk::kernels::KernelRegistry::with_builtin_kernels();
  entk::sim::MachineProfile machine;
  machine.name = "selftest";
  machine.nodes = 1;
  machine.cores_per_node = 8;
  entk::pilot::SimBackend backend(machine);
  entk::core::Runtime runtime(backend, registry);
  entk::reset_uid_counters_with_prefix(name);
  entk::core::ResourceOptions resources;
  resources.cores = 4;
  auto session = runtime.create_session({name, resources});
  if (!session.ok() || !session.value()->allocate().is_ok()) return 0;
  entk::core::EnsembleOfPipelines pattern(6, 2);
  for (entk::Count stage = 1; stage <= 2; ++stage) {
    pattern.set_stage(stage, [duration](const entk::core::StageContext& c) {
      entk::core::TaskSpec spec;
      spec.kernel = "misc.sleep";
      spec.args.set("duration", duration + static_cast<double>(c.instance));
      return spec;
    });
  }
  auto report = session.value()->run(pattern);
  if (!report.ok() || !report.value().outcome.is_ok()) return 0;
  return perfbench::unit_digest(report.value().units);
}

void digest_ignores_uids_and_repeats() {
  const std::uint64_t first = run_digest("alpha", 10.0);
  expect(first != 0, "the digest run completes");
  expect(run_digest("alpha", 10.0) == first,
         "the digest repeats for identical work");
  expect(run_digest("another.name", 10.0) == first,
         "the digest does not depend on uids");
  expect(run_digest("alpha", 11.0) != first,
         "the digest sees a changed timeline");
}

}  // namespace

int main() {
  reducer_subtracts_children();
  nearest_rank_percentiles();
  digest_ignores_uids_and_repeats();
  if (failures == 0) std::cerr << "perfbench self-tests passed\n";
  return failures == 0 ? 0 : 1;
}

// Tests for the observability subsystem (src/obs): recorder
// semantics, metrics registry, Chrome trace-event export, and the
// trace-derived TTC decomposition cross-checked against the post-hoc
// profile on a deterministic sim run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "core/entk.hpp"
#include "core/trace_overheads.hpp"
#include "core/workload_file.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace entk {
namespace {

// ------------------------------------------------------------ recorder

/// Fresh-recorder fixture: the recorder is a process-wide singleton,
/// so every test starts from a cleared, disabled state and leaves it
/// that way.
class TraceRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::TraceRecorder::instance().set_enabled(false);
    obs::TraceRecorder::instance().clear();
  }
  void TearDown() override {
    obs::TraceRecorder::instance().set_enabled(false);
    obs::TraceRecorder::instance().clear();
  }
};

TEST_F(TraceRecorderTest, DisabledRecorderKeepsNothing) {
  auto& recorder = obs::TraceRecorder::instance();
  ASSERT_FALSE(recorder.enabled());
  recorder.record("noop", "test", obs::TraceKind::kInstant);
  EXPECT_EQ(recorder.stats().recorded, 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST_F(TraceRecorderTest, RecordsAndSnapshotsInTimeOrder) {
  auto& recorder = obs::TraceRecorder::instance();
  ManualClock clock;
  obs::ScopedTraceClock scope(clock);
  recorder.set_enabled(true);

  clock.advance_to(1.0);
  recorder.record("first", "test", obs::TraceKind::kSpanBegin);
  clock.advance_to(2.0);
  recorder.record("second", "test", obs::TraceKind::kCounter, 42.0);
  clock.advance_to(3.0);
  recorder.record("third", "test", obs::TraceKind::kSpanEnd);
  recorder.set_enabled(false);

  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "first");
  EXPECT_DOUBLE_EQ(events[0].time, 1.0);
  EXPECT_EQ(events[1].kind, obs::TraceKind::kCounter);
  EXPECT_DOUBLE_EQ(events[1].value, 42.0);
  EXPECT_STREQ(events[2].name, "third");
  const auto stats = recorder.stats();
  EXPECT_EQ(stats.recorded, 3u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.threads, 1u);
}

TEST_F(TraceRecorderTest, RingOverwritesOldestAndCountsDrops) {
  auto& recorder = obs::TraceRecorder::instance();
  recorder.set_capacity_per_thread(1);  // rounds up to one slab (4096)
  const std::size_t capacity = recorder.capacity_per_thread();
  recorder.set_enabled(true);
  const std::size_t total = capacity + 100;
  for (std::size_t i = 0; i < total; ++i) {
    recorder.record("tick", "test", obs::TraceKind::kInstant,
                    static_cast<double>(i));
  }
  recorder.set_enabled(false);

  const auto stats = recorder.stats();
  EXPECT_EQ(stats.recorded, capacity);
  EXPECT_EQ(stats.dropped, 100u);
  // The survivors are exactly the newest `capacity` events.
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), capacity);
  EXPECT_DOUBLE_EQ(events.front().value, 100.0);
  EXPECT_DOUBLE_EQ(events.back().value, static_cast<double>(total - 1));

  // Restore the default capacity for later tests in this process.
  recorder.set_capacity_per_thread(std::size_t{1} << 16);
}

TEST_F(TraceRecorderTest, ClearDropsEverything) {
  auto& recorder = obs::TraceRecorder::instance();
  recorder.set_enabled(true);
  recorder.record("gone", "test", obs::TraceKind::kInstant);
  recorder.clear();
  EXPECT_TRUE(recorder.snapshot().empty());
  recorder.record("kept", "test", obs::TraceKind::kInstant);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "kept");
}

TEST(TraceFlow, IdsAreStableAndNonZero) {
  const auto a = obs::trace_flow_id("unit.0000");
  EXPECT_NE(a, 0u);
  EXPECT_EQ(a, obs::trace_flow_id("unit.0000"));
  EXPECT_NE(a, obs::trace_flow_id("unit.0001"));
  EXPECT_EQ(obs::trace_flow_id(""), obs::trace_flow_id(""));
}

// ------------------------------------------------------------- metrics

TEST(SessionOrdinal, InterningStaysDistinctAndStableOverManyNames) {
  // entk-serve interns one session name per workload it ever ran.
  constexpr std::uint32_t kNames = 10000;
  EXPECT_EQ(obs::session_ordinal(""), 0u);
  EXPECT_EQ(obs::session_label(0), "");
  std::vector<std::uint32_t> ordinals;
  ordinals.reserve(kNames);
  for (std::uint32_t i = 0; i < kNames; ++i) {
    ordinals.push_back(
        obs::session_ordinal("ordinal-probe." + std::to_string(i)));
  }
  std::vector<std::uint32_t> sorted = ordinals;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_GT(sorted.front(), 0u);
  for (std::uint32_t i = 0; i < kNames; ++i) {
    const std::string name = "ordinal-probe." + std::to_string(i);
    ASSERT_EQ(obs::session_ordinal(name), ordinals[i]) << name;
    ASSERT_EQ(obs::session_label(ordinals[i]), name);
  }
  EXPECT_EQ(obs::session_label(sorted.back() + 1000000), "");
}

TEST(SessionOrdinal, ANameGoesWithItsLastUserUnlessRecordingWasOn) {
  const std::string name = "ordinal-release-probe";
  const std::uint32_t first = obs::session_ordinal(name);
  ASSERT_EQ(obs::session_ordinal(name), first);  // a second user
  obs::release_session_ordinal(first);
  EXPECT_EQ(obs::session_label(first), name);  // one user left
  obs::release_session_ordinal(first);
  if (obs::TraceRecorder::instance().ever_enabled()) {
    // Events recorded under the name may still be exported.
    EXPECT_EQ(obs::session_label(first), name);
    EXPECT_EQ(obs::session_ordinal(name), first);
  } else {
    // Nothing was recorded under it: the name goes, and the next new
    // name takes its ordinal.
    EXPECT_EQ(obs::session_label(first), "");
    EXPECT_EQ(obs::session_ordinal("ordinal-release-probe.next"), first);
    EXPECT_EQ(obs::session_label(first), "ordinal-release-probe.next");
  }
}

TEST(Metrics, WellKnownCountersAreSharedProcessWide) {
  auto& metrics = obs::Metrics::instance();
  auto& counter =
      metrics.counter(obs::WellKnownCounter::kUnitsSubmitted);
  const auto before = counter.get();
  counter.add(3);
  EXPECT_EQ(
      metrics.counter(obs::WellKnownCounter::kUnitsSubmitted).get(),
      before + 3);
}

TEST(Metrics, HistogramTracksCountSumMeanAndQuantiles) {
  obs::Histogram histogram;
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.0);
  for (int i = 0; i < 100; ++i) histogram.observe(1.0);
  histogram.observe(100.0);
  EXPECT_EQ(histogram.count(), 101u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 200.0);
  EXPECT_NEAR(histogram.mean(), 200.0 / 101.0, 1e-12);
  // Buckets are [2^k, 2^(k+1)) reporting the exclusive upper bound:
  // 1.0 lands in [1, 2), 100.0 in [64, 128).
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 128.0);
}

TEST(Metrics, ExportsListEveryWellKnownName) {
  auto& metrics = obs::Metrics::instance();
  const auto names = metrics.names();
  const std::string text = metrics.to_text();
  const std::string json = metrics.to_json();
  for (const char* expected :
       {"engine.events_dispatched", "scheduler.cycles", "units.submitted",
        "units.done", "engine.pending_events",
        "unit.execution_seconds", "graph.frontier_batch_size"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected),
              names.end())
        << expected;
    EXPECT_NE(text.find(expected), std::string::npos) << expected;
    EXPECT_NE(json.find('"' + std::string(expected) + '"'),
              std::string::npos)
        << expected;
  }
}

// -------------------------------------------------- chrome trace JSON

/// Minimal recursive-descent JSON validator — enough to prove the
/// exporter emits syntactically-valid JSON without third-party deps.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return at_ == text_.size();
  }

 private:
  bool value() {
    if (at_ >= text_.size()) return false;
    switch (text_[at_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++at_;  // '{'
    skip_ws();
    if (peek() == '}') { ++at_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++at_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++at_; continue; }
      if (peek() == '}') { ++at_; return true; }
      return false;
    }
  }
  bool array() {
    ++at_;  // '['
    skip_ws();
    if (peek() == ']') { ++at_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++at_; continue; }
      if (peek() == ']') { ++at_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++at_;
    while (at_ < text_.size() && text_[at_] != '"') {
      if (text_[at_] == '\\') ++at_;
      ++at_;
    }
    if (at_ >= text_.size()) return false;
    ++at_;
    return true;
  }
  bool number() {
    const std::size_t start = at_;
    if (peek() == '-') ++at_;
    while (at_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[at_])) ||
            text_[at_] == '.' || text_[at_] == 'e' || text_[at_] == 'E' ||
            text_[at_] == '+' || text_[at_] == '-')) {
      ++at_;
    }
    return at_ > start;
  }
  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (text_.compare(at_, n, word) != 0) return false;
    at_ += n;
    return true;
  }
  char peek() const { return at_ < text_.size() ? text_[at_] : '\0'; }
  void skip_ws() {
    while (at_ < text_.size() &&
           (text_[at_] == ' ' || text_[at_] == '\n' ||
            text_[at_] == '\t' || text_[at_] == '\r')) {
      ++at_;
    }
  }

  const std::string& text_;
  std::size_t at_ = 0;
};

TEST(ChromeTrace, HandBuiltEventsExportValidJson) {
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent begin;
  begin.name = "unit.exec";
  begin.category = "unit";
  begin.time = 1.5;
  begin.flow_id = obs::trace_flow_id("unit.0001");
  begin.pilot = 1;
  begin.kind = obs::TraceKind::kSpanBegin;
  obs::TraceEvent end = begin;
  end.time = 2.5;
  end.kind = obs::TraceKind::kSpanEnd;
  obs::TraceEvent counter;
  counter.name = "queue \"depth\"\n";  // must be escaped
  counter.category = "engine";
  counter.time = 2.0;
  counter.value = 17.0;
  counter.kind = obs::TraceKind::kCounter;
  events = {begin, counter, end};

  const std::string json = obs::to_chrome_trace(events);
  JsonParser parser(json);
  EXPECT_TRUE(parser.valid()) << json;
  // Async begin/end pairs carry the flow id; the counter its value.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // The quotes and newline in the counter's name must arrive escaped.
  EXPECT_NE(json.find("queue \\\"depth\\\"\\n"), std::string::npos);
}

#if ENTK_ENABLE_TRACING

TEST(ChromeTrace, SalExampleWorkloadProducesAValidTrace) {
  auto& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);

  auto spec = core::load_workload(std::string(ENTK_EXAMPLES_DIR) +
                                  "/sal.entk");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  auto report = core::run_workload(spec.value(), registry);
  recorder.set_enabled(false);
  ASSERT_TRUE(report.ok()) << report.status().to_string();

  const auto events = recorder.snapshot();
  recorder.clear();
  ASSERT_FALSE(events.empty());

  const std::string json = obs::to_chrome_trace(events);
  JsonParser parser(json);
  EXPECT_TRUE(parser.valid());
  // The schema-level invariants the Perfetto/Chrome loaders rely on.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // Unit lifecycles appear as flow-tagged async spans.
  EXPECT_NE(json.find("\"unit.exec\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
}

TEST(ChromeTrace, AnEndedSessionKeepsItsLabelInTheExportedTrace) {
  auto& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  const std::string name = "ended-session-label";
  {
    auto registry = kernels::KernelRegistry::with_builtin_kernels();
    pilot::SimBackend backend(sim::localhost_profile());
    core::Runtime runtime(backend, registry);
    core::ResourceOptions options;
    options.cores = 4;
    auto session = runtime.create_session({name, options});
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session.value()->allocate().is_ok());
    core::EnsembleOfPipelines pattern(2, 1);
    pattern.set_stage(1, [](const core::StageContext&) {
      core::TaskSpec spec;
      spec.kernel = "misc.sleep";
      spec.args.set("duration", 1.0);
      return spec;
    });
    auto report = session.value()->run(pattern);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report.value().outcome.is_ok());
    ASSERT_TRUE(session.value()->deallocate().is_ok());
  }  // the session, its unit manager and its pilot are gone
  recorder.set_enabled(false);
  const auto events = recorder.snapshot();
  recorder.clear();

  const std::string json = obs::to_chrome_trace(events);
  JsonParser parser(json);
  EXPECT_TRUE(parser.valid());
  EXPECT_NE(json.find("\"args\":{\"session\":\"" + name + "\"}"),
            std::string::npos);
}

// ---------------------------------------------- trace-derived profile

TEST(TraceReduce, MatchesPostHocProfileOnDeterministicSimRun) {
  auto& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.set_capacity_per_thread(std::size_t{1} << 18);
  recorder.set_enabled(true);

  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(sim::comet_profile());
  core::ResourceOptions options;
  options.cores = 64;
  options.runtime = 1e6;
  core::ResourceHandle handle(backend, registry, options);
  ASSERT_TRUE(handle.allocate().is_ok());

  core::SimulationAnalysisLoop pattern(3, 16, 4);
  pattern.set_simulation([](const core::StageContext& context) {
    core::TaskSpec spec;
    spec.kernel = "misc.sleep";
    spec.args.set("duration",
                  5.0 + 0.25 * static_cast<double>(context.instance));
    return spec;
  });
  pattern.set_analysis([](const core::StageContext&) {
    core::TaskSpec spec;
    spec.kernel = "misc.sleep";
    spec.args.set("duration", 2.0);
    return spec;
  });
  auto report = handle.run(pattern);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().outcome.is_ok());
  // Core overhead is modelled per-run (init + allocate + deallocate),
  // so the trace only carries all of it once the handle is released.
  ASSERT_TRUE(handle.deallocate().is_ok());
  recorder.set_enabled(false);

  const auto events = recorder.snapshot();
  recorder.clear();
  auto reduced = core::reduce_trace_overheads(events);
  ASSERT_TRUE(reduced.ok()) << reduced.status().to_string();

  const core::OverheadProfile& expected = report.value().overheads;
  const core::OverheadProfile& derived = reduced.value();
  EXPECT_EQ(derived.n_units, expected.n_units);
  EXPECT_NEAR(derived.ttc, expected.ttc, 1e-6);
  EXPECT_NEAR(derived.core_overhead, expected.core_overhead, 1e-6);
  EXPECT_NEAR(derived.pattern_overhead, expected.pattern_overhead, 1e-6);
  EXPECT_NEAR(derived.execution_time, expected.execution_time, 1e-6);
  EXPECT_NEAR(derived.runtime_overhead, expected.runtime_overhead, 1e-6);
  EXPECT_NEAR(derived.pilot_startup, expected.pilot_startup, 1e-6);
  EXPECT_NEAR(derived.total_unit_execution,
              expected.total_unit_execution, 1e-6);
  EXPECT_NEAR(derived.mean_unit_execution, expected.mean_unit_execution,
              1e-6);
}

TEST(TraceReduce, FailsWithoutARunSpan) {
  std::vector<obs::TraceEvent> events;
  obs::TraceEvent counter;
  counter.name = "overhead.core";
  counter.category = "core";
  counter.value = 2.9;
  counter.kind = obs::TraceKind::kCounter;
  events.push_back(counter);
  auto reduced = core::reduce_trace_overheads(events);
  EXPECT_FALSE(reduced.ok());
}

#endif  // ENTK_ENABLE_TRACING

}  // namespace
}  // namespace entk

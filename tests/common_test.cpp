// Unit tests for the common utilities.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <thread>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/task_fn.hpp"
#include "common/uid.hpp"

namespace entk {
namespace {

// ------------------------------------------------------------------ status

TEST(Status, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(status.code(), Errc::kOk);
  EXPECT_EQ(status.to_string(), "ok");
}

TEST(Status, CarriesCodeAndMessage) {
  const Status status = make_error(Errc::kNotFound, "nothing here");
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), Errc::kNotFound);
  EXPECT_EQ(status.to_string(), "not_found: nothing here");
}

TEST(Status, EveryCodeHasAName) {
  for (int code = 0; code <= static_cast<int>(Errc::kIoError); ++code) {
    EXPECT_STRNE(errc_name(static_cast<Errc>(code)), "unknown");
  }
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> value(42);
  EXPECT_TRUE(value.ok());
  EXPECT_EQ(value.value(), 42);
  EXPECT_TRUE(value.status().is_ok());

  Result<int> error(make_error(Errc::kInternal, "boom"));
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), Errc::kInternal);
  EXPECT_THROW(error.value(), std::runtime_error);
}

TEST(Result, TakeMovesTheValue) {
  Result<std::string> result(std::string("payload"));
  const std::string taken = result.take();
  EXPECT_EQ(taken, "payload");
}

TEST(Result, ConstructingFromOkStatusThrows) {
  EXPECT_THROW(Result<int>(Status::ok()), std::logic_error);
}

TEST(Check, ThrowsWithContext) {
  try {
    ENTK_CHECK(false, "context message");
    FAIL() << "ENTK_CHECK did not throw";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("context message"),
              std::string::npos);
  }
}

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexUnbiasedOverSmallRange) {
  Xoshiro256 rng(11);
  std::vector<int> counts(5, 0);
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(5)];
  for (const int count : counts) {
    EXPECT_NEAR(count, draws / 5, draws / 50);  // within 10%
  }
}

TEST(Rng, NormalHasExpectedMoments) {
  Xoshiro256 rng(13);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialHasExpectedMean) {
  Xoshiro256 rng(17);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(3.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(Rng, SplitProducesIndependentStream) {
  Xoshiro256 parent(23);
  Xoshiro256 child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next() == child.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

// ------------------------------------------------------------------- stats

TEST(RunningStats, MatchesClosedForm) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(x);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsPooledStats) {
  RunningStats a, b, pooled;
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(2.0, 3.0);
    (i % 2 ? a : b).add(x);
    pooled.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  EXPECT_NEAR(a.mean(), pooled.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), pooled.variance(), 1e-9);
}

TEST(RunningStats, ResetClearsEverything) {
  RunningStats stats;
  stats.add(5.0);
  stats.add(7.0);
  stats.reset();
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 0.0);
  stats.add(3.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.min(), 3.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(values, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(median(values), 2.5);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 30.0), 7.0);
}

TEST(LinearFit, RecoversPlantedLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

// ----------------------------------------------------------------- strings

TEST(Strings, SplitJoinTrim) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(join({"x", "y", "z"}, "--"), "x--y--z");
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_TRUE(starts_with("misc.mkfile", "misc."));
  EXPECT_FALSE(starts_with("md", "misc."));
  EXPECT_TRUE(ends_with("traj.dat", ".dat"));
}

TEST(Strings, FormatSeconds) {
  EXPECT_EQ(format_seconds(7200.0), "2.00 h");
  EXPECT_EQ(format_seconds(90.0), "1.50 min");
  EXPECT_EQ(format_seconds(2.5), "2.50 s");
  EXPECT_EQ(format_seconds(0.0025), "2.50 ms");
  EXPECT_EQ(format_seconds(2.5e-6), "2.50 us");
  EXPECT_EQ(format_seconds(0.0), "0 s");
}

// The text of a formatted number ends up in unit arguments, snapshot
// bytes and uid strings (which the pinned digests hash), so the
// to_chars formatting must match printf byte for byte.

/// printf's "%.*f" through the historical 64-byte buffer.
std::string printf_double(double value, int precision) {
  char buffer[64];
  const int length =
      std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  EXPECT_GT(length, 0);  // the full length; truncation is the point
  return buffer;
}

/// printf's "%f" at full length (what std::to_string(double) does).
std::string printf_fixed(double value) {
  const int length = std::snprintf(nullptr, 0, "%f", value);
  std::string text(static_cast<std::size_t>(length) + 1, '\0');
  EXPECT_EQ(std::snprintf(text.data(), text.size(), "%f", value), length);
  text.resize(static_cast<std::size_t>(length));
  return text;
}

std::vector<double> formatting_probes() {
  std::vector<double> probes = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      2.5,
      0.125,
      1e-7,
      30.0,
      0.005,
      123456789.123456789,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  // 1e45..1e300: texts longer than the 63 bytes format_double keeps.
  for (int exponent = 45; exponent <= 300; exponent += 5) {
    probes.push_back(std::pow(10.0, exponent));
    probes.push_back(-std::pow(10.0, exponent) * 1.2345);
  }
  Xoshiro256 rng(2024);
  for (int i = 0; i < 2000; ++i) {
    // Random bit patterns cover every exponent; scaled uniforms cover
    // the everyday range of durations and sizes.
    const std::uint64_t bits = rng.next();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    probes.push_back(value);
    probes.push_back((rng.uniform() - 0.5) * std::pow(10.0, i % 24 - 8));
  }
  return probes;
}

TEST(Strings, FormatDoubleMatchesPrintfByteForByte) {
  for (const double value : formatting_probes()) {
    for (int precision = 0; precision <= 17; ++precision) {
      ASSERT_EQ(format_double(value, precision),
                printf_double(value, precision))
          << "precision " << precision;
    }
  }
  // Negative precision means printf's default of 6; a huge one still
  // keeps only the first 63 bytes.
  EXPECT_EQ(format_double(1.5, -1), printf_double(1.5, -1));
  EXPECT_EQ(format_double(1.0 / 3.0, 2000), printf_double(1.0 / 3.0, 2000));
  EXPECT_EQ(format_double(1e300, 17).size(), 63u);
}

TEST(Strings, FormatFixedMatchesPrintfByteForByte) {
  for (const double value : formatting_probes()) {
    ASSERT_EQ(format_fixed(value), printf_fixed(value));
  }
  EXPECT_EQ(format_fixed(30.0), "30.000000");
  EXPECT_EQ(format_fixed(1e300).size(), 301u + 7u);  // never truncated
}

// ------------------------------------------------------------------ config

TEST(Config, TypedRoundTrips) {
  Config config;
  config.set("name", "alanine");
  config.set("steps", std::int64_t{3000});
  config.set("dt", 0.005);
  config.set("mpi", true);
  EXPECT_EQ(config.get_string("name").value(), "alanine");
  EXPECT_EQ(config.get_int("steps").value(), 3000);
  EXPECT_DOUBLE_EQ(config.get_double("dt").value(), 0.005);
  EXPECT_TRUE(config.get_bool("mpi").value());
  EXPECT_EQ(config.size(), 4u);
}

TEST(Config, MissingAndMalformedKeys) {
  Config config;
  config.set("text", "not-a-number");
  EXPECT_EQ(config.get_string("absent").status().code(), Errc::kNotFound);
  EXPECT_EQ(config.get_int("text").status().code(), Errc::kInvalidArgument);
  EXPECT_EQ(config.get_double("text").status().code(),
            Errc::kInvalidArgument);
  EXPECT_EQ(config.get_bool("text").status().code(), Errc::kInvalidArgument);
  EXPECT_EQ(config.get_int_or("absent", 9).value(), 9);
  EXPECT_EQ(config.get_string_or("absent", "d"), "d");
  // A malformed value under a defaulted getter is an error, not a throw.
  EXPECT_EQ(config.get_int_or("text", 9).status().code(),
            Errc::kInvalidArgument);
  EXPECT_EQ(config.get_double_or("text", 1.0).status().code(),
            Errc::kInvalidArgument);
  EXPECT_EQ(config.get_bool_or("text", true).status().code(),
            Errc::kInvalidArgument);
}

TEST(Config, NumbersParseWithTheCLibrarysRules) {
  // What strtod/strtoll accept over the whole stored text, as before
  // the getters stopped copying it.
  const auto strtod_accepts = [](const std::string& text) {
    char* end = nullptr;
    (void)std::strtod(text.c_str(), &end);
    return end != text.c_str() && *end == '\0';
  };
  const auto strtoll_accepts = [](const std::string& text) {
    char* end = nullptr;
    (void)std::strtoll(text.c_str(), &end, 10);
    return end != text.c_str() && *end == '\0';
  };
  const std::vector<std::string> texts = {
      "1.5", " 1.5", "\t2", "+2", "-3.25", "0x10", "0X1p4", "inf", "-INF",
      "infinity", "nan", "1e3", "1.5x", "1.5 ", "", " ", "-", "+", "x1",
      "12abc", "007", "9223372036854775807", "1,5", ".5", "5."};
  for (const std::string& text : texts) {
    Config config;
    config.set("key", text);
    const auto as_double = config.get_double("key");
    EXPECT_EQ(as_double.ok(), strtod_accepts(text)) << "'" << text << "'";
    if (as_double.ok() && !std::isnan(as_double.value())) {
      EXPECT_EQ(as_double.value(), std::strtod(text.c_str(), nullptr));
    }
    EXPECT_EQ(config.get_double_or("key", 7.0).ok(), as_double.ok());
    const auto as_int = config.get_int("key");
    EXPECT_EQ(as_int.ok(), strtoll_accepts(text)) << "'" << text << "'";
    if (as_int.ok()) {
      EXPECT_EQ(as_int.value(), std::strtoll(text.c_str(), nullptr, 10));
    }
    EXPECT_EQ(config.get_int_or("key", 7).ok(), as_int.ok());
    if (!as_double.ok()) {
      EXPECT_EQ(as_double.status().message(),
                "config key 'key' is not a number: " + text);
    }
  }
  // Spot checks of the rules themselves.
  Config config;
  config.set("hex", "0x10");
  config.set("space", " 4");
  config.set("junk", "4 ");
  EXPECT_EQ(config.get_double("hex").value(), 16.0);
  EXPECT_EQ(config.get_int("hex").status().code(), Errc::kInvalidArgument);
  EXPECT_EQ(config.get_int("space").value(), 4);
  EXPECT_FALSE(config.get_double("junk").ok());
  // set(double) writes 17 fraction digits, which read back exactly.
  config.set("third", 1.0 / 3.0);
  EXPECT_EQ(config.get_string("third").value(), "0.33333333333333331");
  EXPECT_EQ(config.get_double("third").value(), 0.33333333333333331);
}

TEST(Config, FromPairsAndMerge) {
  auto parsed = Config::from_pairs({"a=1", "b = two ", "a=3"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().get_int("a").value(), 3);
  EXPECT_EQ(parsed.value().get_string("b").value(), "two");
  EXPECT_EQ(Config::from_pairs({"oops"}).status().code(),
            Errc::kInvalidArgument);

  Config base;
  base.set("x", 1);
  base.set("y", 2);
  Config overlay;
  overlay.set("y", 20);
  overlay.set("z", 30);
  const Config merged = base.merged_with(overlay);
  EXPECT_EQ(merged.get_int("x").value(), 1);
  EXPECT_EQ(merged.get_int("y").value(), 20);
  EXPECT_EQ(merged.get_int("z").value(), 30);
}

// --------------------------------------------------------------------- uid

TEST(Uid, MonotonePerPrefix) {
  const std::string first = next_uid("testprefix");
  const std::string second = next_uid("testprefix");
  const std::string other = next_uid("otherprefix");
  EXPECT_NE(first, second);
  EXPECT_TRUE(starts_with(first, "testprefix."));
  EXPECT_TRUE(starts_with(other, "otherprefix."));
  EXPECT_LT(first, second);  // zero-padded counters sort
}

TEST(Uid, SuffixMatchesPrintfAtTheCounterEdges) {
  const auto reference = [](std::uint64_t value) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".%06llu",
                  static_cast<unsigned long long>(value));
    return std::string("edgeprefix") + suffix;
  };
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{7}, std::uint64_t{999999},
        std::uint64_t{1000000}, std::uint64_t{123456789012},
        std::numeric_limits<std::uint64_t>::max()}) {
    restore_uid_counters({{"edgeprefix", value}});
    EXPECT_EQ(next_uid("edgeprefix"), reference(value));
    restore_uid_counters({{"edgeprefix", value}});
    EXPECT_EQ(UidSource("edgeprefix").next(), reference(value));
  }
  EXPECT_EQ(reference(std::numeric_limits<std::uint64_t>::max()),
            "edgeprefix.18446744073709551615");
}

TEST(Uid, ThreadSafeUniqueness) {
  std::vector<std::thread> threads;
  std::vector<std::vector<std::string>> uids(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&uids, t] {
      for (int i = 0; i < 500; ++i) {
        uids[t].push_back(next_uid("concurrent"));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::set<std::string> unique;
  for (const auto& batch : uids) unique.insert(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), 2000u);
}

// ------------------------------------------------------------------- table

TEST(Table, RendersAlignedColumnsAndCsv) {
  Table table({"cores", "ttc"});
  table.add_row(std::vector<std::string>{"24", "10.5"});
  table.add_numeric_row({192.0, 3.25}, 2);
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("| cores"), std::string::npos);
  EXPECT_NE(rendered.find("| ttc"), std::string::npos);
  EXPECT_NE(rendered.find("192.00"), std::string::npos);
  EXPECT_EQ(table.to_csv(), "cores,ttc\n24,10.5\n192.00,3.25\n");
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, RejectsBadRows) {
  Table table({"one", "two"});
  EXPECT_THROW(table.add_row(std::vector<std::string>{"only-one"}),
               std::logic_error);
}

// ---------------------------------------------------------------- TaskFn

TEST(TaskFn, EmptyByDefaultAndAfterMoveOut) {
  TaskFn task;
  EXPECT_FALSE(static_cast<bool>(task));
  std::atomic<int> runs{0};
  TaskFn filled([&runs] { runs.fetch_add(1); });
  EXPECT_TRUE(static_cast<bool>(filled));
  TaskFn taken = std::move(filled);
  EXPECT_FALSE(static_cast<bool>(filled));  // NOLINT(bugprone-use-after-move)
  taken();
  EXPECT_EQ(runs.load(), 1);
}

TEST(TaskFn, SmallCallablesAvoidTheHeap) {
  // A capture that fits the inline buffer must be stored inline; the
  // trait is what sim::Engine relies on for its zero-allocation
  // schedule path.
  int a = 1, b = 2, c = 3;
  auto small = [a, b, c]() { (void)(a + b + c); };
  static_assert(TaskFn::stores_inline<decltype(small)>,
                "three ints must fit the inline buffer");
  struct Big {
    unsigned char bytes[128];
    void operator()() const {}
  };
  static_assert(!TaskFn::stores_inline<Big>,
                "128 bytes must spill to the heap");
  TaskFn inline_task(small);
  TaskFn heap_task(Big{});
  inline_task();
  heap_task();
}

TEST(TaskFn, MoveOnlyCallablesWork) {
  auto value = std::make_unique<int>(41);
  std::atomic<int> seen{0};
  TaskFn task([moved = std::move(value), &seen] { seen = *moved + 1; });
  TaskFn hopped = std::move(task);
  hopped();
  EXPECT_EQ(seen.load(), 42);
}

TEST(TaskFn, DestroysCaptureWithoutInvocation) {
  // A task dropped on the floor (e.g. a cancelled engine event) must
  // still release what it captured.
  auto guard = std::make_shared<int>(7);
  std::weak_ptr<int> watch = guard;
  {
    TaskFn task([held = std::move(guard)] { (void)*held; });
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace entk

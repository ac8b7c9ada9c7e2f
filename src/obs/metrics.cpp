#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/trace.hpp"

namespace entk::obs {
namespace {

// clang-format off
#define ENTK_OBS_NAME(id, name) name,
constexpr const char* kCounterNames[] = {
    ENTK_WELL_KNOWN_COUNTERS(ENTK_OBS_NAME)};
constexpr const char* kGaugeNames[] = {
    ENTK_WELL_KNOWN_GAUGES(ENTK_OBS_NAME)};
constexpr const char* kHistogramNames[] = {
    ENTK_WELL_KNOWN_HISTOGRAMS(ENTK_OBS_NAME)};
#undef ENTK_OBS_NAME
// clang-format on

std::size_t bucket_index(double value) {
  if (!(value > 0.0)) return 0;  // zero, negatives, NaN
  const int exponent = std::ilogb(value);
  return static_cast<std::size_t>(
      std::clamp(exponent + 32, 0,
                 static_cast<int>(Histogram::kBuckets) - 1));
}

}  // namespace

void Histogram::observe(double value) {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::bucket_upper_bound(std::size_t i) {
  // Bucket i holds values with ilogb == i - 32, i.e. the half-open
  // range [2^(i-32), 2^(i-31)).
  return std::ldexp(1.0, static_cast<int>(i) - 31);
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += bucket(i);
    if (seen >= rank && seen > 0) return bucket_upper_bound(i);
  }
  return bucket_upper_bound(kBuckets - 1);
}

void Histogram::reset() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Metrics& Metrics::instance() {
  static Metrics* const metrics = new Metrics();
  return *metrics;
}

std::vector<std::string> Metrics::names() const {
  std::vector<std::string> names;
  for (const char* name : kCounterNames) names.emplace_back(name);
  for (const char* name : kGaugeNames) names.emplace_back(name);
  for (const char* name : kHistogramNames) names.emplace_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

std::string Metrics::to_text() const {
  std::ostringstream out;
  std::size_t i = 0;
  for (const auto& counter : counters_) {
    out << kCounterNames[i++] << " " << counter.get() << "\n";
  }
  i = 0;
  for (const auto& gauge : gauges_) {
    out << kGaugeNames[i++] << " " << gauge.get() << "\n";
  }
  i = 0;
  for (const auto& histogram : histograms_) {
    const char* name = kHistogramNames[i++];
    out << name << ".count " << histogram.count() << "\n"
        << name << ".sum " << histogram.sum() << "\n"
        << name << ".mean " << histogram.mean() << "\n"
        << name << ".p50 " << histogram.quantile(0.5) << "\n"
        << name << ".p99 " << histogram.quantile(0.99) << "\n";
  }
  return out.str();
}

std::string Metrics::to_json() const {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  std::size_t i = 0;
  const char* separator = "";
  for (const auto& counter : counters_) {
    out << separator << "\n    \"" << kCounterNames[i++] << "\": "
        << counter.get();
    separator = ",";
  }
  out << "\n  },\n  \"gauges\": {";
  i = 0;
  separator = "";
  for (const auto& gauge : gauges_) {
    out << separator << "\n    \"" << kGaugeNames[i++] << "\": "
        << gauge.get();
    separator = ",";
  }
  out << "\n  },\n  \"histograms\": {";
  i = 0;
  separator = "";
  for (const auto& histogram : histograms_) {
    out << separator << "\n    \"" << kHistogramNames[i++] << "\": {"
        << "\"count\": " << histogram.count()
        << ", \"sum\": " << histogram.sum()
        << ", \"mean\": " << histogram.mean()
        << ", \"p50\": " << histogram.quantile(0.5)
        << ", \"p99\": " << histogram.quantile(0.99) << "}";
    separator = ",";
  }
  out << "\n  }\n}\n";
  return out.str();
}

void Metrics::reset() {
  for (auto& counter : counters_) counter.reset();
  for (auto& gauge : gauges_) gauge.reset();
  for (auto& histogram : histograms_) histogram.reset();
}

bool tracing_compiled_in() { return ENTK_ENABLE_TRACING != 0; }

}  // namespace entk::obs

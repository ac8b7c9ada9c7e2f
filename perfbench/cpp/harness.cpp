#include "harness.hpp"

#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>

// --- allocation counter -----------------------------------------------
//
// Replacing the global operator new lets the traced run count the
// allocations each phase makes. The count is per thread, so it is exact
// for the single-threaded batch workloads. The default array and
// nothrow forms forward to this one.

namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t thread_allocs() { return t_allocs; }

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// --- statistics ---------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Percentile nearest_rank(std::vector<double> values, double p) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(n, static_cast<std::size_t>(rank)) - 1;
  const auto above =
      std::upper_bound(values.begin(), values.end(), values[index]);
  return {values[index], n, static_cast<std::size_t>(values.end() - above)};
}

// --- digest -------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

namespace {
std::uint64_t mix_double(std::uint64_t hash, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return fnv1a(hash, &bits, sizeof(bits));
}
}  // namespace

std::uint64_t unit_digest(
    const std::vector<entk::pilot::ComputeUnitPtr>& units, double cut) {
  std::uint64_t hash = kFnvOffset;
  for (const auto& unit : units) {
    if (cut >= 0.0 && unit->finished_at() <= cut) continue;
    const auto state = static_cast<std::int32_t>(unit->state());
    hash = fnv1a(hash, &state, sizeof(state));
    hash = mix_double(hash, unit->submitted_at());
    hash = mix_double(hash, unit->exec_started_at());
    hash = mix_double(hash, unit->exec_stopped_at());
    hash = mix_double(hash, unit->finished_at());
  }
  return hash;
}

// --- spans --------------------------------------------------------------

int SpanRecorder::open(std::string name, int parent,
                       std::uint64_t workload) {
  return add(std::move(name), now_s(), -1.0, parent, workload);
}

void SpanRecorder::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_s();
}

int SpanRecorder::add(std::string name, double start, double end, int parent,
                      std::uint64_t workload) {
  spans_.push_back({std::move(name), start, end, parent, workload});
  return static_cast<int>(spans_.size()) - 1;
}

int open_span(SpanRecorder* spans, std::string name, int parent) {
  return spans != nullptr ? spans->open(std::move(name), parent) : -1;
}

void close_span(SpanRecorder* spans, int id) {
  if (spans != nullptr && id >= 0) spans->close(id);
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    children[static_cast<std::size_t>(span.parent)].emplace_back(span.start,
                                                                 span.end);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = span.start;  // end of the covered prefix so far
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, span.end);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = (span.end - span.start) - covered;
  }
  return self;
}

double span_coverage(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  double total = 0.0;
  double uncovered = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != -1) continue;
    total += spans[i].end - spans[i].start;
    uncovered += self[i];
  }
  return total > 0.0 ? 1.0 - uncovered / total : 0.0;
}

namespace {
std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}
}  // namespace

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  double origin = spans.empty() ? 0.0 : spans.front().start;
  for (const Span& span : spans) origin = std::min(origin, span.start);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    // Serve request spans get their own lane so they do not nest under
    // the repetition that happens to be open on the generator thread.
    const int tid = span.workload != 0 ? 2 : 1;
    out << "{\"name\":\"" << json_escape(span.name) << "\",\"cat\":\""
        << json_escape(layer_of(span.name))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
        << ",\"ts\":" << number(1e6 * (span.start - origin))
        << ",\"dur\":" << number(1e6 * (span.end - span.start))
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent;
    if (span.workload != 0) out << ",\"workload\":" << span.workload;
    out << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out.flush());
}

// --- result -------------------------------------------------------------

void Outcome::fail(const std::string& what) {
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
}

std::string result_json(const Outcome& outcome) {
  std::ostringstream out;
  out << "{\"correct\": " << (outcome.correct ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : outcome.metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << number(metric.first) << ", \"unit\": \"" << metric.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench

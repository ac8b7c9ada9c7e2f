#include "common/uid.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <unordered_map>
#include <utility>

#include "common/mutex.hpp"

namespace entk {

namespace detail {
struct PrefixCounter {
  std::atomic<std::uint64_t> next{0};
  // Guarded by the writer lock:
  /// Set once next_uid() or a process handle draws from it: it then
  /// lives as long as the process.
  bool for_process = false;
  /// UidSource handles on it.
  std::size_t handles = 0;
};
}  // namespace detail

namespace {

SharedMutex g_mutex{LockRank::kUidRegistry};

// Counters live in the map's nodes, which never move, and are erased
// only under the writer lock, when the last handle on a counter no
// process user drew from goes; so a handle's PrefixCounter* stays valid
// for as long as the handle. reset_uid_counters_for_testing zeroes them
// in place instead of clearing the map. Leaked deliberately
// (function-local static with no destructor ordering hazards at exit).
using CounterMap = std::unordered_map<std::string, detail::PrefixCounter>;

CounterMap& counters() ENTK_REQUIRES_SHARED(g_mutex) {
  static CounterMap* instance = new CounterMap();
  return *instance;
}

detail::PrefixCounter& counter_locked(const std::string& prefix)
    ENTK_REQUIRES(g_mutex) {
  return counters()[prefix];
}

/// "<prefix>.<value>", the value zero-padded to at least six digits
/// (printf's ".%06llu").
std::string format_uid(const std::string& prefix, std::uint64_t value) {
  char digits[20];  // 2^64 - 1 has 20 digits
  const auto written =
      std::to_chars(digits, digits + sizeof(digits), value);
  const auto length = static_cast<std::size_t>(written.ptr - digits);
  const std::size_t padding = length < 6 ? 6 - length : 0;
  std::string uid;
  uid.reserve(prefix.size() + 1 + padding + length);
  uid += prefix;
  uid += '.';
  uid.append(padding, '0');
  uid.append(digits, length);
  return uid;
}

}  // namespace

std::string next_uid(const std::string& prefix) {
  std::uint64_t value = 0;
  {
    SharedMutexLock lock(g_mutex);
    detail::PrefixCounter& counter = counter_locked(prefix);
    counter.for_process = true;
    value = counter.next.fetch_add(1, std::memory_order_relaxed);
  }
  return format_uid(prefix, value);
}

UidSource::UidSource(std::string prefix) : UidSource(std::move(prefix), true) {}

UidSource UidSource::session_family(const std::string& session,
                                    const char* kind) {
  if (session.empty()) return UidSource(kind, true);
  return UidSource(session + "." + kind, false);
}

UidSource::UidSource(std::string prefix, bool for_process)
    : prefix_(std::move(prefix)) {
  SharedMutexLock lock(g_mutex);
  detail::PrefixCounter& counter = counter_locked(prefix_);
  ++counter.handles;
  counter.for_process |= for_process;
  counter_ = &counter;
}

UidSource::~UidSource() {
  SharedMutexLock lock(g_mutex);
  if (--counter_->handles > 0 || counter_->for_process) return;
  counters().erase(prefix_);
}

std::string UidSource::next() const {
  return format_uid(
      prefix_, counter_->next.fetch_add(1, std::memory_order_relaxed));
}

void reset_uid_counters_for_testing() {
  SharedMutexLock lock(g_mutex);
  for (auto& [prefix, counter] : counters()) {
    counter.next.store(0, std::memory_order_relaxed);
  }
}

void reset_uid_counters_with_prefix(const std::string& family) {
  const std::string dotted = family + ".";
  SharedMutexLock lock(g_mutex);
  for (auto& [prefix, counter] : counters()) {
    if (prefix != family && prefix.compare(0, dotted.size(), dotted) != 0) {
      continue;
    }
    counter.next.store(0, std::memory_order_relaxed);
  }
}

std::vector<std::pair<std::string, std::uint64_t>> snapshot_uid_counters() {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  {
    SharedReaderLock lock(g_mutex);
    out.reserve(counters().size());
    for (const auto& [prefix, counter] : counters()) {
      out.emplace_back(prefix, counter.next.load(std::memory_order_relaxed));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void restore_uid_counters(
    const std::vector<std::pair<std::string, std::uint64_t>>& snapshot) {
  SharedMutexLock lock(g_mutex);
  for (const auto& [prefix, value] : snapshot) {
    counter_locked(prefix).next.store(value, std::memory_order_relaxed);
  }
}

}  // namespace entk

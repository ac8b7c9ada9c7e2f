// Low-overhead trace recorder: spans, instants, counters.
//
// The hot path (record()) touches only a per-thread slab ring buffer
// and relaxed atomics -- no lock is ever taken while recording. The
// entk::Mutex guards thread registration and flush/snapshot only.
// Timestamps flow through an entk::Clock, so the same instrumentation
// yields virtual seconds on the simulated backend and wall seconds on
// the local backend (install the backend clock with ScopedTraceClock).
//
// Use the ENTK_TRACE_* macros, never record() directly: they compile
// to `((void)0)` when the build sets ENTK_ENABLE_TRACING=0, keeping
// the runtime hot paths bit-identical to an uninstrumented build.
// See docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"

#ifndef ENTK_ENABLE_TRACING
#define ENTK_ENABLE_TRACING 1
#endif

namespace entk::obs {

enum class TraceKind : std::uint8_t {
  kSpanBegin,
  kSpanEnd,
  kInstant,
  kCounter,
};

/// One recorded event. `name` and `category` must be string literals
/// (or otherwise outlive the recorder): the hot path stores the
/// pointer, never copies.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  TimePoint time = 0.0;
  double value = 0.0;        ///< Counter value; 0 for spans/instants.
  std::uint64_t flow_id = 0; ///< Unit identity (trace_flow_id); 0=none.
  std::uint32_t thread = 0;  ///< Logical thread (registration order).
  std::uint32_t pilot = 0;   ///< Pilot ordinal; 0 = client/none.
  std::uint32_t session = 0; ///< Session ordinal; 0 = unnamed/none.
  TraceKind kind = TraceKind::kInstant;
};

/// Stable 64-bit identity for a unit uid (FNV-1a). Used to stitch the
/// events of one unit into a flow across threads and pilots.
std::uint64_t trace_flow_id(std::string_view uid);

/// Process-wide 1-based ordinal for pilot agents; ordinal 0 is the
/// client. The Chrome exporter maps ordinals to trace pids.
std::uint32_t next_pilot_ordinal();

/// Interns a session name and returns its process-wide 1-based trace
/// ordinal; the same name maps to the same ordinal while it is
/// interned. Each call counts one user of the name, which
/// release_session_ordinal() gives back. The empty name (legacy
/// single-session runs) maps to ordinal 0.
std::uint32_t session_ordinal(std::string_view name);

/// Gives back one user of `ordinal`. A name whose last user goes is
/// dropped, and its ordinal reused, unless the recorder was ever
/// enabled in this process: recorded events may still be exported
/// under the name. Ordinal 0 is ignored.
void release_session_ordinal(std::uint32_t ordinal);

/// Name interned for `ordinal`; "" for ordinal 0 or unknown ordinals.
std::string session_label(std::uint32_t ordinal);

/// Process-wide trace recorder. Leaky singleton: never destructed, so
/// worker threads may record during static teardown without risk.
class TraceRecorder {
 public:
  struct Stats {
    std::uint64_t recorded = 0;  ///< Events currently held (post-drop).
    std::uint64_t dropped = 0;   ///< Ring-overwritten events.
    std::size_t threads = 0;     ///< Threads that recorded anything.
  };

  static TraceRecorder& instance();

  /// Master switch; off by default. Checked with a relaxed load on
  /// every record, so toggling costs nothing on the hot path.
  void set_enabled(bool on) {
    if (on) ever_enabled_.store(true, std::memory_order_relaxed);
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Whether recording was ever switched on in this process.
  bool ever_enabled() const {
    return ever_enabled_.load(std::memory_order_relaxed);
  }

  /// Installs timestamp source `clock` (nullptr = the built-in wall
  /// clock) and returns the previous one, so nested installations (e.g.
  /// ResourceHandle::run inside a traced driver) can restore rather than
  /// clobber. The pointee must outlive the installation (see
  /// ScopedTraceClock).
  const Clock* exchange_clock(const Clock* clock) {
    return clock_.exchange(clock, std::memory_order_acq_rel);
  }

  /// Ring capacity (events) for threads registered from now on;
  /// existing buffers are retired so every thread re-registers at the
  /// new size. Rounded up to a whole number of slabs.
  void set_capacity_per_thread(std::size_t events)
      ENTK_EXCLUDES(mutex_);
  std::size_t capacity_per_thread() const ENTK_EXCLUDES(mutex_);

  /// Hot path: append one event to this thread's ring. Lock-free once
  /// the thread is registered; oldest events are overwritten (and
  /// counted as dropped) when the ring wraps.
  void record(const char* name, const char* category, TraceKind kind,
              double value = 0.0, std::uint64_t flow_id = 0,
              std::uint32_t pilot = 0, std::uint32_t session = 0) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    record_always(name, category, kind, value, flow_id, pilot, session);
  }

  Stats stats() const ENTK_EXCLUDES(mutex_);

  /// All retained events, merged across threads and sorted by time
  /// (stable: intra-thread order is preserved between equal stamps).
  /// Quiescent-snapshot semantics: call only when no thread is
  /// actively recording (after a run), or freshly-written events may
  /// be missed or torn.
  std::vector<TraceEvent> snapshot() const ENTK_EXCLUDES(mutex_);

  /// Drops all retained events and resets per-thread rings. Buffers
  /// are retired, never freed: a thread racing a clear keeps writing
  /// into valid (discarded) memory and re-registers on its next event.
  void clear() ENTK_EXCLUDES(mutex_);

 private:
  struct ThreadBuffer;

  TraceRecorder();
  ~TraceRecorder() = delete;  // leaky by design

  void record_always(const char* name, const char* category,
                     TraceKind kind, double value, std::uint64_t flow_id,
                     std::uint32_t pilot, std::uint32_t session);
  ThreadBuffer& local_buffer();
  ThreadBuffer& register_thread() ENTK_EXCLUDES(mutex_);

  std::atomic<bool> enabled_{false};
  std::atomic<bool> ever_enabled_{false};
  std::atomic<const Clock*> clock_{nullptr};
  WallClock fallback_clock_;
  /// Bumped by clear()/set_capacity_per_thread(); threads re-register
  /// when their cached buffer generation is stale.
  std::atomic<std::uint64_t> generation_{1};

  mutable Mutex mutex_{LockRank::kTraceRecorder};
  std::size_t capacity_ ENTK_GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      ENTK_GUARDED_BY(mutex_);
  /// Buffers from previous generations; kept allocated forever so
  /// stale thread-local pointers never dangle.
  std::vector<std::unique_ptr<ThreadBuffer>> retired_
      ENTK_GUARDED_BY(mutex_);
  std::uint32_t next_thread_id_ ENTK_GUARDED_BY(mutex_) = 0;
};

/// Installs `clock` as the trace timestamp source for a scope and
/// restores the previous source on exit (nesting-safe). Confine the
/// scope to the clock's lifetime (e.g. around a backend-driven run).
class ScopedTraceClock {
 public:
  explicit ScopedTraceClock(const Clock& clock)
      : previous_(TraceRecorder::instance().exchange_clock(&clock)) {}
  ~ScopedTraceClock() {
    TraceRecorder::instance().exchange_clock(previous_);
  }

  ScopedTraceClock(const ScopedTraceClock&) = delete;
  ScopedTraceClock& operator=(const ScopedTraceClock&) = delete;

 private:
  const Clock* previous_;
};

/// RAII span: records kSpanBegin on construction and kSpanEnd on
/// destruction. Arms once, so a mid-span enable/disable cannot emit
/// an unmatched begin or end.
class SpanGuard {
 public:
  SpanGuard(const char* name, const char* category,
            std::uint64_t flow_id = 0, std::uint32_t pilot = 0,
            std::uint32_t session = 0)
      : name_(name),
        category_(category),
        flow_id_(flow_id),
        pilot_(pilot),
        session_(session),
        armed_(TraceRecorder::instance().enabled()) {
    if (armed_) {
      TraceRecorder::instance().record(name_, category_,
                                       TraceKind::kSpanBegin, 0.0,
                                       flow_id_, pilot_, session_);
    }
  }
  ~SpanGuard() {
    if (armed_) {
      TraceRecorder::instance().record(name_, category_,
                                       TraceKind::kSpanEnd, 0.0, flow_id_,
                                       pilot_, session_);
    }
  }

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* name_;
  const char* category_;
  std::uint64_t flow_id_;
  std::uint32_t pilot_;
  std::uint32_t session_;
  bool armed_;
};

}  // namespace entk::obs

// clang-format off
#define ENTK_OBS_CONCAT_INNER(a, b) a##b
#define ENTK_OBS_CONCAT(a, b) ENTK_OBS_CONCAT_INNER(a, b)

#if ENTK_ENABLE_TRACING
#define ENTK_TRACE_SPAN(name, category)                                \
  ::entk::obs::SpanGuard ENTK_OBS_CONCAT(entk_trace_span_, __LINE__)(  \
      (name), (category))
#define ENTK_TRACE_SPAN_FLOW(name, category, flow_id, pilot)           \
  ::entk::obs::SpanGuard ENTK_OBS_CONCAT(entk_trace_span_, __LINE__)(  \
      (name), (category), (flow_id), (pilot))
#define ENTK_TRACE_SPAN_BEGIN(name, category, flow_id, pilot)          \
  ::entk::obs::TraceRecorder::instance().record(                       \
      (name), (category), ::entk::obs::TraceKind::kSpanBegin, 0.0,     \
      (flow_id), (pilot))
#define ENTK_TRACE_SPAN_END(name, category, flow_id, pilot)            \
  ::entk::obs::TraceRecorder::instance().record(                       \
      (name), (category), ::entk::obs::TraceKind::kSpanEnd, 0.0,       \
      (flow_id), (pilot))
#define ENTK_TRACE_INSTANT(name, category)                             \
  ::entk::obs::TraceRecorder::instance().record(                       \
      (name), (category), ::entk::obs::TraceKind::kInstant)
#define ENTK_TRACE_INSTANT_FLOW(name, category, flow_id, pilot)        \
  ::entk::obs::TraceRecorder::instance().record(                       \
      (name), (category), ::entk::obs::TraceKind::kInstant, 0.0,       \
      (flow_id), (pilot))
#define ENTK_TRACE_COUNTER(name, category, value)                      \
  ::entk::obs::TraceRecorder::instance().record(                       \
      (name), (category), ::entk::obs::TraceKind::kCounter,            \
      static_cast<double>(value))
#define ENTK_TRACE_SPAN_S(name, category, flow_id, pilot, session)     \
  ::entk::obs::SpanGuard ENTK_OBS_CONCAT(entk_trace_span_, __LINE__)(  \
      (name), (category), (flow_id), (pilot), (session))
#define ENTK_TRACE_SPAN_BEGIN_S(name, category, flow_id, pilot,        \
                                session)                               \
  ::entk::obs::TraceRecorder::instance().record(                       \
      (name), (category), ::entk::obs::TraceKind::kSpanBegin, 0.0,     \
      (flow_id), (pilot), (session))
#define ENTK_TRACE_SPAN_END_S(name, category, flow_id, pilot, session) \
  ::entk::obs::TraceRecorder::instance().record(                       \
      (name), (category), ::entk::obs::TraceKind::kSpanEnd, 0.0,       \
      (flow_id), (pilot), (session))
#define ENTK_TRACE_INSTANT_FLOW_S(name, category, flow_id, pilot,      \
                                  session)                             \
  ::entk::obs::TraceRecorder::instance().record(                       \
      (name), (category), ::entk::obs::TraceKind::kInstant, 0.0,       \
      (flow_id), (pilot), (session))
#define ENTK_TRACE_COUNTER_S(name, category, value, session)           \
  ::entk::obs::TraceRecorder::instance().record(                       \
      (name), (category), ::entk::obs::TraceKind::kCounter,            \
      static_cast<double>(value), 0, 0, (session))
#else
#define ENTK_TRACE_SPAN(name, category) ((void)0)
#define ENTK_TRACE_SPAN_FLOW(name, category, flow_id, pilot) ((void)0)
#define ENTK_TRACE_SPAN_BEGIN(name, category, flow_id, pilot) ((void)0)
#define ENTK_TRACE_SPAN_END(name, category, flow_id, pilot) ((void)0)
#define ENTK_TRACE_INSTANT(name, category) ((void)0)
#define ENTK_TRACE_INSTANT_FLOW(name, category, flow_id, pilot) ((void)0)
#define ENTK_TRACE_COUNTER(name, category, value) ((void)0)
#define ENTK_TRACE_SPAN_S(name, category, flow_id, pilot, session) \
  ((void)0)
#define ENTK_TRACE_SPAN_BEGIN_S(name, category, flow_id, pilot,    \
                                session)                           \
  ((void)0)
#define ENTK_TRACE_SPAN_END_S(name, category, flow_id, pilot,      \
                              session)                             \
  ((void)0)
#define ENTK_TRACE_INSTANT_FLOW_S(name, category, flow_id, pilot,  \
                                  session)                         \
  ((void)0)
#define ENTK_TRACE_COUNTER_S(name, category, value, session) ((void)0)
#endif
// clang-format on

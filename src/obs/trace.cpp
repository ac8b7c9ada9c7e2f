#include "obs/trace.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

namespace entk::obs {
namespace {

// Events per slab; slabs are allocated lazily by the owning thread so
// an idle thread costs only a pointer array.
constexpr std::size_t kSlabEvents = 4096;
constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

// Capacities are powers of two so the hot path masks instead of
// dividing (a 64-bit div is ~25 cycles, ~half the record budget).
std::size_t round_up_to_pow2_slabs(std::size_t events) {
  std::size_t capacity = kSlabEvents;
  while (capacity < events) capacity <<= 1;
  return capacity;
}

}  // namespace

std::uint64_t trace_flow_id(std::string_view uid) {
  // FNV-1a, 64 bit.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : uid) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  // Reserve 0 as "no flow".
  return hash == 0 ? 1 : hash;
}

std::uint32_t next_pilot_ordinal() {
  static std::atomic<std::uint32_t> ordinal{0};
  return ordinal.fetch_add(1, std::memory_order_relaxed) + 1;
}

namespace {

// Session-name interning. Leaky for the same reason as the recorder:
// labels may be resolved during static teardown by exporters. A
// long-running entk-serve interns one name per workload it ever ran,
// so lookups hash instead of scanning.
Mutex& session_registry_mutex() {
  static Mutex* const mutex = new Mutex(LockRank::kSessionRegistry);
  return *mutex;
}

struct SessionRegistry {
  /// names[ordinal - 1] is the label of `ordinal`. A deque never moves
  /// its elements, so the map's keys can view them.
  std::deque<std::string> names;
  std::unordered_map<std::string_view, std::uint32_t> ordinals;
};

SessionRegistry& session_registry() {
  static SessionRegistry* const registry = new SessionRegistry();
  return *registry;
}

}  // namespace

std::uint32_t session_ordinal(std::string_view name) {
  if (name.empty()) return 0;
  MutexLock lock(session_registry_mutex());
  SessionRegistry& registry = session_registry();
  const auto it = registry.ordinals.find(name);
  if (it != registry.ordinals.end()) return it->second;
  registry.names.emplace_back(name);
  const auto ordinal = static_cast<std::uint32_t>(registry.names.size());
  registry.ordinals.emplace(registry.names.back(), ordinal);
  return ordinal;
}

std::string session_label(std::uint32_t ordinal) {
  if (ordinal == 0) return std::string();
  MutexLock lock(session_registry_mutex());
  const std::deque<std::string>& names = session_registry().names;
  if (ordinal > names.size()) return std::string();
  return names[ordinal - 1];
}

/// One thread's ring of event slabs. Only the owning thread writes;
/// snapshot() reads under the recorder mutex with acquire loads on
/// `head` and the slab pointers (quiescent-snapshot semantics).
struct TraceRecorder::ThreadBuffer {
  ThreadBuffer(std::uint32_t thread_id, std::size_t capacity_events)
      : thread(thread_id),
        capacity(capacity_events),
        n_slabs(capacity_events / kSlabEvents),
        slabs(new std::atomic<TraceEvent*>[capacity_events / kSlabEvents]) {
    for (std::size_t i = 0; i < n_slabs; ++i) {
      slabs[i].store(nullptr, std::memory_order_relaxed);
    }
  }
  ~ThreadBuffer() {
    for (std::size_t i = 0; i < n_slabs; ++i) {
      delete[] slabs[i].load(std::memory_order_relaxed);
    }
  }

  /// Owner-thread only: the slab holding `index`, allocated on first
  /// touch and published with a release store so snapshot() can read.
  TraceEvent* slab_for(std::size_t index) {
    std::atomic<TraceEvent*>& slot = slabs[index / kSlabEvents];
    TraceEvent* slab = slot.load(std::memory_order_relaxed);
    if (slab == nullptr) {
      slab = new TraceEvent[kSlabEvents];
      slot.store(slab, std::memory_order_release);
    }
    return slab;
  }

  const std::uint32_t thread;
  const std::size_t capacity;  ///< Events; a power of two of slabs.
  const std::size_t n_slabs;
  /// Total events ever written; the ring index is head % capacity.
  std::atomic<std::uint64_t> head{0};
  std::unique_ptr<std::atomic<TraceEvent*>[]> slabs;
};

TraceRecorder::TraceRecorder() : capacity_(kDefaultCapacity) {}

TraceRecorder& TraceRecorder::instance() {
  // Leaky: never destructed, so recording during static teardown (or
  // from detached-adjacent worker threads) stays safe.
  static TraceRecorder* const recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::set_capacity_per_thread(std::size_t events) {
  MutexLock lock(mutex_);
  capacity_ = round_up_to_pow2_slabs(events);
  for (auto& buffer : buffers_) retired_.push_back(std::move(buffer));
  buffers_.clear();
  generation_.fetch_add(1, std::memory_order_release);
}

std::size_t TraceRecorder::capacity_per_thread() const {
  MutexLock lock(mutex_);
  return capacity_;
}

void TraceRecorder::record_always(const char* name, const char* category,
                                  TraceKind kind, double value,
                                  std::uint64_t flow_id,
                                  std::uint32_t pilot,
                                  std::uint32_t session) {
  ThreadBuffer& buffer = local_buffer();
  const std::uint64_t head =
      buffer.head.load(std::memory_order_relaxed);
  const std::size_t index =
      static_cast<std::size_t>(head & (buffer.capacity - 1));
  TraceEvent& event = buffer.slab_for(index)[index % kSlabEvents];
  const Clock* clock = clock_.load(std::memory_order_acquire);
  if (clock == nullptr) clock = &fallback_clock_;
  event.name = name;
  event.category = category;
  event.time = clock->now();
  event.value = value;
  event.flow_id = flow_id;
  event.thread = buffer.thread;
  event.pilot = pilot;
  event.session = session;
  event.kind = kind;
  buffer.head.store(head + 1, std::memory_order_release);
}

TraceRecorder::ThreadBuffer& TraceRecorder::local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  thread_local std::uint64_t cached_generation = 0;
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  if (buffer == nullptr || cached_generation != generation) {
    buffer = &register_thread();
    cached_generation = generation;
  }
  return *buffer;
}

TraceRecorder::ThreadBuffer& TraceRecorder::register_thread() {
  MutexLock lock(mutex_);
  buffers_.push_back(
      std::make_unique<ThreadBuffer>(next_thread_id_++, capacity_));
  return *buffers_.back();
}

TraceRecorder::Stats TraceRecorder::stats() const {
  MutexLock lock(mutex_);
  Stats stats;
  stats.threads = buffers_.size();
  for (const auto& buffer : buffers_) {
    const std::uint64_t head =
        buffer->head.load(std::memory_order_acquire);
    stats.recorded += std::min<std::uint64_t>(head, buffer->capacity);
    if (head > buffer->capacity) stats.dropped += head - buffer->capacity;
  }
  return stats;
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::vector<TraceEvent> events;
  {
    MutexLock lock(mutex_);
    for (const auto& buffer : buffers_) {
      const std::uint64_t head =
          buffer->head.load(std::memory_order_acquire);
      const std::uint64_t count =
          std::min<std::uint64_t>(head, buffer->capacity);
      events.reserve(events.size() + count);
      for (std::uint64_t i = head - count; i < head; ++i) {
        const std::size_t index =
            static_cast<std::size_t>(i % buffer->capacity);
        const TraceEvent* slab =
            buffer->slabs[index / kSlabEvents].load(
                std::memory_order_acquire);
        if (slab == nullptr) continue;  // never touched (racing clear)
        events.push_back(slab[index % kSlabEvents]);
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time < b.time;
                   });
  return events;
}

void TraceRecorder::clear() {
  MutexLock lock(mutex_);
  for (auto& buffer : buffers_) retired_.push_back(std::move(buffer));
  buffers_.clear();
  generation_.fetch_add(1, std::memory_order_release);
}

}  // namespace entk::obs

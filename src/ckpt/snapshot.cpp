#include "ckpt/snapshot.hpp"

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>

#include "common/atomic_file.hpp"

namespace entk::ckpt {

namespace {

constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
/// 8 magic + u32 version + u64 payload size + u64 checksum.
constexpr std::size_t kHeaderSize = sizeof(kSnapshotMagic) + 4 + 8 + 8;
constexpr std::size_t kChecksumOffset = kHeaderSize - 8;

/// Little-endian on any host; one plain unaligned store/load where the
/// host already is little-endian (gcc -O2 keeps the byte loops).
template <typename T>
void store_le(char* at, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(at, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      at[i] = static_cast<char>(static_cast<unsigned char>(v >> (8 * i)));
    }
  }
}

template <typename T>
T load_le(const char* at) {
  if constexpr (std::endian::native == std::endian::little) {
    T v = 0;
    std::memcpy(&v, at, sizeof(T));
    return v;
  } else {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= std::uint64_t{static_cast<unsigned char>(at[i])} << (8 * i);
    }
    return static_cast<T>(v);
  }
}

// xxHash64's primes.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

/// Folds one word into a lane (xxHash64's round). Multiplying by an
/// odd constant, adding and rotating are each invertible, so with either
/// argument fixed the result is a bijection of the other.
std::uint64_t lane_round(std::uint64_t lane, std::uint64_t word) {
  return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

/// Folds a word into the running hash and avalanches it; every step
/// (xor, xor-shift, odd multiply) is invertible, so again a bijection
/// of either argument with the other fixed.
std::uint64_t absorb(std::uint64_t hash, std::uint64_t word) {
  hash ^= word;
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

}  // namespace

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = kFnvOffsetBasis;
  for (const char byte : bytes) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t word_checksum(std::string_view bytes) {
  const char* at = bytes.data();
  std::size_t left = bytes.size();
  std::uint64_t hash = absorb(kPrime5, bytes.size());
  if (left >= 32) {
    // Four independent multiply chains, one per word of a 32-byte
    // block, where FNV-1a has one chain per byte.
    std::uint64_t lane0 = kPrime1 + kPrime2;
    std::uint64_t lane1 = kPrime2;
    std::uint64_t lane2 = 0;
    std::uint64_t lane3 = 0 - kPrime1;
    for (; left >= 32; at += 32, left -= 32) {
      lane0 = lane_round(lane0, load_le<std::uint64_t>(at));
      lane1 = lane_round(lane1, load_le<std::uint64_t>(at + 8));
      lane2 = lane_round(lane2, load_le<std::uint64_t>(at + 16));
      lane3 = lane_round(lane3, load_le<std::uint64_t>(at + 24));
    }
    for (const std::uint64_t lane : {lane0, lane1, lane2, lane3}) {
      hash = absorb(hash, lane);
    }
  }
  for (; left >= 8; at += 8, left -= 8) {
    hash = absorb(hash, load_le<std::uint64_t>(at));
  }
  if (left > 0) {
    std::uint64_t tail = 0;  // the last 1-7 bytes, zero-padded
    for (std::size_t i = 0; i < left; ++i) {
      tail |= std::uint64_t{static_cast<unsigned char>(at[i])} << (8 * i);
    }
    hash = absorb(hash, tail);
  }
  return hash;
}

namespace {

// ------------------------------------------------------------ encoding
//
// The layout is written down once (encode_payload and the put_*
// helpers) and driven through two sinks: a Sizer counts the payload, so
// the file image is allocated once at its exact size, then a Writer
// fills it. The v3 primitives are compact: integers, counts and string
// lengths are unsigned LEB128, and a double is a tag byte, followed by
// its 8 raw bytes unless its bits are +0.0 or kNoTime, the values most
// time points and retry settings hold.

/// A v3 double's tag byte.
enum : std::uint8_t { kZeroTag = 0, kNoTimeTag = 1, kRawTag = 2 };
constexpr std::uint64_t kNoTimeBits = std::bit_cast<std::uint64_t>(kNoTime);

/// The field vocabulary, in terms of each sink's primitives: byte(),
/// varint(), word() for 8 raw bytes and bytes() for a raw run.
template <typename Derived>
class Sink {
 public:
  void u8(std::uint8_t v) { self().byte(v); }
  void u32(std::uint32_t v) { self().varint(v); }
  void u64(std::uint64_t v) { self().varint(v); }
  /// Matched by bits, so -0.0 and NaN payloads keep theirs.
  void f64(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    if (bits == 0) {
      u8(kZeroTag);
    } else if (bits == kNoTimeBits) {
      u8(kNoTimeTag);
    } else {
      u8(kRawTag);
      self().word(bits);
    }
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& v) {
    u64(v.size());
    self().bytes(v.data(), v.size());
  }
  void status(const Status& v) {
    u32(static_cast<std::uint32_t>(v.code()));
    str(v.message());
  }
  void rng(const Xoshiro256::State& v) {
    for (const std::uint64_t word : v.words) u64(word);
    f64(v.cached_normal);
    boolean(v.has_cached_normal);
  }

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
};

class Sizer : public Sink<Sizer> {
 public:
  void byte(std::uint8_t) { ++size_; }
  /// 7 value bits a byte, at least one byte.
  void varint(std::uint64_t v) {
    size_ += (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
  }
  void word(std::uint64_t) { size_ += 8; }
  void bytes(const char*, std::size_t n) { size_ += n; }
  std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Fills a buffer the Sizer measured; performs no bounds checks of its
/// own (encode_snapshot checks the end position once).
class Writer : public Sink<Writer> {
 public:
  explicit Writer(char* out) : out_(out) {}

  void byte(std::uint8_t v) { *out_++ = static_cast<char>(v); }
  void varint(std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) {
      *out_++ = static_cast<char>(static_cast<std::uint8_t>(v) | 0x80);
    }
    *out_++ = static_cast<char>(v);
  }
  void word(std::uint64_t v) {
    store_le(out_, v);
    out_ += 8;
  }
  void bytes(const char* data, std::size_t n) {
    std::memcpy(out_, data, n);
    out_ += n;
  }

  const char* position() const { return out_; }

 private:
  char* out_;
};

template <typename Out>
void put_staging(Out& w, const std::vector<pilot::StagingDirective>& v) {
  w.u64(v.size());
  for (const auto& directive : v) {
    w.str(directive.source);
    w.str(directive.target);
    w.u8(static_cast<std::uint8_t>(directive.action));
    w.f64(directive.size_mb);
  }
}

template <typename Out>
void put_description(Out& w, const pilot::UnitDescription& d) {
  w.str(d.name);
  w.str(d.session);
  w.str(d.executable);
  w.u64(d.arguments.size());
  for (const auto& arg : d.arguments) w.str(arg);
  w.u64(d.environment.size());
  for (const auto& [key, value] : d.environment) {
    w.str(key);
    w.str(value);
  }
  w.u64(static_cast<std::uint64_t>(d.cores));
  w.boolean(d.uses_mpi);
  put_staging(w, d.input_staging);
  put_staging(w, d.output_staging);
  w.f64(d.simulated_duration);
  w.boolean(d.simulated_fail);
  w.boolean(d.simulated_hang);
  w.u64(static_cast<std::uint64_t>(d.retry.max_retries));
  w.f64(d.retry.backoff_base);
  w.f64(d.retry.backoff_multiplier);
  w.f64(d.retry.backoff_max);
  w.f64(d.retry.jitter);
  w.f64(d.retry.execution_timeout);
}

template <typename Out>
void put_unit_state(Out& w, const pilot::ComputeUnit::SavedState& s) {
  w.u8(static_cast<std::uint8_t>(s.state));
  w.status(s.final_status);
  w.u64(static_cast<std::uint64_t>(s.retries));
  w.u64(static_cast<std::uint64_t>(s.epoch));
  w.f64(s.created_at);
  w.f64(s.submitted_at);
  w.f64(s.exec_started_at);
  w.f64(s.exec_stopped_at);
  w.f64(s.finished_at);
}

template <typename Out>
void put_agent(Out& w, const pilot::SimAgent::SavedState& a) {
  w.u64(static_cast<std::uint64_t>(a.capacity));
  w.u64(static_cast<std::uint64_t>(a.free));
  w.u64(a.running);
  w.u64(a.next_launch_seq);
  w.u64(a.scheduler_cycles);
  w.f64(a.spawn_total);
  w.u64(a.spawner_free_at.size());
  for (const TimePoint t : a.spawner_free_at) w.f64(t);
  w.u64(a.waiting.size());
  for (const auto& uid : a.waiting) w.str(uid);
  w.u64(a.active.size());
  for (const auto& [seq, uid] : a.active) {
    w.u64(seq);
    w.str(uid);
  }
  w.u64(a.events.size());
  for (const auto& event : a.events) {
    w.str(event.uid);
    w.u8(static_cast<std::uint8_t>(event.kind));
    w.f64(event.time);
    w.u64(event.seq);
  }
}

template <typename Out>
void put_faults(Out& w, const sim::FaultModel::SavedState& f) {
  w.rng(f.fork_rng);
  w.rng(f.launch_rng);
  w.rng(f.hang_rng);
  w.u64(f.consumers.size());
  for (const auto& consumer : f.consumers) {
    w.u64(static_cast<std::uint64_t>(consumer.nodes_left));
    w.rng(consumer.rng);
  }
  w.u64(static_cast<std::uint64_t>(f.node_failures));
  w.u64(static_cast<std::uint64_t>(f.launch_failures));
  w.u64(static_cast<std::uint64_t>(f.hangs));
  w.u64(f.trace.size());
  for (const auto& line : f.trace) w.str(line);
  w.u64(f.armed.size());
  for (const auto& armed : f.armed) {
    w.u64(armed.consumer);
    w.f64(armed.time);
    w.u64(armed.seq);
  }
}

template <typename Out>
void put_graph(Out& w, const core::GraphExecutor::SavedState& g) {
  w.u64(g.nodes.size());
  for (const auto& node : g.nodes) {
    w.u8(static_cast<std::uint8_t>(node.status));
    w.str(node.unit_uid);
    w.status(node.error);
  }
  w.u64(g.groups.size());
  for (const auto& group : g.groups) {
    w.u64(group.settled);
    w.u64(group.done);
    w.boolean(group.decided);
    w.boolean(group.passed);
  }
  w.u64(g.chain_sets_decided.size());
  for (const bool decided : g.chain_sets_decided) w.boolean(decided);
  w.u64(g.expander_stack.size());
  for (const std::size_t index : g.expander_stack) w.u64(index);
  w.u64(g.expanders_seen);
  w.u64(g.expander_log.size());
  for (const auto& [index, produced] : g.expander_log) {
    w.u64(index);
    w.boolean(produced);
  }
  w.u64(g.errors.size());
  for (const auto& [node, error] : g.errors) {
    w.u64(node);
    w.status(error);
  }
  w.u64(g.inflight);
  w.u64(g.submitted_count);
  w.boolean(g.aborted);
  w.status(g.abort_status);
}

template <typename Out>
void encode_payload(Out& w, const Snapshot& snapshot) {
  w.str(snapshot.machine);
  w.u64(static_cast<std::uint64_t>(snapshot.cores));
  w.u64(static_cast<std::uint64_t>(snapshot.n_pilots));
  w.f64(snapshot.runtime);
  w.str(snapshot.scheduler_policy);
  w.str(snapshot.pattern_name);
  w.str(snapshot.session);
  w.str(snapshot.workload_text);
  w.f64(snapshot.engine_now);
  w.u64(snapshot.uid_counters.size());
  for (const auto& [prefix, counter] : snapshot.uid_counters) {
    w.str(prefix);
    w.u64(counter);
  }
  w.u64(snapshot.units.size());
  for (const auto& unit : snapshot.units) {
    w.str(unit.uid);
    put_description(w, unit.description);
    put_unit_state(w, unit.state);
    w.boolean(unit.settled);
    w.boolean(unit.notified);
  }
  w.f64(snapshot.pattern_overhead);
  w.u64(snapshot.unit_manager.next_pilot);
  w.u64(snapshot.unit_manager.unrouted.size());
  for (const auto& uid : snapshot.unit_manager.unrouted) w.str(uid);
  w.u64(snapshot.unit_manager.total_units);
  w.u64(snapshot.unit_manager.total_retries);
  w.u64(snapshot.unit_manager.recovered_units);
  w.rng(snapshot.unit_manager.retry_rng);
  w.u64(snapshot.retries.size());
  for (const auto& retry : snapshot.retries) {
    w.str(retry.uid);
    w.f64(retry.time);
    w.u64(retry.seq);
  }
  w.u64(snapshot.pilots.size());
  for (const auto& pilot : snapshot.pilots) {
    w.str(pilot.uid);
    put_agent(w, pilot.agent);
  }
  w.boolean(snapshot.has_faults);
  if (snapshot.has_faults) put_faults(w, snapshot.faults);
  put_graph(w, snapshot.graph);
}

// ------------------------------------------------------------ decoding

/// The fewest bytes one record of a counted list can take: fixed-width
/// (v1, v2) and compact (v3). A v3 file must be checked against the v3
/// minimum, or valid files are refused: a v3 graph node can take 4
/// bytes where a v2 one takes 21.
struct RecordSize {
  std::size_t fixed;
  std::size_t compact;
};

/// Bounds-checked reader of one format version's primitives:
/// fixed-width little-endian (v1, v2) or compact (v3). The first
/// out-of-bounds access or malformed primitive latches a diagnostic
/// error; all subsequent reads return zero values, so decoders can run
/// straight through and check status() once at the end.
class Reader {
 public:
  Reader(std::string_view data, std::uint32_t version)
      : data_(data), compact_(version >= 3) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint32_t u32() {
    if (!compact_) return get<std::uint32_t>();
    const std::uint64_t v = varint();
    if (v > std::numeric_limits<std::uint32_t>::max()) {
      fail("u32 field " + std::to_string(v) + " out of range");
      return 0;
    }
    return static_cast<std::uint32_t>(v);
  }
  std::uint64_t u64() { return compact_ ? varint() : get<std::uint64_t>(); }
  double f64() {
    if (!compact_) return std::bit_cast<double>(get<std::uint64_t>());
    const std::uint8_t tag = u8();
    switch (tag) {
      case kZeroTag: return 0.0;
      case kNoTimeTag: return kNoTime;
      case kRawTag: return std::bit_cast<double>(get<std::uint64_t>());
      default:
        fail("double tag " + std::to_string(tag) + " out of range");
        return 0.0;
    }
  }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint64_t size = u64();
    // The length itself is attacker-controlled on a corrupt file; it
    // must fit in what is actually left before any allocation happens.
    if (size > remaining()) {
      fail("string length " + std::to_string(size) +
           " exceeds the remaining payload");
      return {};
    }
    std::string v(data_.data() + pos_, size);
    pos_ += size;
    return v;
  }
  Status read_status() {
    const std::uint32_t code = u32();
    std::string message = str();
    if (code > static_cast<std::uint32_t>(Errc::kIoError)) {
      fail("status code " + std::to_string(code) + " out of range");
      return Status::ok();
    }
    return Status(static_cast<Errc>(code), std::move(message));
  }
  Xoshiro256::State rng() {
    Xoshiro256::State v;
    for (std::uint64_t& word : v.words) word = u64();
    v.cached_normal = f64();
    v.has_cached_normal = boolean();
    return v;
  }
  /// Validates an enum ordinal read as u8.
  std::uint8_t ordinal(std::uint8_t max, const char* what) {
    const std::uint8_t v = u8();
    if (ok_ && v > max) {
      fail(std::string(what) + " ordinal " + std::to_string(v) +
           " out of range");
      return 0;
    }
    return v;
  }
  /// A count about to drive a loop of records of at least `size`: must
  /// fit in the remaining payload, or a corrupt length would spin the
  /// decoder on billions of zero reads. Divides rather than multiplies:
  /// `v * size` wraps for a huge v. A count that passes is therefore
  /// also safe to reserve().
  std::uint64_t count(RecordSize size) {
    const std::uint64_t v = u64();
    if (ok_ && v > remaining() / (compact_ ? size.compact : size.fixed)) {
      fail("element count " + std::to_string(v) +
           " exceeds the remaining payload");
      return 0;
    }
    return v;
  }

  bool ok() const { return ok_; }
  bool exhausted() const { return pos_ == data_.size(); }
  Status error() const {
    return ok_ ? Status::ok() : make_error(Errc::kIoError, message_);
  }

 private:
  std::size_t remaining() const { return data_.size() - pos_; }
  template <typename T>
  T get() {
    if (!ok_) return 0;
    if (remaining() < sizeof(T)) {
      fail("payload truncated (need " + std::to_string(sizeof(T)) +
           " bytes at offset " + std::to_string(pos_) + ")");
      return 0;
    }
    const T v = load_le<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }
  /// Unsigned LEB128: at most 10 bytes, the 10th holding bit 63 alone.
  std::uint64_t varint() {
    const std::size_t start = pos_;
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      const std::uint8_t byte = u8();
      if (!ok_) return 0;
      if (shift == 63 && byte > 1) {
        fail("varint at offset " + std::to_string(start) +
             ((byte & 0x80) != 0 ? " is longer than 10 bytes"
                                 : " exceeds 64 bits"));
        return 0;
      }
      v |= std::uint64_t{byte & 0x7Fu} << shift;
      if (byte < 0x80) return v;
    }
  }
  void fail(const std::string& message) {
    if (!ok_) return;
    ok_ = false;
    message_ = "corrupt snapshot: " + message;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  const bool compact_;
  bool ok_ = true;
  std::string message_;
};

/// Reads a count of records of at least `size` into `out`, reserved
/// once from the validated count; `fill` decodes one record in place.
template <typename T, typename Fill>
void get_each(Reader& r, RecordSize size, std::vector<T>& out, Fill fill) {
  const std::uint64_t n = r.count(size);
  out.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) fill(out.emplace_back());
}

void get_staging(Reader& r, std::vector<pilot::StagingDirective>& v) {
  get_each(r, {18, 4}, v, [&r](pilot::StagingDirective& directive) {
    directive.source = r.str();
    directive.target = r.str();
    directive.action = static_cast<pilot::StagingDirective::Action>(
        r.ordinal(2, "staging action"));
    directive.size_mb = r.f64();
  });
}

void get_description(Reader& r, std::uint32_t version,
                     pilot::UnitDescription& d) {
  d.name = r.str();
  if (version >= 2) d.session = r.str();
  d.executable = r.str();
  get_each(r, {8, 1}, d.arguments, [&r](std::string& arg) { arg = r.str(); });
  const std::uint64_t n_env = r.count({16, 2});
  for (std::uint64_t i = 0; i < n_env && r.ok(); ++i) {
    std::string key = r.str();
    d.environment[std::move(key)] = r.str();
  }
  d.cores = static_cast<Count>(r.u64());
  d.uses_mpi = r.boolean();
  get_staging(r, d.input_staging);
  get_staging(r, d.output_staging);
  d.simulated_duration = r.f64();
  d.simulated_fail = r.boolean();
  d.simulated_hang = r.boolean();
  d.retry.max_retries = static_cast<Count>(r.u64());
  d.retry.backoff_base = r.f64();
  d.retry.backoff_multiplier = r.f64();
  d.retry.backoff_max = r.f64();
  d.retry.jitter = r.f64();
  d.retry.execution_timeout = r.f64();
}

void get_unit_state(Reader& r, pilot::ComputeUnit::SavedState& s) {
  s.state = static_cast<pilot::UnitState>(r.ordinal(7, "unit state"));
  s.final_status = r.read_status();
  s.retries = static_cast<Count>(r.u64());
  s.epoch = static_cast<Count>(r.u64());
  s.created_at = r.f64();
  s.submitted_at = r.f64();
  s.exec_started_at = r.f64();
  s.exec_stopped_at = r.f64();
  s.finished_at = r.f64();
}

void get_agent(Reader& r, pilot::SimAgent::SavedState& a) {
  a.capacity = static_cast<Count>(r.u64());
  a.free = static_cast<Count>(r.u64());
  a.running = r.u64();
  a.next_launch_seq = r.u64();
  a.scheduler_cycles = r.u64();
  a.spawn_total = r.f64();
  get_each(r, {8, 1}, a.spawner_free_at, [&r](TimePoint& t) { t = r.f64(); });
  get_each(r, {8, 1}, a.waiting, [&r](std::string& uid) { uid = r.str(); });
  get_each(r, {16, 2}, a.active, [&r](auto& entry) {
    entry.first = r.u64();
    entry.second = r.str();
  });
  get_each(r, {25, 4}, a.events, [&r](auto& event) {
    event.uid = r.str();
    event.kind =
        static_cast<pilot::UnitEventKind>(r.ordinal(4, "unit event kind"));
    event.time = r.f64();
    event.seq = r.u64();
  });
}

void get_faults(Reader& r, sim::FaultModel::SavedState& f) {
  f.fork_rng = r.rng();
  f.launch_rng = r.rng();
  f.hang_rng = r.rng();
  get_each(r, {49, 7}, f.consumers, [&r](auto& consumer) {
    consumer.nodes_left = static_cast<Count>(r.u64());
    consumer.rng = r.rng();
  });
  f.node_failures = static_cast<Count>(r.u64());
  f.launch_failures = static_cast<Count>(r.u64());
  f.hangs = static_cast<Count>(r.u64());
  get_each(r, {8, 1}, f.trace, [&r](std::string& line) { line = r.str(); });
  get_each(r, {24, 3}, f.armed, [&r](auto& armed) {
    armed.consumer = r.u64();
    armed.time = r.f64();
    armed.seq = r.u64();
  });
}

void get_graph(Reader& r, core::GraphExecutor::SavedState& g) {
  get_each(r, {21, 4}, g.nodes, [&r](auto& node) {
    node.status =
        static_cast<core::NodeStatus>(r.ordinal(5, "node status"));
    node.unit_uid = r.str();
    node.error = r.read_status();
  });
  get_each(r, {18, 4}, g.groups, [&r](auto& group) {
    group.settled = r.u64();
    group.done = r.u64();
    group.decided = r.boolean();
    group.passed = r.boolean();
  });
  get_each(r, {1, 1}, g.chain_sets_decided,
           [&r](auto&& decided) { decided = r.boolean(); });
  get_each(r, {8, 1}, g.expander_stack,
           [&r](std::size_t& index) { index = r.u64(); });
  g.expanders_seen = r.u64();
  get_each(r, {9, 2}, g.expander_log, [&r](auto& entry) {
    entry.first = r.u64();
    entry.second = r.boolean();
  });
  get_each(r, {20, 3}, g.errors, [&r](auto& entry) {
    entry.first = r.u64();
    entry.second = r.read_status();
  });
  g.inflight = r.u64();
  g.submitted_count = r.u64();
  g.aborted = r.boolean();
  g.abort_status = r.read_status();
}

Result<Snapshot> decode_payload(std::string_view payload,
                                std::uint32_t version) {
  Reader r(payload, version);
  Snapshot snapshot;
  snapshot.machine = r.str();
  snapshot.cores = static_cast<Count>(r.u64());
  snapshot.n_pilots = static_cast<Count>(r.u64());
  snapshot.runtime = r.f64();
  snapshot.scheduler_policy = r.str();
  snapshot.pattern_name = r.str();
  if (version >= 2) snapshot.session = r.str();
  snapshot.workload_text = r.str();
  snapshot.engine_now = r.f64();
  get_each(r, {16, 2}, snapshot.uid_counters, [&r](auto& entry) {
    entry.first = r.str();
    entry.second = r.u64();
  });
  get_each(r, {100, 31}, snapshot.units, [&r, version](UnitRecord& unit) {
    unit.uid = r.str();
    get_description(r, version, unit.description);
    get_unit_state(r, unit.state);
    unit.settled = r.boolean();
    unit.notified = r.boolean();
  });
  snapshot.pattern_overhead = r.f64();
  snapshot.unit_manager.next_pilot = r.u64();
  get_each(r, {8, 1}, snapshot.unit_manager.unrouted,
           [&r](std::string& uid) { uid = r.str(); });
  snapshot.unit_manager.total_units = r.u64();
  snapshot.unit_manager.total_retries = r.u64();
  snapshot.unit_manager.recovered_units = r.u64();
  snapshot.unit_manager.retry_rng = r.rng();
  get_each(r, {24, 3}, snapshot.retries, [&r](RetryRecord& retry) {
    retry.uid = r.str();
    retry.time = r.f64();
    retry.seq = r.u64();
  });
  get_each(r, {8, 11}, snapshot.pilots, [&r](PilotRecord& pilot) {
    pilot.uid = r.str();
    get_agent(r, pilot.agent);
  });
  snapshot.has_faults = r.boolean();
  if (snapshot.has_faults) get_faults(r, snapshot.faults);
  get_graph(r, snapshot.graph);
  if (!r.ok()) return r.error();
  if (!r.exhausted()) {
    return make_error(Errc::kIoError,
                      "corrupt snapshot: trailing bytes after the "
                      "decoded payload");
  }
  return snapshot;
}

}  // namespace

std::string encode_snapshot(const Snapshot& snapshot) {
  Sizer sizer;
  encode_payload(sizer, snapshot);
  const std::size_t payload_size = sizer.size();
  std::string out(kHeaderSize + payload_size, '\0');
  std::memcpy(out.data(), kSnapshotMagic, sizeof(kSnapshotMagic));
  store_le(out.data() + sizeof(kSnapshotMagic), kFormatVersion);
  store_le(out.data() + sizeof(kSnapshotMagic) + 4,
           static_cast<std::uint64_t>(payload_size));
  Writer writer(out.data() + kHeaderSize);
  encode_payload(writer, snapshot);
  ENTK_CHECK(writer.position() == out.data() + out.size(),
             "snapshot sizing pass disagrees with the encoder");
  store_le(out.data() + kChecksumOffset,
           word_checksum(std::string_view(out).substr(kHeaderSize)));
  return out;
}

Result<Snapshot> decode_snapshot(std::string_view bytes) {
  if (bytes.size() < kHeaderSize) {
    return make_error(Errc::kIoError,
                      "corrupt snapshot: file shorter than the header (" +
                          std::to_string(bytes.size()) + " bytes)");
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    return make_error(Errc::kIoError,
                      "not a checkpoint file: bad magic (expected "
                      "ENTKCKPT)");
  }
  const char* header = bytes.data() + sizeof(kSnapshotMagic);
  const auto version = load_le<std::uint32_t>(header);
  const auto payload_size = load_le<std::uint64_t>(header + 4);
  const auto checksum = load_le<std::uint64_t>(header + 12);
  if (version < kMinFormatVersion || version > kFormatVersion) {
    return make_error(Errc::kIoError,
                      "unsupported checkpoint format version " +
                          std::to_string(version) + " (this build reads " +
                          std::to_string(kMinFormatVersion) + ".." +
                          std::to_string(kFormatVersion) + ")");
  }
  const std::string_view payload = bytes.substr(kHeaderSize);
  if (payload.size() != payload_size) {
    return make_error(Errc::kIoError,
                      "corrupt snapshot: header promises " +
                          std::to_string(payload_size) +
                          " payload bytes, file carries " +
                          std::to_string(payload.size()));
  }
  const std::uint64_t actual =
      version >= 3 ? word_checksum(payload) : fnv1a(payload);
  if (actual != checksum) {
    return make_error(Errc::kIoError,
                      "corrupt snapshot: payload checksum mismatch "
                      "(bit rot or torn write)");
  }
  return decode_payload(payload, version);
}

Status write_snapshot_file(const std::string& path,
                           const Snapshot& snapshot) {
  return write_file_atomic(path, encode_snapshot(snapshot));
}

Result<Snapshot> read_snapshot_file(const std::string& path) {
  // Sized from the file so the image is read in one piece; file_size
  // also refuses directories and other non-regular files.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (ec || !in) {
    return make_error(Errc::kIoError,
                      "cannot open checkpoint file " + path);
  }
  std::string bytes(static_cast<std::size_t>(size), '\0');
  if (!in.read(bytes.data(), static_cast<std::streamsize>(size))) {
    return make_error(Errc::kIoError,
                      "cannot read checkpoint file " + path);
  }
  auto decoded = decode_snapshot(bytes);
  if (!decoded.ok()) {
    return make_error(decoded.status().code(),
                      path + ": " + decoded.status().message());
  }
  return decoded;
}

}  // namespace entk::ckpt

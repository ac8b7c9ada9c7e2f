// Corrupt-checkpoint rejection: a damaged snapshot file must fail
// restore with a diagnostic Status — never undefined behavior, never a
// crash, never a silently wrong resume. Exercised forms of damage, on
// v3 images and on the v2 files kept under tests/data/: truncation at
// every prefix length, every flipped payload bit (checksum), wrong
// magic, a future format version, a payload size that disagrees with
// the file, length fields pointing past the end of the payload (the
// classic decoder over-read), element counts whose byte size wraps in
// 64 bits, and the v3 primitives' own malformations (a varint longer
// than 10 bytes or past 2^64, a u32 field above 2^32-1, a bad double
// tag). CheckpointFormat.* pins the v3 file bytes and checksum, and the
// v2 bytes that must still decode: the format is written at version 3
// and read at 1-3. CI runs this suite in the checkpoint-restart lane
// and, with the rest of the suite, under asan-ubsan.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "common/atomic_file.hpp"

namespace entk::ckpt {
namespace {

/// A small but fully populated snapshot: every record type present so
/// corruption walks through every decoder.
Snapshot sample_snapshot() {
  Snapshot snap;
  snap.machine = "test.scale";
  snap.cores = 64;
  snap.n_pilots = 2;
  snap.runtime = 3600.0;
  snap.scheduler_policy = "backfill";
  snap.pattern_name = "bag_of_tasks";
  snap.workload_text = "pattern = bag\n";
  snap.engine_now = 123.5;
  snap.uid_counters = {{"unit", 7}, {"pilot", 2}};

  UnitRecord unit;
  unit.uid = "unit.000001";
  unit.description.name = "task_1";
  unit.description.executable = "misc.sleep";
  unit.description.arguments = {"--duration", "30"};
  unit.description.environment = {{"ENTK_STAGE", "1"}};
  unit.description.cores = 2;
  unit.description.simulated_duration = 30.0;
  unit.description.input_staging.push_back(
      {"in.dat", "sandbox/in.dat",
       pilot::StagingDirective::Action::kLink, 4.0});
  unit.settled = false;
  unit.notified = false;
  snap.units.push_back(unit);

  snap.pattern_overhead = 0.25;
  snap.retries.push_back({"unit.000001", 130.0, 41});
  PilotRecord pilot;
  pilot.uid = "pilot.000001";
  snap.pilots.push_back(pilot);
  core::GraphExecutor::SavedState::Node node;
  node.status = core::NodeStatus::kSubmitted;
  node.unit_uid = "unit.000001";
  snap.graph.nodes.push_back(node);
  snap.graph.inflight = 1;
  snap.graph.submitted_count = 1;
  return snap;
}

/// sample_snapshot() plus every record type it leaves empty: fault
/// streams, agent queues and pending events, unit-manager routing,
/// graph groups, expander progress and per-node errors.
Snapshot full_snapshot() {
  Snapshot snap = sample_snapshot();
  snap.session = "tenant";
  UnitRecord& unit = snap.units.front();
  unit.description.session = "tenant";
  unit.description.uses_mpi = true;
  unit.description.output_staging.push_back(
      {"out.dat", "results/out.dat",
       pilot::StagingDirective::Action::kCopy, 0.5});
  unit.description.retry.max_retries = 3;
  unit.description.retry.backoff_base = 2.0;
  unit.state.state = pilot::UnitState::kExecuting;
  unit.state.final_status = make_error(Errc::kTimedOut, "slow");
  unit.state.retries = 1;
  unit.state.epoch = 2;
  unit.state.created_at = 1.0;
  unit.state.exec_started_at = 100.25;
  unit.settled = true;
  snap.units.push_back(snap.units.front());
  snap.units.back().uid = "unit.000002";

  snap.unit_manager.next_pilot = 1;
  snap.unit_manager.unrouted = {"unit.000002"};
  snap.unit_manager.total_units = 2;
  snap.unit_manager.total_retries = 1;
  snap.unit_manager.retry_rng = {{1, 2, 3, 4}, -0.5, true};

  pilot::SimAgent::SavedState& agent = snap.pilots.front().agent;
  agent.capacity = 64;
  agent.free = 62;
  agent.running = 1;
  agent.next_launch_seq = 9;
  agent.scheduler_cycles = 5;
  agent.spawn_total = 0.75;
  agent.spawner_free_at = {101.0, 102.5};
  agent.waiting = {"unit.000002"};
  agent.active = {{8, "unit.000001"}};
  agent.events.push_back(
      {"unit.000001", pilot::UnitEventKind::kComplete, 130.25, 40});

  snap.has_faults = true;
  snap.faults.fork_rng = {{5, 6, 7, 8}, 0.0, false};
  snap.faults.launch_rng = {{9, 10, 11, 12}, 1.25, true};
  snap.faults.hang_rng = {{13, 14, 15, 16}, 0.0, false};
  snap.faults.consumers.push_back({3, {{17, 18, 19, 20}, 0.0, false}});
  snap.faults.node_failures = 1;
  snap.faults.launch_failures = 2;
  snap.faults.hangs = 3;
  snap.faults.trace = {"node failure at t=50"};
  snap.faults.armed.push_back({0, 500.0, 77});

  core::GraphExecutor::SavedState& graph = snap.graph;
  core::GraphExecutor::SavedState::Node failed;
  failed.status = core::NodeStatus::kFailed;
  failed.unit_uid = "unit.000002";
  failed.error = make_error(Errc::kInternal, "exit 1");
  graph.nodes.push_back(failed);
  graph.groups.push_back({2, 1, true, false});
  graph.chain_sets_decided = {true, false};
  graph.expander_stack = {4};
  graph.expanders_seen = 2;
  graph.expander_log = {{0, true}, {4, false}};
  graph.errors.emplace_back(1, make_error(Errc::kInternal, "exit 1"));
  graph.aborted = true;
  graph.abort_status = make_error(Errc::kCancelled, "stop");
  return snap;
}

/// 8 magic + 4 version + 8 payload size + 8 checksum.
constexpr std::size_t kHeaderSize = 28;

/// A snapshot file kept under tests/data/. sample-v2 and full-v2 are
/// sample_snapshot() and full_snapshot() as the last v2 encoder wrote
/// them.
std::string read_fixture(const char* name) {
  const std::string path =
      std::string(ENTK_SOURCE_DIR) + "/tests/data/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// The v3 images and the v2 fixtures every sweep walks.
std::vector<std::pair<const char*, std::string>> swept_images() {
  return {{"v3 sample", encode_snapshot(sample_snapshot())},
          {"v3 full", encode_snapshot(full_snapshot())},
          {"v2 sample", read_fixture("sample-v2.entkckpt")},
          {"v2 full", read_fixture("full-v2.entkckpt")}};
}

/// Unsigned LEB128, the v3 integer encoding.
std::string varint(std::uint64_t v) {
  std::string out;
  for (; v >= 0x80; v >>= 7) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
  }
  out.push_back(static_cast<char>(v));
  return out;
}

/// The little-endian image of `v`.
std::string le64(std::uint64_t v) {
  std::string out(8, '\0');
  std::memcpy(out.data(), &v, sizeof(v));
  return out;
}

/// Offset of the only occurrence of `image` in `bytes`.
std::size_t find_once(const std::string& bytes, const std::string& image) {
  const std::size_t at = bytes.find(image);
  EXPECT_NE(at, std::string::npos);
  EXPECT_EQ(at, bytes.rfind(image)) << "the image occurs more than once";
  return at;
}

/// Rewrites the header's payload size and checksum, the latter by the
/// file's own version (FNV-1a for v1 and v2, word_checksum for v3), so
/// a payload edit reaches the field decoders instead of being refused
/// by the checksum.
void fix_header(std::string& bytes) {
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  const std::string_view payload = std::string_view(bytes).substr(kHeaderSize);
  const std::uint64_t size = payload.size();
  const std::uint64_t checksum =
      version >= 3 ? word_checksum(payload) : fnv1a(payload);
  std::memcpy(bytes.data() + 12, &size, sizeof(size));
  std::memcpy(bytes.data() + 20, &checksum, sizeof(checksum));
}

/// `bytes` with `erase` bytes at file offset `at` replaced by `insert`,
/// header repaired.
std::string splice(std::string bytes, std::size_t at, std::size_t erase,
                   const std::string& insert) {
  bytes.replace(at, erase, insert);
  fix_header(bytes);
  return bytes;
}

/// Expects a kIoError naming `reason`, when given: an edit the checksum
/// refuses would pass for one the guard under test refuses.
void expect_rejected(std::string_view bytes, const char* what,
                     const char* reason = nullptr) {
  auto decoded = decode_snapshot(bytes);
  ASSERT_FALSE(decoded.ok()) << "decoder accepted " << what;
  EXPECT_EQ(decoded.status().code(), Errc::kIoError) << what;
  EXPECT_FALSE(decoded.status().message().empty()) << what;
  if (reason != nullptr) {
    EXPECT_NE(decoded.status().message().find(reason), std::string::npos)
        << what << ": " << decoded.status().to_string();
  }
}

/// `bytes` decodes to a snapshot whose v3 image is `expected`'s.
void expect_decodes_to(const std::string& bytes, const Snapshot& expected) {
  auto decoded = decode_snapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(encode_snapshot(decoded.value()), encode_snapshot(expected));
}

TEST(CheckpointCorruption, IntactFileDecodes) {
  auto decoded = decode_snapshot(encode_snapshot(sample_snapshot()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().machine, "test.scale");
  EXPECT_EQ(decoded.value().units.size(), 1u);
}

TEST(CheckpointCorruption, EveryTruncationIsRejected) {
  for (const auto& [name, bytes] : swept_images()) {
    SCOPED_TRACE(name);
    ASSERT_GT(bytes.size(), kHeaderSize);
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
      expect_rejected(std::string_view(bytes).substr(0, keep),
                      "a truncated file");
    }
  }
}

TEST(CheckpointCorruption, EveryFlippedPayloadBitIsRejected) {
  for (const auto& [name, original] : swept_images()) {
    SCOPED_TRACE(name);
    ASSERT_GT(original.size(), kHeaderSize);
    for (std::size_t i = kHeaderSize; i < original.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string bytes = original;
        bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
        expect_rejected(bytes, "a bit-flipped payload", "checksum");
      }
    }
  }
}

TEST(CheckpointCorruption, WrongMagicIsRejected) {
  std::string bytes = encode_snapshot(sample_snapshot());
  bytes[0] = 'X';
  auto decoded = decode_snapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("magic"), std::string::npos)
      << decoded.status().to_string();
}

TEST(CheckpointCorruption, FutureFormatVersionIsRejected) {
  std::string bytes = encode_snapshot(sample_snapshot());
  const std::uint32_t future = kFormatVersion + 1;
  std::memcpy(bytes.data() + 8, &future, sizeof(future));
  auto decoded = decode_snapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos)
      << decoded.status().to_string();
}

TEST(CheckpointCorruption, PayloadSizeMismatchIsRejected) {
  std::string bytes = encode_snapshot(sample_snapshot());
  std::uint64_t size = 0;
  std::memcpy(&size, bytes.data() + 12, sizeof(size));
  ++size;
  std::memcpy(bytes.data() + 12, &size, sizeof(size));
  expect_rejected(bytes, "a lying payload-size field");
}

TEST(CheckpointCorruption, HugeLengthFieldDoesNotAllocateOrOverread) {
  // The first payload field is the machine-name length; claim it is
  // astronomically long. The decoder must reject it by comparing
  // against the remaining payload, not trust it and allocate.
  std::string bytes = read_fixture("sample-v2.entkckpt");
  const std::uint64_t huge = ~std::uint64_t{0} / 2;
  std::memcpy(bytes.data() + kHeaderSize, &huge, sizeof(huge));
  fix_header(bytes);
  expect_rejected(bytes, "a huge string-length field", "string length");
}

TEST(CheckpointCorruption, HugeElementCountDoesNotWrapTheBoundsCheck) {
  // 2^63 staging directives of >= 18 bytes each: the byte total wraps
  // to 0 in 64 bits, so a multiplying bounds check passes it on to
  // reserve() (std::length_error, process abort). The count must be
  // compared as a count.
  std::string bytes = read_fixture("sample-v2.entkckpt");
  // The input-staging count (1) follows cores (2) and uses_mpi (0).
  const std::size_t at =
      find_once(bytes, le64(2) + std::string(1, '\0') + le64(1)) + 9;
  const std::uint64_t count = std::uint64_t{1} << 63;
  std::memcpy(bytes.data() + at, &count, sizeof(count));
  fix_header(bytes);
  expect_rejected(bytes, "an element count whose byte size wraps",
                  "element count");
}

// The v3 twins of the two guards above, and the malformations only the
// compact primitives can carry. Each repairs the checksum with
// word_checksum, so the field decoders, not the checksum, must refuse.

TEST(CheckpointCorruption, V3HugeLengthFieldDoesNotAllocateOrOverread) {
  const std::string bytes = encode_snapshot(sample_snapshot());
  ASSERT_EQ(bytes[kHeaderSize], 10);  // "test.scale"
  expect_rejected(splice(bytes, kHeaderSize, 1, varint(~0ULL / 2)),
                  "a huge string-length varint", "string length");
}

TEST(CheckpointCorruption, V3VarintLongerThanTenBytesIsRejected) {
  const std::string bytes = encode_snapshot(sample_snapshot());
  const std::string eleven = std::string(10, '\x80') + '\0';
  expect_rejected(splice(bytes, kHeaderSize, 1, eleven),
                  "an 11-byte varint", "longer than 10 bytes");
}

TEST(CheckpointCorruption, V3VarintPast64BitsIsRejected) {
  const std::string bytes = encode_snapshot(sample_snapshot());
  const std::string past = std::string(9, '\xFF') + '\x02';
  expect_rejected(splice(bytes, kHeaderSize, 1, past),
                  "a varint past 2^64", "exceeds 64 bits");
}

TEST(CheckpointCorruption, V3HugeElementCountDoesNotWrapTheBoundsCheck) {
  Snapshot snap = sample_snapshot();
  constexpr std::uint64_t kSentinel = 0x0123456789ABCDEFULL;
  snap.units.front().description.cores = static_cast<Count>(kSentinel);
  const std::string bytes = encode_snapshot(snap);
  // The input-staging count follows cores and uses_mpi (one byte).
  const std::size_t at =
      find_once(bytes, varint(kSentinel)) + varint(kSentinel).size() + 1;
  ASSERT_EQ(bytes[at], 1);
  expect_rejected(splice(bytes, at, 1, varint(std::uint64_t{1} << 63)),
                  "a count of 2^63", "element count");
}

TEST(CheckpointCorruption, V3U32FieldAboveItsRangeIsRejected) {
  const std::string bytes = encode_snapshot(sample_snapshot());
  // The payload ends with the graph's abort status: code 0, "".
  ASSERT_EQ(bytes.substr(bytes.size() - 2), std::string(2, '\0'));
  expect_rejected(splice(bytes, bytes.size() - 2, 1,
                         varint(std::uint64_t{1} << 32)),
                  "a status code of 2^32", "u32 field");
}

TEST(CheckpointCorruption, V3BadDoubleTagIsRejected) {
  const std::string bytes = encode_snapshot(sample_snapshot());
  // The run's walltime, 3600.0: the raw tag and its 8 bytes.
  const std::size_t at =
      find_once(bytes, '\x02' + le64(std::bit_cast<std::uint64_t>(3600.0)));
  expect_rejected(splice(bytes, at, 1, "\x03"), "a double tag of 3",
                  "double tag");
}

// The v2 file image is a compatibility contract: a snapshot written by
// an older build must resume on a newer one. The fixtures are the v2
// encoder's own output, proven by their size and FNV-1a (recorded from
// the original byte-at-a-time encoder), and each must decode to the
// snapshot it was written from.
TEST(CheckpointFormat, SampleSnapshotBytesArePinned) {
  const std::string bytes = read_fixture("sample-v2.entkckpt");
  EXPECT_EQ(bytes.size(), 888u);
  EXPECT_EQ(fnv1a(bytes), 0x2C6F926E363CA71DULL);
  expect_decodes_to(bytes, sample_snapshot());
}

TEST(CheckpointFormat, FullSnapshotBytesArePinnedAndRoundTrip) {
  const std::string bytes = read_fixture("full-v2.entkckpt");
  EXPECT_EQ(bytes.size(), 1840u);
  EXPECT_EQ(fnv1a(bytes), 0x5D8C25DA009A3F4BULL);
  expect_decodes_to(bytes, full_snapshot());
}

// The v3 images, pinned the same way: a round trip cannot see the
// encoder and decoder drift together.
TEST(CheckpointFormat, V3SampleSnapshotBytesArePinned) {
  const std::string bytes = encode_snapshot(sample_snapshot());
  EXPECT_EQ(bytes.size(), 340u);
  EXPECT_EQ(word_checksum(bytes), 0x614AB08D38E34D89ULL);
}

TEST(CheckpointFormat, V3FullSnapshotBytesArePinnedAndRoundTrip) {
  const std::string bytes = encode_snapshot(full_snapshot());
  EXPECT_EQ(bytes.size(), 825u);
  EXPECT_EQ(word_checksum(bytes), 0x54B7BE2BFCD6426EULL);
  auto decoded = decode_snapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(encode_snapshot(decoded.value()), bytes);
}

TEST(CheckpointFormat, V3ChecksumKnownAnswers) {
  std::string input(1000, '\0');
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<char>(i * 167 + 13);
  }
  const std::pair<std::size_t, std::uint64_t> known[] = {
      {0, 0xEF46DB3751D8E999ULL},
      {1, 0x873858C1D272E021ULL},
      {7, 0xEA213813986FF2C5ULL},
      {8, 0x082D5DB9CA9FE8AEULL},
      {31, 0x62B918A4975EA46EULL},
      {32, 0x7DE8339B23EEDA30ULL},
      {33, 0x0F89E94FD6105901ULL},
      {1000, 0xFD81CE2B0D38BEF2ULL},
  };
  for (const auto& [length, sum] : known) {
    EXPECT_EQ(word_checksum(std::string_view(input).substr(0, length)), sum)
        << "length " << length;
  }
}

TEST(CheckpointFormat, V3ChecksumCatchesEveryChangeWithinOneWord) {
  // Each step is a bijection of the running state, so two inputs that
  // differ in one aligned 8-byte word only never collide. Every
  // single-bit change and a spread of multi-bit ones, in every word.
  std::string input(1000, '\0');
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<char>(i * 31 + 7);
  }
  const std::uint64_t original = word_checksum(input);
  std::uint64_t lcg = 1;
  for (std::size_t word = 0; word < input.size(); word += 8) {
    for (int k = 0; k < 96; ++k) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::uint64_t mask = k < 64 ? std::uint64_t{1} << k : lcg | 1;
      std::string changed = input;
      for (std::size_t b = 0; b < 8; ++b) {
        changed[word + b] = static_cast<char>(
            changed[word + b] ^ static_cast<char>(mask >> (8 * b)));
      }
      EXPECT_NE(word_checksum(changed), original)
          << "word at " << word << ", mask " << mask;
    }
  }
}

TEST(CheckpointFormat, V3DoublesKeepTheirBits) {
  // +0.0 and kNoTime take the one-byte tags by bit pattern, so -0.0 and
  // NaN payloads come back exactly.
  Snapshot snap = sample_snapshot();
  const std::uint64_t nan_bits = 0x7FF8000000001234ULL;
  snap.runtime = std::bit_cast<double>(nan_bits);
  snap.engine_now = -0.0;
  snap.pattern_overhead = kNoTime;
  auto decoded = decode_snapshot(encode_snapshot(snap));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.value().runtime), nan_bits);
  EXPECT_TRUE(std::signbit(decoded.value().engine_now));
  EXPECT_EQ(decoded.value().engine_now, 0.0);
  EXPECT_EQ(decoded.value().pattern_overhead, kNoTime);
}

TEST(CheckpointFormat, V3ListsOfMinimalRecordsDecode) {
  // Every counted list, filled with records of the smallest v3
  // encoding and little after them: a count guard held to any larger
  // minimum (a v2 one, say) would refuse these valid files.
  constexpr std::size_t kN = 1000;
  UnitRecord unit;
  unit.description.retry.backoff_multiplier = 0.0;
  const auto with_unit = [unit](auto fill) {
    return [unit, fill](Snapshot& s) {
      s.units = {unit};
      fill(s.units.front().description);
    };
  };
  const auto with_agent = [](auto fill) {
    return [fill](Snapshot& s) {
      s.pilots.emplace_back();
      fill(s.pilots.front().agent);
    };
  };
  const auto with_faults = [](auto fill) {
    return [fill](Snapshot& s) {
      s.has_faults = true;
      fill(s.faults);
    };
  };
  const std::pair<const char*, std::function<void(Snapshot&)>> lists[] = {
      {"uid counters", [](auto& s) { s.uid_counters.resize(kN); }},
      {"units", [unit](auto& s) { s.units.assign(kN, unit); }},
      {"arguments", with_unit([](auto& d) { d.arguments.resize(kN); })},
      {"in staging", with_unit([](auto& d) { d.input_staging.resize(kN); })},
      {"out staging", with_unit([](auto& d) { d.output_staging.resize(kN); })},
      {"unrouted", [](auto& s) { s.unit_manager.unrouted.resize(kN); }},
      {"retries", [](auto& s) { s.retries.resize(kN); }},
      {"pilots", [](auto& s) { s.pilots.resize(kN); }},
      {"spawners", with_agent([](auto& a) { a.spawner_free_at.resize(kN); })},
      {"waiting", with_agent([](auto& a) { a.waiting.resize(kN); })},
      {"active", with_agent([](auto& a) { a.active.resize(kN); })},
      {"events", with_agent([](auto& a) { a.events.resize(kN); })},
      {"consumers", with_faults([](auto& f) { f.consumers.resize(kN); })},
      {"fault trace", with_faults([](auto& f) { f.trace.resize(kN); })},
      {"armed", with_faults([](auto& f) { f.armed.resize(kN); })},
      {"nodes", [](auto& s) { s.graph.nodes.resize(kN); }},
      {"groups", [](auto& s) { s.graph.groups.resize(kN); }},
      {"chain sets", [](auto& s) { s.graph.chain_sets_decided.resize(kN); }},
      {"expanders", [](auto& s) { s.graph.expander_stack.resize(kN); }},
      {"expander log", [](auto& s) { s.graph.expander_log.resize(kN); }},
      {"errors", [](auto& s) { s.graph.errors.resize(kN); }},
  };
  for (const auto& [name, fill] : lists) {
    Snapshot snap;
    fill(snap);
    const std::string bytes = encode_snapshot(snap);
    auto decoded = decode_snapshot(bytes);
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status().to_string();
    EXPECT_EQ(encode_snapshot(decoded.value()), bytes) << name;
  }
}

TEST(CheckpointCorruption, ReadSnapshotFileReportsPathInDiagnostics) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "ckpt_corrupt")
          .string();
  std::filesystem::create_directories(dir);

  const std::string missing = dir + "/does-not-exist.entkckpt";
  auto not_there = read_snapshot_file(missing);
  ASSERT_FALSE(not_there.ok());

  const std::string garbage_path = dir + "/garbage.entkckpt";
  ASSERT_TRUE(write_file_atomic(garbage_path,
                                "this is not a checkpoint file at all, "
                                "just some prose long enough to pass "
                                "the header-size check")
                  .is_ok());
  auto garbage = read_snapshot_file(garbage_path);
  ASSERT_FALSE(garbage.ok());
  EXPECT_NE(garbage.status().message().find(garbage_path),
            std::string::npos)
      << garbage.status().to_string();
  EXPECT_NE(garbage.status().message().find("magic"), std::string::npos)
      << garbage.status().to_string();
}

}  // namespace
}  // namespace entk::ckpt

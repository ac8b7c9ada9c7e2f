// Corrupt-checkpoint rejection: a damaged snapshot file must fail
// restore with a diagnostic Status — never undefined behavior, never a
// crash, never a silently wrong resume. Exercised forms of damage:
// truncation at every prefix length, a flipped bit anywhere in the
// payload (checksum), wrong magic, a future format version, a payload
// size that disagrees with the file, length fields pointing past the
// end of the payload (the classic decoder over-read), and element
// counts whose byte size wraps in 64 bits. CheckpointFormat.* pins the
// v2 file bytes themselves. The CI checkpoint-restart lane also runs
// this suite under asan-ubsan.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>

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

/// Offset of the first occurrence of `value`'s little-endian image.
std::size_t find_u64(const std::string& bytes, std::uint64_t value) {
  char image[8];
  std::memcpy(image, &value, sizeof(image));
  const std::size_t at = bytes.find(std::string_view(image, sizeof(image)));
  EXPECT_NE(at, std::string::npos);
  return at;
}

/// Rewrites the header checksum so a payload edit reaches the decoders.
void fix_checksum(std::string& bytes) {
  constexpr std::size_t kHeaderSize = 28;
  const std::uint64_t checksum = fnv1a(
      std::string_view(bytes.data() + kHeaderSize, bytes.size() - kHeaderSize));
  std::memcpy(bytes.data() + 20, &checksum, sizeof(checksum));
}

void expect_rejected(std::string_view bytes, const char* what) {
  auto decoded = decode_snapshot(bytes);
  ASSERT_FALSE(decoded.ok()) << "decoder accepted " << what;
  EXPECT_EQ(decoded.status().code(), Errc::kIoError) << what;
  EXPECT_FALSE(decoded.status().message().empty()) << what;
}

TEST(CheckpointCorruption, IntactFileDecodes) {
  auto decoded = decode_snapshot(encode_snapshot(sample_snapshot()));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().machine, "test.scale");
  EXPECT_EQ(decoded.value().units.size(), 1u);
}

TEST(CheckpointCorruption, EveryTruncationIsRejected) {
  const std::string bytes = encode_snapshot(sample_snapshot());
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    expect_rejected(std::string_view(bytes).substr(0, keep),
                    "a truncated file");
  }
}

TEST(CheckpointCorruption, EveryFlippedPayloadBitIsRejected) {
  const std::string original = encode_snapshot(sample_snapshot());
  // 8 magic + 4 version + 8 size + 8 checksum.
  constexpr std::size_t kHeaderSize = 28;
  ASSERT_GT(original.size(), kHeaderSize);
  for (std::size_t i = kHeaderSize; i < original.size(); ++i) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::string bytes = original;
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      expect_rejected(bytes, "a bit-flipped payload");
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
  Snapshot snap = sample_snapshot();
  std::string bytes = encode_snapshot(snap);
  constexpr std::size_t kHeaderSize = 28;
  const std::uint64_t huge = ~std::uint64_t{0} / 2;
  std::memcpy(bytes.data() + kHeaderSize, &huge, sizeof(huge));
  // Fix up the checksum so the corruption reaches the field decoders.
  const std::string_view payload(bytes.data() + kHeaderSize,
                                 bytes.size() - kHeaderSize);
  const std::uint64_t checksum = fnv1a(payload);
  std::memcpy(bytes.data() + 20, &checksum, sizeof(checksum));
  expect_rejected(bytes, "a huge string-length field");
}

TEST(CheckpointCorruption, HugeElementCountDoesNotWrapTheBoundsCheck) {
  // 2^63 staging directives of >= 18 bytes each: the byte total wraps
  // to 0 in 64 bits, so a multiplying bounds check passes it on to
  // reserve() (std::length_error, process abort). The count must be
  // compared as a count.
  Snapshot snap = sample_snapshot();
  constexpr std::uint64_t kSentinel = 0x0123456789ABCDEFULL;
  snap.units.front().description.cores = static_cast<Count>(kSentinel);
  std::string bytes = encode_snapshot(snap);
  // The input-staging count follows cores (u64) and uses_mpi (u8).
  const std::size_t at = find_u64(bytes, kSentinel) + 8 + 1;
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + at, sizeof(count));
  ASSERT_EQ(count, 1u);
  count = std::uint64_t{1} << 63;
  std::memcpy(bytes.data() + at, &count, sizeof(count));
  fix_checksum(bytes);
  expect_rejected(bytes, "an element count whose byte size wraps");
}

// The v2 file image is a compatibility contract: a snapshot written by
// an older build must resume on a newer one and the other way round. A
// round trip cannot see the encoder and decoder drift together, so
// these pin the bytes themselves (size and FNV-1a of the whole file, as
// written by the original byte-at-a-time encoder).
TEST(CheckpointFormat, SampleSnapshotBytesArePinned) {
  const std::string bytes = encode_snapshot(sample_snapshot());
  EXPECT_EQ(bytes.size(), 888u);
  EXPECT_EQ(fnv1a(bytes), 0x2C6F926E363CA71DULL);
}

TEST(CheckpointFormat, FullSnapshotBytesArePinnedAndRoundTrip) {
  const std::string bytes = encode_snapshot(full_snapshot());
  EXPECT_EQ(bytes.size(), 1840u);
  EXPECT_EQ(fnv1a(bytes), 0x5D8C25DA009A3F4BULL);
  auto decoded = decode_snapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(encode_snapshot(decoded.value()), bytes);
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

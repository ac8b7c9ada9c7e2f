// Workflow-level checkpoint snapshots.
//
// A Snapshot is a complete, self-contained image of one running
// ensemble at an engine-step boundary: the compiled TaskGraph's
// runtime state (node statuses, expander progress, group verdicts),
// every compute unit (description + state machine + profiling
// timeline), the unit manager's routing/retry bookkeeping, each pilot
// agent's dispatch state, the fault model's RNG streams, the pending
// engine events, and the process-global uid counters. Restoring it
// onto a fresh backend resumes the run bit-for-bit: the remaining
// schedule is identical to the uninterrupted same-seed run (see
// tests/checkpoint_restart_test.cpp).
//
// On-disk format (header little-endian):
//   8 bytes   magic "ENTKCKPT"
//   u32       format version (written: 3, read: 1-3)
//   u64       payload size in bytes
//   u64       checksum of the payload: word_checksum() in v3, fnv1a()
//             in v1 and v2
//   payload   the encoded Snapshot
// The v3 payload is compact: every integer, count and string length is
// unsigned LEB128 (at most 10 bytes), a bool or enum ordinal is one
// byte, and a double is a tag byte (0: +0.0, 1: kNoTime, 2: the 8 raw
// little-endian bytes follow). v1 and v2 payloads hold the same fields
// fixed-width (u32, u64, raw doubles). Builds that write v2 reject a
// v3 file ("unsupported checkpoint format version 3").
// Files are published crash-consistently (write-temp + fsync + atomic
// rename, src/common/atomic_file.hpp): a reader sees either the old
// snapshot or the new one, never a torn write. Corrupt files —
// truncated, bit-flipped, wrong magic, future version — fail
// read_snapshot_file() with a diagnostic Status, never UB.
//
// Scope: the simulated backend only. UnitDescription::payload (the
// local backend's in-process work function) is not serializable and is
// dropped; local-backend runs cannot be checkpointed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "core/graph_executor.hpp"
#include "pilot/compute_unit.hpp"
#include "pilot/sim_agent.hpp"
#include "pilot/unit_manager.hpp"
#include "sim/fault_model.hpp"

namespace entk::ckpt {

inline constexpr char kSnapshotMagic[8] = {'E', 'N', 'T', 'K',
                                           'C', 'K', 'P', 'T'};
/// v2 adds the owning session name (snapshot identity + per-unit
/// descriptions); v1 files decode with every session field empty — the
/// legacy single-workload layout. v3 stores the v2 fields compactly
/// under a faster checksum.
inline constexpr std::uint32_t kFormatVersion = 3;
inline constexpr std::uint32_t kMinFormatVersion = 1;

/// One compute unit: identity, (re)creation inputs, and captured state.
struct UnitRecord {
  std::string uid;
  /// payload is dropped (sim backend only).
  pilot::UnitDescription description;
  pilot::ComputeUnit::SavedState state;
  bool settled = false;   ///< UnitManager entry flag.
  bool notified = false;  ///< Settled observers already fired.
};

/// A pending retry-backoff requeue with its original firing point.
struct RetryRecord {
  std::string uid;
  TimePoint time = 0.0;
  std::uint64_t seq = 0;
};

/// One pilot and its agent's dispatch state, in allocation order.
struct PilotRecord {
  std::string uid;
  pilot::SimAgent::SavedState agent;
};

struct Snapshot {
  // Identity guard: a snapshot restores only into the same resources
  // and pattern (verified by Coordinator::restore_runtime).
  std::string machine;
  Count cores = 0;
  Count n_pilots = 1;
  Duration runtime = 0.0;
  std::string scheduler_policy;
  std::string pattern_name;
  /// Owning session (""= legacy unnamed). A named-session snapshot
  /// restores only into a session of the same name, and its uid
  /// counters cover only that session's families, so restoring while
  /// other sessions run in the process cannot stomp their counters.
  std::string session;
  /// Optional: the serialized workload file (entk-run round-trip).
  std::string workload_text;

  TimePoint engine_now = 0.0;
  std::vector<std::pair<std::string, std::uint64_t>> uid_counters;
  /// Submission order (the plugin's all_units order) — the canonical
  /// unit serialization order everything else references by uid.
  std::vector<UnitRecord> units;
  Duration pattern_overhead = 0.0;
  pilot::UnitManager::SavedState unit_manager;
  std::vector<RetryRecord> retries;
  std::vector<PilotRecord> pilots;
  bool has_faults = false;
  sim::FaultModel::SavedState faults;
  core::GraphExecutor::SavedState graph;
};

/// 64-bit FNV-1a over a byte string: the payload checksum of v1 and v2
/// files.
std::uint64_t fnv1a(std::string_view bytes);

/// The v3 payload checksum: xxHash64-style rounds over four 8-byte
/// lanes, then the lanes and the 0-31 tail bytes folded in. Every step
/// is a bijection of the running state, so a change confined to one
/// 8-byte word of the input always changes the result.
std::uint64_t word_checksum(std::string_view bytes);

/// Encodes a snapshot into the full file image (header + payload).
std::string encode_snapshot(const Snapshot& snapshot);

/// Decodes a full file image, validating magic, version, payload size
/// and checksum. Every structural error returns a diagnostic Status.
Result<Snapshot> decode_snapshot(std::string_view bytes);

/// Writes a snapshot crash-consistently (temp + fsync + rename).
Status write_snapshot_file(const std::string& path,
                           const Snapshot& snapshot);

/// Reads and decodes a snapshot file.
Result<Snapshot> read_snapshot_file(const std::string& path);

}  // namespace entk::ckpt

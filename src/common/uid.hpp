// Unique-id generation for toolkit entities.
//
// Every task, unit, pilot and pattern instance gets a uid of the
// form "<prefix>.<counter>" (e.g. "unit.000042"), matching the naming
// scheme of the original toolkit's profiler output. Counters are
// per-prefix and process-global; generation is thread-safe. A named
// session's families go when the session does (see UidSource).
//
// The hot path is lock-free: each prefix owns one atomic counter, held
// directly by a UidSource handle, so concurrent unit creation does not
// serialize on the registry mutex (next_uid() takes it per call).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace entk {

namespace detail {
struct PrefixCounter;
}  // namespace detail

/// Returns the next uid for the given prefix, e.g. uid("task") ->
/// "task.000000", "task.000001", ...
std::string next_uid(const std::string& prefix);

/// Interned uid prefix: resolves the per-prefix counter once at
/// construction, so each next() is a single relaxed atomic increment —
/// no lock, no map lookup, no per-call prefix copy. Shares the same
/// process-global counter as next_uid(prefix), and stays valid across
/// the resets below (which zero counters in place).
///
/// A handle holds its prefix's counter. A counter that next_uid() or a
/// process handle ever drew from lives as long as the process; one that
/// only session handles drew from is dropped with the last handle, and
/// the next user of the prefix starts again at 0.
class UidSource {
 public:
  /// A process handle on `prefix`.
  explicit UidSource(std::string prefix);
  /// Session `session`'s `kind` family ("unit", "pilot"):
  /// "<session>.<kind>", held while a handle on it lives. The unnamed
  /// session "" draws from the bare process-wide `kind` family.
  static UidSource session_family(const std::string& session,
                                  const char* kind);
  ~UidSource();
  UidSource(const UidSource&) = delete;
  UidSource& operator=(const UidSource&) = delete;

  /// Thread-safe; uids are unique for the prefix while it lives.
  std::string next() const;

  const std::string& prefix() const { return prefix_; }

 private:
  UidSource(std::string prefix, bool for_process);

  std::string prefix_;
  detail::PrefixCounter* counter_;
};

/// Resets all counters; intended for test isolation only. Interned
/// UidSource handles remain valid (counters restart at zero).
void reset_uid_counters_for_testing();

/// Resets only the counters belonging to one uid family: prefixes that
/// equal `family` or start with `family` + ".". Used when restoring a
/// named session from a checkpoint so the reset cannot stomp the
/// counters of sessions still running in this process.
void reset_uid_counters_with_prefix(const std::string& family);

/// Snapshot of every (prefix, next-counter) pair, sorted by prefix so
/// the result is deterministic. Used by checkpoint/restart.
std::vector<std::pair<std::string, std::uint64_t>> snapshot_uid_counters();

/// Restores counter values from a snapshot (creating missing prefixes).
/// Prefixes absent from the snapshot are left untouched; callers that
/// need a clean slate reset the families they restore first.
void restore_uid_counters(
    const std::vector<std::pair<std::string, std::uint64_t>>& snapshot);

}  // namespace entk

// Tests of the runtime lock-rank validator (common/lock_rank.hpp).
//
// The interesting assertions only exist under ENTK_LOCK_RANK_CHECK
// (the `lock-rank` CMake preset): out-of-order acquisition must abort
// the process, which we observe from a forked child. In ordinary
// builds the validator compiles to no-ops and this file only checks
// the rank table itself.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "common/lock_rank.hpp"
#include "common/mutex.hpp"

#if defined(ENTK_LOCK_RANK_CHECK)
#include <csignal>
#include <cstdio>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace entk {
namespace {

TEST(LockRank, NamesAreStable) {
  EXPECT_STREQ(lock_rank_name(LockRank::kNone), "kNone");
  EXPECT_STREQ(lock_rank_name(LockRank::kUnitManager), "kUnitManager");
  EXPECT_STREQ(lock_rank_name(LockRank::kComputeUnit), "kComputeUnit");
  EXPECT_STREQ(lock_rank_name(LockRank::kLogger), "kLogger");
}

TEST(LockRank, RanksAreStrictlyOrderedAlongTheRuntimeChain) {
  // The documented nesting chains must be strictly increasing; this
  // pins the table against accidental reordering (the full graph is
  // checked statically by entk-analyze --locks).
  EXPECT_LT(static_cast<int>(LockRank::kGraphExecutor),
            static_cast<int>(LockRank::kComputeUnit));
  EXPECT_LT(static_cast<int>(LockRank::kUnitManager),
            static_cast<int>(LockRank::kPilot));
  EXPECT_LT(static_cast<int>(LockRank::kPilot),
            static_cast<int>(LockRank::kLocalAgent));
  EXPECT_LT(static_cast<int>(LockRank::kLocalAgent),
            static_cast<int>(LockRank::kComputeUnit));
  EXPECT_LT(static_cast<int>(LockRank::kComputeUnit),
            static_cast<int>(LockRank::kTraceRecorder));
  EXPECT_LT(static_cast<int>(LockRank::kTraceRecorder),
            static_cast<int>(LockRank::kLogger));
}

std::string read_source_file(const std::string& relative) {
  std::ifstream in(std::string(ENTK_SOURCE_DIR) + "/" + relative);
  EXPECT_TRUE(in) << relative;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(LockRank, CorrectnessDocListsEveryRank) {
  // The header is the source of truth; docs/CORRECTNESS.md's table
  // must carry a "| N | `kName` |" row for each of its ranks.
  const std::string header = read_source_file("src/common/lock_rank.hpp");
  const std::string doc = read_source_file("docs/CORRECTNESS.md");
  const std::regex enumerator(R"(^\s*(k\w+)\s*=\s*(-?\d+),)");
  int ranks = 0;
  std::istringstream lines(header);
  for (std::string line; std::getline(lines, line);) {
    std::smatch match;
    if (!std::regex_search(line, match, enumerator)) continue;
    if (match[1] == "kNone") continue;
    ++ranks;
    const std::string row =
        "| " + match[2].str() + " | `" + match[1].str() + "` |";
    EXPECT_NE(doc.find(row), std::string::npos) << "missing row " << row;
  }
  EXPECT_GT(ranks, 0) << "no rank parsed from lock_rank.hpp";
}

#if defined(ENTK_LOCK_RANK_CHECK)

/// Runs `body` in a forked child and returns its wait status. The
/// child's stderr is silenced: an expected abort should not spray the
/// validator's diagnostic into the test log.
template <typename Body>
int exit_status_of(Body body) {
  const pid_t pid = fork();
  if (pid == 0) {
    std::freopen("/dev/null", "w", stderr);
    body();
    _exit(0);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

TEST(LockRankCheck, InOrderAcquisitionPasses) {
  Mutex low(LockRank::kUnitManager);
  Mutex high(LockRank::kUidRegistry);
  {
    MutexLock outer(low);
    MutexLock inner(high);
    EXPECT_EQ(lockrank::held_count(), 2);
  }
  EXPECT_EQ(lockrank::held_count(), 0);
}

TEST(LockRankCheck, UnrankedLocksAreExemptFromOrdering) {
  Mutex ranked(LockRank::kUidRegistry);
  Mutex unranked;
  MutexLock outer(ranked);
  MutexLock inner(unranked);  // kNone after a high rank: allowed
  EXPECT_EQ(lockrank::held_count(), 2);
}

TEST(LockRankCheck, OutOfOrderAcquisitionAborts) {
  const int status = exit_status_of([] {
    Mutex low(LockRank::kUnitManager);
    Mutex high(LockRank::kUidRegistry);
    MutexLock outer(high);
    MutexLock inner(low);  // rank 30 while holding 85: must abort
  });
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
}

TEST(LockRankCheck, EqualRankAcquisitionAborts) {
  const int status = exit_status_of([] {
    Mutex first(LockRank::kComputeUnit);
    Mutex second(LockRank::kComputeUnit);
    MutexLock outer(first);
    MutexLock inner(second);  // equal rank: order is ambiguous
  });
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
}

TEST(LockRankCheck, SelfDeadlockAborts) {
  const int status = exit_status_of([] {
    Mutex mutex;  // even unranked locks catch re-acquisition
    mutex.lock();
    mutex.lock();
  });
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
}

TEST(LockRankCheck, SharedMutexParticipates) {
  const int status = exit_status_of([] {
    SharedMutex low(LockRank::kUnitManager);
    Mutex high(LockRank::kUidRegistry);
    MutexLock outer(high);
    SharedReaderLock inner(low);  // readers obey the same order
  });
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
}

#else  // !ENTK_LOCK_RANK_CHECK

TEST(LockRankCheck, DisabledValidatorIsFree) {
  // Release builds keep the rank argument but compile the hooks to
  // no-ops; held_count is always zero.
  Mutex mutex(LockRank::kUidRegistry);
  MutexLock lock(mutex);
  EXPECT_EQ(lockrank::held_count(), 0);
}

#endif  // ENTK_LOCK_RANK_CHECK

}  // namespace
}  // namespace entk

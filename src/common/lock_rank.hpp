// Lock ranks: the total acquisition order for every mutex in the
// toolkit.
//
// A thread may only acquire a lock whose rank is STRICTLY GREATER than
// every ranked lock it already holds. Ranks therefore encode the
// global lock-order DAG as one number per lock: outermost
// (orchestration) locks get the lowest ranks, leaf locks that may be
// taken under anything (logging, tracing, name interning) get the
// highest. The table below is the single source of truth; it is
// cross-checked from two sides:
//
//   static   tools/entk-analyze --locks parses this enum, extracts the
//            per-function acquisition sequences from the whole repo
//            and rejects any edge that violates the rank order (and
//            any cycle, ranked or not).
//   dynamic  under -DENTK_LOCK_RANK_CHECK=ON, entk::Mutex/SharedMutex
//            verify every acquisition against a thread-local held-lock
//            stack and abort with both the held stack and the
//            offending acquisition printed.
//
// Adding a lock? docs/CORRECTNESS.md has the recipe ("how to add a
// new lock safely"). Keep gaps between values so new locks slot in
// without renumbering.
#pragma once

namespace entk {

// NOTE: entk-analyze parses this enum body literally ("kName = value")
// to learn the rank table — keep one enumerator per line, explicit
// values, no macros.
enum class LockRank : int {
  kNone = -1,             ///< Unranked: exempt from order checking.
  kServeMailbox = 2,      ///< serve::Service::mailbox_mutex_ (admission)
  kServeRegistry = 3,     ///< serve::Service::registry_mutex_ (workloads)
  kRuntime = 5,           ///< core::Runtime::mutex_ (session registry)
  kGraphExecutor = 10,    ///< core::GraphExecutor::mutex_
  kExecutionPlugin = 20,  ///< core::ExecutionPlugin::mutex_
  kCallbackGate = 25,     ///< pilot::CallbackGate::mutex_ (teardown)
  kUnitManager = 30,      ///< pilot::UnitManager::mutex_
  kPilot = 40,            ///< pilot::Pilot::mutex_
  kLocalAgent = 50,       ///< pilot::LocalAgent::mutex_
  kBackendTimers = 60,    ///< pilot::LocalBackend::timers_mutex_
  kComputeUnit = 70,      ///< pilot::ComputeUnit::mutex_
  kUidRegistry = 85,      ///< uid.cpp source registry
  kSessionRegistry = 91,  ///< obs trace session-name interning
  kTraceRecorder = 92,    ///< obs::TraceRecorder::mutex_
  kLogger = 95,           ///< Logger::mutex_ (log under anything)
};

/// Human-readable enumerator name ("kUnitManager"); "kNone" for
/// unranked, "?" for values outside the table.
const char* lock_rank_name(LockRank rank);

namespace lockrank {

#if defined(ENTK_LOCK_RANK_CHECK)

/// Validates `rank` against the calling thread's held-lock stack and
/// pushes the entry. Aborts (printing the held stack and the offending
/// acquisition) when `mutex` is already held by this thread or when a
/// held ranked lock has rank >= `rank`. Call immediately BEFORE the
/// underlying acquisition so a potential deadlock is reported instead
/// of entered. `kind` names the primitive for diagnostics ("mutex",
/// "shared", "reader").
void acquire(LockRank rank, const void* mutex, const char* kind);

/// Pushes without order validation — for try_lock successes, which
/// cannot deadlock. Call AFTER the acquisition succeeded.
void acquire_unchecked(LockRank rank, const void* mutex,
                       const char* kind);

/// Pops `mutex` from the calling thread's held-lock stack.
void release(const void* mutex);

/// Number of locks the calling thread currently holds (test hook).
int held_count();

#else

inline void acquire(LockRank, const void*, const char*) {}
inline void acquire_unchecked(LockRank, const void*, const char*) {}
inline void release(const void*) {}
inline int held_count() { return 0; }

#endif  // ENTK_LOCK_RANK_CHECK

}  // namespace lockrank

}  // namespace entk

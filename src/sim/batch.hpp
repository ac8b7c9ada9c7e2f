// Batch-queue model: the resource-management system of a simulated
// machine (the SLURM/PBS analogue).
//
// Jobs request a core count and a walltime. Each submission first
// incurs a deterministic queue wait (base + per-node term from the
// machine profile, modelling scheduler cycles and backlog), then starts
// as soon after that as the requested cores are free, FIFO. A running
// job ends when its owner completes it or when its walltime expires —
// whichever comes first. Pilot container jobs are exactly such jobs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/engine.hpp"

namespace entk::sim {

using BatchJobId = std::uint64_t;

enum class BatchJobState : std::uint8_t {
  kQueued,     ///< Waiting for queue delay and/or free cores.
  kRunning,    ///< Holding an allocation.
  kCompleted,  ///< Owner called complete() in time.
  kExpired,    ///< Walltime ran out; cores reclaimed.
  kCancelled,  ///< Cancelled (queued or running).
};

const char* batch_job_state_name(BatchJobState state);

struct BatchJobRequest {
  Count cores = 0;
  Duration walltime = 0.0;
  /// Fires when the job starts, with its allocation.
  std::function<void(const Allocation&)> on_start;
  /// Fires exactly once when the job leaves the system, with the final
  /// state (kCompleted, kExpired or kCancelled).
  std::function<void(BatchJobState)> on_end;
};

/// How the batch system picks the next job(s) to start.
enum class BatchPolicy {
  kFifo,           ///< Strict FIFO: an oversized head blocks the queue.
  kEasyBackfill,   ///< FIFO head + smaller jobs may jump the queue when
                   ///< they fit in the currently idle cores (EASY-style
                   ///< backfill without reservations).
};

class BatchQueue {
 public:
  BatchQueue(Engine& engine, Cluster& cluster,
             BatchPolicy policy = BatchPolicy::kFifo);

  BatchPolicy policy() const { return policy_; }

  /// Submits a job; it becomes eligible to start after the machine's
  /// queue-wait delay, then starts FIFO when cores are free.
  Result<BatchJobId> submit(BatchJobRequest request);

  /// Owner signals that a running job is done; releases its cores.
  Status complete(BatchJobId id);

  /// Cancels a queued or running job.
  Status cancel(BatchJobId id);

  Result<BatchJobState> state(BatchJobId id) const;

  /// Jobs queued or running: the only ones the queue keeps a record of.
  std::size_t live_jobs() const { return jobs_.size(); }

 private:
  /// A queued or running job; erased when it ends.
  struct JobRecord {
    BatchJobId id = 0;
    BatchJobRequest request;
    Allocation allocation;
    EventId walltime_event = kInvalidEvent;
  };

  BatchJobState& state_of(BatchJobId id) { return states_[id - 1]; }
  void make_eligible(BatchJobId id);
  void try_start_jobs();
  /// Ends a running job: releases its cores, then end_job().
  void finish(JobRecord& job, BatchJobState final_state);
  /// Records the final state, erases the job and fires its on_end.
  void end_job(JobRecord& job, BatchJobState final_state);

  Engine& engine_;
  Cluster& cluster_;
  BatchPolicy policy_;
  std::unordered_map<BatchJobId, JobRecord> jobs_;
  /// states_[id - 1] is job `id`'s state: one byte per job ever
  /// submitted, so state() and a second complete() or cancel() still
  /// answer once the job's record is gone. A job is in jobs_ exactly
  /// while it is queued or running.
  std::vector<BatchJobState> states_;
  std::deque<BatchJobId> eligible_;  // FIFO start order
};

}  // namespace entk::sim

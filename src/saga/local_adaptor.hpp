// SAGA adaptor for the local host.
//
// A FIFO core-slot accountant for container jobs (the pilots of the
// local backend): a job starts immediately when enough local "cores"
// (slots) are free, FIFO otherwise — there is no queue-wait model —
// and holds its cores until its owner calls complete() or cancel().
// The adaptor starts no threads; the pilot's LocalAgent runs the
// units' payloads on its own worker threads.
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"
#include "saga/job_service.hpp"

namespace entk::saga {

class LocalAdaptor final : public JobService {
 public:
  /// `cores` bounds the summed total_cpu_count of concurrently running
  /// jobs.
  explicit LocalAdaptor(Count cores);

  Result<JobPtr> submit(JobDescription description) override
      ENTK_EXCLUDES(mutex_);
  Status cancel(Job& job) override ENTK_EXCLUDES(mutex_);
  Status complete(Job& job) override ENTK_EXCLUDES(mutex_);
  std::string backend_name() const override { return "local"; }

  Count total_cores() const { return cores_; }
  Count free_cores() const ENTK_EXCLUDES(mutex_);

  const Clock& clock() const { return clock_; }

 private:
  /// Reserves cores for as many waiting jobs as fit (FIFO) and moves
  /// them into running_. Returns the reserved jobs WITHOUT advancing
  /// their state: the caller must pass them to launch() after
  /// releasing mutex_ — job-state callbacks drive the whole
  /// pilot/unit-manager chain and must never fire under the adaptor
  /// lock (LockRank::kLocalAdaptor orders below the locks they take).
  std::vector<JobPtr> try_start_locked() ENTK_REQUIRES(mutex_);
  /// Advances reserved jobs to kRunning; releases the cores of jobs
  /// that reached a final state in the window between reservation and
  /// launch (cancel racing with start-up).
  void launch(std::vector<JobPtr> started) ENTK_EXCLUDES(mutex_);
  void finish(const JobPtr& job, JobState final_state)
      ENTK_EXCLUDES(mutex_);

  const Count cores_;
  WallClock clock_;

  mutable Mutex mutex_{LockRank::kLocalAdaptor};
  Count free_ ENTK_GUARDED_BY(mutex_) = 0;
  std::deque<JobPtr> waiting_ ENTK_GUARDED_BY(mutex_);
  std::unordered_map<const Job*, JobPtr> running_ ENTK_GUARDED_BY(mutex_);
};

}  // namespace entk::saga

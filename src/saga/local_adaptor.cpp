#include "saga/local_adaptor.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/uid.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace entk::saga {

LocalAdaptor::LocalAdaptor(Count cores) : cores_(cores), free_(cores) {
  ENTK_CHECK(cores >= 1, "local adaptor needs at least one core");
}

Count LocalAdaptor::free_cores() const {
  MutexLock lock(mutex_);
  return free_;
}

Result<JobPtr> LocalAdaptor::submit(JobDescription description) {
  ENTK_RETURN_IF_ERROR(description.validate());
  ENTK_TRACE_INSTANT("saga.job.submit", "saga");
  obs::Metrics::instance()
      .counter(obs::WellKnownCounter::kSagaJobsSubmitted)
      .add();
  if (description.total_cpu_count > cores_) {
    return make_error(Errc::kResourceExhausted,
                      "job requests " +
                          std::to_string(description.total_cpu_count) +
                          " cores; local host has " + std::to_string(cores_));
  }
  auto job =
      std::make_shared<Job>(next_uid("job"), std::move(description), clock_);
  ENTK_CHECK(job->advance_state(JobState::kPending).is_ok(), "fresh job");
  std::vector<JobPtr> started;
  {
    MutexLock lock(mutex_);
    waiting_.push_back(job);
    started = try_start_locked();
  }
  launch(std::move(started));
  return job;
}

std::vector<JobPtr> LocalAdaptor::try_start_locked() {
  std::vector<JobPtr> started;
  while (!waiting_.empty()) {
    JobPtr job = waiting_.front();
    if (is_final(job->state())) {  // cancelled while waiting
      waiting_.pop_front();
      continue;
    }
    const Count need = job->description().total_cpu_count;
    if (need > free_) break;  // FIFO: head of queue blocks the rest
    waiting_.pop_front();
    free_ -= need;
    running_.emplace(job.get(), job);
    started.push_back(std::move(job));
  }
  return started;
}

void LocalAdaptor::launch(std::vector<JobPtr> started) {
  while (!started.empty()) {
    std::vector<JobPtr> restarted;
    for (JobPtr& job : started) {
      // A running job keeps its cores until complete() or cancel().
      if (job->advance_state(JobState::kRunning).is_ok()) continue;
      // The job reached a final state between reservation and launch
      // (cancel raced with start-up): return its cores, which may let
      // further waiting jobs start.
      MutexLock lock(mutex_);
      const auto it = running_.find(job.get());
      if (it == running_.end()) continue;  // raced with finish()
      running_.erase(it);
      free_ += job->description().total_cpu_count;
      ENTK_CHECK(free_ <= cores_, "core accounting out of sync");
      auto more = try_start_locked();
      restarted.insert(restarted.end(),
                       std::make_move_iterator(more.begin()),
                       std::make_move_iterator(more.end()));
    }
    started = std::move(restarted);
  }
}

void LocalAdaptor::finish(const JobPtr& job, JobState final_state) {
  std::vector<JobPtr> started;
  {
    MutexLock lock(mutex_);
    const auto it = running_.find(job.get());
    if (it == running_.end()) return;  // raced with cancel()
    running_.erase(it);
    free_ += job->description().total_cpu_count;
    ENTK_CHECK(free_ <= cores_, "core accounting out of sync");
    started = try_start_locked();
  }
  (void)job->advance_state(final_state);
  launch(std::move(started));
}

Status LocalAdaptor::cancel(Job& job) {
  JobPtr handle;
  {
    MutexLock lock(mutex_);
    const auto it = running_.find(&job);
    if (it != running_.end()) {
      handle = it->second;
    } else {
      const auto waiting_it = std::find_if(
          waiting_.begin(), waiting_.end(),
          [&](const JobPtr& candidate) { return candidate.get() == &job; });
      if (waiting_it == waiting_.end()) {
        return make_error(Errc::kNotFound,
                          "job " + job.uid() + " is not active locally");
      }
      handle = *waiting_it;
      waiting_.erase(waiting_it);
      // Not running: transition directly.
    }
  }
  if (handle->state() == JobState::kRunning) {
    finish(handle, JobState::kCanceled);
    return Status::ok();
  }
  return handle->advance_state(JobState::kCanceled);
}

Status LocalAdaptor::complete(Job& job) {
  JobPtr handle;
  {
    MutexLock lock(mutex_);
    const auto it = running_.find(&job);
    if (it == running_.end()) {
      return make_error(Errc::kNotFound,
                        "job " + job.uid() + " is not running locally");
    }
    handle = it->second;
  }
  finish(handle, JobState::kDone);
  return Status::ok();
}

}  // namespace entk::saga

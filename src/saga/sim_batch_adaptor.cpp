#include "saga/sim_batch_adaptor.hpp"

#include "common/uid.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace entk::saga {

SimBatchAdaptor::SimBatchAdaptor(sim::Engine& engine, sim::BatchQueue& batch,
                                 std::string machine_name)
    : engine_(engine), batch_(batch), machine_(std::move(machine_name)) {}

Result<JobPtr> SimBatchAdaptor::submit(JobDescription description) {
  ENTK_RETURN_IF_ERROR(description.validate());
  ENTK_TRACE_INSTANT("saga.job.submit", "saga");
  obs::Metrics::instance()
      .counter(obs::WellKnownCounter::kSagaJobsSubmitted)
      .add();
  auto job = std::make_shared<Job>(next_uid("job"), std::move(description),
                                   engine_.clock());

  sim::BatchJobRequest request;
  request.cores = job->description().total_cpu_count;
  request.walltime = job->description().wall_time_limit;
  // The weak_ptr keeps the batch callbacks safe if the application
  // drops the job handle before the simulation finishes.
  std::weak_ptr<Job> weak = job;
  request.on_start = [weak](const sim::Allocation& allocation) {
    auto started = weak.lock();
    if (!started) return;
    started->set_allocation(allocation);
    ENTK_CHECK(started->advance_state(JobState::kRunning).is_ok(),
               "batch start on non-pending job");
  };
  request.on_end = [this, weak](sim::BatchJobState final_state) {
    auto ended = weak.lock();
    if (!ended) return;
    batch_ids_.erase(ended.get());
    ended->clear_allocation();
    if (is_final(ended->state())) return;  // complete()/cancel() already did
    switch (final_state) {
      case sim::BatchJobState::kCompleted:
        (void)ended->advance_state(JobState::kDone);
        break;
      case sim::BatchJobState::kExpired:
        (void)ended->advance_state(
            JobState::kFailed,
            make_error(Errc::kTimedOut,
                       "job " + ended->uid() + " exceeded its walltime"));
        break;
      case sim::BatchJobState::kCancelled:
        (void)ended->advance_state(JobState::kCanceled);
        break;
      default:
        break;
    }
  };

  auto batch_id = batch_.submit(std::move(request));
  if (!batch_id.ok()) return batch_id.status();
  batch_ids_[job.get()] = batch_id.value();
  ENTK_CHECK(job->advance_state(JobState::kPending).is_ok(), "fresh job");
  return job;
}

Status SimBatchAdaptor::cancel(Job& job) {
  const auto it = batch_ids_.find(&job);
  if (it == batch_ids_.end()) {
    return make_error(Errc::kNotFound,
                      "job " + job.uid() + " is not active on " +
                          backend_name());
  }
  return batch_.cancel(it->second);
}

Status SimBatchAdaptor::complete(Job& job) {
  const auto it = batch_ids_.find(&job);
  if (it == batch_ids_.end()) {
    return make_error(Errc::kNotFound,
                      "job " + job.uid() + " is not active on " +
                          backend_name());
  }
  const sim::BatchJobId batch_id = it->second;
  ENTK_RETURN_IF_ERROR(job.advance_state(JobState::kDone));
  return batch_.complete(batch_id);
}

}  // namespace entk::saga

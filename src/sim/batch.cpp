#include "sim/batch.hpp"

#include <cmath>
#include <utility>

#include "common/log.hpp"

namespace entk::sim {

const char* batch_job_state_name(BatchJobState state) {
  switch (state) {
    case BatchJobState::kQueued: return "queued";
    case BatchJobState::kRunning: return "running";
    case BatchJobState::kCompleted: return "completed";
    case BatchJobState::kExpired: return "expired";
    case BatchJobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

BatchQueue::BatchQueue(Engine& engine, Cluster& cluster, BatchPolicy policy)
    : engine_(engine), cluster_(cluster), policy_(policy) {}

Result<BatchJobId> BatchQueue::submit(BatchJobRequest request) {
  if (request.cores <= 0) {
    return make_error(Errc::kInvalidArgument,
                      "batch job must request at least one core");
  }
  if (request.cores > cluster_.total_cores()) {
    return make_error(Errc::kResourceExhausted,
                      "job requests " + std::to_string(request.cores) +
                          " cores; machine " + cluster_.profile().name +
                          " has " + std::to_string(cluster_.total_cores()));
  }
  if (request.walltime <= 0.0) {
    return make_error(Errc::kInvalidArgument,
                      "batch job walltime must be positive");
  }
  const BatchJobId id = next_id_++;
  JobRecord record;
  record.id = id;
  record.request = std::move(request);
  jobs_.emplace(id, std::move(record));

  const auto& profile = cluster_.profile();
  const Count nodes = static_cast<Count>(
      std::ceil(static_cast<double>(jobs_.at(id).request.cores) /
                static_cast<double>(profile.cores_per_node)));
  const Duration wait = profile.batch_base_wait +
                        profile.batch_wait_per_node *
                            static_cast<double>(nodes);
  engine_.schedule(wait, [this, id] { make_eligible(id); });
  ENTK_DEBUG("sim.batch") << "job " << id << " submitted ("
                          << jobs_.at(id).request.cores << " cores, wait "
                          << wait << " s)";
  return id;
}

void BatchQueue::make_eligible(BatchJobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second.state != BatchJobState::kQueued) {
    return;  // cancelled while waiting
  }
  eligible_.push_back(id);
  try_start_jobs();
}

void BatchQueue::try_start_jobs() {
  auto start_job = [this](JobRecord& job) {
    auto allocation = cluster_.allocate(job.request.cores);
    ENTK_CHECK(allocation.ok(), "can_allocate/allocate disagree");
    job.allocation = allocation.take();
    job.state = BatchJobState::kRunning;
    const BatchJobId id = job.id;
    job.walltime_event = engine_.schedule(job.request.walltime, [this, id] {
      auto jt = jobs_.find(id);
      if (jt == jobs_.end() || jt->second.state != BatchJobState::kRunning) {
        return;
      }
      ENTK_WARN("sim.batch") << "job " << id << " hit its walltime";
      finish(jt->second, BatchJobState::kExpired);
    });
    ENTK_DEBUG("sim.batch") << "job " << id << " started at t="
                            << engine_.now();
    if (job.request.on_start) job.request.on_start(job.allocation);
  };

  // Pass 1 — FIFO: start from the head while jobs fit. Under strict
  // FIFO an oversized head blocks everything behind it, as on a
  // production machine without backfill. (The pilot runtime does its
  // own backfilling *inside* an allocation.)
  while (!eligible_.empty()) {
    const BatchJobId id = eligible_.front();
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.state != BatchJobState::kQueued) {
      eligible_.pop_front();
      continue;
    }
    if (!cluster_.can_allocate(it->second.request.cores)) break;
    eligible_.pop_front();
    start_job(it->second);
  }
  if (policy_ != BatchPolicy::kEasyBackfill) return;

  // Pass 2 — EASY backfill: later jobs may start out of order when
  // they fit in the idle cores the blocked head cannot use.
  for (auto queue_it = eligible_.begin(); queue_it != eligible_.end();) {
    const auto it = jobs_.find(*queue_it);
    if (it == jobs_.end() || it->second.state != BatchJobState::kQueued) {
      queue_it = eligible_.erase(queue_it);
      continue;
    }
    if (cluster_.can_allocate(it->second.request.cores)) {
      start_job(it->second);
      queue_it = eligible_.erase(queue_it);
    } else {
      ++queue_it;
    }
  }
}

Status BatchQueue::complete(BatchJobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return make_error(Errc::kNotFound,
                      "unknown batch job " + std::to_string(id));
  }
  if (it->second.state != BatchJobState::kRunning) {
    return make_error(Errc::kFailedPrecondition,
                      "batch job " + std::to_string(id) + " is " +
                          batch_job_state_name(it->second.state) +
                          ", not running");
  }
  finish(it->second, BatchJobState::kCompleted);
  return Status::ok();
}

Status BatchQueue::cancel(BatchJobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return make_error(Errc::kNotFound,
                      "unknown batch job " + std::to_string(id));
  }
  JobRecord& job = it->second;
  switch (job.state) {
    case BatchJobState::kQueued:
      end_job(job, BatchJobState::kCancelled);
      return Status::ok();
    case BatchJobState::kRunning:
      finish(job, BatchJobState::kCancelled);
      return Status::ok();
    default:
      return make_error(Errc::kFailedPrecondition,
                        "batch job " + std::to_string(id) +
                            " already finished");
  }
}

Result<BatchJobState> BatchQueue::state(BatchJobId id) const {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return make_error(Errc::kNotFound,
                      "unknown batch job " + std::to_string(id));
  }
  return it->second.state;
}

void BatchQueue::finish(JobRecord& job, BatchJobState final_state) {
  ENTK_CHECK(job.state == BatchJobState::kRunning,
             "finish() requires a running job");
  if (job.walltime_event != kInvalidEvent) {
    engine_.cancel(job.walltime_event);
    job.walltime_event = kInvalidEvent;
  }
  cluster_.release(job.allocation);
  job.allocation = Allocation{};
  end_job(job, final_state);
  // Freed cores may unblock the FIFO head.
  try_start_jobs();
}

void BatchQueue::end_job(JobRecord& job, BatchJobState final_state) {
  job.state = final_state;
  job.request.on_start = nullptr;
  const auto on_end = std::exchange(job.request.on_end, nullptr);
  if (on_end) on_end(final_state);
}

}  // namespace entk::sim

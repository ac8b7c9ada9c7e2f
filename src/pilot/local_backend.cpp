#include "pilot/local_backend.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/uid.hpp"
#include "pilot/local_agent.hpp"

namespace entk::pilot {

namespace fs = std::filesystem;

LocalBackend::LocalBackend(Count cores, fs::path session_dir)
    : free_cores_(cores) {
  ENTK_CHECK(cores >= 1, "local backend needs at least one core");
  machine_ = sim::localhost_profile();
  machine_.nodes = 1;
  machine_.cores_per_node = cores;
  if (session_dir.empty()) {
    // The uid counter is only process-unique; include the pid so
    // concurrent processes (parallel ctest) never share a session dir.
    // Names a per-process sandbox dir, not workload state.
    // entk-lint: allow(global-run-state)
    session_dir_ =
        fs::temp_directory_path() /
        next_uid("entk-session." + std::to_string(::getpid()));
    owns_session_dir_ = true;
  } else {
    session_dir_ = std::move(session_dir);
  }
  fs::create_directories(session_dir_);
}

LocalBackend::~LocalBackend() {
  if (owns_session_dir_) {
    std::error_code ec;
    fs::remove_all(session_dir_, ec);
  }
}

Result<std::unique_ptr<Agent>> LocalBackend::make_agent(
    Count cores, const std::string& scheduler_policy) {
  auto scheduler = make_scheduler(scheduler_policy);
  if (!scheduler.ok()) return scheduler.status();
  // Names a per-process sandbox dir, not workload state.
  // entk-lint: allow(global-run-state)
  return std::unique_ptr<Agent>(std::make_unique<LocalAgent>(
      machine_, cores, scheduler.take(), clock_,
      session_dir_ / next_uid("pilot-session")));
}

Result<sim::BatchJobId> LocalBackend::submit_container(
    sim::BatchJobRequest request) {
  if (request.cores < 1 || request.cores > machine_.total_cores()) {
    return make_error(Errc::kResourceExhausted,
                      "container requests " + std::to_string(request.cores) +
                          " cores; local host has " +
                          std::to_string(machine_.total_cores()));
  }
  const sim::BatchJobId id = next_container_++;
  waiting_.emplace_back(id, std::move(request));
  start_containers();
  return id;
}

void LocalBackend::start_containers() {
  // FIFO: the head blocks the rest. Each container leaves waiting_
  // before its on_start runs, which may re-enter submit/end calls.
  while (!waiting_.empty() && waiting_.front().second.cores <= free_cores_) {
    auto [id, request] = std::move(waiting_.front());
    waiting_.pop_front();
    free_cores_ -= request.cores;
    auto on_start = std::move(request.on_start);
    running_.emplace(id, std::move(request));
    // The local host keeps no node map: the allocation stays empty.
    if (on_start) on_start(sim::Allocation{});
  }
}

void LocalBackend::end_container(sim::BatchJobId id,
                                 sim::BatchJobState state) {
  const auto it = running_.find(id);
  sim::BatchJobRequest request = std::move(it->second);
  running_.erase(it);
  free_cores_ += request.cores;
  if (request.on_end) request.on_end(state);
  start_containers();
}

Status LocalBackend::complete_container(sim::BatchJobId id) {
  if (running_.count(id) == 0) {
    return make_error(Errc::kNotFound,
                      "container " + std::to_string(id) + " is not running");
  }
  end_container(id, sim::BatchJobState::kCompleted);
  return Status::ok();
}

Status LocalBackend::cancel_container(sim::BatchJobId id) {
  if (running_.count(id) != 0) {
    end_container(id, sim::BatchJobState::kCancelled);
    return Status::ok();
  }
  for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
    if (it->first != id) continue;
    sim::BatchJobRequest request = std::move(it->second);
    waiting_.erase(it);
    if (request.on_end) request.on_end(sim::BatchJobState::kCancelled);
    return Status::ok();
  }
  return make_error(Errc::kNotFound,
                    "container " + std::to_string(id) + " is not active");
}

std::uint64_t LocalBackend::schedule_after(Duration delay,
                                           std::function<void()> fn) {
  MutexLock lock(timers_mutex_);
  timers_.push_back({clock().now() + std::max<Duration>(delay, 0.0),
                     std::move(fn)});
  return 0;
}

void LocalBackend::fire_due_timers() {
  std::vector<std::function<void()>> due;
  {
    MutexLock lock(timers_mutex_);
    const TimePoint now = clock().now();
    for (std::size_t i = 0; i < timers_.size();) {
      if (timers_[i].due <= now) {
        due.push_back(std::move(timers_[i].fn));
        timers_[i] = std::move(timers_.back());
        timers_.pop_back();
      } else {
        ++i;
      }
    }
  }
  // Outside the lock: a timer callback (retry resubmission) re-enters
  // the runtime and may schedule further timers.
  for (auto& fn : due) fn();
}

Status LocalBackend::drive_until(const std::function<bool()>& done,
                                 Duration timeout) {
  // Real work happens on agent worker threads; this thread just polls.
  const TimePoint deadline =
      timeout == kTimeInfinity ? kTimeInfinity : clock().now() + timeout;
  while (!done()) {
    if (clock().now() > deadline) {
      return make_error(Errc::kTimedOut, "local wait deadline passed");
    }
    fire_due_timers();
    // Cross-agent completion has no shared condition variable; a short
    // poll is the wait primitive. entk-lint: allow(sleep-in-runtime)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  fire_due_timers();
  return Status::ok();
}

}  // namespace entk::pilot

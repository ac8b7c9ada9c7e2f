// Local execution backend: pilots become slot reservations on this
// host; units really execute their payloads (files are written, MD is
// integrated, analyses run) in real time.
#pragma once

#include <deque>
#include <filesystem>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "pilot/backend.hpp"

namespace entk::pilot {

class LocalBackend final : public ExecutionBackend {
 public:
  /// `cores` is the local machine size exposed to pilots. If
  /// `session_dir` is empty a fresh directory under the system temp
  /// path is used; it is removed on destruction only if we created it.
  explicit LocalBackend(Count cores,
                        std::filesystem::path session_dir = {});
  ~LocalBackend() override;

  /// Containers start FIFO, with no queue wait, inside whichever call
  /// frees their cores, and hold them until completed or cancelled;
  /// the local host enforces no walltime.
  Result<sim::BatchJobId> submit_container(
      sim::BatchJobRequest request) override;
  Status complete_container(sim::BatchJobId id) override;
  Status cancel_container(sim::BatchJobId id) override;
  const Clock& clock() const override { return clock_; }
  const sim::MachineProfile& machine() const override { return machine_; }
  Result<std::unique_ptr<Agent>> make_agent(
      Count cores, const std::string& scheduler_policy) override;
  Status drive_until(const std::function<bool()>& done,
                     Duration timeout = kTimeInfinity) override;
  /// Timers are drained by whichever thread is inside drive_until.
  /// Always returns 0: local timers are not checkpointable.
  std::uint64_t schedule_after(Duration delay,
                               std::function<void()> fn) override
      ENTK_EXCLUDES(timers_mutex_);
  void advance(Duration) override {}  // real work takes real time
  std::string name() const override { return "local"; }

  const std::filesystem::path& session_dir() const { return session_dir_; }

 private:
  struct Timer {
    TimePoint due;
    std::function<void()> fn;
  };
  /// Pops every due timer and runs it outside the lock.
  void fire_due_timers() ENTK_EXCLUDES(timers_mutex_);
  /// Starts waiting containers from the head while their cores fit.
  void start_containers();
  /// Frees a running container's cores and fires its `on_end`.
  void end_container(sim::BatchJobId id, sim::BatchJobState state);

  sim::MachineProfile machine_;
  WallClock clock_;
  std::filesystem::path session_dir_;
  bool owns_session_dir_ = false;

  mutable Mutex timers_mutex_{LockRank::kBackendTimers};
  std::vector<Timer> timers_ ENTK_GUARDED_BY(timers_mutex_);

  // Container core slots. Unlocked: PilotManager, their only caller, is
  // owner-serialized, and agent workers never touch containers.
  Count free_cores_ = 0;
  sim::BatchJobId next_container_ = 1;
  std::deque<std::pair<sim::BatchJobId, sim::BatchJobRequest>> waiting_;
  std::unordered_map<sim::BatchJobId, sim::BatchJobRequest> running_;
};

}  // namespace entk::pilot

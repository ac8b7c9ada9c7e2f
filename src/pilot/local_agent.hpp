// Agent implementation for the local backend: really executes unit
// payloads on the agent's own worker threads, with real file staging
// between each unit's private sandbox and the pilot's shared space.
//
// Concurrency is the pilot's cores: schedule_locked() reserves a
// launched unit's cores and appends it to a FIFO deque, and one of
// min(cores, 16) workers takes it from there and runs execute(). A
// settling unit frees its cores and schedules the next waiting unit
// from its worker thread.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "pilot/agent.hpp"
#include "pilot/waiting_index.hpp"
#include "sim/machine.hpp"

namespace entk::pilot {

class LocalAgent final : public Agent {
 public:
  /// `session_dir` is created if missing; it gains `shared/` (visible
  /// to all units) and `units/<uid>/` sandboxes. Starts the workers.
  LocalAgent(sim::MachineProfile machine, Count cores,
             std::unique_ptr<Scheduler> scheduler, const Clock& clock,
             std::filesystem::path session_dir);
  /// Launches nothing more, lets the workers finish every launched
  /// unit and joins them. Units still waiting stay kPendingExecution.
  ~LocalAgent() override;

  LocalAgent(const LocalAgent&) = delete;
  LocalAgent& operator=(const LocalAgent&) = delete;

  void start(std::function<void()> on_ready) override ENTK_EXCLUDES(mutex_);
  Status submit(std::vector<ComputeUnitPtr> units) override
      ENTK_EXCLUDES(mutex_);
  void cancel_waiting() override ENTK_EXCLUDES(mutex_);
  Status cancel_unit(const ComputeUnitPtr& unit) override
      ENTK_EXCLUDES(mutex_);
  /// Local payloads run on uninterruptible threads, so only waiting
  /// units can be evicted; running ones finish where they are.
  std::vector<ComputeUnitPtr> evict_inflight() override
      ENTK_EXCLUDES(mutex_);

  Count total_cores() const override { return cores_; }
  Count free_cores() const override ENTK_EXCLUDES(mutex_);
  std::size_t waiting_units() const override ENTK_EXCLUDES(mutex_);
  std::size_t running_units() const override ENTK_EXCLUDES(mutex_);
  Duration total_spawn_overhead() const override ENTK_EXCLUDES(mutex_);

  std::filesystem::path shared_directory() const override {
    return shared_dir_;
  }

 private:
  void schedule_locked() ENTK_REQUIRES(mutex_);
  /// Takes launched units FIFO until the agent stops and the deque is
  /// empty.
  void worker_loop() ENTK_EXCLUDES(mutex_);
  /// Stops launching and joins every started worker.
  void stop_workers() ENTK_EXCLUDES(mutex_);
  void execute(ComputeUnitPtr unit) ENTK_EXCLUDES(mutex_);

  const sim::MachineProfile machine_;
  const Count cores_;
  std::unique_ptr<Scheduler> scheduler_;
  const Clock& clock_;
  std::filesystem::path session_dir_;
  std::filesystem::path shared_dir_;

  mutable Mutex mutex_{LockRank::kLocalAgent};
  /// Signalled once per launched unit, and to all workers at teardown.
  CondVar launched_cv_;
  bool started_ ENTK_GUARDED_BY(mutex_) = false;
  /// Set by the destructor: nothing more is launched.
  bool stopping_ ENTK_GUARDED_BY(mutex_) = false;
  Count free_ ENTK_GUARDED_BY(mutex_);
  WaitingIndex waiting_ ENTK_GUARDED_BY(mutex_);
  /// Launched units (cores reserved) that no worker has taken yet.
  std::deque<ComputeUnitPtr> launched_ ENTK_GUARDED_BY(mutex_);
  /// Launched units not yet settled, whether queued or executing.
  std::size_t running_ ENTK_GUARDED_BY(mutex_) = 0;
  Duration spawn_total_ ENTK_GUARDED_BY(mutex_) = 0.0;
  /// Trace identity: maps to a Chrome-trace pid (see src/obs).
  const std::uint32_t trace_ordinal_;
  /// Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace entk::pilot

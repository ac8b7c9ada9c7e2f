// PilotManager: submits container jobs and brings agents to life
// (the RP PilotManager analogue).
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "pilot/backend.hpp"
#include "pilot/pilot.hpp"

namespace entk::pilot {

class PilotManager {
 public:
  explicit PilotManager(ExecutionBackend& backend);

  /// Submits a pilot: validates against the backend's machine, submits
  /// the container job and wires the agent to start when the job runs.
  /// The returned pilot is kPendingQueue, or already kActive when the
  /// backend started its container at once (the local backend does
  /// when cores are free).
  Result<PilotPtr> submit_pilot(PilotDescription description,
                                const std::string& scheduler_policy =
                                    "backfill");

  /// Drives the backend until the pilot is active (or failed).
  Status wait_active(const PilotPtr& pilot,
                     Duration timeout = kTimeInfinity);

  /// Completes the container job and marks the pilot done. Waiting
  /// units are cancelled; running ones are lost with the allocation
  /// (as on a real machine).
  Status deallocate(const PilotPtr& pilot);

  /// Cancels a pending or active pilot.
  Status cancel(const PilotPtr& pilot);

  /// Submits a fresh pilot with the same description as a finished
  /// (typically failed) one — the replacement-pilot half of pilot
  /// recovery. Units evicted from the dead pilot rebind to the
  /// replacement via the UnitManager's late binding.
  Result<PilotPtr> resubmit_like(const Pilot& finished,
                                 const std::string& scheduler_policy =
                                     "backfill");

  ExecutionBackend& backend() { return backend_; }

 private:
  // Like the agents' WaitingIndex, the manager is serialized by its
  // owner: sessions submit and deallocate pilots from the driver
  // thread (Runtime::run_concurrent drives all sessions on one
  // thread); agent worker threads never touch the manager.
  ExecutionBackend& backend_;
  /// Every pilot submitted, never pruned and never read: it keeps each
  /// pilot, and so its agent, alive for the manager's lifetime.
  /// SimAgent's engine events capture the agent's `this`, so a pilot
  /// dropped here while the engine may still fire them would leave
  /// those events pointing at a destroyed agent.
  std::vector<PilotPtr> pilots_;
};

}  // namespace entk::pilot

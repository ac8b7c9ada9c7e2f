// PilotManager: submits container jobs and brings agents to life
// (the RP PilotManager analogue).
#pragma once

#include <string>

#include "common/uid.hpp"
#include "pilot/backend.hpp"
#include "pilot/pilot.hpp"

namespace entk::pilot {

/// Keeps no pilot: a pilot, and the agent inside it, live as long as
/// their holders (the session that allocated them, its unit manager)
/// and no longer.
class PilotManager {
 public:
  explicit PilotManager(ExecutionBackend& backend);

  /// Submits a pilot: validates against the backend's machine, submits
  /// the container job and wires the agent to start when the job runs.
  /// The returned pilot is kPendingQueue, or already kActive when the
  /// backend started its container at once (the local backend does
  /// when cores are free). Its uid comes from `uids`, the owning
  /// session's pilot family; without one, from the description's
  /// session family for the life of the process.
  Result<PilotPtr> submit_pilot(PilotDescription description,
                                const std::string& scheduler_policy =
                                    "backfill",
                                const UidSource* uids = nullptr);

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
                                     "backfill",
                                 const UidSource* uids = nullptr);

  ExecutionBackend& backend() { return backend_; }

 private:
  // Like the agents' WaitingIndex, the manager is serialized by its
  // owner: sessions submit and deallocate pilots from the driver
  // thread (Runtime::run_concurrent drives all sessions on one
  // thread); agent worker threads never touch the manager.
  ExecutionBackend& backend_;
};

}  // namespace entk::pilot

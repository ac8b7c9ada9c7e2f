// Execution backend: everything that differs between "run inside the
// discrete-event simulator" and "really run on this host".
//
// The pilot managers, unit managers and the whole EnTK layer above are
// written against this interface only, which is the C++ form of the
// paper's claim that expression of the application is decoupled from
// execution and resource management.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "pilot/agent.hpp"
#include "sim/batch.hpp"
#include "sim/machine.hpp"

namespace entk::pilot {

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Submits a pilot's container job. It holds `request.cores` cores
  /// from `on_start` until complete_container() or cancel_container()
  /// ends it or its walltime expires; `on_end` fires once with the
  /// final state.
  virtual Result<sim::BatchJobId> submit_container(
      sim::BatchJobRequest request) = 0;

  /// Owner signals that a running container is done; frees its cores.
  virtual Status complete_container(sim::BatchJobId id) = 0;

  /// Cancels a queued or running container.
  virtual Status cancel_container(sim::BatchJobId id) = 0;

  /// The clock profiling timestamps come from.
  virtual const Clock& clock() const = 0;

  /// The machine this backend executes on.
  virtual const sim::MachineProfile& machine() const = 0;

  /// Creates the in-pilot agent for `cores` cores using the named
  /// scheduler policy (see make_scheduler()).
  virtual Result<std::unique_ptr<Agent>> make_agent(
      Count cores, const std::string& scheduler_policy) = 0;

  /// Advances execution until `done()` returns true: steps the event
  /// engine (simulated) or waits on worker threads (local). Fails with
  /// kInternal if execution can no longer progress, or kTimedOut after
  /// `timeout` seconds on this backend's clock.
  virtual Status drive_until(const std::function<bool()>& done,
                             Duration timeout = kTimeInfinity) = 0;

  /// Runs `fn` once after `delay` seconds on this backend's clock (an
  /// engine event on the simulated backend; a timer drained by
  /// drive_until on the local one). Used by the unit manager for
  /// retry-backoff delays. The callback may re-enter the runtime.
  /// Returns an opaque timer token (the sim::EventId on the simulated
  /// backend; 0 on backends that cannot introspect timers) so
  /// checkpointing can capture pending retries.
  virtual std::uint64_t schedule_after(Duration delay,
                                       std::function<void()> fn) = 0;

  /// Charges `cost` seconds of client-side work to this backend's
  /// clock: the simulated backend advances virtual time (running any
  /// events that fall due); the local backend is a no-op because real
  /// work takes real time by itself. Used to model toolkit overheads
  /// (task creation, init) on the simulated backend.
  virtual void advance(Duration cost) = 0;

  virtual std::string name() const = 0;
};

}  // namespace entk::pilot

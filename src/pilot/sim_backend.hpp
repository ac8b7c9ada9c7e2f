// Simulated execution backend: owns one machine's discrete-event world
// (engine, cluster, batch queue). Pilot containers are batch jobs.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "pilot/backend.hpp"
#include "sim/batch.hpp"
#include "sim/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/fault_model.hpp"

namespace entk::pilot {

class SimBackend final : public ExecutionBackend {
 public:
  explicit SimBackend(sim::MachineProfile machine,
                      sim::BatchPolicy batch_policy =
                          sim::BatchPolicy::kFifo);

  Result<sim::BatchJobId> submit_container(
      sim::BatchJobRequest request) override {
    return batch_.submit(std::move(request));
  }
  Status complete_container(sim::BatchJobId id) override {
    return batch_.complete(id);
  }
  Status cancel_container(sim::BatchJobId id) override {
    return batch_.cancel(id);
  }
  const Clock& clock() const override { return engine_.clock(); }
  const sim::MachineProfile& machine() const override {
    return cluster_.profile();
  }
  Result<std::unique_ptr<Agent>> make_agent(
      Count cores, const std::string& scheduler_policy) override;
  Status drive_until(const std::function<bool()>& done,
                     Duration timeout = kTimeInfinity) override;
  std::uint64_t schedule_after(Duration delay,
                               std::function<void()> fn) override {
    return engine_.schedule(delay, std::move(fn));
  }
  void advance(Duration cost) override {
    // Re-entrant advancement (a pattern submitting from inside an
    // event callback) must not step the engine recursively; the cost
    // is absorbed into the event-driven flow instead.
    if (engine_.dispatching()) return;
    engine_.run_until(engine_.now() + cost);
  }
  std::string name() const override {
    return "sim:" + cluster_.profile().name;
  }

  // Direct access for tests and benches.
  sim::Engine& engine() { return engine_; }
  sim::Cluster& cluster() { return cluster_; }
  sim::BatchQueue& batch() { return batch_; }
  /// Non-null iff the machine profile's FaultSpec is enabled.
  sim::FaultModel* faults() { return faults_.get(); }

  /// Checkpoint hook, invoked at every engine-step boundary inside
  /// drive_until — a consistent cut: no event callback is mid-flight.
  /// A non-ok return aborts drive_until with that status (used by the
  /// kill/resume tests to simulate a crash at an exact point).
  /// Multi-slot so N sessions' checkpoint coordinators can observe one
  /// shared engine: hooks run in registration order, first error wins.
  using StepHook = std::function<Status()>;
  /// Registers a hook; returns a token for remove_step_hook.
  std::uint64_t add_step_hook(StepHook hook) {
    const std::uint64_t token = next_hook_token_++;
    step_hooks_.emplace_back(token, std::move(hook));
    return token;
  }
  void remove_step_hook(std::uint64_t token) {
    for (auto it = step_hooks_.begin(); it != step_hooks_.end(); ++it) {
      if (it->first == token) {
        step_hooks_.erase(it);
        return;
      }
    }
  }

 private:
  sim::Engine engine_;
  sim::Cluster cluster_;
  sim::BatchQueue batch_;
  std::unique_ptr<sim::FaultModel> faults_;
  // Owner-serialized like the rest of the sim world (driver thread).
  std::vector<std::pair<std::uint64_t, StepHook>> step_hooks_;
  std::uint64_t next_hook_token_ = 1;
};

}  // namespace entk::pilot

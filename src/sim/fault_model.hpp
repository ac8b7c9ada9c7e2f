// FaultModel: seeded, deterministic fault injection for the simulated
// machine.
//
// A MachineProfile carries a FaultSpec; when it is enabled the
// simulated backend builds one FaultModel on its event engine and every
// pilot agent registers with it. Three fault classes are modelled:
//   - node failures: each registered consumer (pilot) loses whole nodes
//     at exponentially distributed intervals (per-node MTBF),
//   - transient launch failures: a unit's spawn fails with a fixed
//     probability (the unit itself is fine — a retry usually succeeds),
//   - hung units: a unit enters execution but never finishes; only a
//     per-unit execution timeout (RetryPolicy) can reclaim its cores.
// All draws come from independent streams forked off one seed in
// registration order, so a run is bit-for-bit reproducible: the same
// seed yields the same fault trace (see trace()).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "sim/engine.hpp"

namespace entk::sim {

/// Fault-injection parameters, carried by MachineProfile. Default
/// constructed = disabled (the machine never fails).
struct FaultSpec {
  /// Seed for every fault stream.
  std::uint64_t seed = 0x5eedULL;
  /// Mean time between failures of one node; 0 = nodes never fail.
  Duration node_mtbf = 0.0;
  /// Cap on total node failures across the run; 0 = uncapped.
  Count max_node_failures = 0;
  /// Probability in [0, 1] that a unit launch fails transiently.
  double launch_failure_rate = 0.0;
  /// Probability in [0, 1] that a unit hangs instead of finishing.
  double hang_rate = 0.0;

  bool enabled() const {
    return node_mtbf > 0.0 || launch_failure_rate > 0.0 || hang_rate > 0.0;
  }
  Status validate() const;
};

class FaultModel {
 public:
  FaultModel(Engine& engine, FaultSpec spec);

  const FaultSpec& spec() const { return spec_; }

  static constexpr std::size_t kNoConsumer = static_cast<std::size_t>(-1);

  /// Registers a consumer (a pilot agent) owning `nodes` nodes;
  /// `on_node_failure` fires once per node lost. Each consumer draws
  /// from its own stream, forked in registration order, so adding a
  /// consumer never perturbs the failure times of the others. The
  /// handler stops firing once the consumer has lost all its nodes or
  /// the spec's max_node_failures cap is reached. Returns the
  /// consumer's index for unwatch(), or kNoConsumer when its nodes
  /// cannot fail (no MTBF, or no nodes).
  std::size_t watch_nodes(Count nodes, std::function<void()> on_node_failure);

  /// Drops a consumer's handler: its owner is going away. The consumer
  /// keeps its stream and its armed event, so its failures still fire
  /// and are traced exactly as before; they just reach no one.
  void unwatch(std::size_t consumer);

  /// Draws whether the next unit launch fails transiently.
  bool draw_launch_failure();
  /// Draws whether the next unit execution hangs.
  bool draw_hang();

  Count node_failures() const { return node_failures_; }
  Count launch_failures() const { return launch_failures_; }
  Count hangs() const { return hangs_; }

  /// Timestamped record of every injected fault, in injection order —
  /// the determinism witness (same seed => identical trace).
  const std::vector<std::string>& trace() const { return trace_; }

  // --- checkpoint/restart (ckpt::Coordinator only) ---
  struct SavedState {
    struct ConsumerState {
      Count nodes_left = 0;
      Xoshiro256::State rng;
    };
    /// A pending armed node-failure event, with the original engine
    /// (time, seq) for the coordinator's global repost sort.
    struct ArmedEvent {
      std::size_t consumer = 0;
      TimePoint time = 0.0;
      std::uint64_t seq = 0;
    };
    Xoshiro256::State fork_rng;
    Xoshiro256::State launch_rng;
    Xoshiro256::State hang_rng;
    std::vector<ConsumerState> consumers;
    Count node_failures = 0;
    Count launch_failures = 0;
    Count hangs = 0;
    std::vector<std::string> trace;
    std::vector<ArmedEvent> armed;
  };
  SavedState save_state() const;
  /// Injects a saved state. Requires the same consumer count as at
  /// capture (the restore replays pilot registration identically), and
  /// cancels any armed events the replay scheduled; the coordinator
  /// reposts the captured ones via repost_failure().
  void restore_state(const SavedState& saved);
  /// Re-arms one captured node-failure event at its original time.
  void repost_failure(std::size_t consumer_index, TimePoint at);

 private:
  struct Consumer {
    Count nodes_left = 0;
    Xoshiro256 rng;
    std::function<void()> handler;
    EventId armed = kInvalidEvent;
  };

  void arm(std::size_t consumer_index);
  /// Body of the armed event: one node of `consumer_index` dies.
  void fire_node_failure(std::size_t consumer_index);
  void record(const std::string& what);

  Engine& engine_;
  const FaultSpec spec_;
  Xoshiro256 fork_rng_;    ///< Source of per-consumer streams.
  Xoshiro256 launch_rng_;
  Xoshiro256 hang_rng_;
  std::vector<std::unique_ptr<Consumer>> consumers_;
  Count node_failures_ = 0;
  Count launch_failures_ = 0;
  Count hangs_ = 0;
  std::vector<std::string> trace_;
};

}  // namespace entk::sim

// Agent implementation for the simulated backend.
//
// Drives the full unit lifecycle on the event engine:
//   select (scheduler) -> input staging -> serialized spawn ->
//   launch latency -> execution -> output staging -> done
// Core accounting is exact: cores are reserved at selection and
// released when the unit leaves the machine, so the scheduler can never
// over-subscribe the pilot.
//
// The backlog lives in a core-count-bucketed WaitingIndex fed
// incrementally on submit/settle, and each unit holding cores sits in a
// slot of a recycled slot table that the unit itself points back to —
// so launch, release, cancel and event bookkeeping are O(1) per unit,
// with no map node built or freed, which is what lets a single agent
// absorb 100k-unit ensembles (see docs/PERFORMANCE.md).
//
// When the machine profile carries an enabled FaultSpec the agent also
// models faults: node failures shrink its capacity and kill the units
// executing on the lost node, launches can fail transiently, and units
// can hang (reclaimed only by their RetryPolicy execution timeout).
// Every scheduled lifecycle event carries the unit's epoch so events
// belonging to a dead attempt never act on a relaunched unit.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pilot/agent.hpp"
#include "pilot/waiting_index.hpp"
#include "sim/engine.hpp"
#include "sim/fault_model.hpp"
#include "sim/machine.hpp"

namespace entk::pilot {

/// Lifecycle events an agent schedules for an in-flight unit. Each is
/// guarded by (epoch, expected state) so a checkpoint can capture the
/// pending ones and a restore can repost behaviorally identical copies.
enum class UnitEventKind : std::uint8_t {
  kLaunchFail = 0,   ///< transient spawn failure fires at exec_start
  kExecStart = 1,    ///< kStagingInput -> kExecuting
  kComplete = 2,     ///< kExecuting -> finalize()
  kTimeout = 3,      ///< execution-timeout kill
  kStageOutDone = 4  ///< kStagingOutput -> kDone + release
};

class SimAgent final : public Agent {
 public:
  SimAgent(sim::Engine& engine, sim::MachineProfile machine, Count cores,
           std::unique_ptr<Scheduler> scheduler,
           sim::FaultModel* faults = nullptr);

  void start(std::function<void()> on_ready) override;
  Status submit(std::vector<ComputeUnitPtr> units) override;
  /// Also frees the slot table when no unit holds cores: a pilot that
  /// finished this way keeps no per-unit storage.
  void cancel_waiting() override;
  Status cancel_unit(const ComputeUnitPtr& unit) override;
  std::vector<ComputeUnitPtr> evict_inflight() override;

  Count total_cores() const override { return capacity_; }
  Count free_cores() const override { return free_; }
  std::size_t waiting_units() const override { return waiting_.size(); }
  std::size_t running_units() const override {
    return slots_.size() - free_slots_.size();
  }
  Duration total_spawn_overhead() const override { return spawn_total_; }

  /// Cores lost to node failures so far.
  Count lost_cores() const { return initial_cores_ - capacity_; }

  /// Scheduler cycles run so far (profiling hook for the scale bench).
  std::uint64_t scheduler_cycles() const { return scheduler_cycles_; }

  // --- checkpoint/restart (ckpt::Coordinator only) ---
  /// Everything needed to rebuild this agent's dispatch state on a
  /// fresh engine. Units are referenced by uid; pending events carry
  /// the original engine (time, seq) so the coordinator can repost them
  /// globally sorted across agents.
  struct SavedState {
    struct PendingEvent {
      std::string uid;
      UnitEventKind kind = UnitEventKind::kExecStart;
      TimePoint time = 0.0;
      std::uint64_t seq = 0;
    };
    Count capacity = 0;
    Count free = 0;
    std::size_t running = 0;
    std::uint64_t next_launch_seq = 0;
    std::uint64_t scheduler_cycles = 0;
    Duration spawn_total = 0.0;
    std::vector<TimePoint> spawner_free_at;
    std::vector<std::string> waiting;  ///< uids in arrival order
    std::vector<std::pair<std::uint64_t, std::string>> active;
    std::vector<PendingEvent> events;
  };
  using UnitResolver = std::function<ComputeUnitPtr(const std::string&)>;
  /// Captures the agent at an engine-step boundary. Requires started().
  SavedState save_state() const;
  /// Injects a saved state into a freshly started agent. Does NOT
  /// repost events — the coordinator reposts them globally sorted.
  void restore_state(const SavedState& saved, const UnitResolver& resolve);
  /// Re-schedules one captured lifecycle event at its original firing
  /// time, with the same (epoch, state) guards as the original.
  void repost_event(const ComputeUnitPtr& unit, UnitEventKind kind,
                    TimePoint at);
  bool started() const { return started_; }

 private:
  void schedule_loop();
  void launch(ComputeUnitPtr unit, std::size_t slot);
  void finalize(const ComputeUnitPtr& unit, std::size_t slot);
  // Guarded lifecycle-event factories shared by launch()/finalize()
  // and repost_event(); each schedules at `at` and records the id in
  // the unit's slot.
  void schedule_launch_fail(const ComputeUnitPtr& unit, Count epoch,
                            std::size_t slot, TimePoint at);
  void schedule_exec_start(const ComputeUnitPtr& unit, Count epoch,
                           std::size_t slot, TimePoint at);
  void schedule_complete(const ComputeUnitPtr& unit, Count epoch,
                         std::size_t slot, TimePoint at);
  void schedule_timeout(const ComputeUnitPtr& unit, Count epoch,
                        std::size_t slot, TimePoint at);
  void schedule_stage_out(const ComputeUnitPtr& unit, Count epoch,
                          std::size_t slot, TimePoint at);
  void record_event(std::size_t slot, UnitEventKind kind, Count epoch,
                    sim::EventId id);
  /// Returns the unit's cores to the pool if `slot` still holds it.
  void release(std::size_t slot, const ComputeUnit* unit);
  /// The slot holding `unit`, or ComputeUnit::kNoIndex when it holds
  /// no cores here. O(1): the unit records its slot.
  std::size_t slot_of(const ComputeUnit& unit) const;
  /// Puts a launched unit in a free slot; returns the slot.
  std::size_t occupy(ComputeUnitPtr unit, std::uint64_t seq);
  /// Frees a slot and returns the unit it held. Cancels the engine
  /// events still pending for a `killed` unit, and the execution
  /// timeout of one released at the end of its run.
  ComputeUnitPtr vacate(std::size_t slot, bool killed);
  /// Occupied slots in launch order (checkpoint capture, eviction and
  /// node failures: the rare paths that need that order).
  std::vector<std::size_t> slots_by_launch() const;
  /// One node of this pilot died: shrink capacity and kill the units
  /// that were executing on it.
  void handle_node_failure();

  sim::Engine& engine_;
  const sim::MachineProfile machine_;
  const Count initial_cores_;
  std::unique_ptr<Scheduler> scheduler_;
  sim::FaultModel* faults_;

  bool start_requested_ = false;
  bool started_ = false;  ///< true once the bootstrap delay elapsed
  Count capacity_;  ///< Current cores (shrinks on node failures).
  Count free_;
  WaitingIndex waiting_;
  /// Engine events scheduled for one unit holding cores. Fixed
  /// capacity: at most 3 are pending at once (exec_start + complete +
  /// timeout), but stale (already-fired) records linger until
  /// compacted, so keep one spare. Stale entries are filtered by
  /// generation at capture time; vacating the slot cancels the pending
  /// ones it names (see vacate()) and clears the record.
  struct TrackedEvents {
    struct Entry {
      sim::EventId id = sim::kInvalidEvent;
      UnitEventKind kind = UnitEventKind::kExecStart;
      Count epoch = 0;
    };
    std::array<Entry, 4> entries;
    std::uint8_t count = 0;
  };
  /// One unit holding cores (launch -> release window). The lifecycle
  /// closures carry the slot index and the unit records it
  /// (ComputeUnit::agent_slot). A freed slot goes on free_slots_ for
  /// the next launch, so a closure that outlives its unit may find the
  /// slot holding another unit, or none, and must leave it alone.
  /// Launch order (node failures kill the newest launch first;
  /// checkpoints list units in launch order) is the seq, sorted on
  /// those rare paths.
  struct Slot {
    std::uint64_t seq = 0;
    ComputeUnitPtr unit;  ///< null while the slot is free
    TrackedEvents events;
  };
  std::vector<Slot> slots_;
  std::vector<std::size_t> free_slots_;
  std::uint64_t next_launch_seq_ = 0;
  std::uint64_t scheduler_cycles_ = 0;
  const std::uint32_t trace_ordinal_;
  /// Per-spawner-worker busy-until times: each launch occupies the
  /// earliest-free worker for unit_spawn_overhead (RP runs a small pool
  /// of spawner workers; launches queue when all are busy).
  std::vector<TimePoint> spawner_free_at_;
  Duration spawn_total_ = 0.0;
};

}  // namespace entk::pilot

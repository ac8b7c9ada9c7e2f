// Execution patterns: the core abstraction of the Ensemble Toolkit.
//
// A pattern is a parametrised template capturing how an ensemble's
// tasks synchronise and communicate; the user supplies only the
// workload of each stage (a callback returning a TaskSpec). Patterns
// are *compilers*: they emit an explicit TaskGraph (nodes, success
// edges, failure scopes, expanders for adaptive generations) and the
// event-driven GraphExecutor drives that graph through the
// PatternExecutor interface — the paper's decoupling of expression
// from execution, taken to its dataflow conclusion.
//
// Unit patterns provided (paper Section III-D):
//   BagOfTasks            — independent tasks, no coupling
//   EnsembleOfPipelines   — N independent pipelines of M ordered stages
//   EnsembleExchange      — cycles of simulation + exchange interaction
//   SimulationAnalysisLoop— iterated simulate-all / analyse-all stages
// plus SequencePattern for composing higher-order patterns.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/task.hpp"
#include "core/task_graph.hpp"
#include "pilot/compute_unit.hpp"

namespace entk::core {

class GraphExecutor;

/// The pattern-facing execution interface, implemented by the
/// execution plugin. submit() translates specs into compute units and
/// hands them to the runtime; subscribe_settled() delivers unit-settled
/// events to the graph executor. Driving the backend is the caller's
/// job, not the executor's.
class PatternExecutor {
 public:
  virtual ~PatternExecutor() = default;

  virtual Result<std::vector<pilot::ComputeUnitPtr>> submit(
      const std::vector<TaskSpec>& specs) = 0;

  /// Fired once per submitted unit when it settles (final state with
  /// no retry pending).
  using SettledFn = std::function<void(const pilot::ComputeUnitPtr&,
                                       pilot::UnitState)>;

  /// Registers the settled-event subscription.
  virtual void subscribe_settled(SettledFn fn) = 0;
  virtual void unsubscribe_settled() = 0;
};

/// Hook between a pattern's compile and run steps — the attachment
/// point for the checkpoint/restart coordinator (entk::ckpt). The
/// observer sees the compiled graph and the executor before the run
/// starts and may inject a restored state; it keeps the runner pointer
/// until on_graph_run_end, so it can capture snapshots mid-run.
class GraphRunObserver {
 public:
  virtual ~GraphRunObserver() = default;

  /// Called after compile(), before the run starts. Return true to
  /// continue a restored run (the session then starts the runner with
  /// start_resumed() instead of start()); the observer must have
  /// replayed the expander log and injected the saved state first.
  virtual Result<bool> prepare_run(TaskGraph& graph, GraphExecutor& runner,
                                   PatternExecutor& executor) {
    (void)graph;
    (void)runner;
    (void)executor;
    return false;
  }

  /// Called after the run finishes (pass or fail). The runner is
  /// destroyed right after this returns.
  virtual void on_graph_run_end(GraphExecutor& runner,
                                const Status& outcome) {
    (void)runner;
    (void)outcome;
  }
};

/// A pattern only describes and compiles itself: the Session that runs
/// it calls validate() and compile(), consults the observer, starts the
/// GraphExecutor and, once the run settled, calls on_graph_executed().
class ExecutionPattern {
 public:
  virtual ~ExecutionPattern() = default;

  virtual std::string name() const = 0;

  /// Structural validation (counts > 0, all stage callbacks set, ...).
  virtual Status validate() const = 0;

  /// Compiles this pattern into `graph`: task nodes with lazy spec
  /// producers, success edges, stage/chain failure scopes, and — for
  /// adaptive or composite patterns — expanders that append the next
  /// generation when the graph quiesces. Clears the pattern's unit
  /// accessors; they repopulate as the graph submits.
  virtual Status compile(TaskGraph& graph) = 0;

  /// Pattern-level failure semantics, compiled into the graph's stage
  /// and chain scopes. Composite patterns (SequencePattern,
  /// AdaptiveLoop) forward their rules to their children.
  void set_failure_rules(FailureRules rules) { failure_rules_ = rules; }
  const FailureRules& failure_rules() const { return failure_rules_; }

  /// Attaches (or detaches, with nullptr) the run observer. Not owned;
  /// must outlive the run. Only consulted on the pattern that is run —
  /// children of composite patterns run inside the parent's graph and
  /// need no observer of their own.
  void set_graph_run_observer(GraphRunObserver* observer) {
    graph_run_observer_ = observer;
  }

 protected:
  /// Called after graph execution, successful or not (patterns rebuild
  /// derived unit views here).
  virtual void on_graph_executed() {}

  FailureRules failure_rules_;
  GraphRunObserver* graph_run_observer_ = nullptr;

 private:
  friend class Session;
};

// ---------------------------------------------------------------------------

/// Independent tasks with no coupling: the degenerate-but-common case.
/// Compiles to one stage group of unconnected nodes.
class BagOfTasks final : public ExecutionPattern {
 public:
  BagOfTasks(Count n_tasks, StageFn task_fn);

  std::string name() const override { return "bag_of_tasks"; }
  Status validate() const override;
  Status compile(TaskGraph& graph) override;

  const std::vector<pilot::ComputeUnitPtr>& units() const { return units_; }

 private:
  Count n_tasks_;
  StageFn task_fn_;
  std::vector<pilot::ComputeUnitPtr> units_;
};

/// N independent pipelines of M ordered stages. Stage s+1 of pipeline
/// p starts as soon as stage s of pipeline p finishes — there is no
/// barrier across pipelines (paper Fig 2a). Compiles to N dependency
/// chains judged as one chain set at drain time.
class EnsembleOfPipelines final : public ExecutionPattern {
 public:
  EnsembleOfPipelines(Count n_pipelines, Count n_stages);

  /// Sets the workload of 1-based `stage`.
  void set_stage(Count stage, StageFn fn);

  std::string name() const override { return "ensemble_of_pipelines"; }
  Status validate() const override;
  Status compile(TaskGraph& graph) override;

  const std::vector<pilot::ComputeUnitPtr>& units() const { return units_; }

 private:
  Count n_pipelines_;
  Count n_stages_;
  std::vector<StageFn> stage_fns_;
  std::vector<pilot::ComputeUnitPtr> units_;
};

/// Iterated two-stage pattern with global barriers: all simulations of
/// an iteration run (synchronise), then all analyses run (synchronise),
/// then the next iteration starts (paper Fig 2c). Optional pre- and
/// post-loop stages. Compiles to gated stage groups; with adaptive
/// member counts the iterations are emitted by an expander, one
/// generation at a time, so the counts callback runs after the
/// previous iteration settled — exactly when it can inspect results.
class SimulationAnalysisLoop final : public ExecutionPattern {
 public:
  SimulationAnalysisLoop(Count n_iterations, Count n_simulations,
                         Count n_analyses);

  void set_pre_loop(StageFn fn) { pre_loop_ = std::move(fn); }
  void set_simulation(StageFn fn) { simulation_ = std::move(fn); }
  void set_analysis(StageFn fn) { analysis_ = std::move(fn); }
  void set_post_loop(StageFn fn) { post_loop_ = std::move(fn); }

  /// Adaptive member counts: called before each iteration with the
  /// iteration number; returns {n_simulations, n_analyses} for it.
  using CountsFn = std::function<std::pair<Count, Count>(Count iteration)>;
  void set_adaptive_counts(CountsFn fn) { counts_fn_ = std::move(fn); }

  std::string name() const override { return "simulation_analysis_loop"; }
  Status validate() const override;
  Status compile(TaskGraph& graph) override;

  const std::vector<pilot::ComputeUnitPtr>& units() const { return units_; }
  const std::vector<pilot::ComputeUnitPtr>& simulation_units() const {
    return simulation_units_;
  }
  const std::vector<pilot::ComputeUnitPtr>& analysis_units() const {
    return analysis_units_;
  }

 private:
  /// Emits one iteration's sim + analysis stage groups; returns the
  /// analysis group (the gate for whatever follows).
  GroupId emit_iteration(TaskGraph& graph, Count iteration, Count n_sims,
                         Count n_ana, const GroupId* gate);
  /// Emits a pre-/post-loop singleton stage; returns its stage group.
  GroupId emit_bracket(TaskGraph& graph, const StageFn& fn,
                       StageContext context, const std::string& label,
                       const GroupId* gate);

  Count n_iterations_;
  Count n_simulations_;
  Count n_analyses_;
  StageFn pre_loop_;
  StageFn simulation_;
  StageFn analysis_;
  StageFn post_loop_;
  CountsFn counts_fn_;
  Count next_iteration_ = 0;   ///< Adaptive expander cursor.
  bool post_emitted_ = false;  ///< Adaptive expander: post-loop done.
  std::vector<pilot::ComputeUnitPtr> units_;
  std::vector<pilot::ComputeUnitPtr> simulation_units_;
  std::vector<pilot::ComputeUnitPtr> analysis_units_;
};

/// Interacting ensemble members: each cycle every replica simulates,
/// then replicas exchange (paper Fig 2b).
///
/// Two exchange modes:
///  - kGlobalSweep: one exchange task per cycle over all replicas
///    (the configuration of the paper's scaling experiments). Compiles
///    to gated stage groups per cycle.
///  - kPairwise: one exchange task per neighbour pair, submitted the
///    moment both partners finish — no global barrier inside a cycle.
///    Compiles to a static grid of dependency edges; each exchange
///    node belongs to both partners' replica chains.
class EnsembleExchange final : public ExecutionPattern {
 public:
  enum class ExchangeMode { kGlobalSweep, kPairwise };

  EnsembleExchange(Count n_replicas, Count n_cycles,
                   ExchangeMode mode = ExchangeMode::kGlobalSweep);

  void set_simulation(StageFn fn) { simulation_ = std::move(fn); }

  /// kGlobalSweep: workload of the per-cycle exchange task. The
  /// context's `instance` is 0 and `instances` the replica count.
  void set_exchange(StageFn fn) { exchange_ = std::move(fn); }

  /// kPairwise: workload of the exchange between replicas `a` and `b`.
  using PairFn = std::function<TaskSpec(Count cycle, Count a, Count b)>;
  void set_pair_exchange(PairFn fn) { pair_exchange_ = std::move(fn); }

  /// Offsets the pairwise neighbour parity (pairs start at
  /// (cycle - 1 + offset) % 2). Lets applications that drive cycles
  /// one pattern at a time still alternate even/odd sweeps.
  void set_cycle_offset(Count offset) { cycle_offset_ = offset; }

  std::string name() const override { return "ensemble_exchange"; }
  Status validate() const override;
  Status compile(TaskGraph& graph) override;

  const std::vector<pilot::ComputeUnitPtr>& units() const { return units_; }
  const std::vector<pilot::ComputeUnitPtr>& simulation_units() const {
    return simulation_units_;
  }
  const std::vector<pilot::ComputeUnitPtr>& exchange_units() const {
    return exchange_units_;
  }

 protected:
  void on_graph_executed() override;

 private:
  Status compile_global(TaskGraph& graph);
  Status compile_pairwise(TaskGraph& graph);

  Count n_replicas_;
  Count n_cycles_;
  ExchangeMode mode_;
  Count cycle_offset_ = 0;
  StageFn simulation_;
  StageFn exchange_;
  PairFn pair_exchange_;
  std::vector<pilot::ComputeUnitPtr> units_;
  std::vector<pilot::ComputeUnitPtr> simulation_units_;
  std::vector<pilot::ComputeUnitPtr> exchange_units_;
};

/// Higher-order composition: repeats a body pattern until the
/// application decides it has converged (or a round cap is hit) — the
/// paper's adaptive-execution outlook, where the amount of work is
/// only known at runtime. Compiles to a single expander that re-emits
/// the body's graph each round, after consulting the predicate.
class AdaptiveLoop final : public ExecutionPattern {
 public:
  /// Called after each completed round with the 1-based round number;
  /// return true to run another round.
  using ContinueFn = std::function<bool(Count round)>;

  AdaptiveLoop(std::unique_ptr<ExecutionPattern> body, Count max_rounds,
               ContinueFn continue_fn);

  std::string name() const override { return "adaptive_loop"; }
  Status validate() const override;
  Status compile(TaskGraph& graph) override;

  Count rounds_completed() const { return rounds_completed_; }
  ExecutionPattern& body() { return *body_; }

 private:
  std::unique_ptr<ExecutionPattern> body_;
  Count max_rounds_;
  ContinueFn continue_fn_;
  Count next_round_ = 0;  ///< Expander cursor.
  Count rounds_completed_ = 0;
};

/// Higher-order composition: runs child patterns one after another
/// (the paper's "unit patterns combine into complex patterns").
/// Compiles to an expander that emits one child's graph at a time, so
/// a child after a failed one is never even compiled.
class SequencePattern final : public ExecutionPattern {
 public:
  explicit SequencePattern(std::string name = "sequence");

  void append(std::unique_ptr<ExecutionPattern> pattern);
  std::size_t size() const { return children_.size(); }

  std::string name() const override { return name_; }
  Status validate() const override;
  Status compile(TaskGraph& graph) override;

 private:
  std::string name_;
  std::vector<std::unique_ptr<ExecutionPattern>> children_;
  std::size_t next_child_ = 0;  ///< Expander cursor.
};

}  // namespace entk::core

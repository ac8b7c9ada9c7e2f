// Scale sweep: the toolkit's perf-regression harness.
//
// Two questions, answered with machine-readable numbers
// (BENCH_scale.json):
//
//  1. How fast is the event engine itself?  A cancel-heavy timer-churn
//     microbench — the agent's walltime-timer idiom: every unit
//     schedules a completion AND a timeout, completion cancels the
//     timeout — drives the pre-rework engine (bench/legacy_engine.hpp,
//     preserved verbatim) and the production pooled engine through the
//     identical workload and reports both events/sec numbers. The
//     pooled engine must stay >= 5x at 100k units; the ratio is
//     machine-relative, so it is the robust regression signal across
//     differently-sized CI runners.
//
//  2. Does the whole stack stay sublinear per unit at ensemble scale?
//     Weak- and strong-scaling sweeps of the paper's patterns
//     (BoT / EoP / SAL) up to 100k units on a synthetic large machine,
//     reporting wall-clock events/sec, scheduler cycles, toolkit
//     overhead per unit and peak RSS for each point.
//
// Modes: the default run is CI-sized (seconds); --full runs the
// 100k-unit points the acceptance numbers come from.
//
//   scale_sweep [--full] [--out BENCH_scale.json]
//
// docs/PERFORMANCE.md describes the methodology and the JSON schema;
// tools/check_bench_regression.py gates CI on the result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "ckpt/coordinator.hpp"
#include "common/atomic_file.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "legacy_engine.hpp"
#include "multi_session_probe.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pilot/sim_agent.hpp"
#include "serve_probe.hpp"

namespace {

using namespace entk;

double wall_seconds_since(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Linux: ru_maxrss is KiB. Monotone per process (high-water mark).
double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// Part 1: engine comparison (legacy vs pooled), identical workload.
// ---------------------------------------------------------------------

struct ChurnResult {
  double wall_seconds = 0.0;
  std::uint64_t dispatched = 0;
  std::size_t peak_entries = 0;  ///< Queue/heap high-water mark.
  double events_per_sec = 0.0;
};

/// Shared state of one churn run. Callbacks capture exactly (context
/// pointer, timer handle) — 16 trivially-copyable bytes, inside
/// std::function's small-object buffer — so the measurement isolates
/// the engines' own costs (allocation, index maintenance, heap depth)
/// instead of closure heap traffic both engines would pay alike.
template <typename EngineT>
struct ChurnContext {
  EngineT& engine;
  std::size_t (*entries)(EngineT&);
  const std::vector<double>& durations;
  std::size_t next_unit = 0;
  std::size_t n_units = 0;
  std::size_t peak_entries = 0;
};

/// One unit's lifecycle, the agent's walltime-timer idiom: arm a
/// watchdog and schedule the spawn; at launch re-arm the watchdog for
/// the execution phase; at completion cancel it and start the next
/// unit. Per unit: 4 schedules, 2 dispatches, 2 cancels. The legacy
/// engine leaves every cancelled watchdog as a tombstone in its
/// priority queue (they sort 1h into the future), so its heap grows
/// O(n_units); the pooled engine recycles the slot immediately and
/// stays O(window).
template <typename EngineT>
void churn_start_unit(ChurnContext<EngineT>* ctx) {
  if (ctx->next_unit >= ctx->n_units) return;
  const std::size_t i = ctx->next_unit++;
  const double spawn_delay =
      0.05 * ctx->durations[i % ctx->durations.size()];
  const auto spawn_watchdog = ctx->engine.schedule(3600.0, [] {});
  ctx->engine.schedule(spawn_delay, [ctx, spawn_watchdog] {
    // Launched: re-arm the walltime watchdog for the execution phase.
    ctx->engine.cancel(spawn_watchdog);
    const auto exec_watchdog = ctx->engine.schedule(3600.0, [] {});
    const double run_delay =
        ctx->durations[ctx->next_unit % ctx->durations.size()];
    ctx->engine.schedule(run_delay, [ctx, exec_watchdog] {
      ctx->engine.cancel(exec_watchdog);
      if ((ctx->next_unit & 63u) == 0) {
        ctx->peak_entries =
            std::max(ctx->peak_entries, ctx->entries(ctx->engine));
      }
      churn_start_unit(ctx);
    });
  });
}

template <typename EngineT>
ChurnResult drive_timer_churn(EngineT& engine, std::size_t n_units,
                              std::size_t window,
                              std::size_t (*entries)(EngineT&)) {
  // Deterministic per-unit durations, identical for both engines.
  std::vector<double> durations(1024);
  Xoshiro256 rng(0x5ca1ab1eULL);
  for (double& d : durations) d = 0.5 + rng.uniform();

  ChurnContext<EngineT> ctx{engine, entries, durations};
  ctx.n_units = n_units;

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < window && i < n_units; ++i) {
    churn_start_unit(&ctx);
  }
  engine.run();
  ChurnResult result;
  result.wall_seconds = wall_seconds_since(start);
  result.dispatched = engine.dispatched_events();
  result.peak_entries = std::max(ctx.peak_entries, entries(engine));
  result.events_per_sec =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.dispatched) / result.wall_seconds
          : 0.0;
  return result;
}

struct EngineCompare {
  std::size_t n_units = 0;
  ChurnResult legacy;
  ChurnResult pooled;
  double speedup = 0.0;
};

EngineCompare compare_engines(std::size_t n_units, std::size_t window) {
  EngineCompare compare;
  compare.n_units = n_units;
  {
    bench::LegacyEngine legacy;
    compare.legacy = drive_timer_churn<bench::LegacyEngine>(
        legacy, n_units, window,
        [](bench::LegacyEngine& e) { return e.queue_entries(); });
  }
  {
    sim::Engine pooled;
    compare.pooled = drive_timer_churn<sim::Engine>(
        pooled, n_units, window,
        [](sim::Engine& e) { return e.pool_slots(); });
  }
  compare.speedup = compare.legacy.events_per_sec > 0.0
                        ? compare.pooled.events_per_sec /
                              compare.legacy.events_per_sec
                        : 0.0;
  return compare;
}

// ---------------------------------------------------------------------
// Part 2: whole-stack pattern sweeps.
// ---------------------------------------------------------------------

/// Synthetic large machine: enough cores for 100k single-core units,
/// with light (localhost-grade) overhead parameters so virtual time
/// stays bounded while every unit still pays spawn/launch/staging
/// events — the toolkit machinery is what is being measured.
sim::MachineProfile scale_profile(Count cores) {
  sim::MachineProfile p;
  p.name = "bench.scale";
  p.cores_per_node = 64;
  p.nodes = (cores + p.cores_per_node - 1) / p.cores_per_node;
  p.memory_per_node_gb = 256.0;
  p.performance_factor = 1.0;
  p.unit_spawn_overhead = 0.001;
  p.spawner_concurrency = 64;
  p.unit_launch_latency = 0.002;
  p.pilot_bootstrap = 0.1;
  p.batch_base_wait = 0.0;
  p.batch_wait_per_node = 0.0;
  p.staging_latency = 0.001;
  p.staging_bandwidth_mb_per_s = 1000.0;
  return p;
}

/// Deterministically heterogeneous sleep task (so schedules are not
/// degenerate all-identical).
core::StageFn sleep_stage(double base, double spread) {
  return [base, spread](const core::StageContext& context) {
    Xoshiro256 rng(static_cast<std::uint64_t>(context.instance) * 7919 +
                   static_cast<std::uint64_t>(context.stage) * 104729 + 17);
    core::TaskSpec spec;
    spec.kernel = "misc.sleep";
    spec.args.set("duration",
                  base * (1.0 + spread * (2.0 * rng.uniform() - 1.0)));
    return spec;
  };
}

struct SweepPoint {
  std::string pattern;  ///< "bot" / "eop" / "sal"
  std::string scaling;  ///< "weak" / "strong"
  std::size_t n_units = 0;
  Count cores = 0;
  double wall_seconds = 0.0;
  std::uint64_t engine_events = 0;
  double events_per_sec = 0.0;
  std::uint64_t scheduler_cycles = 0;
  double scheduler_us_per_cycle = 0.0;
  double wall_us_per_unit = 0.0;
  double toolkit_overhead_per_unit_s = 0.0;  ///< Virtual-time overhead.
  double ttc = 0.0;                          ///< Virtual time-to-completion.
  double peak_rss_mb = 0.0;
};

SweepPoint run_pattern(const std::string& label, const std::string& scaling,
                       core::ExecutionPattern& pattern, Count cores,
                       const ckpt::Coordinator::Options* ckpt_options = nullptr,
                       std::uint64_t* snapshots_written = nullptr) {
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  pilot::SimBackend backend(scale_profile(cores));
  core::ResourceOptions options;
  options.cores = cores;
  options.runtime = 4.0e6;
  core::ResourceHandle handle(backend, registry, options);

  SweepPoint point;
  point.pattern = label;
  point.scaling = scaling;
  point.cores = cores;

  if (Status status = handle.allocate(); !status.is_ok()) {
    std::cerr << "BENCH FAILURE (" << label
              << "/allocate): " << status.to_string() << "\n";
    std::exit(1);
  }
  std::optional<ckpt::Coordinator> coordinator;
  if (ckpt_options != nullptr) {
    coordinator.emplace(backend, handle, *ckpt_options);
    coordinator->set_identity(label, "");
    pattern.set_graph_run_observer(&*coordinator);
  }
  const std::uint64_t events_before = backend.engine().dispatched_events();
  const auto start = std::chrono::steady_clock::now();
  auto report = handle.run(pattern);
  point.wall_seconds = wall_seconds_since(start);
  if (!report.ok() || !report.value().outcome.is_ok()) {
    const Status status =
        report.ok() ? report.value().outcome : report.status();
    std::cerr << "BENCH FAILURE (" << label
              << "/run): " << status.to_string() << "\n";
    std::exit(1);
  }
  if (coordinator) {
    pattern.set_graph_run_observer(nullptr);
    if (snapshots_written != nullptr) {
      *snapshots_written = coordinator->snapshots_written();
    }
  }
  point.n_units = report.value().units.size();
  point.engine_events =
      backend.engine().dispatched_events() - events_before;
  point.events_per_sec =
      point.wall_seconds > 0.0
          ? static_cast<double>(point.engine_events) / point.wall_seconds
          : 0.0;
  if (auto* agent =
          dynamic_cast<pilot::SimAgent*>(handle.pilot()->agent())) {
    point.scheduler_cycles = agent->scheduler_cycles();
  }
  point.scheduler_us_per_cycle =
      point.scheduler_cycles > 0
          ? 1.0e6 * point.wall_seconds /
                static_cast<double>(point.scheduler_cycles)
          : 0.0;
  point.wall_us_per_unit =
      point.n_units > 0 ? 1.0e6 * point.wall_seconds /
                              static_cast<double>(point.n_units)
                        : 0.0;
  const auto& overheads = report.value().overheads;
  point.toolkit_overhead_per_unit_s =
      point.n_units > 0
          ? (overheads.pattern_overhead + overheads.runtime_overhead) /
                static_cast<double>(point.n_units)
          : 0.0;
  point.ttc = overheads.ttc;
  (void)handle.deallocate();
  point.peak_rss_mb = peak_rss_mb();
  return point;
}

SweepPoint run_bot(std::size_t n_units, Count cores,
                   const std::string& scaling) {
  core::BagOfTasks pattern(static_cast<Count>(n_units),
                           sleep_stage(100.0, 0.5));
  return run_pattern("bot", scaling, pattern, cores);
}

SweepPoint run_eop(Count pipelines, Count stages, Count cores) {
  core::EnsembleOfPipelines pattern(pipelines, stages);
  for (Count s = 1; s <= stages; ++s) {
    pattern.set_stage(s, sleep_stage(50.0, 0.5));
  }
  return run_pattern("eop", "weak", pattern, cores);
}

SweepPoint run_sal(Count iterations, Count simulations, Count analyses,
                   Count cores) {
  core::SimulationAnalysisLoop pattern(iterations, simulations, analyses);
  pattern.set_simulation(sleep_stage(80.0, 0.5));
  pattern.set_analysis(sleep_stage(20.0, 0.25));
  return run_pattern("sal", "weak", pattern, cores);
}

// ---------------------------------------------------------------------
// Tracing-overhead probe: the same BoT point with the recorder off and
// on, in this binary. With ENTK_ENABLE_TRACING=0 both runs are the
// uninstrumented hot path, so traced == baseline demonstrates the
// compiled-out macros are free; with tracing compiled in, the delta is
// the cost of the enabled recorder.
// ---------------------------------------------------------------------

struct TracingProbe {
  bool compiled_in = false;
  std::size_t n_units = 0;
  double baseline_cpu_seconds = 0.0;
  double traced_cpu_seconds = 0.0;
  double baseline_wall_seconds = 0.0;
  double traced_wall_seconds = 0.0;
  double baseline_events_per_sec = 0.0;
  double traced_events_per_sec = 0.0;
  double overhead_fraction = 0.0;  ///< From best-of-N CPU seconds.
  std::uint64_t events_recorded = 0;
  std::uint64_t events_dropped = 0;
};

// One run's wall time fluctuates roughly +/-10% (allocator and OS
// scheduler noise dwarfs the recorder at this scale) and the machine
// drifts over the probe's lifetime. The probe therefore (a) scores on
// process-CPU seconds, which for this single-threaded CPU-bound run
// is far steadier than wall time, (b) interleaves the configurations
// and alternates which goes first each repetition, so both drift and
// within-repetition ordering bias cancel, and (c) takes best-of-N:
// the minimum is the least-noise estimate of the true cost. Twelve
// repetitions put the minimum within ~1% on a machine whose
// single-run CPU time wobbles by +/-5%.
constexpr int kProbeRepetitions = 12;

TracingProbe run_tracing_probe(std::size_t n_units,
                               const std::string& trace_out) {
  TracingProbe probe;
  probe.compiled_in = obs::tracing_compiled_in();
  probe.n_units = n_units;

  // Untimed warm-up: the first run at a new size pays allocator and
  // page-cache population that later runs do not, which would bias
  // the baseline batch slow (and the overhead negative).
  run_bot(n_units, static_cast<Count>(n_units), "weak");

  const auto timed_run = [n_units](SweepPoint& best, double& best_cpu) {
    const std::clock_t start = std::clock();
    const SweepPoint point =
        run_bot(n_units, static_cast<Count>(n_units), "weak");
    const double cpu = static_cast<double>(std::clock() - start) /
                       CLOCKS_PER_SEC;
    if (best_cpu < 0.0 || cpu < best_cpu) {
      best = point;
      best_cpu = cpu;
    }
  };

  auto& recorder = obs::TraceRecorder::instance();
  recorder.set_capacity_per_thread(std::size_t{1} << 20);
  SweepPoint baseline;
  SweepPoint traced;
  double baseline_cpu = -1.0;
  double traced_cpu = -1.0;
  const auto traced_run = [&] {
    recorder.clear();  // each repetition records a fresh trace
    recorder.set_enabled(true);
    timed_run(traced, traced_cpu);
    recorder.set_enabled(false);
  };
  for (int rep = 0; rep < kProbeRepetitions; ++rep) {
    if (rep % 2 == 0) {
      timed_run(baseline, baseline_cpu);
      traced_run();
    } else {
      traced_run();
      timed_run(baseline, baseline_cpu);
    }
  }
  probe.baseline_cpu_seconds = baseline_cpu;
  probe.traced_cpu_seconds = traced_cpu;
  probe.baseline_wall_seconds = baseline.wall_seconds;
  probe.baseline_events_per_sec = baseline.events_per_sec;
  probe.traced_wall_seconds = traced.wall_seconds;
  probe.traced_events_per_sec = traced.events_per_sec;
  probe.overhead_fraction =
      probe.baseline_cpu_seconds > 0.0
          ? probe.traced_cpu_seconds / probe.baseline_cpu_seconds - 1.0
          : 0.0;
  const auto stats = recorder.stats();
  probe.events_recorded = stats.recorded;
  probe.events_dropped = stats.dropped;

  if (!trace_out.empty()) {
    if (Status status =
            obs::write_chrome_trace(trace_out, recorder.snapshot());
        !status.is_ok()) {
      std::cerr << "BENCH FAILURE: trace export: " << status.to_string()
                << "\n";
      std::exit(1);
    }
    std::cout << "wrote " << trace_out << "\n";
  }
  recorder.clear();
  return probe;
}

// ---------------------------------------------------------------------
// Checkpoint-overhead probe: the same BoT point with the checkpoint
// coordinator detached and attached (snapshotting every n_units/8
// settled units), in this binary. The gated number is the virtual-TTC
// delta: captures happen at engine-step boundaries in wall time, off
// the virtual-time path, so checkpointing must not move TTC at all —
// any drift means a capture perturbed the engine, the scheduler or a
// unit, which is exactly the regression the kill/resume determinism
// tests depend on never happening. The wall-clock cost of the capture
// serialization and the crash-consistent file writes is reported
// alongside (process-CPU seconds, interleaved order-alternating
// best-of-N, same methodology as the tracing probe) but not gated:
// in this all-virtual bench the units do no real work, so the O(n)
// capture is measured against a run that is nothing but toolkit
// bookkeeping — a denominator real campaigns never see.
// ---------------------------------------------------------------------

struct CheckpointProbe {
  std::size_t n_units = 0;
  std::uint64_t every_settled = 0;
  std::uint64_t snapshots_written = 0;
  double baseline_cpu_seconds = 0.0;
  double checkpointed_cpu_seconds = 0.0;
  double baseline_ttc = 0.0;
  double checkpointed_ttc = 0.0;
  double overhead_fraction = 0.0;      ///< Virtual-TTC delta (gated).
  double cpu_overhead_fraction = 0.0;  ///< Best-of-N CPU seconds (info).
};

CheckpointProbe run_checkpoint_probe(std::size_t n_units) {
  CheckpointProbe probe;
  probe.n_units = n_units;
  probe.every_settled = std::max<std::uint64_t>(1, n_units / 8);

  const std::filesystem::path ckpt_dir =
      std::filesystem::temp_directory_path() / "entk-bench-ckpt";

  // Untimed warm-up (same rationale as the tracing probe).
  run_bot(n_units, static_cast<Count>(n_units), "weak");

  SweepPoint baseline;
  SweepPoint checkpointed;
  double baseline_cpu = -1.0;
  double checkpointed_cpu = -1.0;
  const auto baseline_run = [&] {
    const std::clock_t start = std::clock();
    const SweepPoint point =
        run_bot(n_units, static_cast<Count>(n_units), "weak");
    const double cpu =
        static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC;
    if (baseline_cpu < 0.0 || cpu < baseline_cpu) {
      baseline = point;
      baseline_cpu = cpu;
    }
  };
  // The gated TTC delta is deterministic, so repetitions only tighten
  // the informational CPU numbers; four keep the full-mode probe (each
  // checkpointed run writes eight ~100k-unit snapshots) affordable.
  constexpr int kCheckpointRepetitions = 4;
  const auto checkpointed_run = [&] {
    ckpt::Coordinator::Options options;
    options.directory = ckpt_dir.string();
    options.policy.every_settled = probe.every_settled;
    core::BagOfTasks pattern(static_cast<Count>(n_units),
                             sleep_stage(100.0, 0.5));
    std::uint64_t snapshots = 0;
    const std::clock_t start = std::clock();
    const SweepPoint point =
        run_pattern("bot", "weak", pattern, static_cast<Count>(n_units),
                    &options, &snapshots);
    const double cpu =
        static_cast<double>(std::clock() - start) / CLOCKS_PER_SEC;
    if (checkpointed_cpu < 0.0 || cpu < checkpointed_cpu) {
      checkpointed = point;
      checkpointed_cpu = cpu;
      probe.snapshots_written = snapshots;
    }
  };
  for (int rep = 0; rep < kCheckpointRepetitions; ++rep) {
    if (rep % 2 == 0) {
      baseline_run();
      checkpointed_run();
    } else {
      checkpointed_run();
      baseline_run();
    }
  }
  probe.baseline_cpu_seconds = baseline_cpu;
  probe.checkpointed_cpu_seconds = checkpointed_cpu;
  probe.baseline_ttc = baseline.ttc;
  probe.checkpointed_ttc = checkpointed.ttc;
  probe.overhead_fraction =
      probe.baseline_ttc > 0.0
          ? probe.checkpointed_ttc / probe.baseline_ttc - 1.0
          : 0.0;
  probe.cpu_overhead_fraction =
      probe.baseline_cpu_seconds > 0.0
          ? probe.checkpointed_cpu_seconds / probe.baseline_cpu_seconds -
                1.0
          : 0.0;

  std::error_code ec;
  std::filesystem::remove_all(ckpt_dir, ec);
  return probe;
}

// ---------------------------------------------------------------------
// Part 4: real-mode concurrency (LocalAgent's worker threads).
// ---------------------------------------------------------------------

struct ParallelPoint {
  /// Pilot cores; the agent runs min(cores, 16) worker threads.
  std::size_t threads = 0;
  double wall_seconds = 0.0;
  double speedup = 1.0;  ///< wall(first point) / wall(this point).
  std::uint64_t executed = 0;  ///< Units that ended DONE.
};

struct ParallelRuntimeProbe {
  std::size_t n_tasks = 0;
  double task_block_ms = 0.0;
  std::vector<ParallelPoint> points;

  double speedup_at(std::size_t threads) const {
    for (const ParallelPoint& point : points) {
      if (point.threads == threads) return point.speedup;
    }
    return 0.0;
  }
};

/// Runs a BagOfTasks of BLOCKING `misc.sleep` units through a
/// LocalBackend pilot of each size in `core_counts`, timed around
/// run(). Real-mode payloads spend their time blocked in I/O or
/// subprocess waits, not spinning, so each one sleeps: the agent's
/// job is to keep one payload per core in flight, and the wall-clock
/// ratio against the one-core run is the concurrency it delivered.
/// (Blocking payloads also make the measurement meaningful on
/// single-core CI runners, where a cpu-bound sweep could never beat
/// 1x.) main() checks that every unit ended DONE.
ParallelRuntimeProbe run_parallel_probe(
    std::size_t n_tasks, double block_ms,
    const std::vector<std::size_t>& core_counts) {
  ParallelRuntimeProbe probe;
  probe.n_tasks = n_tasks;
  probe.task_block_ms = block_ms;
  const auto registry = kernels::KernelRegistry::with_builtin_kernels();
  const core::StageFn sleep_spec = [block_ms](const core::StageContext&) {
    core::TaskSpec spec;
    spec.kernel = "misc.sleep";
    spec.args.set("duration", block_ms / 1000.0);
    return spec;
  };
  for (const std::size_t cores : core_counts) {
    pilot::LocalBackend backend(static_cast<Count>(cores));
    core::ResourceOptions options;
    options.cores = static_cast<Count>(cores);
    core::ResourceHandle handle(backend, registry, options);
    if (Status status = handle.allocate(); !status.is_ok()) {
      std::cerr << "BENCH FAILURE (parallel runtime/allocate): "
                << status.to_string() << "\n";
      std::exit(1);
    }
    core::BagOfTasks bag(static_cast<Count>(n_tasks), sleep_spec);
    const auto start = std::chrono::steady_clock::now();
    auto report = handle.run(bag);
    ParallelPoint point;
    point.threads = cores;
    point.wall_seconds = wall_seconds_since(start);
    if (!report.ok()) {
      std::cerr << "BENCH FAILURE (parallel runtime/run): "
                << report.status().to_string() << "\n";
      std::exit(1);
    }
    for (const auto& unit : report.value().units) {
      if (unit->state() == pilot::UnitState::kDone) ++point.executed;
    }
    (void)handle.deallocate();
    point.speedup = probe.points.empty()
                        ? 1.0
                        : probe.points.front().wall_seconds /
                              std::max(point.wall_seconds, 1e-9);
    probe.points.push_back(point);
  }
  return probe;
}

// ---------------------------------------------------------------------
// JSON emission (hand-rolled: no third-party deps in the toolkit).
// ---------------------------------------------------------------------

std::string json_number(double value) {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed << value;
  return out.str();
}

void write_json(const std::string& path, const std::string& mode,
                const EngineCompare& compare,
                const std::vector<SweepPoint>& sweeps,
                const TracingProbe& probe,
                const CheckpointProbe& ckpt_probe,
                const bench::MultiSessionProbe& multi_probe,
                const ParallelRuntimeProbe& parallel_probe,
                const bench::ServeProbe& serve_probe) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"entk.bench.scale/1\",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"engine_compare\": {\n";
  out << "    \"workload\": \"timer_churn\",\n";
  out << "    \"n_units\": " << compare.n_units << ",\n";
  out << "    \"legacy_events_per_sec\": "
      << json_number(compare.legacy.events_per_sec) << ",\n";
  out << "    \"legacy_wall_seconds\": "
      << json_number(compare.legacy.wall_seconds) << ",\n";
  out << "    \"legacy_peak_queue_entries\": "
      << compare.legacy.peak_entries << ",\n";
  out << "    \"pooled_events_per_sec\": "
      << json_number(compare.pooled.events_per_sec) << ",\n";
  out << "    \"pooled_wall_seconds\": "
      << json_number(compare.pooled.wall_seconds) << ",\n";
  out << "    \"pooled_peak_pool_slots\": "
      << compare.pooled.peak_entries << ",\n";
  out << "    \"speedup\": " << json_number(compare.speedup) << "\n";
  out << "  },\n";
  out << "  \"sweeps\": [\n";
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const SweepPoint& p = sweeps[i];
    out << "    {\"pattern\": \"" << p.pattern << "\", \"scaling\": \""
        << p.scaling << "\", \"n_units\": " << p.n_units
        << ", \"cores\": " << p.cores
        << ", \"wall_seconds\": " << json_number(p.wall_seconds)
        << ", \"engine_events\": " << p.engine_events
        << ", \"events_per_sec\": " << json_number(p.events_per_sec)
        << ", \"scheduler_cycles\": " << p.scheduler_cycles
        << ", \"scheduler_us_per_cycle\": "
        << json_number(p.scheduler_us_per_cycle)
        << ", \"wall_us_per_unit\": " << json_number(p.wall_us_per_unit)
        << ", \"toolkit_overhead_per_unit_s\": "
        << json_number(p.toolkit_overhead_per_unit_s)
        << ", \"ttc\": " << json_number(p.ttc)
        << ", \"peak_rss_mb\": " << json_number(p.peak_rss_mb) << "}"
        << (i + 1 < sweeps.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"tracing\": {\n";
  out << "    \"compiled_in\": " << (probe.compiled_in ? "true" : "false")
      << ",\n";
  out << "    \"n_units\": " << probe.n_units << ",\n";
  out << "    \"baseline_cpu_seconds\": "
      << json_number(probe.baseline_cpu_seconds) << ",\n";
  out << "    \"traced_cpu_seconds\": "
      << json_number(probe.traced_cpu_seconds) << ",\n";
  out << "    \"baseline_wall_seconds\": "
      << json_number(probe.baseline_wall_seconds) << ",\n";
  out << "    \"traced_wall_seconds\": "
      << json_number(probe.traced_wall_seconds) << ",\n";
  out << "    \"baseline_events_per_sec\": "
      << json_number(probe.baseline_events_per_sec) << ",\n";
  out << "    \"traced_events_per_sec\": "
      << json_number(probe.traced_events_per_sec) << ",\n";
  out << "    \"overhead_fraction\": "
      << json_number(probe.overhead_fraction) << ",\n";
  out << "    \"events_recorded\": " << probe.events_recorded << ",\n";
  out << "    \"events_dropped\": " << probe.events_dropped << "\n";
  out << "  },\n";
  out << "  \"checkpoint\": {\n";
  out << "    \"n_units\": " << ckpt_probe.n_units << ",\n";
  out << "    \"every_settled\": " << ckpt_probe.every_settled << ",\n";
  out << "    \"snapshots_written\": " << ckpt_probe.snapshots_written
      << ",\n";
  out << "    \"baseline_cpu_seconds\": "
      << json_number(ckpt_probe.baseline_cpu_seconds) << ",\n";
  out << "    \"checkpointed_cpu_seconds\": "
      << json_number(ckpt_probe.checkpointed_cpu_seconds) << ",\n";
  out << "    \"baseline_ttc\": " << json_number(ckpt_probe.baseline_ttc)
      << ",\n";
  out << "    \"checkpointed_ttc\": "
      << json_number(ckpt_probe.checkpointed_ttc) << ",\n";
  out << "    \"overhead_fraction\": "
      << json_number(ckpt_probe.overhead_fraction) << ",\n";
  out << "    \"cpu_overhead_fraction\": "
      << json_number(ckpt_probe.cpu_overhead_fraction) << "\n";
  out << "  },\n";
  out << "  \"multi_session\": "
      << bench::multi_session_json(multi_probe, "  ") << ",\n";
  out << "  \"parallel_runtime\": {\n";
  out << "    \"workload\": \"blocking_kernels\",\n";
  out << "    \"n_tasks\": " << parallel_probe.n_tasks << ",\n";
  out << "    \"task_block_ms\": "
      << json_number(parallel_probe.task_block_ms) << ",\n";
  out << "    \"points\": [\n";
  for (std::size_t i = 0; i < parallel_probe.points.size(); ++i) {
    const ParallelPoint& p = parallel_probe.points[i];
    out << "      {\"threads\": " << p.threads
        << ", \"wall_seconds\": " << json_number(p.wall_seconds)
        << ", \"speedup\": " << json_number(p.speedup)
        << ", \"executed\": " << p.executed << "}"
        << (i + 1 < parallel_probe.points.size() ? "," : "")
        << "\n";
  }
  out << "    ],\n";
  out << "    \"speedup_at_4\": "
      << json_number(parallel_probe.speedup_at(4)) << ",\n";
  out << "    \"speedup_at_16\": "
      << json_number(parallel_probe.speedup_at(16)) << "\n";
  out << "  },\n";
  out << "  \"serve\": " << bench::serve_json(serve_probe, "  ") << "\n";
  out << "}\n";

  if (Status status = write_file_atomic(path, out.str());
      !status.is_ok()) {
    std::cerr << "BENCH FAILURE: cannot write " << path << ": "
              << status.to_string() << "\n";
    std::exit(1);
  }
  std::cout << "\nwrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  std::string out_path = "BENCH_scale.json";
  std::string trace_out;
  // The speedup baseline is the first point, so it should stay 1.
  std::vector<std::size_t> thread_counts = {1, 4, 16};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_counts.clear();
      std::istringstream list(argv[++i]);
      std::string token;
      while (std::getline(list, token, ',')) {
        const unsigned long value = std::strtoul(token.c_str(), nullptr, 10);
        if (value == 0) {
          std::cerr << "scale_sweep: bad --threads entry '" << token
                    << "' (want a comma-separated list like 1,4,16)\n";
          return 2;
        }
        thread_counts.push_back(static_cast<std::size_t>(value));
      }
      if (thread_counts.empty()) {
        std::cerr << "scale_sweep: --threads needs at least one count\n";
        return 2;
      }
    } else {
      std::cerr << "usage: scale_sweep [--full] [--out path] "
                   "[--trace-out trace.json] [--threads 1,4,16]\n";
      return 2;
    }
  }
  const std::string mode = full ? "full" : "smoke";

  std::cout << "=== Scale sweep (" << mode
            << " mode): pooled event engine + indexed scheduling ===\n\n";

  // Part 0: tracing-overhead probe at the largest weak-scaling point.
  // Runs FIRST, before the sweeps heat the machine: the probe chases
  // a few-percent effect, and thermal drift over a minutes-long bench
  // is visible in per-run CPU time.
  const std::size_t probe_units = full ? 100000 : 4096;
  const TracingProbe probe = run_tracing_probe(probe_units, trace_out);
  std::cout << "tracing probe (" << probe.n_units << " units, compiled "
            << (probe.compiled_in ? "in" : "out") << "): baseline "
            << format_double(probe.baseline_cpu_seconds, 2)
            << " cpu-s, traced "
            << format_double(probe.traced_cpu_seconds, 2)
            << " cpu-s, overhead "
            << format_double(100.0 * probe.overhead_fraction, 1) << " % ("
            << probe.events_recorded << " events, " << probe.events_dropped
            << " dropped)\n\n";

  // Part 0b: checkpoint-overhead probe at the same point, same
  // methodology (it chases the same few-percent effect).
  const CheckpointProbe ckpt_probe = run_checkpoint_probe(probe_units);
  std::cout << "checkpoint probe (" << ckpt_probe.n_units
            << " units, snapshot every " << ckpt_probe.every_settled
            << " settled, " << ckpt_probe.snapshots_written
            << " snapshots): TTC "
            << format_double(ckpt_probe.baseline_ttc, 1) << " -> "
            << format_double(ckpt_probe.checkpointed_ttc, 1)
            << " virtual-s (overhead "
            << format_double(100.0 * ckpt_probe.overhead_fraction, 1)
            << " %), capture cost "
            << format_double(ckpt_probe.baseline_cpu_seconds, 2) << " -> "
            << format_double(ckpt_probe.checkpointed_cpu_seconds, 2)
            << " cpu-s (not gated)\n\n";

  // Part 1: engine comparison at the acceptance scale.
  const std::size_t compare_units = full ? 100000 : 20000;
  const EngineCompare compare = compare_engines(compare_units, 4096);
  Table engine_table({"engine", "events", "wall [s]", "events/sec",
                      "peak queue/pool"});
  engine_table.add_row(
      {"legacy (shared_ptr + lazy cancel)",
       std::to_string(compare.legacy.dispatched),
       format_double(compare.legacy.wall_seconds, 3),
       format_double(compare.legacy.events_per_sec, 0),
       std::to_string(compare.legacy.peak_entries)});
  engine_table.add_row({"pooled (slab + indexed heap)",
                        std::to_string(compare.pooled.dispatched),
                        format_double(compare.pooled.wall_seconds, 3),
                        format_double(compare.pooled.events_per_sec, 0),
                        std::to_string(compare.pooled.peak_entries)});
  std::cout << "timer churn, " << compare_units << " units, window 4096:\n"
            << engine_table.to_string() << "speedup: "
            << format_double(compare.speedup, 2) << "x\n\n";

  // Part 2: pattern sweeps.
  std::vector<SweepPoint> sweeps;
  if (full) {
    // Weak scaling: units == cores.
    for (const std::size_t n : {1000UL, 10000UL, 100000UL}) {
      sweeps.push_back(run_bot(n, static_cast<Count>(n), "weak"));
    }
    // Strong scaling: fixed bag, shrinking machine (deep backlog).
    for (const Count cores : {16384, 4096, 1024}) {
      sweeps.push_back(run_bot(32768, cores, "strong"));
    }
    sweeps.push_back(run_eop(2500, 4, 2500));    // 10k units
    sweeps.push_back(run_eop(25000, 4, 25000));  // 100k units
    sweeps.push_back(run_sal(4, 2000, 500, 2000));    // 10k units
    sweeps.push_back(run_sal(4, 20000, 5000, 20000));  // 100k units
  } else {
    for (const std::size_t n : {256UL, 1024UL, 4096UL}) {
      sweeps.push_back(run_bot(n, static_cast<Count>(n), "weak"));
    }
    for (const Count cores : {1024, 256}) {
      sweeps.push_back(run_bot(4096, cores, "strong"));
    }
    sweeps.push_back(run_eop(256, 4, 256));
    sweeps.push_back(run_sal(2, 256, 64, 256));
  }

  Table sweep_table({"pattern", "scaling", "units", "cores", "wall [s]",
                     "events/sec", "sched cycles", "us/unit",
                     "peak RSS [MB]"});
  for (const SweepPoint& p : sweeps) {
    sweep_table.add_row(
        {p.pattern, p.scaling, std::to_string(p.n_units),
         std::to_string(p.cores), format_double(p.wall_seconds, 2),
         format_double(p.events_per_sec, 0),
         std::to_string(p.scheduler_cycles),
         format_double(p.wall_us_per_unit, 1),
         format_double(p.peak_rss_mb, 0)});
  }
  std::cout << sweep_table.to_string();

  // Part 3: multi-session sharing. Per-session TTC inflation at
  // 1/2/4/8 concurrent workloads on one backend vs serial baselines
  // (bench/multi_session_probe.hpp documents the two ratios).
  std::cout << "\n";
  const bench::MultiSessionProbe multi_probe =
      full ? bench::run_multi_session_probe(2048, 10000)
           : bench::run_multi_session_probe(512, 1000);
  bench::print_multi_session_table(multi_probe);

  // Part 4: a bag of blocking sleeps through LocalBackend pilots of
  // 1/4/16 cores.
  const ParallelRuntimeProbe parallel_probe =
      run_parallel_probe(full ? 480 : 240, 4.0, thread_counts);
  Table parallel_table({"cores", "wall [s]", "speedup", "done"});
  for (const ParallelPoint& p : parallel_probe.points) {
    parallel_table.add_row(
        {std::to_string(p.threads), format_double(p.wall_seconds, 3),
         format_double(p.speedup, 2) + "x", std::to_string(p.executed)});
  }
  std::cout << "\nparallel runtime (" << parallel_probe.n_tasks
            << " blocking misc.sleep units, "
            << format_double(parallel_probe.task_block_ms, 1)
            << " ms each, local backend):\n"
            << parallel_table.to_string();

  // Part 5: the entk-serve submission storm. 8 tenants of equal
  // weight race >= 1000 workloads through admission and the global
  // dispatch budget; fairness and the latency tail are gated
  // (bench/serve_probe.hpp documents the metrics).
  std::cout << "\n";
  const bench::ServeProbe serve_probe =
      full ? bench::run_serve_probe(8, 256, 16)
           : bench::run_serve_probe(8, 128, 16);
  bench::print_serve_table(serve_probe);

  write_json(out_path, mode, compare, sweeps, probe, ckpt_probe,
             multi_probe, parallel_probe, serve_probe);

  if (compare.speedup < (full ? 5.0 : 2.0)) {
    std::cerr << "BENCH FAILURE: pooled/legacy speedup "
              << format_double(compare.speedup, 2) << "x below the floor\n";
    return 1;
  }
  // Enabled-tracing budget: <5% at the full acceptance point. Smoke
  // points run for a second or so, where scheduler noise swamps the
  // recorder; gate loosely there so small CI runners stay green.
  const double overhead_ceiling = full ? 0.05 : 0.50;
  if (probe.overhead_fraction > overhead_ceiling) {
    std::cerr << "BENCH FAILURE: tracing overhead "
              << format_double(100.0 * probe.overhead_fraction, 1)
              << " % above the "
              << format_double(100.0 * overhead_ceiling, 0)
              << " % ceiling\n";
    return 1;
  }
  // Checkpoint budget: <5% of virtual TTC at every point. TTC is
  // deterministic (captures are off the virtual-time path), so unlike
  // the CPU-noise-limited tracing gate this one needs no smoke slack —
  // the expected delta is exactly zero.
  if (ckpt_probe.overhead_fraction > 0.05) {
    std::cerr << "BENCH FAILURE: checkpoint TTC overhead "
              << format_double(100.0 * ckpt_probe.overhead_fraction, 1)
              << " % above the 5 % ceiling\n";
    return 1;
  }
  // Multi-session budgets: the isolation ratio is deterministic (the
  // expected value is exactly 1.0, like the checkpoint TTC delta);
  // the normalised shared-capacity inflation only exceeds 1.0 through
  // scheduling granularity at the thinner per-session allocation.
  if (multi_probe.max_isolation_ratio > 1.05) {
    std::cerr << "BENCH FAILURE: cross-session isolation ratio "
              << format_double(multi_probe.max_isolation_ratio, 4)
              << " above the 1.05 ceiling\n";
    return 1;
  }
  if (multi_probe.max_normalized_inflation > 3.0) {
    std::cerr << "BENCH FAILURE: normalised shared-capacity inflation "
              << format_double(multi_probe.max_normalized_inflation, 2)
              << " above the 3.0 ceiling\n";
    return 1;
  }
  // Parallel-runtime floors: blocking payloads make the delivered
  // concurrency a deterministic wall-clock ratio, so the full gate
  // sits close to the ideal 16x; smoke gates the cheaper 4-core
  // point so one-core CI runners finish in seconds. A custom
  // --threads list that omits the gated point skips its floor
  // (speedup_at returns 0 for absent points).
  for (const ParallelPoint& p : parallel_probe.points) {
    if (p.executed != parallel_probe.n_tasks) {
      std::cerr << "BENCH FAILURE: parallel runtime finished "
                << p.executed << " of " << parallel_probe.n_tasks
                << " units DONE at " << p.threads << " cores\n";
      return 1;
    }
  }
  if (full && parallel_probe.speedup_at(16) > 0.0 &&
      parallel_probe.speedup_at(16) < 10.0) {
    std::cerr << "BENCH FAILURE: parallel runtime speedup at 16 cores "
              << format_double(parallel_probe.speedup_at(16), 2)
              << "x below the 10x floor\n";
    return 1;
  }
  if (!full && parallel_probe.speedup_at(4) > 0.0 &&
      parallel_probe.speedup_at(4) < 2.0) {
    std::cerr << "BENCH FAILURE: parallel runtime speedup at 4 cores "
              << format_double(parallel_probe.speedup_at(4), 2)
              << "x below the 2x floor\n";
    return 1;
  }
  // Serve gates: admission must not shed from a queue sized for the
  // storm, every workload must complete, equal weights must dispatch
  // within 1.5x of each other in contended rounds, and the p99
  // submit-to-first-dispatch tail must stay under a generous ceiling
  // (it catches stalled drive loops, not scheduler jitter).
  const auto serve_failures =
      bench::serve_gate_failures(serve_probe, 1.5, 30.0);
  for (const std::string& failure : serve_failures) {
    std::cerr << "BENCH FAILURE: " << failure << "\n";
  }
  if (!serve_failures.empty()) return 1;
  return 0;
}

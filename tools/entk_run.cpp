// entk-run: execute a declarative workload file.
//
//   entk-run workload.entk [--profile-prefix out/run1] [--csv]
//            [--trace out.json] [--metrics out.txt]
//            [--checkpoint-dir ckpts [--checkpoint-every 1000]
//             [--checkpoint-interval 600] [--resume ckpts/ckpt-000001.entkckpt]]
//   entk-run --concurrent a.entk b.entk ... [--csv] [--trace out.json]
//            [--metrics out.txt]
//
// --concurrent runs every file as a named session (the file stem) on
// ONE shared backend: all patterns execute together under a single
// wait, sharing the machine. All files must agree on the backend and
// (sim) machine. Checkpointing and profile export are single-workload
// features and are rejected in concurrent mode.
//
// See core/workload_file.hpp for the file format and docs/RESILIENCE.md
// for checkpoint/restart. Exit codes: 0 success (including a SIGTERM/
// SIGINT stop after a final snapshot), 1 usage error, 2 load/parse
// error, 3 run failure.
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "ckpt/checkpointed_run.hpp"
#include "common/atomic_file.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/entk.hpp"
#include "core/workload_file.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

void print_usage() {
  std::cerr
      << "usage: entk-run <workload-file> [options]\n"
         "options:\n"
         "  --profile-prefix <prefix>  write <prefix>_units.csv and\n"
         "                             <prefix>_overheads.csv\n"
         "  --csv                      print the summary as CSV\n"
         "  --trace <path>             record the run and write a\n"
         "                             Chrome trace-event JSON file\n"
         "  --metrics <path>           write runtime metrics as text\n"
         "                             ('-' for stdout)\n"
         "  --checkpoint-dir <dir>     write crash-consistent snapshots\n"
         "                             into <dir> (sim backend only);\n"
         "                             SIGTERM/SIGINT write a final\n"
         "                             snapshot and exit cleanly\n"
         "  --checkpoint-every <n>     snapshot every <n> settled units\n"
         "                             (default 1000)\n"
         "  --checkpoint-interval <s>  also snapshot every <s> virtual\n"
         "                             seconds (default off)\n"
         "  --resume <snapshot>        resume the workload from a\n"
         "                             snapshot written by an earlier\n"
         "                             checkpointed run\n"
         "  --concurrent               run every given workload file as\n"
         "                             a named session on one shared\n"
         "                             backend (all files must agree on\n"
         "                             backend/machine)\n"
         "  --help                     this text\n";
}

// Events per thread retained while tracing; big enough that even a
// 100k-unit sim run keeps every event (each unit emits ~10).
constexpr std::size_t kTraceCapacity = std::size_t{1} << 21;

// async-signal-safe: the handler only sets the flag; the coordinator
// polls it at engine-step boundaries and writes the final snapshot
// from the main thread.
std::atomic<bool> g_stop_requested{false};

extern "C" void handle_stop_signal(int) {
  g_stop_requested.store(true, std::memory_order_relaxed);
}

/// Runs `run` with the trace recorder on when `trace_path` is set,
/// then writes the Chrome trace and the --metrics text. Both the
/// single-workload and the --concurrent path go through here. Returns
/// 0, or 3 when an export fails.
int run_with_outputs(const std::string& trace_path,
                     const std::string& metrics_path,
                     const std::function<void()>& run) {
  using namespace entk;
  if (!trace_path.empty()) {
    if (!obs::tracing_compiled_in()) {
      std::cerr << "entk-run: this build was compiled with "
                   "ENTK_ENABLE_TRACING=0; the trace will only contain "
                   "run bookkeeping\n";
    }
    auto& recorder = obs::TraceRecorder::instance();
    recorder.set_capacity_per_thread(kTraceCapacity);
    recorder.set_enabled(true);
  }
  run();
  if (!trace_path.empty()) {
    auto& recorder = obs::TraceRecorder::instance();
    recorder.set_enabled(false);
    const auto stats = recorder.stats();
    if (Status status = obs::write_chrome_trace(trace_path,
                                                recorder.snapshot());
        !status.is_ok()) {
      std::cerr << "entk-run: trace export failed: " << status.to_string()
                << "\n";
      return 3;
    }
    std::cerr << "entk-run: wrote " << stats.recorded << " trace events ("
              << stats.dropped << " dropped) to " << trace_path << "\n";
  }
  if (!metrics_path.empty()) {
    const std::string text = obs::Metrics::instance().to_text();
    if (metrics_path == "-") {
      std::cout << text;
    } else if (Status status = write_file_atomic(metrics_path, text);
               !status.is_ok()) {
      std::cerr << "entk-run: cannot write metrics to " << metrics_path
                << ": " << status.to_string() << "\n";
      return 3;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace entk;

  std::string workload_path;
  std::vector<std::string> workload_paths;
  std::string profile_prefix;
  std::string trace_path;
  std::string metrics_path;
  std::string checkpoint_dir;
  std::string resume_path;
  std::uint64_t checkpoint_every = 1000;
  double checkpoint_interval = 0.0;
  bool csv = false;
  bool concurrent = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      print_usage();
      return 0;
    }
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
      continue;
    }
    if (std::strcmp(argv[i], "--concurrent") == 0) {
      concurrent = true;
      continue;
    }
    if (std::strcmp(argv[i], "--profile-prefix") == 0) {
      if (i + 1 >= argc) {
        print_usage();
        return 1;
      }
      profile_prefix = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        print_usage();
        return 1;
      }
      trace_path = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--metrics") == 0) {
      if (i + 1 >= argc) {
        print_usage();
        return 1;
      }
      metrics_path = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--checkpoint-dir") == 0) {
      if (i + 1 >= argc) {
        print_usage();
        return 1;
      }
      checkpoint_dir = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--checkpoint-every") == 0) {
      if (i + 1 >= argc) {
        print_usage();
        return 1;
      }
      checkpoint_every = std::strtoull(argv[++i], nullptr, 10);
      continue;
    }
    if (std::strcmp(argv[i], "--checkpoint-interval") == 0) {
      if (i + 1 >= argc) {
        print_usage();
        return 1;
      }
      checkpoint_interval = std::strtod(argv[++i], nullptr);
      continue;
    }
    if (std::strcmp(argv[i], "--resume") == 0) {
      if (i + 1 >= argc) {
        print_usage();
        return 1;
      }
      resume_path = argv[++i];
      continue;
    }
    if (argv[i][0] != '-') {
      workload_paths.emplace_back(argv[i]);
      continue;
    }
    print_usage();
    return 1;
  }
  if (workload_paths.empty()) {
    print_usage();
    return 1;
  }
  if (!concurrent && workload_paths.size() > 1) {
    print_usage();
    return 1;
  }
  if (!workload_paths.empty()) workload_path = workload_paths.front();
  if (concurrent &&
      (!checkpoint_dir.empty() || !resume_path.empty() ||
       !profile_prefix.empty())) {
    std::cerr << "entk-run: --concurrent does not support checkpointing "
                 "or --profile-prefix (single-workload features)\n";
    return 1;
  }
  if (!resume_path.empty() && checkpoint_dir.empty()) {
    std::cerr << "entk-run: --resume needs --checkpoint-dir (the resumed "
                 "run keeps checkpointing into it)\n";
    return 1;
  }

  if (concurrent) {
    auto registry = kernels::KernelRegistry::with_builtin_kernels();
    std::vector<core::ConcurrentWorkload> workloads;
    for (const std::string& path : workload_paths) {
      auto spec = core::load_workload(path);
      if (!spec.ok()) {
        std::cerr << "entk-run: " << spec.status().to_string() << "\n";
        return 2;
      }
      // Session name = file stem, suffixed on collision so two files
      // named runs/a.entk and other/a.entk can still run together.
      std::string name = std::filesystem::path(path).stem().string();
      if (name.empty()) name = "workload";
      std::string candidate = name;
      for (int suffix = 2;; ++suffix) {
        bool taken = false;
        for (const auto& workload : workloads) {
          if (workload.session == candidate) {
            taken = true;
            break;
          }
        }
        if (!taken) break;
        candidate = name + "-" + std::to_string(suffix);
      }
      workloads.push_back({std::move(candidate), spec.take()});
    }
    Result<std::vector<core::RunReport>> reports =
        make_error(Errc::kInternal, "run not attempted");
    const int exported = run_with_outputs(trace_path, metrics_path, [&] {
      reports = core::run_workloads_concurrent(workloads, registry);
    });
    if (exported != 0) return exported;
    if (!reports.ok()) {
      std::cerr << "entk-run: " << reports.status().to_string() << "\n";
      return 3;
    }
    bool any_failed = false;
    if (csv) {
      std::cout << "session,tasks,ttc,execution_time,outcome\n";
    }
    Table table({"session", "tasks", "TTC", "execution time", "outcome"});
    for (const core::RunReport& report : reports.value()) {
      const core::OverheadProfile& overheads = report.overheads;
      const bool failed = !report.outcome.is_ok();
      any_failed = any_failed || failed;
      if (csv) {
        std::cout << report.session << "," << overheads.n_units << ","
                  << overheads.ttc << "," << overheads.execution_time
                  << "," << (failed ? "failed" : "ok") << "\n";
      } else {
        table.add_row({report.session, std::to_string(overheads.n_units),
                       format_seconds(overheads.ttc),
                       format_seconds(overheads.execution_time),
                       failed ? report.outcome.to_string() : "ok"});
      }
    }
    if (!csv) {
      std::cout << workload_paths.size()
                << " workloads ran concurrently on one backend\n\n"
                << table.to_string();
    }
    if (any_failed) {
      std::cerr << "entk-run: at least one session finished with "
                   "failures\n";
      return 3;
    }
    return 0;
  }

  auto spec = core::load_workload(workload_path);
  if (!spec.ok()) {
    std::cerr << "entk-run: " << spec.status().to_string() << "\n";
    return 2;
  }
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  auto resolved = core::resolve_workload(spec.value(), registry);
  if (!resolved.ok()) {
    std::cerr << "entk-run: " << resolved.status().to_string() << "\n";
    return 2;
  }
  if (spec.value().auto_cores || spec.value().auto_machine) {
    std::cerr << "entk-run: strategy selected " << resolved.value().machine
              << " with " << resolved.value().cores << " cores\n";
  }
  Result<core::RunReport> report =
      make_error(Errc::kInternal, "run not attempted");
  bool checkpoint_stop = false;
  std::string last_snapshot;
  const int exported = run_with_outputs(trace_path, metrics_path, [&] {
    if (checkpoint_dir.empty()) {
      report = core::run_workload(resolved.value(), registry);
      return;
    }
    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGINT, handle_stop_signal);
    ckpt::CheckpointedRunOptions ckpt_options;
    ckpt_options.directory = checkpoint_dir;
    ckpt_options.policy.every_settled = checkpoint_every;
    ckpt_options.policy.every_interval = checkpoint_interval;
    ckpt_options.resume_path = resume_path;
    ckpt_options.stop_requested = [] {
      return g_stop_requested.load(std::memory_order_relaxed);
    };
    auto run = ckpt::run_workload_with_checkpoints(resolved.value(),
                                                   registry, ckpt_options);
    if (run.ok()) {
      checkpoint_stop = run.value().checkpoint_stop;
      last_snapshot = run.value().last_snapshot_path;
      report = std::move(run.value().report);
    } else {
      report = run.status();
    }
  });
  if (exported != 0) return exported;
  if (!report.ok()) {
    std::cerr << "entk-run: " << report.status().to_string() << "\n";
    return 3;
  }

  const core::OverheadProfile& overheads = report.value().overheads;
  const auto utilization = core::compute_utilization(
      report.value().units, resolved.value().cores);
  if (csv) {
    std::cout << core::overheads_csv(overheads);
  } else {
    std::cout << "workload: " << workload_path << " (pattern "
              << resolved.value().pattern << ", backend "
              << resolved.value().backend << " on "
              << resolved.value().machine << ", "
              << resolved.value().cores << " cores)\n\n";
    Table table({"metric", "value"});
    table.add_row({"tasks", std::to_string(overheads.n_units)});
    table.add_row({"TTC", format_seconds(overheads.ttc)});
    table.add_row({"core overhead", format_seconds(overheads.core_overhead)});
    table.add_row(
        {"pattern overhead", format_seconds(overheads.pattern_overhead)});
    table.add_row(
        {"execution time", format_seconds(overheads.execution_time)});
    table.add_row(
        {"runtime overhead", format_seconds(overheads.runtime_overhead)});
    table.add_row({"utilization",
                   format_double(100.0 * utilization.average_utilization,
                                 1) +
                       " %"});
    std::cout << table.to_string();
  }
  if (!profile_prefix.empty()) {
    if (Status status =
            core::export_run_profile(report.value(), profile_prefix);
        !status.is_ok()) {
      std::cerr << "entk-run: profile export failed: "
                << status.to_string() << "\n";
      return 3;
    }
  }
  if (checkpoint_stop) {
    std::cerr << "entk-run: stopped on request after writing "
              << last_snapshot << "\n"
              << "entk-run: resume with: entk-run " << workload_path
              << " --checkpoint-dir " << checkpoint_dir << " --resume "
              << last_snapshot << "\n";
    return 0;
  }
  if (!report.value().outcome.is_ok()) {
    std::cerr << "entk-run: workload finished with failures: "
              << report.value().outcome.to_string() << "\n";
    return 3;
  }
  return 0;
}

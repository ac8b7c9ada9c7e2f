// perfbench: the toolkit's benchmark driver binary.
//
//   entk_perfbench --workload <pipelines|loop_ckpt|serve_mix> --seed <n>
//                  --seconds <s> --trace <0|1> --work-dir <dir>
//                  [--trace-out <file.json>]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Exits 1 when an
// output check failed, 2 on bad arguments.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& problem) {
  std::cerr << "entk_perfbench: " << problem
            << "\nusage: entk_perfbench"
               " --workload <pipelines|loop_ckpt|serve_mix> --seed <n>"
               " --seconds <s> --trace <0|1> --work-dir <dir>"
               " [--trace-out <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) return usage("every flag takes a value");
  if (options.seconds <= 0.0) return usage("--seconds must be positive");
  if (options.work_dir.empty() ||
      !std::filesystem::is_directory(options.work_dir)) {
    return usage("--work-dir must name an existing directory");
  }

  perfbench::Outcome outcome;
  if (workload == "pipelines") {
    outcome = perfbench::run_pipelines(options);
  } else if (workload == "loop_ckpt") {
    outcome = perfbench::run_loop_ckpt(options);
  } else if (workload == "serve_mix") {
    outcome = perfbench::run_serve_mix(options);
  } else {
    return usage("unknown workload '" + workload + "'");
  }
  if (outcome.attempted == 0) outcome.fail("nothing was attempted");
  for (const auto& [name, metric] : outcome.metrics) {
    if (!std::isfinite(metric.first)) {
      outcome.fail("metric " + name + " is not finite");
    }
  }
  for (const std::string& error : outcome.errors) {
    std::cerr << "CHECK FAILED: " << error << "\n";
  }
  std::cout << perfbench::result_json(outcome) << std::endl;
  return outcome.correct ? 0 : 1;
}

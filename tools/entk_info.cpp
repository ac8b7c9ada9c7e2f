// entk-info: discovery tool — lists the built-in kernel plugins,
// machine profiles and scheduler policies, and can estimate a kernel's
// runtime on a machine.
//
//   entk-info kernels
//   entk-info machines
//   entk-info schedulers
//   entk-info observability
//   entk-info serve
//   entk-info estimate <kernel> <machine> [key=value ...]
#include <cstring>
#include <iostream>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/entk.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace {

using namespace entk;

int list_kernels(const kernels::KernelRegistry& registry) {
  Table table({"kernel", "description"});
  for (const auto& name : registry.names()) {
    table.add_row({name, registry.find(name).value()->description()});
  }
  std::cout << table.to_string();
  return 0;
}

int list_machines() {
  const auto catalog = sim::MachineCatalog::with_builtin_profiles();
  Table table({"machine", "nodes", "cores/node", "total cores",
               "mem/node [GB]", "perf", "spawn [ms/unit]",
               "bootstrap [s]"});
  for (const auto& name : catalog.names()) {
    const auto machine = catalog.find(name).value();
    table.add_row({machine.name, std::to_string(machine.nodes),
                   std::to_string(machine.cores_per_node),
                   std::to_string(machine.total_cores()),
                   format_double(machine.memory_per_node_gb, 0),
                   format_double(machine.performance_factor, 2),
                   format_double(machine.unit_spawn_overhead * 1e3, 1),
                   format_double(machine.pilot_bootstrap, 1)});
  }
  std::cout << table.to_string();
  return 0;
}

int list_schedulers() {
  Table table({"policy", "behaviour"});
  table.add_row({"fifo",
                 "strict queue order; an oversized head blocks the rest"});
  table.add_row({"backfill",
                 "first-fit over the whole queue (default, matches RP)"});
  table.add_row({"largest_first",
                 "widest waiting units placed first (anti-fragmentation)"});
  std::cout << table.to_string();
  return 0;
}

int list_observability() {
  std::cout << "tracing compiled in: "
            << (obs::tracing_compiled_in() ? "yes" : "no")
            << " (ENTK_ENABLE_TRACING)\n"
            << "capture a trace:     entk-run <workload> --trace out.json"
               " --metrics out.txt\n\n";
  Table table({"metric"});
  for (const auto& name : obs::Metrics::instance().names()) {
    table.add_row({name});
  }
  std::cout << table.to_string();
  return 0;
}

int list_serve() {
  const serve::ServiceConfig defaults;
  const serve::TenantConfig tenant = defaults.default_tenant;
  std::cout << "entk-serve speaks newline-delimited JSON over a unix\n"
               "socket or loopback TCP (max "
            << serve::kMaxLineBytes
            << " bytes/line). Start it with\n"
               "entk-serve, talk to it with entk-submit — see "
               "docs/SERVICE.md.\n\n";
  Table verbs({"verb", "request members", "behaviour"});
  verbs.add_row({"SUBMIT", "tenant, workload[, name]",
                 "admit a workload (REJECTED when the queue is full)"});
  verbs.add_row({"STATUS", "id", "lifecycle + dispatch snapshot"});
  verbs.add_row({"CANCEL", "id", "cancel queued or running work"});
  verbs.add_row({"RESULTS", "id", "terminal outcome + unit tallies"});
  verbs.add_row({"STATS", "", "service + per-tenant counters"});
  verbs.add_row({"SHUTDOWN", "", "shed the queue, abort, exit"});
  std::cout << verbs.to_string() << "\n";
  Table config({"default", "value", "meaning"});
  config.add_row({"machine", defaults.machine,
                  "simulated machine every workload must name"});
  config.add_row({"queue_capacity",
                  std::to_string(defaults.queue_capacity),
                  "admission bound; beyond it SUBMITs are REJECTED"});
  config.add_row({"max_active_sessions",
                  std::to_string(defaults.max_active_sessions),
                  "concurrent sessions across all tenants"});
  config.add_row({"drr_quantum", std::to_string(defaults.drr_quantum),
                  "frontier nodes credited per tenant per round"});
  config.add_row({"max_inflight_total", "2 x machine cores",
                  "global dispatch budget fair-share divides"});
  config.add_row({"tenant weight", format_double(tenant.weight, 1),
                  "fair-share credit scale (entk-serve --tenant)"});
  config.add_row({"tenant max_sessions",
                  std::to_string(tenant.max_sessions),
                  "concurrent sessions per tenant"});
  config.add_row({"tenant max_inflight_units",
                  std::to_string(tenant.max_inflight_units),
                  "dispatched-but-unsettled units per tenant"});
  std::cout << config.to_string();
  return 0;
}

int estimate(const kernels::KernelRegistry& registry, int argc,
             char** argv) {
  if (argc < 4) {
    std::cerr << "usage: entk-info estimate <kernel> <machine> "
                 "[key=value ...]\n";
    return 1;
  }
  const std::string kernel_name = argv[2];
  const std::string machine_name = argv[3];
  std::vector<std::string> pairs;
  for (int i = 4; i < argc; ++i) pairs.emplace_back(argv[i]);
  auto args = Config::from_pairs(pairs);
  if (!args.ok()) {
    std::cerr << "entk-info: " << args.status().to_string() << "\n";
    return 2;
  }
  const auto catalog = sim::MachineCatalog::with_builtin_profiles();
  auto machine = catalog.find(machine_name);
  if (!machine.ok()) {
    std::cerr << "entk-info: " << machine.status().to_string() << "\n";
    return 2;
  }
  auto kernel = registry.find(kernel_name);
  if (!kernel.ok()) {
    std::cerr << "entk-info: " << kernel.status().to_string() << "\n";
    return 2;
  }
  auto bound = kernel.value()->bind(args.value(), machine.value());
  if (!bound.ok()) {
    std::cerr << "entk-info: " << bound.status().to_string() << "\n";
    return 2;
  }
  Table table({"property", "value"});
  table.add_row({"executable", bound.value().executable});
  table.add_row({"arguments", join(bound.value().arguments, " ")});
  table.add_row({"pre_exec", join(bound.value().pre_exec, " && ")});
  table.add_row({"cores", std::to_string(bound.value().cores)});
  table.add_row({"uses MPI", bound.value().uses_mpi ? "yes" : "no"});
  table.add_row({"estimated runtime",
                 format_seconds(bound.value().estimated_duration)});
  table.add_row({"input staging files",
                 std::to_string(bound.value().input_staging.size())});
  table.add_row({"output staging files",
                 std::to_string(bound.value().output_staging.size())});
  std::cout << table.to_string();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto registry = kernels::KernelRegistry::with_builtin_kernels();
  if (argc < 2) {
    std::cerr << "usage: entk-info "
                 "kernels|machines|schedulers|observability|serve|"
                 "estimate\n";
    return 1;
  }
  if (std::strcmp(argv[1], "kernels") == 0) return list_kernels(registry);
  if (std::strcmp(argv[1], "machines") == 0) return list_machines();
  if (std::strcmp(argv[1], "schedulers") == 0) return list_schedulers();
  if (std::strcmp(argv[1], "observability") == 0) {
    return list_observability();
  }
  if (std::strcmp(argv[1], "serve") == 0) return list_serve();
  if (std::strcmp(argv[1], "estimate") == 0) {
    return estimate(registry, argc, argv);
  }
  std::cerr << "entk-info: unknown command '" << argv[1] << "'\n";
  return 1;
}

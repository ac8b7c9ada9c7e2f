// Geoscience ensemble: perturbed-parameter pollutant-dispersion
// forecasts (the paper's geoscience motivation) as an Ensemble of
// Pipelines, demonstrating a *custom* kernel plugin registered beside
// the built-ins.
//
// Stage 1 (geo.advect) integrates a 1-D advection-diffusion equation
// with per-member wind speed and diffusivity; stage 2 (geo.assess)
// reads the final concentration profile and reports the plume's peak
// and spread. Members are independent — exactly the EoP pattern.
//
// Usage: geoscience_ensemble [n_members]
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <vector>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/entk.hpp"

namespace {

using namespace entk;

/// geo.advect — explicit finite-difference advection-diffusion:
///   c_t + u c_x = D c_xx  on a periodic domain.
/// Arguments: u (wind), diffusivity, t_end (physical horizon), cells,
/// out.
class AdvectKernel final : public kernels::KernelBase {
 public:
  AdvectKernel()
      : KernelBase("geo.advect", "1-D advection-diffusion forecast") {
    add_machine_entry("*", {"geo-advect", {}});
  }

  Status validate(const Config& args) const override {
    return parse(args).status();
  }

  Result<kernels::BoundKernel> bind(
      const Config& args, const sim::MachineProfile& machine)
      const override {
    ENTK_ASSIGN_OR_RETURN(const Args parsed, parse(args));
    ENTK_ASSIGN_OR_RETURN(const kernels::KernelMachineEntry* entry,
                          machine_entry(machine.name));
    const double u = parsed.u;
    const double diffusivity = parsed.diffusivity;
    const double t_end = parsed.t_end;
    const auto cells = parsed.cells;
    const std::string out = args.get_string_or("out", "plume.txt");

    kernels::BoundKernel bound;
    bound.kernel_name = name();
    bound.executable = entry->executable;
    bound.estimated_duration =
        2e-3 * t_end * static_cast<double>(cells) /
        machine.performance_factor;
    bound.payload = [=](const pilot::UnitRuntimeContext& context)
        -> Status {
      const auto n = static_cast<std::size_t>(cells);
      const double dx = 1.0 / static_cast<double>(n);
      // CFL-stable explicit step.
      const double dt =
          0.4 * std::min(dx / std::max(std::fabs(u), 1e-9),
                         dx * dx / std::max(diffusivity, 1e-9) / 2.0);
      const auto steps = static_cast<std::int64_t>(std::ceil(t_end / dt));
      std::vector<double> c(n, 0.0), next(n, 0.0);
      // Initial condition: a Gaussian puff released at x = 0.2.
      for (std::size_t i = 0; i < n; ++i) {
        const double x = (static_cast<double>(i) + 0.5) * dx;
        c[i] = std::exp(-std::pow((x - 0.2) / 0.05, 2));
      }
      for (std::int64_t step = 0; step < steps; ++step) {
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t left = (i + n - 1) % n;
          const std::size_t right = (i + 1) % n;
          const double advection =
              -u * (c[right] - c[left]) / (2.0 * dx);
          const double diffusion = diffusivity *
                                   (c[right] - 2.0 * c[i] + c[left]) /
                                   (dx * dx);
          next[i] = c[i] + dt * (advection + diffusion);
        }
        c.swap(next);
      }
      std::ofstream file(context.sandbox / out);
      if (!file) return make_error(Errc::kIoError, "cannot open " + out);
      file.precision(10);
      for (std::size_t i = 0; i < n; ++i) file << c[i] << '\n';
      return Status::ok();
    };
    pilot::StagingDirective stage_out;
    stage_out.source = out;
    stage_out.size_mb = 0.01;
    bound.output_staging.push_back(std::move(stage_out));
    return bound;
  }

 private:
  struct Args {
    double u = 1.0;
    double diffusivity = 0.05;
    double t_end = 0.3;
    std::int64_t cells = 200;
  };

  static Result<Args> parse(const Config& args) {
    Args parsed;
    ENTK_ASSIGN_OR_RETURN(parsed.diffusivity,
                          args.get_double_or("diffusivity", 0.05));
    if (parsed.diffusivity < 0.0) {
      return make_error(Errc::kInvalidArgument,
                        "geo.advect: diffusivity must be >= 0");
    }
    ENTK_ASSIGN_OR_RETURN(parsed.cells, args.get_int_or("cells", 200));
    if (parsed.cells < 8) {
      return make_error(Errc::kInvalidArgument,
                        "geo.advect: need at least 8 cells");
    }
    ENTK_ASSIGN_OR_RETURN(parsed.u, args.get_double_or("u", 1.0));
    ENTK_ASSIGN_OR_RETURN(parsed.t_end, args.get_double_or("t_end", 0.3));
    return parsed;
  }
};

/// geo.assess — reads a plume profile, writes peak and spread.
class AssessKernel final : public kernels::KernelBase {
 public:
  AssessKernel() : KernelBase("geo.assess", "plume risk summary") {
    add_machine_entry("*", {"geo-assess", {}});
  }

  Status validate(const Config& args) const override {
    if (!args.contains("input")) {
      return make_error(Errc::kInvalidArgument,
                        "geo.assess: 'input' is required");
    }
    return Status::ok();
  }

  Result<kernels::BoundKernel> bind(
      const Config& args, const sim::MachineProfile& machine)
      const override {
    ENTK_RETURN_IF_ERROR(validate(args));
    ENTK_ASSIGN_OR_RETURN(const kernels::KernelMachineEntry* entry,
                          machine_entry(machine.name));
    const std::string input = args.get_string("input").value();
    const std::string out = args.get_string_or("out", input + ".summary");

    kernels::BoundKernel bound;
    bound.kernel_name = name();
    bound.executable = entry->executable;
    bound.estimated_duration = 0.1 / machine.performance_factor;
    bound.payload = [=](const pilot::UnitRuntimeContext& context)
        -> Status {
      std::ifstream file(context.sandbox / input);
      if (!file) return make_error(Errc::kIoError, "missing " + input);
      std::vector<double> c;
      double value = 0.0;
      while (file >> value) c.push_back(value);
      if (c.empty()) return make_error(Errc::kIoError, "empty profile");
      double peak = 0.0, mass = 0.0, centre = 0.0;
      for (std::size_t i = 0; i < c.size(); ++i) {
        peak = std::max(peak, c[i]);
        mass += c[i];
        centre += c[i] * static_cast<double>(i);
      }
      centre /= std::max(mass, 1e-12) * static_cast<double>(c.size());
      std::ofstream summary(context.sandbox / out);
      summary.precision(8);
      summary << peak << ' ' << centre << ' ' << mass / c.size() << '\n';
      return Status::ok();
    };
    pilot::StagingDirective stage_in;
    stage_in.source = input;
    stage_in.size_mb = 0.01;
    bound.input_staging.push_back(std::move(stage_in));
    pilot::StagingDirective stage_out;
    stage_out.source = out;
    stage_out.size_mb = 0.001;
    bound.output_staging.push_back(std::move(stage_out));
    return bound;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace entk;
  const entk::Count n_members = argc > 1 ? std::atoll(argv[1]) : 6;

  // Register the domain kernels next to the built-ins — the paper's
  // "minimise the last-mile effort" in action.
  auto registry = kernels::KernelRegistry::with_builtin_kernels();
  if (!registry.register_kernel(std::make_shared<AdvectKernel>()).is_ok() ||
      !registry.register_kernel(std::make_shared<AssessKernel>()).is_ok()) {
    std::cerr << "kernel registration failed\n";
    return 1;
  }

  pilot::LocalBackend backend(4);
  core::ResourceOptions options;
  options.cores = 4;
  core::ResourceHandle handle(backend, registry, options);
  if (Status status = handle.allocate(); !status.is_ok()) {
    std::cerr << "allocate failed: " << status.to_string() << "\n";
    return 1;
  }

  core::EnsembleOfPipelines pattern(n_members, 2);
  pattern.set_stage(1, [&](const core::StageContext& context) {
    core::TaskSpec spec;
    spec.kernel = "geo.advect";
    // Perturbed physics per ensemble member.
    spec.args.set("u", 0.5 + 0.25 * static_cast<double>(context.instance));
    spec.args.set("diffusivity",
                  0.02 + 0.01 * static_cast<double>(context.instance));
    spec.args.set("t_end", 0.3);
    spec.args.set("out",
                  "plume_" + std::to_string(context.instance) + ".txt");
    return spec;
  });
  pattern.set_stage(2, [](const core::StageContext& context) {
    core::TaskSpec spec;
    spec.kernel = "geo.assess";
    spec.args.set("input",
                  "plume_" + std::to_string(context.instance) + ".txt");
    return spec;
  });

  auto report = handle.run(pattern);
  if (!report.ok() || !report.value().outcome.is_ok()) {
    std::cerr << "forecast ensemble failed: "
              << (report.ok() ? report.value().outcome.to_string()
                              : report.status().to_string())
              << "\n";
    return 1;
  }

  std::cout << "pollutant-dispersion ensemble: " << n_members
            << " perturbed members\n\n";
  entk::Table table({"member", "peak concentration", "plume centre"});
  for (entk::Count member = 0; member < n_members; ++member) {
    const std::string summary_name =
        "plume_" + std::to_string(member) + ".txt.summary";
    for (const auto& entry : std::filesystem::recursive_directory_iterator(
             backend.session_dir())) {
      if (entry.path().filename() == summary_name &&
          entry.path().parent_path().filename() == "shared") {
        std::ifstream in(entry.path());
        double peak = 0.0, centre = 0.0, mean = 0.0;
        if (in >> peak >> centre >> mean) {
          table.add_row({std::to_string(member),
                         entk::format_double(peak, 4),
                         entk::format_double(centre, 4)});
        }
        break;
      }
    }
  }
  std::cout << table.to_string();
  std::cout << "\nTTC " << entk::format_seconds(report.value().overheads.ttc)
            << " for " << report.value().units.size() << " tasks\n";
  (void)handle.deallocate();
  return 0;
}

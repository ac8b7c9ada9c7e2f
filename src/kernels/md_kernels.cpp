// Molecular-dynamics kernel plugins: the Amber/Gromacs, temperature-
// exchange, CoCo and LSDMap stand-ins used by the paper's experiments.
//
// Each kernel has (a) a machine-calibrated cost model driving the
// simulated backend — tuned so one 6 ps cycle of the 2881-particle
// system on one reference core costs ~O(100 s), matching the paper's
// scale — and (b) a real payload that integrates/analyses the toy MD
// system on the local backend.
//
// Kernel outputs land in the unit's private sandbox and are rewritten
// from scratch on retry, so a torn file is repaired by the fault
// tier, not by crash-consistent writes.
// entk-lint: allow-file(raw-file-write)
#include <fstream>
#include <initializer_list>
#include <sstream>

#include "analysis/diffusion_map.hpp"
#include "analysis/pca.hpp"
#include "common/strings.hpp"
#include "md/ensemble_analysis.hpp"
#include "kernels/registry.hpp"
#include "md/builder.hpp"
#include "md/integrator.hpp"
#include "md/remd.hpp"
#include "md/trajectory.hpp"

namespace entk::kernels {
namespace {

namespace fs = std::filesystem;

/// Per-(engine, step, particle) cost on the reference machine, seconds.
constexpr double kAmberStepCost = 1.2e-5;
constexpr double kGromacsStepCost = 0.9e-5;

/// md.simulate — one MD simulation task. Arguments:
///   engine        "amber" | "gromacs"          (default amber)
///   steps         integration steps            (default 3000 ≈ 6 ps)
///   dt            time step, reduced units     (default 0.005)
///   temperature   thermostat kT                (default 1.0)
///   n_particles   system size                  (default 2881)
///   system        "auto" | "dipeptide" | "fluid" (default auto:
///                 dipeptide when n_particles >= 500)
///   sample_every  trajectory sampling stride   (default steps/10)
///   seed          RNG seed                     (default 12345)
///   out           trajectory file              (default traj.dat)
///   stage_as      shared-space name for out    (default = out)
///   energy_out    optional final-energy file, staged to shared space
///   start_from    optional shared trajectory; last frame = start coords
///   epsilon       force-field energy scale (lambda for Hamiltonian
///                 exchange; default 1.0)
///   cores         cores (MPI ranks)            (default 1)
class MdSimulateKernel final : public KernelBase {
 public:
  MdSimulateKernel()
      : KernelBase("md.simulate",
                   "molecular dynamics (Amber/Gromacs-like engine)") {
    // The per-machine entries document the paper's real configuration;
    // binding resolves them so workloads stay machine-agnostic.
    add_machine_entry("xsede.comet",
                      {"/opt/amber/bin/pmemd.MPI",
                       {"module load amber/14", "module load gromacs/5.0"}});
    add_machine_entry("xsede.stampede",
                      {"/opt/apps/amber/14/bin/pmemd.MPI",
                       {"module load amber/14"}});
    add_machine_entry("lsu.supermic",
                      {"/usr/local/packages/amber/14/bin/pmemd.MPI",
                       {"module load amber/14"}});
    add_machine_entry("*", {"pmemd", {}});
  }

  Status validate(const Config& args) const override {
    return parse(args).status();
  }

  Result<BoundKernel> bind(const Config& args,
                           const sim::MachineProfile& machine)
      const override {
    ENTK_ASSIGN_OR_RETURN(const Args parsed, parse(args));
    ENTK_ASSIGN_OR_RETURN(const KernelMachineEntry* entry,
                          machine_entry(machine.name));

    const std::string engine = args.get_string_or("engine", "amber");
    const auto steps = parsed.steps;
    const double dt = parsed.dt;
    const double temperature = parsed.temperature;
    const auto n_particles = parsed.n_particles;
    const auto sample_every = std::max<std::int64_t>(1, parsed.sample_every);
    const auto seed = static_cast<std::uint64_t>(parsed.seed);
    const std::string out = args.get_string_or("out", "traj.dat");
    const std::string stage_as = args.get_string_or("stage_as", out);
    const std::string energy_out = args.get_string_or("energy_out", "");
    const std::string start_from = args.get_string_or("start_from", "");
    const std::string system_kind = args.get_string_or("system", "auto");
    const double epsilon = parsed.epsilon;
    const Count cores = parsed.cores;

    BoundKernel bound;
    bound.kernel_name = name();
    bound.executable = entry->executable;
    bound.pre_exec = entry->pre_exec;
    bound.arguments = {"-steps", std::to_string(steps), "-T",
                       format_fixed(temperature), "-o", out};
    bound.cores = cores;
    bound.uses_mpi = cores > 1;
    const double step_cost =
        engine == "gromacs" ? kGromacsStepCost : kAmberStepCost;
    // Cost depends on total work / cores (the paper's Fig 9 shows the
    // linear MPI speedup this models).
    bound.estimated_duration =
        static_cast<double>(steps) * static_cast<double>(n_particles) *
        step_cost /
        (machine.performance_factor * static_cast<double>(cores));

    bound.payload = [=](const pilot::UnitRuntimeContext& context) -> Status {
      // Build the physical system: the paper's solvated-dipeptide
      // composition when large, a homogeneous fluid when small.
      md::System system = [&] {
        const bool dipeptide =
            system_kind == "dipeptide" ||
            (system_kind == "auto" && n_particles >= 500);
        if (dipeptide) {
          const std::size_t waters =
              (static_cast<std::size_t>(n_particles) - 22) / 3;
          return md::build_solvated_dipeptide(waters).system;
        }
        return md::build_fluid(static_cast<std::size_t>(n_particles));
      }();

      if (!start_from.empty()) {
        auto previous =
            md::Trajectory::load((context.shared / start_from).string());
        if (!previous.ok()) return previous.status();
        if (!previous.value().empty()) {
          const auto& last = previous.value().frames().back();
          if (last.positions.size() != system.size()) {
            return make_error(Errc::kInvalidArgument,
                              "md.simulate: restart frame has " +
                                  std::to_string(last.positions.size()) +
                                  " particles, system has " +
                                  std::to_string(system.size()));
          }
          system.positions = last.positions;
        }
      }

      Xoshiro256 rng(seed);
      system.thermalize_velocities(temperature, rng);
      md::ForceFieldParams params;
      params.epsilon = epsilon;
      const md::ForceField forcefield(params);
      forcefield.compute(system);
      const md::LangevinIntegrator integrator(dt, 1.0, temperature);

      md::Trajectory trajectory;
      double potential = 0.0;
      for (std::int64_t step = 0; step < steps; ++step) {
        potential = integrator.step(system, forcefield, rng);
        if ((step + 1) % sample_every == 0 || step + 1 == steps) {
          md::Frame frame;
          frame.time = static_cast<double>(step + 1) * dt;
          frame.potential_energy = potential;
          frame.temperature = system.temperature();
          frame.positions = system.positions;
          trajectory.add_frame(std::move(frame));
        }
      }
      ENTK_RETURN_IF_ERROR(
          trajectory.save((context.sandbox / out).string()));
      if (!energy_out.empty()) {
        std::ofstream energy_file(context.sandbox / energy_out);
        if (!energy_file) {
          return make_error(Errc::kIoError,
                            "md.simulate: cannot open " + energy_out);
        }
        energy_file.precision(12);
        energy_file << potential << ' ' << system.temperature() << '\n';
      }
      return Status::ok();
    };

    const double traj_mb = parsed.io_mb;
    if (!start_from.empty()) {
      pilot::StagingDirective stage_in;
      stage_in.source = start_from;
      stage_in.size_mb = traj_mb;
      bound.input_staging.push_back(std::move(stage_in));
    }
    pilot::StagingDirective stage_out;
    stage_out.source = out;
    stage_out.target = stage_as;
    stage_out.size_mb = traj_mb;
    bound.output_staging.push_back(std::move(stage_out));
    if (!energy_out.empty()) {
      pilot::StagingDirective stage_energy;
      stage_energy.source = energy_out;
      stage_energy.size_mb = 0.0001;
      bound.output_staging.push_back(std::move(stage_energy));
    }
    return bound;
  }

 private:
  struct Args {
    std::int64_t steps = 3000;
    double dt = 0.005;
    double temperature = 1.0;
    std::int64_t n_particles = 2881;
    std::int64_t sample_every = 300;
    std::int64_t seed = 12345;
    double epsilon = 1.0;
    std::int64_t cores = 1;
    double io_mb = 2.0;
  };

  /// Reads and checks every numeric argument once.
  static Result<Args> parse(const Config& args) {
    Args parsed;
    const std::string engine = args.get_string_or("engine", "amber");
    if (engine != "amber" && engine != "gromacs") {
      return make_error(Errc::kInvalidArgument,
                        "md.simulate: engine must be amber or gromacs");
    }
    ENTK_ASSIGN_OR_RETURN(parsed.steps, args.get_int_or("steps", 3000));
    if (parsed.steps <= 0) {
      return make_error(Errc::kInvalidArgument,
                        "md.simulate: steps must be > 0");
    }
    ENTK_ASSIGN_OR_RETURN(parsed.n_particles,
                          args.get_int_or("n_particles", 2881));
    if (parsed.n_particles < 2) {
      return make_error(Errc::kInvalidArgument,
                        "md.simulate: n_particles must be >= 2");
    }
    ENTK_ASSIGN_OR_RETURN(parsed.temperature,
                          args.get_double_or("temperature", 1.0));
    if (parsed.temperature <= 0.0) {
      return make_error(Errc::kInvalidArgument,
                        "md.simulate: temperature must be > 0");
    }
    ENTK_ASSIGN_OR_RETURN(parsed.cores, args.get_int_or("cores", 1));
    if (parsed.cores < 1) {
      return make_error(Errc::kInvalidArgument,
                        "md.simulate: cores must be >= 1");
    }
    ENTK_ASSIGN_OR_RETURN(parsed.epsilon, args.get_double_or("epsilon", 1.0));
    if (parsed.epsilon <= 0.0) {
      return make_error(Errc::kInvalidArgument,
                        "md.simulate: epsilon must be > 0");
    }
    const std::string system = args.get_string_or("system", "auto");
    if (system != "auto" && system != "dipeptide" && system != "fluid") {
      return make_error(Errc::kInvalidArgument,
                        "md.simulate: system must be auto, dipeptide or "
                        "fluid");
    }
    if (system == "dipeptide" && parsed.n_particles < 25) {
      return make_error(Errc::kInvalidArgument,
                        "md.simulate: dipeptide needs n_particles >= 25");
    }
    ENTK_ASSIGN_OR_RETURN(parsed.dt, args.get_double_or("dt", 0.005));
    ENTK_ASSIGN_OR_RETURN(
        parsed.sample_every,
        args.get_int_or("sample_every",
                        std::max<std::int64_t>(1, parsed.steps / 10)));
    ENTK_ASSIGN_OR_RETURN(parsed.seed, args.get_int_or("seed", 12345));
    ENTK_ASSIGN_OR_RETURN(parsed.io_mb, args.get_double_or("io_mb", 2.0));
    return parsed;
  }
};

/// md.exchange — REMD temperature-exchange stage.
///
/// Global-sweep mode (default): reads per-replica energy files from
/// the shared space, performs one Metropolis sweep over neighbour
/// pairs and writes the new rung assignment. Arguments:
///   n_replicas      number of replicas (required)
///   t_min, t_max    temperature ladder bounds (default 0.8, 2.0)
///   energy_prefix   shared energy files "<prefix><i>.energy"
///   sweep           sweep parity (even/odd neighbour pairs)
///   rungs           optional comma list: current rung of replica i
///                   (identity if omitted)
///   seed            RNG seed
///   out             result file (default exchange_result.txt)
/// Output: "attempted N", "accepted M", then "<replica> <rung>
/// <temperature>" per replica.
///
/// Pairwise mode (asynchronous REMD): set pair_a/pair_b (replica ids)
/// and t_a/t_b (their current temperatures); reads just those two
/// energy files and decides one swap. Output: "attempted 1",
/// "accepted 0|1".
///
/// Hamiltonian pairwise mode: set pair_a/pair_b, eps_a/eps_b (the two
/// replicas' potential scales), temperature (common kT), traj_a/traj_b
/// (shared trajectory files whose last frames are the current
/// configurations) and the system/n_particles they belong to. The
/// kernel rebuilds the system, evaluates the four cross energies
/// U_a(x_a), U_a(x_b), U_b(x_a), U_b(x_b) and applies the
/// Hamiltonian-exchange Metropolis criterion. Output as pairwise.
class MdExchangeKernel final : public KernelBase {
 public:
  MdExchangeKernel()
      : KernelBase("md.exchange", "REMD temperature exchange stage") {
    add_machine_entry("*", {"remd-exchange", {}});
  }

  Status validate(const Config& args) const override {
    return parse(args).status();
  }

  Result<BoundKernel> bind(const Config& args,
                           const sim::MachineProfile& machine)
      const override {
    ENTK_ASSIGN_OR_RETURN(const Args parsed, parse(args));
    ENTK_ASSIGN_OR_RETURN(const KernelMachineEntry* entry,
                          machine_entry(machine.name));

    const auto seed = static_cast<std::uint64_t>(parsed.seed);
    const std::string prefix =
        args.get_string_or("energy_prefix", "replica_");
    const std::string out =
        args.get_string_or("out", "exchange_result.txt");

    BoundKernel bound;
    bound.kernel_name = name();
    bound.executable = entry->executable;

    auto read_energy = [prefix](const pilot::UnitRuntimeContext& context,
                                std::int64_t replica,
                                double* energy) -> Status {
      const fs::path path =
          context.shared /
          (prefix + std::to_string(replica) + ".energy");
      std::ifstream in(path);
      if (!(in >> *energy)) {
        return make_error(Errc::kIoError,
                          "md.exchange: cannot read " + path.string());
      }
      return Status::ok();
    };

    if (parsed.mode == Mode::kHamiltonian) {
      // ---- Hamiltonian pairwise mode ----
      const auto pair_a = parsed.pair_a;
      const auto pair_b = parsed.pair_b;
      const double eps_a = parsed.eps_a;
      const double eps_b = parsed.eps_b;
      const double temperature = parsed.temperature;
      const std::string traj_a = args.get_string_or("traj_a", "");
      const std::string traj_b = args.get_string_or("traj_b", "");
      const std::string system_kind =
          args.get_string_or("system", "fluid");
      const auto n_particles = parsed.n_particles;
      bound.arguments = {"--hamiltonian-pair", std::to_string(pair_a),
                         std::to_string(pair_b)};
      // Four potential evaluations of an N-particle system.
      bound.estimated_duration =
          (0.3 + 4.0e-6 * static_cast<double>(n_particles)) /
          machine.performance_factor;
      bound.payload = [=](const pilot::UnitRuntimeContext& context)
          -> Status {
        md::System system = [&] {
          if (system_kind == "dipeptide") {
            const std::size_t waters =
                (static_cast<std::size_t>(n_particles) - 22) / 3;
            return md::build_solvated_dipeptide(waters).system;
          }
          return md::build_fluid(static_cast<std::size_t>(n_particles));
        }();
        auto last_frame =
            [&](const std::string& name,
                std::vector<md::Vec3>* positions) -> Status {
          auto trajectory =
              md::Trajectory::load((context.shared / name).string());
          if (!trajectory.ok()) return trajectory.status();
          if (trajectory.value().empty() ||
              trajectory.value().frames().back().positions.size() !=
                  system.size()) {
            return make_error(Errc::kInvalidArgument,
                              "md.exchange: trajectory " + name +
                                  " does not match the system");
          }
          *positions = trajectory.value().frames().back().positions;
          return Status::ok();
        };
        std::vector<md::Vec3> x_a;
        std::vector<md::Vec3> x_b;
        ENTK_RETURN_IF_ERROR(last_frame(traj_a, &x_a));
        ENTK_RETURN_IF_ERROR(last_frame(traj_b, &x_b));

        md::ForceFieldParams params_a;
        params_a.epsilon = eps_a;
        md::ForceFieldParams params_b;
        params_b.epsilon = eps_b;
        const md::ForceField hamiltonian_a(params_a);
        const md::ForceField hamiltonian_b(params_b);
        auto energy_of = [&](const md::ForceField& hamiltonian,
                             const std::vector<md::Vec3>& x) {
          system.positions = x;
          return hamiltonian.energy(system);
        };
        const double u_aa = energy_of(hamiltonian_a, x_a);
        const double u_ab = energy_of(hamiltonian_a, x_b);
        const double u_ba = energy_of(hamiltonian_b, x_a);
        const double u_bb = energy_of(hamiltonian_b, x_b);
        // Metropolis for swapping configurations between Hamiltonians
        // at a common temperature.
        const double delta =
            ((u_aa + u_bb) - (u_ab + u_ba)) / temperature;
        Xoshiro256 rng(seed + static_cast<std::uint64_t>(pair_a) * 131 +
                       static_cast<std::uint64_t>(pair_b));
        const bool accept =
            delta >= 0.0 || rng.uniform() < std::exp(delta);
        std::ofstream result(context.sandbox / out);
        if (!result) {
          return make_error(Errc::kIoError,
                            "md.exchange: cannot open " + out);
        }
        result << "attempted 1\naccepted " << (accept ? 1 : 0) << "\n";
        result << "u_aa " << u_aa << "\nu_ab " << u_ab << "\nu_ba "
               << u_ba << "\nu_bb " << u_bb << "\n";
        return Status::ok();
      };
    } else if (parsed.mode == Mode::kPairwise) {
      // ---- pairwise (asynchronous) mode ----
      const auto pair_a = parsed.pair_a;
      const auto pair_b = parsed.pair_b;
      const double t_a = parsed.t_a;
      const double t_b = parsed.t_b;
      bound.arguments = {"--pair", std::to_string(pair_a),
                         std::to_string(pair_b)};
      bound.estimated_duration = 0.5 / machine.performance_factor;
      bound.payload = [=](const pilot::UnitRuntimeContext& context)
          -> Status {
        double energy_a = 0.0;
        double energy_b = 0.0;
        ENTK_RETURN_IF_ERROR(read_energy(context, pair_a, &energy_a));
        ENTK_RETURN_IF_ERROR(read_energy(context, pair_b, &energy_b));
        const double delta =
            (1.0 / t_a - 1.0 / t_b) * (energy_a - energy_b);
        Xoshiro256 rng(seed + static_cast<std::uint64_t>(pair_a) * 131 +
                       static_cast<std::uint64_t>(pair_b));
        const bool accept =
            delta >= 0.0 || rng.uniform() < std::exp(delta);
        std::ofstream result(context.sandbox / out);
        if (!result) {
          return make_error(Errc::kIoError,
                            "md.exchange: cannot open " + out);
        }
        result << "attempted 1\naccepted " << (accept ? 1 : 0) << "\n";
        return Status::ok();
      };
    } else {
      // ---- global-sweep (synchronous) mode ----
      const auto n_replicas = parsed.n_replicas;
      const double t_min = parsed.t_min;
      const double t_max = parsed.t_max;
      const auto sweep = parsed.sweep;
      const std::string rungs_csv = args.get_string_or("rungs", "");
      bound.arguments = {"-n", std::to_string(n_replicas)};
      // Serial pairwise exchange: cost grows with the number of
      // replicas (the paper's Fig 6 behaviour).
      bound.estimated_duration =
          (0.5 + 0.01 * static_cast<double>(n_replicas)) /
          machine.performance_factor;

      bound.payload = [=](const pilot::UnitRuntimeContext& context)
          -> Status {
        const auto ladder = md::geometric_ladder(
            static_cast<std::size_t>(n_replicas), t_min, t_max);
        // Current rung of each replica (identity by default).
        std::vector<std::size_t> rung_of(
            static_cast<std::size_t>(n_replicas));
        for (std::size_t r = 0; r < rung_of.size(); ++r) rung_of[r] = r;
        if (!rungs_csv.empty()) {
          const auto fields = split(rungs_csv, ',');
          if (fields.size() != rung_of.size()) {
            return make_error(Errc::kInvalidArgument,
                              "md.exchange: 'rungs' needs one entry per "
                              "replica");
          }
          for (std::size_t r = 0; r < fields.size(); ++r) {
            rung_of[r] = static_cast<std::size_t>(
                std::strtoull(fields[r].c_str(), nullptr, 10));
            if (rung_of[r] >= rung_of.size()) {
              return make_error(Errc::kInvalidArgument,
                                "md.exchange: rung out of range");
            }
          }
        }
        std::vector<double> energies(
            static_cast<std::size_t>(n_replicas), 0.0);
        std::vector<std::int64_t> replica_at(rung_of.size());
        for (std::int64_t r = 0; r < n_replicas; ++r) {
          ENTK_RETURN_IF_ERROR(
              read_energy(context, r, &energies[static_cast<std::size_t>(
                                          r)]));
          replica_at[rung_of[static_cast<std::size_t>(r)]] = r;
        }
        // One Metropolis sweep over neighbour rung pairs with the
        // requested parity.
        Xoshiro256 rng(seed + static_cast<std::uint64_t>(sweep));
        std::size_t attempted = 0;
        std::size_t accepted = 0;
        for (std::size_t low = static_cast<std::size_t>(sweep % 2);
             low + 1 < ladder.size(); low += 2) {
          const std::int64_t replica_lo = replica_at[low];
          const std::int64_t replica_hi = replica_at[low + 1];
          const double delta =
              (1.0 / ladder[low] - 1.0 / ladder[low + 1]) *
              (energies[static_cast<std::size_t>(replica_lo)] -
               energies[static_cast<std::size_t>(replica_hi)]);
          ++attempted;
          if (delta >= 0.0 || rng.uniform() < std::exp(delta)) {
            ++accepted;
            std::swap(replica_at[low], replica_at[low + 1]);
            std::swap(rung_of[static_cast<std::size_t>(replica_lo)],
                      rung_of[static_cast<std::size_t>(replica_hi)]);
          }
        }
        std::ofstream result(context.sandbox / out);
        if (!result) {
          return make_error(Errc::kIoError,
                            "md.exchange: cannot open " + out);
        }
        result << "attempted " << attempted << "\naccepted " << accepted
               << "\n";
        for (std::int64_t r = 0; r < n_replicas; ++r) {
          const std::size_t rung = rung_of[static_cast<std::size_t>(r)];
          result << r << ' ' << rung << ' ' << ladder[rung] << '\n';
        }
        return Status::ok();
      };
    }

    pilot::StagingDirective stage_out;
    stage_out.source = out;
    stage_out.size_mb = 0.001;
    bound.output_staging.push_back(std::move(stage_out));
    return bound;
  }

 private:
  enum class Mode { kHamiltonian, kPairwise, kSweep };
  struct Args {
    Mode mode = Mode::kSweep;
    std::int64_t seed = 777;
    std::int64_t pair_a = 0;  ///< Pairwise and Hamiltonian modes.
    std::int64_t pair_b = 0;
    double eps_a = 1.0;  ///< Hamiltonian mode.
    double eps_b = 1.0;
    double temperature = 1.0;
    std::int64_t n_particles = 32;
    double t_a = 1.0;  ///< Pairwise mode.
    double t_b = 1.0;
    std::int64_t n_replicas = 2;  ///< Global-sweep mode.
    double t_min = 0.8;
    double t_max = 2.0;
    std::int64_t sweep = 0;
  };

  static Status require(const Config& args,
                        std::initializer_list<const char*> keys,
                        const char* mode) {
    for (const char* key : keys) {
      if (!args.contains(key)) {
        return make_error(Errc::kInvalidArgument,
                          std::string("md.exchange: ") + mode +
                              " mode needs '" + key + "'");
      }
    }
    return Status::ok();
  }

  /// Picks the mode and reads and checks its numeric arguments once.
  static Result<Args> parse(const Config& args) {
    Args parsed;
    if (args.contains("eps_a")) {
      parsed.mode = Mode::kHamiltonian;
      ENTK_RETURN_IF_ERROR(require(args,
                                   {"pair_a", "pair_b", "eps_b",
                                    "temperature", "traj_a", "traj_b"},
                                   "hamiltonian"));
      ENTK_ASSIGN_OR_RETURN(parsed.eps_a, args.get_double("eps_a"));
      ENTK_ASSIGN_OR_RETURN(parsed.eps_b, args.get_double("eps_b"));
      ENTK_ASSIGN_OR_RETURN(parsed.temperature,
                            args.get_double("temperature"));
      if (parsed.eps_a <= 0.0 || parsed.eps_b <= 0.0 ||
          parsed.temperature <= 0.0) {
        return make_error(Errc::kInvalidArgument,
                          "md.exchange: epsilons and temperature must be "
                          "positive");
      }
      ENTK_ASSIGN_OR_RETURN(parsed.pair_a, args.get_int("pair_a"));
      ENTK_ASSIGN_OR_RETURN(parsed.pair_b, args.get_int("pair_b"));
      ENTK_ASSIGN_OR_RETURN(parsed.n_particles,
                            args.get_int_or("n_particles", 32));
    } else if (args.contains("pair_a")) {
      parsed.mode = Mode::kPairwise;
      ENTK_RETURN_IF_ERROR(
          require(args, {"pair_b", "t_a", "t_b"}, "pairwise"));
      ENTK_ASSIGN_OR_RETURN(parsed.t_a, args.get_double("t_a"));
      ENTK_ASSIGN_OR_RETURN(parsed.t_b, args.get_double("t_b"));
      if (parsed.t_a <= 0.0 || parsed.t_b <= 0.0) {
        return make_error(Errc::kInvalidArgument,
                          "md.exchange: temperatures must be positive");
      }
      ENTK_ASSIGN_OR_RETURN(parsed.pair_a, args.get_int("pair_a"));
      ENTK_ASSIGN_OR_RETURN(parsed.pair_b, args.get_int("pair_b"));
    } else {
      if (!args.contains("n_replicas")) {
        return make_error(Errc::kInvalidArgument,
                          "md.exchange: 'n_replicas' is required");
      }
      ENTK_ASSIGN_OR_RETURN(parsed.n_replicas, args.get_int("n_replicas"));
      if (parsed.n_replicas < 2) {
        return make_error(Errc::kInvalidArgument,
                          "md.exchange: need at least 2 replicas");
      }
      ENTK_ASSIGN_OR_RETURN(parsed.t_min, args.get_double_or("t_min", 0.8));
      ENTK_ASSIGN_OR_RETURN(parsed.t_max, args.get_double_or("t_max", 2.0));
      ENTK_ASSIGN_OR_RETURN(parsed.sweep, args.get_int_or("sweep", 0));
    }
    ENTK_ASSIGN_OR_RETURN(parsed.seed, args.get_int_or("seed", 777));
    return parsed;
  }
};

/// md.coco — serial CoCo (PCA resampling) over all simulation
/// trajectories of an iteration. Arguments:
///   n_sims          trajectories to analyse (required)
///   frames_per_sim  frames expected per trajectory (cost model)
///   traj_prefix     shared files "<prefix><i>.dat" (default traj_)
///   n_new_points    resampling points (default n_sims)
///   out             result file (default coco_points.txt)
class MdCocoKernel final : public KernelBase {
 public:
  MdCocoKernel()
      : KernelBase("md.coco", "CoCo PCA-resampling analysis (serial)") {
    add_machine_entry("*", {"pyCoCo", {}});
  }

  Status validate(const Config& args) const override {
    return parse(args).status();
  }

  Result<BoundKernel> bind(const Config& args,
                           const sim::MachineProfile& machine)
      const override {
    ENTK_ASSIGN_OR_RETURN(const Args parsed, parse(args));
    ENTK_ASSIGN_OR_RETURN(const KernelMachineEntry* entry,
                          machine_entry(machine.name));

    const auto n_sims = parsed.n_sims;
    const auto frames_per_sim = parsed.frames_per_sim;
    const std::string prefix = args.get_string_or("traj_prefix", "traj_");
    const std::string suffix = args.get_string_or("traj_suffix", ".dat");
    const auto n_new_points = parsed.n_new_points;
    const std::string out = args.get_string_or("out", "coco_points.txt");

    BoundKernel bound;
    bound.kernel_name = name();
    bound.executable = entry->executable;
    bound.arguments = {"--nsims", std::to_string(n_sims)};
    // Serial analysis over every frame of every simulation: the cost
    // grows with the ensemble size (Figs 7/8).
    bound.estimated_duration =
        (1.0 + 0.02 * static_cast<double>(n_sims) *
                   static_cast<double>(frames_per_sim)) /
        machine.performance_factor;

    bound.payload = [=](const pilot::UnitRuntimeContext& context) -> Status {
      std::vector<md::Trajectory> trajectories;
      trajectories.reserve(static_cast<std::size_t>(n_sims));
      for (std::int64_t s = 0; s < n_sims; ++s) {
        auto loaded = md::Trajectory::load(
            (context.shared / (prefix + std::to_string(s) + suffix))
                .string());
        if (!loaded.ok()) return loaded.status();
        trajectories.push_back(loaded.take());
      }
      std::vector<const md::Trajectory*> views;
      views.reserve(trajectories.size());
      for (const auto& trajectory : trajectories) {
        views.push_back(&trajectory);
      }
      analysis::CocoOptions options;
      options.n_new_points = static_cast<std::size_t>(n_new_points);
      auto coco = md::coco_analysis(views, options);
      if (!coco.ok()) return coco.status();
      std::ofstream result(context.sandbox / out);
      if (!result) {
        return make_error(Errc::kIoError, "md.coco: cannot open " + out);
      }
      result.precision(10);
      result << "occupancy " << coco.value().occupancy << '\n';
      for (const auto& point : coco.value().new_points) {
        for (std::size_t d = 0; d < point.size(); ++d) {
          result << (d ? " " : "") << point[d];
        }
        result << '\n';
      }
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
    std::int64_t n_sims = 1;
    std::int64_t frames_per_sim = 10;
    std::int64_t n_new_points = 1;
  };

  /// Reads and checks every numeric argument once.
  static Result<Args> parse(const Config& args) {
    Args parsed;
    if (!args.contains("n_sims")) {
      return make_error(Errc::kInvalidArgument,
                        "md.coco: 'n_sims' is required");
    }
    ENTK_ASSIGN_OR_RETURN(parsed.n_sims, args.get_int("n_sims"));
    if (parsed.n_sims < 1) {
      return make_error(Errc::kInvalidArgument,
                        "md.coco: n_sims must be >= 1");
    }
    ENTK_ASSIGN_OR_RETURN(parsed.frames_per_sim,
                          args.get_int_or("frames_per_sim", 10));
    ENTK_ASSIGN_OR_RETURN(parsed.n_new_points,
                          args.get_int_or("n_new_points", parsed.n_sims));
    return parsed;
  }
};

/// md.lsdmap — diffusion-map analysis of one trajectory. Arguments:
///   traj       shared trajectory file (default traj.dat)
///   n_frames   expected frame count (cost model; default 100)
///   n_coords   diffusion coordinates (default 2)
///   out        result file (default lsdmap.txt)
class MdLsdmapKernel final : public KernelBase {
 public:
  MdLsdmapKernel()
      : KernelBase("md.lsdmap", "diffusion-map (LSDMap) analysis") {
    add_machine_entry("*", {"lsdmap", {}});
  }

  Status validate(const Config& args) const override {
    return parse(args).status();
  }

  Result<BoundKernel> bind(const Config& args,
                           const sim::MachineProfile& machine)
      const override {
    ENTK_ASSIGN_OR_RETURN(const Args parsed, parse(args));
    ENTK_ASSIGN_OR_RETURN(const KernelMachineEntry* entry,
                          machine_entry(machine.name));

    const std::string traj = args.get_string_or("traj", "traj.dat");
    const auto n_frames = parsed.n_frames;
    const auto n_coords = parsed.n_coords;
    const std::string out = args.get_string_or("out", "lsdmap.txt");

    BoundKernel bound;
    bound.kernel_name = name();
    bound.executable = entry->executable;
    bound.arguments = {"-f", traj};
    // Pairwise distance matrix dominates: O(frames^2).
    bound.estimated_duration =
        (0.5 + 5e-5 * static_cast<double>(n_frames) *
                   static_cast<double>(n_frames)) /
        machine.performance_factor;

    bound.payload = [=](const pilot::UnitRuntimeContext& context) -> Status {
      auto loaded =
          md::Trajectory::load((context.sandbox / traj).string());
      if (!loaded.ok()) return loaded.status();
      analysis::DiffusionMapOptions options;
      options.n_coordinates = static_cast<std::size_t>(n_coords);
      auto map = md::diffusion_map_frames(loaded.value().frames(),
                                          options);
      if (!map.ok()) return map.status();
      std::ofstream result(context.sandbox / out);
      if (!result) {
        return make_error(Errc::kIoError,
                          "md.lsdmap: cannot open " + out);
      }
      result.precision(10);
      result << "epsilon " << map.value().epsilon_used << "\neigenvalues";
      for (const double value : map.value().eigenvalues) {
        result << ' ' << value;
      }
      result << '\n';
      const auto& coords = map.value().coordinates;
      for (std::size_t i = 0; i < coords.rows(); ++i) {
        for (std::size_t k = 0; k < coords.cols(); ++k) {
          result << (k ? " " : "") << coords(i, k);
        }
        result << '\n';
      }
      return Status::ok();
    };

    pilot::StagingDirective stage_in;
    stage_in.source = traj;
    stage_in.size_mb = parsed.io_mb;
    bound.input_staging.push_back(std::move(stage_in));
    pilot::StagingDirective stage_out;
    stage_out.source = out;
    stage_out.size_mb = 0.01;
    bound.output_staging.push_back(std::move(stage_out));
    return bound;
  }

 private:
  struct Args {
    std::int64_t n_frames = 100;
    std::int64_t n_coords = 2;
    double io_mb = 2.0;
  };

  /// Reads and checks every numeric argument once.
  static Result<Args> parse(const Config& args) {
    Args parsed;
    ENTK_ASSIGN_OR_RETURN(parsed.n_frames, args.get_int_or("n_frames", 100));
    if (parsed.n_frames < 2) {
      return make_error(Errc::kInvalidArgument,
                        "md.lsdmap: n_frames must be >= 2");
    }
    ENTK_ASSIGN_OR_RETURN(parsed.n_coords, args.get_int_or("n_coords", 2));
    ENTK_ASSIGN_OR_RETURN(parsed.io_mb, args.get_double_or("io_mb", 2.0));
    return parsed;
  }
};

}  // namespace

KernelPtr make_md_simulate_kernel() {
  return std::make_shared<MdSimulateKernel>();
}
KernelPtr make_md_exchange_kernel() {
  return std::make_shared<MdExchangeKernel>();
}
KernelPtr make_md_coco_kernel() { return std::make_shared<MdCocoKernel>(); }
KernelPtr make_md_lsdmap_kernel() {
  return std::make_shared<MdLsdmapKernel>();
}

}  // namespace entk::kernels

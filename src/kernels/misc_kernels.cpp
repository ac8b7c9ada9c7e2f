// Utility kernels: the paper's mkfile/ccount validation workloads plus
// sleep and checksum helpers used by tests and ablations.
//
// Kernel outputs land in the unit's private sandbox and are rewritten
// from scratch on retry, so a torn file is repaired by the fault
// tier, not by crash-consistent writes.
// entk-lint: allow-file(raw-file-write)
#include <chrono>
#include <cstdint>
#include <fstream>
#include <thread>

#include "common/strings.hpp"
#include "kernels/registry.hpp"

namespace entk::kernels {
namespace {

namespace fs = std::filesystem;

/// misc.mkfile — writes `size_kb` kilobytes into `filename` and stages
/// it to the pilot's shared space (stage one of the paper's
/// character-count application).
class MkfileKernel final : public KernelBase {
 public:
  MkfileKernel()
      : KernelBase("misc.mkfile", "create a file of a given size") {
    add_machine_entry("*", {"/bin/dd", {}});
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

    const std::string filename =
        args.get_string_or("filename", "output.txt");
    const double size_kb = parsed.size_kb;

    BoundKernel bound;
    bound.kernel_name = name();
    bound.executable = entry->executable;
    bound.pre_exec = entry->pre_exec;
    bound.arguments = {"if=/dev/zero", "of=" + filename, "bs=1024",
                       "count=" + std::to_string(
                                      static_cast<long long>(size_kb))};
    bound.estimated_duration =
        (0.3 + 2e-4 * size_kb) / machine.performance_factor;
    bound.payload = [filename, size_kb](
                        const pilot::UnitRuntimeContext& context) -> Status {
      std::ofstream out(context.sandbox / filename);
      if (!out) {
        return make_error(Errc::kIoError,
                          "misc.mkfile: cannot open " + filename);
      }
      const auto bytes = static_cast<std::size_t>(size_kb * 1024.0);
      std::string chunk(64, 'x');
      chunk.back() = '\n';
      for (std::size_t written = 0; written < bytes;
           written += chunk.size()) {
        out.write(chunk.data(),
                  static_cast<std::streamsize>(
                      std::min(chunk.size(), bytes - written)));
      }
      return out ? Status::ok()
                 : make_error(Errc::kIoError,
                              "misc.mkfile: short write to " + filename);
    };
    pilot::StagingDirective stage_out;
    stage_out.source = filename;
    stage_out.target = args.get_string_or("stage_as", filename);
    stage_out.size_mb = size_kb / 1024.0;
    bound.output_staging.push_back(std::move(stage_out));
    apply_staging_args(args, parsed.io_mb, bound);
    return bound;
  }

 private:
  struct Args {
    double size_kb = 1.0;
    double io_mb = 1.0;
  };

  /// Reads and checks every numeric argument once.
  static Result<Args> parse(const Config& args) {
    Args parsed;
    ENTK_ASSIGN_OR_RETURN(parsed.size_kb, args.get_double_or("size_kb", 1.0));
    if (parsed.size_kb <= 0.0) {
      return make_error(Errc::kInvalidArgument,
                        "misc.mkfile: size_kb must be > 0");
    }
    ENTK_ASSIGN_OR_RETURN(parsed.io_mb, args.get_double_or("io_mb", 1.0));
    return parsed;
  }
};

/// misc.ccount — counts the characters of a staged-in file and writes
/// the count to an output file (stage two of the paper's validation
/// application).
class CcountKernel final : public KernelBase {
 public:
  CcountKernel()
      : KernelBase("misc.ccount", "count characters in a file") {
    add_machine_entry("*", {"/usr/bin/wc", {}});
  }

  Status validate(const Config& args) const override {
    return parse(args).status();
  }

  Result<BoundKernel> bind(const Config& args,
                           const sim::MachineProfile& machine)
      const override {
    ENTK_ASSIGN_OR_RETURN(const double io_mb, parse(args));
    ENTK_ASSIGN_OR_RETURN(const KernelMachineEntry* entry,
                          machine_entry(machine.name));

    const std::string input = args.get_string_or("input", "");
    const std::string output =
        args.get_string_or("output", input + ".count");
    // The staged-in file defaults to 1 KB; extra inputs/outputs to 1 MB.
    const double size_mb = args.contains("io_mb") ? io_mb : 0.001;

    BoundKernel bound;
    bound.kernel_name = name();
    bound.executable = entry->executable;
    bound.pre_exec = entry->pre_exec;
    bound.arguments = {"-c", input};
    bound.estimated_duration =
        (0.3 + 0.02 * size_mb) / machine.performance_factor;
    bound.payload = [input, output](
                        const pilot::UnitRuntimeContext& context) -> Status {
      std::ifstream in(context.sandbox / input, std::ios::binary);
      if (!in) {
        return make_error(Errc::kIoError,
                          "misc.ccount: cannot open " + input);
      }
      std::size_t count = 0;
      char buffer[4096];
      while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
        count += static_cast<std::size_t>(in.gcount());
        if (in.eof()) break;
      }
      std::ofstream out(context.sandbox / output);
      if (!out) {
        return make_error(Errc::kIoError,
                          "misc.ccount: cannot open " + output);
      }
      out << count << '\n';
      return Status::ok();
    };
    pilot::StagingDirective stage_in;
    stage_in.source = input;
    stage_in.size_mb = size_mb;
    bound.input_staging.push_back(std::move(stage_in));
    pilot::StagingDirective stage_out;
    stage_out.source = output;
    stage_out.size_mb = 0.0001;
    bound.output_staging.push_back(std::move(stage_out));
    apply_staging_args(args, io_mb, bound);
    return bound;
  }

 private:
  /// Checks the arguments and returns io_mb (default 1.0), parsed once.
  static Result<double> parse(const Config& args) {
    if (!args.contains("input")) {
      return make_error(Errc::kInvalidArgument,
                        "misc.ccount: 'input' argument is required");
    }
    return args.get_double_or("io_mb", 1.0);
  }
};

/// misc.chksum — FNV-1a 64-bit checksum of a staged-in file.
class ChksumKernel final : public KernelBase {
 public:
  ChksumKernel() : KernelBase("misc.chksum", "FNV-1a checksum of a file") {
    add_machine_entry("*", {"/usr/bin/cksum", {}});
  }

  Status validate(const Config& args) const override {
    return parse(args).status();
  }

  Result<BoundKernel> bind(const Config& args,
                           const sim::MachineProfile& machine)
      const override {
    ENTK_ASSIGN_OR_RETURN(const double io_mb, parse(args));
    ENTK_ASSIGN_OR_RETURN(const KernelMachineEntry* entry,
                          machine_entry(machine.name));

    const std::string input = args.get_string_or("input", "");
    const std::string output = args.get_string_or("output", input + ".sum");

    BoundKernel bound;
    bound.kernel_name = name();
    bound.executable = entry->executable;
    bound.arguments = {input};
    bound.estimated_duration = 0.2 / machine.performance_factor;
    bound.payload = [input, output](
                        const pilot::UnitRuntimeContext& context) -> Status {
      std::ifstream in(context.sandbox / input, std::ios::binary);
      if (!in) {
        return make_error(Errc::kIoError,
                          "misc.chksum: cannot open " + input);
      }
      std::uint64_t hash = 1469598103934665603ULL;
      char byte = 0;
      while (in.get(byte)) {
        hash ^= static_cast<unsigned char>(byte);
        hash *= 1099511628211ULL;
      }
      std::ofstream out(context.sandbox / output);
      if (!out) {
        return make_error(Errc::kIoError,
                          "misc.chksum: cannot open " + output);
      }
      out << hash << '\n';
      return Status::ok();
    };
    pilot::StagingDirective stage_in;
    stage_in.source = input;
    stage_in.size_mb = io_mb;
    bound.input_staging.push_back(std::move(stage_in));
    pilot::StagingDirective stage_out;
    stage_out.source = output;
    stage_out.size_mb = 0.0001;
    bound.output_staging.push_back(std::move(stage_out));
    return bound;
  }

 private:
  /// Checks the arguments and returns io_mb (default 0.001), parsed once.
  static Result<double> parse(const Config& args) {
    if (!args.contains("input")) {
      return make_error(Errc::kInvalidArgument,
                        "misc.chksum: 'input' argument is required");
    }
    return args.get_double_or("io_mb", 0.001);
  }
};

/// misc.sleep — occupies a core for `duration` seconds. On the local
/// backend it really sleeps; on the simulated backend the cost model
/// is the duration itself. Useful as a precisely controllable
/// synthetic workload.
class SleepKernel final : public KernelBase {
 public:
  SleepKernel() : KernelBase("misc.sleep", "hold a core for a duration") {
    add_machine_entry("*", {"/bin/sleep", {}});
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
    const double duration = parsed.duration;

    BoundKernel bound;
    bound.kernel_name = name();
    bound.executable = entry->executable;
    bound.arguments = {format_fixed(duration)};
    bound.cores = parsed.cores;
    bound.uses_mpi = bound.cores > 1;
    bound.estimated_duration = duration;  // machine-independent
    bound.payload = [duration](const pilot::UnitRuntimeContext&) -> Status {
      std::this_thread::sleep_for(std::chrono::duration<double>(duration));
      return Status::ok();
    };
    apply_staging_args(args, parsed.io_mb, bound);
    return bound;
  }

 private:
  struct Args {
    double duration = 1.0;
    std::int64_t cores = 1;
    double io_mb = 1.0;
  };

  /// Reads and checks every numeric argument once.
  static Result<Args> parse(const Config& args) {
    Args parsed;
    ENTK_ASSIGN_OR_RETURN(parsed.duration,
                          args.get_double_or("duration", 1.0));
    if (parsed.duration < 0.0) {
      return make_error(Errc::kInvalidArgument,
                        "misc.sleep: duration must be >= 0");
    }
    ENTK_ASSIGN_OR_RETURN(parsed.cores, args.get_int_or("cores", 1));
    ENTK_ASSIGN_OR_RETURN(parsed.io_mb, args.get_double_or("io_mb", 1.0));
    return parsed;
  }
};

}  // namespace

KernelPtr make_mkfile_kernel() { return std::make_shared<MkfileKernel>(); }
KernelPtr make_ccount_kernel() { return std::make_shared<CcountKernel>(); }
KernelPtr make_chksum_kernel() { return std::make_shared<ChksumKernel>(); }
KernelPtr make_sleep_kernel() { return std::make_shared<SleepKernel>(); }

}  // namespace entk::kernels

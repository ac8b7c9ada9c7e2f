// Kernel plugins: the paper's abstraction of one computational task.
//
// A kernel plugin names a science tool ("md.simulate", "misc.ccount"),
// validates its arguments, and *binds* to a machine: it resolves the
// machine-specific executable and environment, estimates the runtime
// on that machine (cost model, used by the simulated backend) and
// produces the in-process payload that really performs the work (used
// by the local backend). Hiding these per-resource peculiarities is
// exactly what the paper's kernel plugins do.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/status.hpp"
#include "pilot/descriptions.hpp"
#include "sim/machine.hpp"

namespace entk::kernels {

/// A kernel resolved against a machine: everything the execution
/// plugin needs to create a compute unit.
struct BoundKernel {
  std::string kernel_name;
  std::string executable;
  std::vector<std::string> arguments;
  std::map<std::string, std::string> environment;
  std::vector<std::string> pre_exec;  ///< e.g. module loads.
  Count cores = 1;
  bool uses_mpi = false;
  Duration estimated_duration = 0.0;  ///< Cost model on this machine.
  pilot::UnitPayload payload;         ///< Real work (local backend).
  std::vector<pilot::StagingDirective> input_staging;
  std::vector<pilot::StagingDirective> output_staging;
};

/// Machine-specific launch details for one kernel.
struct KernelMachineEntry {
  std::string executable;
  std::vector<std::string> pre_exec;
};

class Kernel {
 public:
  virtual ~Kernel() = default;

  virtual std::string name() const = 0;
  virtual std::string description() const = 0;

  /// Checks `args` without binding (cheap, user-facing validation).
  virtual Status validate(const Config& args) const = 0;

  /// Resolves the kernel on `machine` with the given arguments.
  virtual Result<BoundKernel> bind(const Config& args,
                                   const sim::MachineProfile& machine)
      const = 0;
};

using KernelPtr = std::shared_ptr<const Kernel>;

/// Shared behaviour: machine table lookup and staging-from-args.
class KernelBase : public Kernel {
 public:
  KernelBase(std::string name, std::string description);

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }

 protected:
  /// Registers launch details for a machine name ("*" = fallback).
  void add_machine_entry(const std::string& machine,
                         KernelMachineEntry entry);

  /// Fallback-aware lookup; errors if neither the machine nor "*" is
  /// configured. The entry lives as long as this kernel.
  Result<const KernelMachineEntry*> machine_entry(
      const std::string& machine) const;

  /// Builds staging directives from the conventional args:
  ///   inputs  = "a.txt,b.txt"   (shared space -> sandbox)
  ///   outputs = "c.txt"         (sandbox -> shared space)
  /// `io_mb` is the per-file transfer size for the simulated backend
  /// (the kernel parses its "io_mb" argument once, default 1.0).
  static void apply_staging_args(const Config& args, double io_mb,
                                 BoundKernel& bound);

 private:
  std::string name_;
  std::string description_;
  std::map<std::string, KernelMachineEntry> machines_;
};

}  // namespace entk::kernels

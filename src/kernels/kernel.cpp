#include "kernels/kernel.hpp"

#include "common/strings.hpp"

namespace entk::kernels {

KernelBase::KernelBase(std::string name, std::string description)
    : name_(std::move(name)), description_(std::move(description)) {
  ENTK_CHECK(!name_.empty(), "kernel needs a name");
}

void KernelBase::add_machine_entry(const std::string& machine,
                                   KernelMachineEntry entry) {
  machines_[machine] = std::move(entry);
}

Result<const KernelMachineEntry*> KernelBase::machine_entry(
    const std::string& machine) const {
  auto it = machines_.find(machine);
  if (it == machines_.end()) it = machines_.find("*");
  if (it == machines_.end()) {
    return make_error(Errc::kNotFound,
                      "kernel '" + name_ +
                          "' has no launch entry for machine '" + machine +
                          "' and no fallback");
  }
  return &it->second;
}

void KernelBase::apply_staging_args(const Config& args, double io_mb,
                                    BoundKernel& bound) {
  auto parse_list = [&](const std::string& key) {
    std::vector<std::string> files;
    if (!args.contains(key)) return files;
    for (auto& file : split(args.get_string_or(key, ""), ',')) {
      const std::string trimmed = trim(file);
      if (!trimmed.empty()) files.push_back(trimmed);
    }
    return files;
  };
  for (const auto& file : parse_list("inputs")) {
    pilot::StagingDirective directive;
    directive.source = file;
    directive.size_mb = io_mb;
    bound.input_staging.push_back(std::move(directive));
  }
  for (const auto& file : parse_list("outputs")) {
    pilot::StagingDirective directive;
    directive.source = file;
    directive.size_mb = io_mb;
    bound.output_staging.push_back(std::move(directive));
  }
}

}  // namespace entk::kernels

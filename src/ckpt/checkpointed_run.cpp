#include "ckpt/checkpointed_run.hpp"

#include <memory>
#include <optional>
#include <utility>

#include "common/uid.hpp"
#include "pilot/sim_backend.hpp"
#include "sim/machine.hpp"

namespace entk::ckpt {

Result<CheckpointedRunResult> run_workload_with_checkpoints(
    const core::WorkloadSpec& original,
    const kernels::KernelRegistry& registry,
    const CheckpointedRunOptions& options) {
  if (options.directory.empty()) {
    return make_error(Errc::kInvalidArgument,
                      "checkpointed runs need a checkpoint directory");
  }
  auto resolved = core::resolve_workload(original, registry);
  if (!resolved.ok()) return resolved.status();
  const core::WorkloadSpec& spec = resolved.value();
  if (spec.backend != "sim") {
    return make_error(Errc::kInvalidArgument,
                      "checkpointing requires the sim backend "
                      "(unit payloads of the local backend cannot be "
                      "serialized)");
  }
  const std::string workload_text = core::serialize_workload(spec);

  std::optional<Snapshot> snapshot;
  if (!options.resume_path.empty()) {
    auto loaded = read_snapshot_file(options.resume_path);
    if (!loaded.ok()) return loaded.status();
    snapshot = loaded.take();
    if (!snapshot->workload_text.empty() &&
        snapshot->workload_text != workload_text) {
      return make_error(Errc::kInvalidArgument,
                        options.resume_path +
                            ": snapshot was taken from a different "
                            "workload than the one passed to --resume");
    }
    // The allocate() below must replay the original pilot uids. Only
    // the unnamed session's own families rewind: other sessions in
    // this process keep drawing fresh uids.
    reset_uid_counters_with_prefix("unit");
    reset_uid_counters_with_prefix("pilot");
  }

  auto pattern = core::build_pattern(spec);
  if (!pattern.ok()) return pattern.status();

  const auto catalog = sim::MachineCatalog::with_builtin_profiles();
  auto machine = catalog.find(spec.machine);
  if (!machine.ok()) return machine.status();
  pilot::SimBackend backend(machine.take());

  core::ResourceOptions resource_options;
  resource_options.cores = spec.cores;
  resource_options.runtime = spec.runtime;
  resource_options.scheduler_policy = spec.scheduler;
  core::ResourceHandle handle(backend, registry, resource_options);
  ENTK_RETURN_IF_ERROR(handle.allocate());

  Coordinator::Options coordinator_options;
  coordinator_options.directory = options.directory;
  coordinator_options.policy = options.policy;
  coordinator_options.crash_after_snapshots =
      options.crash_after_snapshots;
  coordinator_options.stop_requested = options.stop_requested;
  Coordinator coordinator(backend, handle,
                          std::move(coordinator_options));
  coordinator.set_identity(spec.pattern, workload_text);
  if (snapshot.has_value()) {
    ENTK_RETURN_IF_ERROR(coordinator.restore_runtime(*snapshot));
  }
  pattern.value()->set_graph_run_observer(&coordinator);

  auto report = handle.run(*pattern.value());
  if (!report.ok()) return report.status();

  CheckpointedRunResult result;
  result.report = report.take();
  result.snapshots_written = coordinator.snapshots_written();
  result.last_snapshot_path = coordinator.last_snapshot_path();
  result.checkpoint_stop =
      Coordinator::is_checkpoint_stop(result.report.outcome);
  if (result.report.outcome.ok()) (void)handle.deallocate();
  return result;
}

}  // namespace entk::ckpt

#include "saga/job_description.hpp"

namespace entk::saga {

Status JobDescription::validate() const {
  if (total_cpu_count < 1) {
    return make_error(Errc::kInvalidArgument,
                      "job '" + name + "': total_cpu_count must be >= 1");
  }
  if (processes_per_host < 0) {
    return make_error(Errc::kInvalidArgument,
                      "job '" + name + "': processes_per_host must be >= 0");
  }
  if (wall_time_limit <= 0.0) {
    return make_error(Errc::kInvalidArgument,
                      "job '" + name + "': wall_time_limit must be > 0");
  }
  if (executable.empty()) {
    return make_error(Errc::kInvalidArgument,
                      "job '" + name + "': needs an executable");
  }
  return Status::ok();
}

}  // namespace entk::saga

// SAGA-style job description, following the fields of the Job
// Submission Description Language (JSDL, GFD.56) that the paper's
// SAGA layer standardises on.
//
// Every job is a container: it holds its cores from start until its
// owner ends it (JobService::complete/cancel) or its walltime expires.
// The toolkit submits one per pilot; the pilot's agent runs the units.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace entk::saga {

struct JobDescription {
  // --- JSDL core ---
  std::string name;                ///< Human-readable job name.
  std::string executable;          ///< Command to run.
  std::vector<std::string> arguments;
  std::map<std::string, std::string> environment;
  std::string working_directory;
  Count total_cpu_count = 1;       ///< Cores requested.
  Count processes_per_host = 0;    ///< 0 = let the backend decide.
  Duration wall_time_limit = 3600; ///< Seconds before forcible end.
  std::string queue;               ///< Batch queue/partition name.
  std::string project;             ///< Allocation/project to charge.

  /// Checks field ranges (cores >= 1, walltime > 0, an executable).
  Status validate() const;
};

}  // namespace entk::saga

// JSDL-style serialization of job descriptions.
//
// The paper's SAGA layer standardises on the Job Submission
// Description Language (JSDL, OGF GFD.56). This module writes and
// reads JobDescriptions in a flat `jsdl:Key = value` text form using
// JSDL's element names — enough to persist, inspect and exchange job
// descriptions between tools.
#pragma once

#include <string>

#include "saga/job_description.hpp"

namespace entk::saga {

/// Serialises a job description. Keys follow JSDL element names
/// (ApplicationName, Executable, Argument, Environment, TotalCPUCount,
/// ProcessesPerHost, WallTimeLimit, Queue, Project, WorkingDirectory).
std::string to_jsdl(const JobDescription& description);

/// Parses the output of to_jsdl(). Unknown keys are an error;
/// repeated Argument/Environment keys accumulate.
Result<JobDescription> from_jsdl(const std::string& text);

}  // namespace entk::saga

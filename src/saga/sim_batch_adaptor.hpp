// SAGA adaptor for the simulated batch system.
//
// Maps JobDescriptions onto sim::BatchQueue requests: the job waits in
// the (simulated) queue, starts when cores free up, and runs until its
// owner completes or cancels it or its walltime expires. Everything
// happens on the simulation engine's virtual clock; Job::wait() must
// not be used here — drive the engine instead.
#pragma once

#include <unordered_map>

#include "saga/job_service.hpp"
#include "sim/batch.hpp"

namespace entk::saga {

class SimBatchAdaptor final : public JobService {
 public:
  SimBatchAdaptor(sim::Engine& engine, sim::BatchQueue& batch,
                  std::string machine_name);

  Result<JobPtr> submit(JobDescription description) override;
  Status cancel(Job& job) override;
  Status complete(Job& job) override;
  std::string backend_name() const override { return "sim:" + machine_; }

 private:
  sim::Engine& engine_;
  sim::BatchQueue& batch_;
  std::string machine_;
  std::unordered_map<const Job*, sim::BatchJobId> batch_ids_;
};

}  // namespace entk::saga

// Tests of the SAGA layer: job model, local adaptor (core-slot
// accounting for container jobs) and the simulated-batch adaptor.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "saga/job.hpp"
#include "saga/local_adaptor.hpp"
#include "saga/sim_batch_adaptor.hpp"
#include "sim/batch.hpp"

namespace entk::saga {
namespace {

TEST(JobModel, ValidTransitions) {
  EXPECT_TRUE(is_valid_transition(JobState::kNew, JobState::kPending));
  EXPECT_TRUE(is_valid_transition(JobState::kPending, JobState::kRunning));
  EXPECT_TRUE(is_valid_transition(JobState::kPending, JobState::kCanceled));
  EXPECT_TRUE(is_valid_transition(JobState::kRunning, JobState::kDone));
  EXPECT_TRUE(is_valid_transition(JobState::kRunning, JobState::kFailed));
  EXPECT_FALSE(is_valid_transition(JobState::kNew, JobState::kRunning));
  EXPECT_FALSE(is_valid_transition(JobState::kDone, JobState::kRunning));
  EXPECT_FALSE(is_valid_transition(JobState::kFailed, JobState::kDone));
  EXPECT_TRUE(is_final(JobState::kDone));
  EXPECT_TRUE(is_final(JobState::kCanceled));
  EXPECT_FALSE(is_final(JobState::kRunning));
}

TEST(JobModel, AdvanceStampsTimesAndFiresCallbacks) {
  WallClock clock;
  JobDescription description;
  description.executable = "/bin/true";
  Job job("job.test", description, clock);
  std::vector<JobState> observed;
  job.on_state_change(
      [&](Job&, JobState state) { observed.push_back(state); });

  EXPECT_TRUE(job.advance_state(JobState::kPending).is_ok());
  EXPECT_TRUE(job.advance_state(JobState::kRunning).is_ok());
  EXPECT_TRUE(job.advance_state(JobState::kDone).is_ok());
  EXPECT_EQ(observed, (std::vector<JobState>{JobState::kPending,
                                             JobState::kRunning,
                                             JobState::kDone}));
  EXPECT_GE(job.started_at(), job.submitted_at());
  EXPECT_GE(job.finished_at(), job.started_at());
  // Illegal transition rejected.
  EXPECT_EQ(job.advance_state(JobState::kRunning).code(),
            Errc::kFailedPrecondition);
}

TEST(JobModel, FailureRecordsStatus) {
  WallClock clock;
  JobDescription description;
  description.executable = "/bin/false";
  Job job("job.fail", description, clock);
  ASSERT_TRUE(job.advance_state(JobState::kPending).is_ok());
  ASSERT_TRUE(job
                  .advance_state(JobState::kFailed,
                                 make_error(Errc::kIoError, "disk died"))
                  .is_ok());
  EXPECT_EQ(job.final_status().code(), Errc::kIoError);
}

TEST(JobDescriptionValidate, CatchesBadFields) {
  JobDescription description;
  description.executable = "x";
  EXPECT_TRUE(description.validate().is_ok());
  description.total_cpu_count = 0;
  EXPECT_EQ(description.validate().code(), Errc::kInvalidArgument);
  description.total_cpu_count = 1;
  description.wall_time_limit = -5;
  EXPECT_EQ(description.validate().code(), Errc::kInvalidArgument);
  JobDescription empty;
  EXPECT_EQ(empty.validate().code(), Errc::kInvalidArgument);
}

// ----------------------------------------------------------- local adaptor

TEST(LocalAdaptor, EnforcesCoreBudgetFifo) {
  // Six one-core containers on two cores: two start, the rest queue in
  // submission order, and each completion starts exactly the next one.
  LocalAdaptor adaptor(2);
  std::vector<JobPtr> jobs;
  for (int i = 0; i < 6; ++i) {
    JobDescription description;
    description.name = "container-" + std::to_string(i);
    description.executable = "entk-agent";
    auto job = adaptor.submit(std::move(description));
    ASSERT_TRUE(job.ok());
    jobs.push_back(job.take());
  }
  auto running = [&jobs] {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i]->state() == JobState::kRunning) indices.push_back(i);
    }
    return indices;
  };
  EXPECT_EQ(running(), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(adaptor.free_cores(), 0);
  for (std::size_t finished = 0; finished < jobs.size(); ++finished) {
    ASSERT_TRUE(adaptor.complete(*jobs[finished]).is_ok());
    EXPECT_EQ(jobs[finished]->state(), JobState::kDone);
    std::vector<std::size_t> expected;
    for (std::size_t i = finished + 1;
         i < std::min(finished + 3, jobs.size()); ++i) {
      expected.push_back(i);
    }
    EXPECT_EQ(running(), expected) << "after completing job " << finished;
  }
  EXPECT_EQ(adaptor.free_cores(), 2);
}

TEST(LocalAdaptor, ContainerJobRunsUntilCompleted) {
  LocalAdaptor adaptor(4);
  JobDescription description;
  description.name = "container";
  description.executable = "entk-agent";
  description.total_cpu_count = 3;
  auto job = adaptor.submit(std::move(description));
  ASSERT_TRUE(job.ok());
  // Starts immediately (enough free cores), holds them.
  EXPECT_EQ(job.value()->state(), JobState::kRunning);
  EXPECT_EQ(adaptor.free_cores(), 1);
  ASSERT_TRUE(adaptor.complete(*job.value()).is_ok());
  EXPECT_EQ(job.value()->state(), JobState::kDone);
  EXPECT_EQ(adaptor.free_cores(), 4);
}

TEST(LocalAdaptor, OversizedJobRejected) {
  LocalAdaptor adaptor(2);
  JobDescription description;
  description.executable = "x";
  description.total_cpu_count = 3;
  EXPECT_EQ(adaptor.submit(std::move(description)).status().code(),
            Errc::kResourceExhausted);
}

TEST(LocalAdaptor, CancelWaitingContainer) {
  LocalAdaptor adaptor(2);
  JobDescription hold;
  hold.executable = "entk-agent";
  hold.total_cpu_count = 2;
  auto holder = adaptor.submit(std::move(hold));
  ASSERT_TRUE(holder.ok());

  JobDescription waiting;
  waiting.executable = "entk-agent";
  waiting.total_cpu_count = 1;
  auto waiter = adaptor.submit(std::move(waiting));
  ASSERT_TRUE(waiter.ok());
  EXPECT_EQ(waiter.value()->state(), JobState::kPending);
  ASSERT_TRUE(adaptor.cancel(*waiter.value()).is_ok());
  EXPECT_EQ(waiter.value()->state(), JobState::kCanceled);
  ASSERT_TRUE(adaptor.complete(*holder.value()).is_ok());
}

TEST(LocalAdaptor, JobWaitTimesOut) {
  LocalAdaptor adaptor(1);
  JobDescription container;
  container.executable = "entk-agent";
  auto job = adaptor.submit(std::move(container));
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job.value()->wait(0.05).code(), Errc::kTimedOut);
  ASSERT_TRUE(adaptor.complete(*job.value()).is_ok());
}

// ------------------------------------------------------- sim batch adaptor

class SimAdaptorTest : public ::testing::Test {
 protected:
  SimAdaptorTest()
      : cluster_(sim::localhost_profile()),
        batch_(engine_, cluster_),
        adaptor_(engine_, batch_, "localhost") {}

  sim::Engine engine_;
  sim::Cluster cluster_;
  sim::BatchQueue batch_;
  SimBatchAdaptor adaptor_;
};

TEST_F(SimAdaptorTest, AllocationVisibleWhileRunning) {
  JobDescription description;
  description.executable = "solver";
  description.total_cpu_count = 8;
  description.wall_time_limit = 1000.0;
  auto job = adaptor_.submit(std::move(description));
  ASSERT_TRUE(job.ok());
  engine_.run_until(1.0);
  ASSERT_EQ(job.value()->state(), JobState::kRunning);
  const auto allocation = job.value()->allocation();
  ASSERT_TRUE(allocation.has_value());
  EXPECT_EQ(allocation->total_cores(), 8);
  ASSERT_TRUE(adaptor_.complete(*job.value()).is_ok());
  engine_.run();
  EXPECT_EQ(job.value()->state(), JobState::kDone);
  EXPECT_FALSE(job.value()->allocation().has_value());
  EXPECT_EQ(cluster_.free_cores(), cluster_.total_cores());
}

TEST_F(SimAdaptorTest, WalltimeExpiryFailsTheJob) {
  JobDescription description;
  description.executable = "solver";
  description.total_cpu_count = 1;
  description.wall_time_limit = 5.0;  // owner never completes it
  auto job = adaptor_.submit(std::move(description));
  ASSERT_TRUE(job.ok());
  engine_.run();
  EXPECT_EQ(job.value()->state(), JobState::kFailed);
  EXPECT_EQ(job.value()->final_status().code(), Errc::kTimedOut);
}

TEST_F(SimAdaptorTest, CancelPropagates) {
  JobDescription description;
  description.executable = "solver";
  description.total_cpu_count = 1;
  description.wall_time_limit = 1000.0;
  auto job = adaptor_.submit(std::move(description));
  ASSERT_TRUE(job.ok());
  engine_.run_until(1.0);
  ASSERT_EQ(job.value()->state(), JobState::kRunning);
  ASSERT_TRUE(adaptor_.cancel(*job.value()).is_ok());
  EXPECT_EQ(job.value()->state(), JobState::kCanceled);
  // Cancelling again: the job is no longer active on the adaptor.
  EXPECT_EQ(adaptor_.cancel(*job.value()).code(), Errc::kNotFound);
}

TEST_F(SimAdaptorTest, CompleteEndsOwnerDrivenJob) {
  JobDescription description;
  description.executable = "entk-agent";
  description.total_cpu_count = 2;
  description.wall_time_limit = 1000.0;
  auto job = adaptor_.submit(std::move(description));
  ASSERT_TRUE(job.ok());
  engine_.run_until(1.0);
  ASSERT_EQ(job.value()->state(), JobState::kRunning);
  ASSERT_TRUE(adaptor_.complete(*job.value()).is_ok());
  EXPECT_EQ(job.value()->state(), JobState::kDone);
  EXPECT_EQ(cluster_.free_cores(), cluster_.total_cores());
}

TEST_F(SimAdaptorTest, BackendNameIncludesMachine) {
  EXPECT_EQ(adaptor_.backend_name(), "sim:localhost");
}

}  // namespace
}  // namespace entk::saga

// Unit tests for the discrete-event engine, cluster and batch queue.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "sim/batch.hpp"
#include "sim/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"

namespace entk::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(Engine, DispatchesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule(3.0, [&] { order.push_back(3); });
  engine.schedule(1.0, [&] { order.push_back(1); });
  engine.schedule(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(Engine, SimultaneousEventsFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.schedule(1.0, [&, i] { order.push_back(i); });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, EventsMayScheduleEvents) {
  Engine engine;
  double fired_at = -1.0;
  engine.schedule(1.0, [&] {
    engine.schedule(2.0, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

TEST(Engine, CancelPreventsDispatch) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));  // second cancel is a no-op
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelUnknownIdReturnsFalse) {
  Engine engine;
  EXPECT_FALSE(engine.cancel(9999));
}

TEST(Engine, RunUntilAdvancesClockPastDrainedQueue) {
  Engine engine;
  int fired = 0;
  engine.schedule(1.0, [&] { ++fired; });
  engine.schedule(5.0, [&] { ++fired; });
  engine.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
  engine.run_until(10.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine engine;
  engine.schedule(1.0, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(0.5, [] {}), std::logic_error);
  EXPECT_THROW(engine.schedule(-1.0, [] {}), std::logic_error);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine engine;
  EXPECT_FALSE(engine.step());
}

// ---------------------------------------------------------------- machines

TEST(Engine, CancelChurnDoesNotBloat) {
  // The cancelled-event regression the pool rework fixed: cancelled
  // timers used to linger in the queue (and its side index) until
  // popped, so schedule/cancel churn — the agent's walltime-watchdog
  // idiom — grew memory without bound. With true O(log n) removal and
  // slot recycling, 100k churned timers must leave nothing pending and
  // the slab must stay at the size of the outstanding window.
  Engine engine;
  constexpr std::size_t kTimers = 100000;
  constexpr std::size_t kWindow = 1000;
  std::deque<EventId> outstanding;
  for (std::size_t i = 0; i < kTimers; ++i) {
    outstanding.push_back(engine.schedule(3600.0, [] {}));
    if (outstanding.size() > kWindow) {
      EXPECT_TRUE(engine.cancel(outstanding.front()));
      outstanding.pop_front();
    }
  }
  while (!outstanding.empty()) {
    EXPECT_TRUE(engine.cancel(outstanding.front()));
    outstanding.pop_front();
  }
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_LE(engine.pool_slots(), kWindow + 1);

  // The engine still dispatches normally after the churn.
  bool fired = false;
  engine.schedule(1.0, [&] { fired = true; });
  engine.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(engine.dispatched_events(), 1u);
}

TEST(Engine, StaleHandleNeverCancelsSlotReuse) {
  Engine engine;
  bool first = false;
  const EventId a = engine.schedule(1.0, [&] { first = true; });
  engine.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(engine.cancel(a));  // already fired

  // The next schedule recycles the fired slot; the stale handle must
  // be rejected by its generation, not cancel the new occupant.
  bool second = false;
  const EventId b = engine.schedule(1.0, [&] { second = true; });
  EXPECT_EQ(engine.pool_slots(), 1u);  // same slot, new generation
  EXPECT_NE(a, b);
  EXPECT_FALSE(engine.cancel(a));
  engine.run();
  EXPECT_TRUE(second);
}

TEST(Engine, ReserveDoesNotDisturbPendingEvents) {
  Engine engine;
  std::vector<int> order;
  engine.schedule(2.0, [&] { order.push_back(2); });
  engine.schedule(1.0, [&] { order.push_back(1); });
  engine.reserve(4096);  // capacity only: no new slots materialize
  EXPECT_EQ(engine.pool_slots(), 2u);
  engine.schedule(3.0, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(MachineCatalog, HasThePaperPlatforms) {
  const auto catalog = MachineCatalog::with_builtin_profiles();
  EXPECT_TRUE(catalog.contains("xsede.comet"));
  EXPECT_TRUE(catalog.contains("xsede.stampede"));
  EXPECT_TRUE(catalog.contains("lsu.supermic"));
  EXPECT_TRUE(catalog.contains("localhost"));

  const auto comet = catalog.find("xsede.comet").value();
  EXPECT_EQ(comet.nodes, 1984);
  EXPECT_EQ(comet.cores_per_node, 24);
  EXPECT_DOUBLE_EQ(comet.memory_per_node_gb, 120.0);

  const auto stampede = catalog.find("xsede.stampede").value();
  EXPECT_EQ(stampede.nodes, 6400);
  EXPECT_EQ(stampede.cores_per_node, 16);

  const auto supermic = catalog.find("lsu.supermic").value();
  EXPECT_EQ(supermic.nodes, 360);
  EXPECT_EQ(supermic.cores_per_node, 20);
}

TEST(MachineCatalog, RejectsDuplicatesAndUnknownLookups) {
  auto catalog = MachineCatalog::with_builtin_profiles();
  EXPECT_EQ(catalog.register_machine(comet_profile()).code(),
            Errc::kAlreadyExists);
  EXPECT_EQ(catalog.find("does-not-exist").status().code(),
            Errc::kNotFound);
}

TEST(MachineProfile, ValidatesShape) {
  MachineProfile profile = localhost_profile();
  profile.nodes = 0;
  EXPECT_EQ(profile.validate().code(), Errc::kInvalidArgument);
  profile = localhost_profile();
  profile.performance_factor = -1.0;
  EXPECT_EQ(profile.validate().code(), Errc::kInvalidArgument);
  profile = localhost_profile();
  profile.staging_bandwidth_mb_per_s = 0.0;
  EXPECT_EQ(profile.validate().code(), Errc::kInvalidArgument);
}

// ----------------------------------------------------------------- cluster

TEST(Cluster, AllocatesAndReleases) {
  Cluster cluster(localhost_profile());  // 4 nodes x 8 cores
  EXPECT_EQ(cluster.total_cores(), 32);
  EXPECT_EQ(cluster.free_cores(), 32);

  auto a = cluster.allocate(10);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().total_cores(), 10);
  EXPECT_EQ(cluster.free_cores(), 22);

  auto b = cluster.allocate(22);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cluster.free_cores(), 0);

  EXPECT_EQ(cluster.allocate(1).status().code(), Errc::kResourceExhausted);

  cluster.release(a.value());
  EXPECT_EQ(cluster.free_cores(), 10);
  cluster.release(b.value());
  EXPECT_EQ(cluster.free_cores(), 32);
}

TEST(Cluster, DoubleReleaseThrows) {
  Cluster cluster(localhost_profile());
  auto a = cluster.allocate(4);
  ASSERT_TRUE(a.ok());
  cluster.release(a.value());
  EXPECT_THROW(cluster.release(a.value()), std::logic_error);
}

TEST(Cluster, RejectsNonPositiveRequests) {
  Cluster cluster(localhost_profile());
  EXPECT_EQ(cluster.allocate(0).status().code(), Errc::kInvalidArgument);
  EXPECT_EQ(cluster.allocate(-3).status().code(), Errc::kInvalidArgument);
}

TEST(Cluster, PrefersWholeNodes) {
  Cluster cluster(localhost_profile());  // 8 cores per node
  auto a = cluster.allocate(16);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a.value().slices.size(), 2u);
  for (const auto& slice : a.value().slices) {
    EXPECT_EQ(slice.cores, 8);
  }
}

// ------------------------------------------------------------- batch queue

class BatchQueueTest : public ::testing::Test {
 protected:
  BatchQueueTest() : cluster_(localhost_profile()), batch_(engine_, cluster_) {}

  Engine engine_;
  Cluster cluster_;
  BatchQueue batch_;
};

TEST_F(BatchQueueTest, JobStartsAfterQueueWaitAndCompletes) {
  bool started = false;
  BatchJobState end_state = BatchJobState::kQueued;
  BatchJobRequest request;
  request.cores = 8;
  request.walltime = 100.0;
  request.on_start = [&](const Allocation& allocation) {
    started = true;
    EXPECT_EQ(allocation.total_cores(), 8);
  };
  request.on_end = [&](BatchJobState state) { end_state = state; };
  auto id = batch_.submit(std::move(request));
  ASSERT_TRUE(id.ok());
  engine_.run_until(1.0);  // past queue wait, before the walltime
  EXPECT_TRUE(started);
  EXPECT_EQ(cluster_.free_cores(), 24);

  ASSERT_TRUE(batch_.complete(id.value()).is_ok());
  EXPECT_EQ(end_state, BatchJobState::kCompleted);
  EXPECT_EQ(cluster_.free_cores(), 32);
}

TEST_F(BatchQueueTest, WalltimeExpiryReclaimsCores) {
  BatchJobState end_state = BatchJobState::kQueued;
  BatchJobRequest request;
  request.cores = 4;
  request.walltime = 10.0;
  request.on_end = [&](BatchJobState state) { end_state = state; };
  auto id = batch_.submit(std::move(request));
  ASSERT_TRUE(id.ok());
  engine_.run();
  EXPECT_EQ(end_state, BatchJobState::kExpired);
  EXPECT_EQ(cluster_.free_cores(), 32);
  EXPECT_EQ(batch_.state(id.value()).value(), BatchJobState::kExpired);
}

TEST_F(BatchQueueTest, FifoOrderingBlocksOversizedHead) {
  // Job A takes the whole machine; job B (small) must wait behind the
  // queued job C that cannot fit (strict FIFO, no backfill).
  std::vector<char> starts;
  auto submit = [&](char tag, Count cores, Duration walltime) {
    BatchJobRequest request;
    request.cores = cores;
    request.walltime = walltime;
    request.on_start = [&starts, tag](const Allocation&) {
      starts.push_back(tag);
    };
    auto id = batch_.submit(std::move(request));
    EXPECT_TRUE(id.ok());
    return id.value();
  };
  const auto a = submit('A', 32, 50.0);
  const auto c = submit('C', 32, 50.0);
  const auto b = submit('B', 1, 50.0);
  (void)b;
  engine_.run_until(5.0);
  ASSERT_EQ(starts, (std::vector<char>{'A'}));
  ASSERT_TRUE(batch_.complete(a).is_ok());
  engine_.run_until(10.0);
  // C starts when A releases; B still behind C.
  EXPECT_EQ(starts, (std::vector<char>{'A', 'C'}));
  ASSERT_TRUE(batch_.complete(c).is_ok());
  engine_.run();
  EXPECT_EQ(starts, (std::vector<char>{'A', 'C', 'B'}));
}

TEST_F(BatchQueueTest, CancelQueuedAndRunning) {
  BatchJobState end_a = BatchJobState::kQueued;
  BatchJobRequest request_a;
  request_a.cores = 2;
  request_a.walltime = 100.0;
  request_a.on_end = [&](BatchJobState state) { end_a = state; };
  auto a = batch_.submit(std::move(request_a));
  ASSERT_TRUE(a.ok());
  // Cancel while still in queue-wait.
  ASSERT_TRUE(batch_.cancel(a.value()).is_ok());
  EXPECT_EQ(end_a, BatchJobState::kCancelled);

  BatchJobRequest request_b;
  request_b.cores = 2;
  request_b.walltime = 100.0;
  auto b = batch_.submit(std::move(request_b));
  ASSERT_TRUE(b.ok());
  engine_.run_until(5.0);
  ASSERT_EQ(batch_.state(b.value()).value(), BatchJobState::kRunning);
  ASSERT_TRUE(batch_.cancel(b.value()).is_ok());
  EXPECT_EQ(cluster_.free_cores(), 32);
  EXPECT_EQ(batch_.cancel(b.value()).code(), Errc::kFailedPrecondition);
}

TEST_F(BatchQueueTest, FinishedJobReleasesItsCallbacks) {
  // Every way a job ends drops both callbacks (and what they capture),
  // while the record still answers state() and a second complete/cancel.
  const auto sentinel = std::make_shared<int>(0);
  const auto submit = [&](Duration walltime) {
    BatchJobRequest request;
    request.cores = 2;
    request.walltime = walltime;
    request.on_start = [sentinel](const Allocation&) {};
    request.on_end = [sentinel](BatchJobState) {};
    auto id = batch_.submit(std::move(request));
    EXPECT_TRUE(id.ok());
    return id.value();
  };
  const BatchJobId completed = submit(100.0);
  const BatchJobId expired = submit(10.0);
  const BatchJobId cancelled_running = submit(100.0);
  const BatchJobId cancelled_queued = submit(100.0);
  EXPECT_EQ(sentinel.use_count(), 9);

  ASSERT_TRUE(batch_.cancel(cancelled_queued).is_ok());
  EXPECT_EQ(sentinel.use_count(), 7);
  engine_.run_until(5.0);
  ASSERT_EQ(batch_.state(completed).value(), BatchJobState::kRunning);
  ASSERT_TRUE(batch_.complete(completed).is_ok());
  EXPECT_EQ(sentinel.use_count(), 5);
  ASSERT_TRUE(batch_.cancel(cancelled_running).is_ok());
  EXPECT_EQ(sentinel.use_count(), 3);
  engine_.run();
  EXPECT_EQ(batch_.state(expired).value(), BatchJobState::kExpired);
  EXPECT_EQ(sentinel.use_count(), 1);

  EXPECT_EQ(batch_.state(completed).value(), BatchJobState::kCompleted);
  EXPECT_EQ(batch_.state(cancelled_running).value(),
            BatchJobState::kCancelled);
  EXPECT_EQ(batch_.state(cancelled_queued).value(),
            BatchJobState::kCancelled);
  for (const BatchJobId id :
       {completed, expired, cancelled_running, cancelled_queued}) {
    EXPECT_EQ(batch_.complete(id).code(), Errc::kFailedPrecondition);
    EXPECT_EQ(batch_.cancel(id).code(), Errc::kFailedPrecondition);
  }
  EXPECT_EQ(cluster_.free_cores(), 32);
}

TEST_F(BatchQueueTest, EndedJobsKeepOnlyTheirFinalState) {
  // A job's record goes when the job ends; its state() and the answers
  // to a second complete() or cancel() stay what they were.
  const auto submit = [&](Duration walltime) {
    BatchJobRequest request;
    request.cores = 4;
    request.walltime = walltime;
    request.on_end = [](BatchJobState) {};
    auto id = batch_.submit(std::move(request));
    EXPECT_TRUE(id.ok());
    return id.value();
  };
  const BatchJobId completed = submit(100.0);
  const BatchJobId expired = submit(10.0);
  const BatchJobId cancelled_running = submit(100.0);
  const BatchJobId cancelled_queued = submit(100.0);
  EXPECT_EQ(batch_.live_jobs(), 4u);
  ASSERT_TRUE(batch_.cancel(cancelled_queued).is_ok());
  EXPECT_EQ(batch_.live_jobs(), 3u);
  engine_.run_until(5.0);
  ASSERT_TRUE(batch_.complete(completed).is_ok());
  ASSERT_TRUE(batch_.cancel(cancelled_running).is_ok());
  EXPECT_EQ(batch_.live_jobs(), 1u);
  engine_.run();
  EXPECT_EQ(batch_.live_jobs(), 0u);

  const std::pair<BatchJobId, BatchJobState> ended[] = {
      {completed, BatchJobState::kCompleted},
      {expired, BatchJobState::kExpired},
      {cancelled_running, BatchJobState::kCancelled},
      {cancelled_queued, BatchJobState::kCancelled}};
  for (const auto& [id, state] : ended) {
    const std::string job = "batch job " + std::to_string(id);
    EXPECT_EQ(batch_.state(id).value(), state);
    const Status complete = batch_.complete(id);
    EXPECT_EQ(complete.code(), Errc::kFailedPrecondition);
    EXPECT_EQ(complete.message(), job + " is " +
                                      batch_job_state_name(state) +
                                      ", not running");
    const Status cancel = batch_.cancel(id);
    EXPECT_EQ(cancel.code(), Errc::kFailedPrecondition);
    EXPECT_EQ(cancel.message(), job + " already finished");
  }
  // Ids never issued stay unknown.
  for (const BatchJobId id : {BatchJobId{0}, cancelled_queued + 1}) {
    EXPECT_EQ(batch_.state(id).status().code(), Errc::kNotFound);
    EXPECT_EQ(batch_.complete(id).code(), Errc::kNotFound);
    EXPECT_EQ(batch_.cancel(id).code(), Errc::kNotFound);
  }
  EXPECT_EQ(cluster_.free_cores(), 32);
}

TEST_F(BatchQueueTest, RejectsImpossibleJobs) {
  BatchJobRequest request;
  request.cores = 33;  // machine has 32
  request.walltime = 10.0;
  EXPECT_EQ(batch_.submit(std::move(request)).status().code(),
            Errc::kResourceExhausted);
  BatchJobRequest zero;
  zero.cores = 0;
  zero.walltime = 10.0;
  EXPECT_EQ(batch_.submit(std::move(zero)).status().code(),
            Errc::kInvalidArgument);
  BatchJobRequest no_time;
  no_time.cores = 1;
  no_time.walltime = 0.0;
  EXPECT_EQ(batch_.submit(std::move(no_time)).status().code(),
            Errc::kInvalidArgument);
}

TEST_F(BatchQueueTest, QueueWaitScalesWithRequestedNodes) {
  MachineProfile profile = localhost_profile();
  profile.name = "waity";
  profile.batch_base_wait = 10.0;
  profile.batch_wait_per_node = 5.0;
  Cluster cluster(profile);
  BatchQueue batch(engine_, cluster);

  double small_started = -1.0;
  double large_started = -1.0;
  BatchJobRequest small;
  small.cores = 1;  // 1 node
  small.walltime = 1000.0;
  small.on_start = [&](const Allocation&) { small_started = engine_.now(); };
  BatchJobRequest large;
  large.cores = 24;  // 3 nodes
  large.walltime = 1000.0;
  large.on_start = [&](const Allocation&) { large_started = engine_.now(); };
  ASSERT_TRUE(batch.submit(std::move(small)).ok());
  ASSERT_TRUE(batch.submit(std::move(large)).ok());
  engine_.run_until(100.0);
  EXPECT_DOUBLE_EQ(small_started, 15.0);  // 10 + 5*1
  EXPECT_DOUBLE_EQ(large_started, 25.0);  // 10 + 5*3
}

}  // namespace
}  // namespace entk::sim

// Property tests of the in-pilot scheduler policies.
#include <gtest/gtest.h>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/uid.hpp"
#include "pilot/scheduler.hpp"

namespace entk::pilot {
namespace {

WallClock g_clock;

ComputeUnitPtr unit_with_cores(Count cores) {
  UnitDescription description;
  description.name = "sched.unit";
  description.executable = "x";
  description.cores = cores;
  description.uses_mpi = cores > 1;
  description.simulated_duration = 1.0;
  auto unit = std::make_shared<ComputeUnit>(
      next_uid("schedunit"), std::move(description), g_clock, 0);
  ENTK_CHECK(unit->advance_state(UnitState::kPendingExecution).is_ok(), "");
  return unit;
}

std::deque<ComputeUnitPtr> make_queue(const std::vector<Count>& sizes) {
  std::deque<ComputeUnitPtr> queue;
  for (const Count size : sizes) queue.push_back(unit_with_cores(size));
  return queue;
}

Count selected_cores(const std::deque<ComputeUnitPtr>& queue,
                     const std::vector<std::size_t>& picks) {
  Count total = 0;
  for (const std::size_t i : picks) {
    total += queue[i]->description().cores;
  }
  return total;
}

TEST(FifoScheduler, StopsAtFirstUnitThatDoesNotFit) {
  FifoScheduler scheduler;
  const auto queue = make_queue({2, 8, 1, 1});
  const auto picks = scheduler.select(queue, 4);
  // Takes the 2-core head, blocks on the 8-core unit even though the
  // 1-core units behind it would fit.
  EXPECT_EQ(picks, (std::vector<std::size_t>{0}));
}

TEST(BackfillScheduler, FillsAroundOversizedUnits) {
  BackfillScheduler scheduler;
  const auto queue = make_queue({2, 8, 1, 1});
  const auto picks = scheduler.select(queue, 4);
  EXPECT_EQ(picks, (std::vector<std::size_t>{0, 2, 3}));
}

TEST(LargestFirstScheduler, PrefersBigUnits) {
  LargestFirstScheduler scheduler;
  const auto queue = make_queue({1, 4, 2, 4});
  const auto picks = scheduler.select(queue, 8);
  // 4 + 4 selected first, then nothing else fits except... budget is
  // exactly consumed by the two 4-core units.
  EXPECT_EQ(selected_cores(queue, picks), 8);
  // Both 4-core units must be among the picks.
  EXPECT_NE(std::find(picks.begin(), picks.end(), 1u), picks.end());
  EXPECT_NE(std::find(picks.begin(), picks.end(), 3u), picks.end());
}

TEST(SchedulerFactory, ResolvesPolicies) {
  EXPECT_EQ(make_scheduler("fifo").value()->name(), "fifo");
  EXPECT_EQ(make_scheduler("backfill").value()->name(), "backfill");
  EXPECT_EQ(make_scheduler("largest_first").value()->name(),
            "largest_first");
  EXPECT_EQ(make_scheduler("bogus").status().code(), Errc::kNotFound);
}

// Property sweep: no policy may ever over-commit the free cores, pick
// an index twice, or pick an out-of-range index.
class SchedulerPropertyTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(SchedulerPropertyTest, NeverOverCommitsOnRandomQueues) {
  auto scheduler = make_scheduler(GetParam()).take();
  Xoshiro256 rng(0xC0FFEE);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t queue_length = 1 + rng.uniform_index(20);
    std::vector<Count> sizes;
    for (std::size_t i = 0; i < queue_length; ++i) {
      sizes.push_back(1 + static_cast<Count>(rng.uniform_index(16)));
    }
    const auto queue = make_queue(sizes);
    const Count free_cores = 1 + static_cast<Count>(rng.uniform_index(32));
    const auto picks = scheduler->select(queue, free_cores);

    EXPECT_LE(selected_cores(queue, picks), free_cores);
    std::set<std::size_t> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), picks.size()) << "duplicate picks";
    for (const std::size_t pick : picks) {
      EXPECT_LT(pick, queue.size());
    }
  }
}

TEST_P(SchedulerPropertyTest, SingleCoreUnitsAlwaysSaturate) {
  // With all-1-core units every policy must fill the machine exactly.
  auto scheduler = make_scheduler(GetParam()).take();
  const auto queue = make_queue(std::vector<Count>(12, 1));
  const auto picks = scheduler->select(queue, 8);
  EXPECT_EQ(picks.size(), 8u);
}

TEST_P(SchedulerPropertyTest, EmptyQueueSelectsNothing) {
  auto scheduler = make_scheduler(GetParam()).take();
  EXPECT_TRUE(scheduler->select({}, 16).empty());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SchedulerPropertyTest,
                         ::testing::Values("fifo", "backfill",
                                           "largest_first"));

}  // namespace
}  // namespace entk::pilot

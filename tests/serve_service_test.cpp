// entk-serve Service semantics: admission control (bounded queue ->
// REJECTED), per-tenant quotas (session caps hold under racing
// demand), weighted fair-share (contended dispatch tracks weights),
// cancellation (queued and running), the full STATUS lifecycle, and
// the protocol entry point end to end. The serve lock order
// (kServeMailbox before kServeRegistry before everything the runtime
// takes) is pinned by forked-abort tests under ENTK_LOCK_RANK_CHECK.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_rank.hpp"
#include "common/mutex.hpp"
#include "core/workload_file.hpp"
#include "obs/metrics.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "serve_test_util.hpp"

#if defined(ENTK_LOCK_RANK_CHECK)
#include <csignal>
#include <cstdio>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace entk::serve {
namespace {

core::WorkloadSpec bag_spec(std::size_t units, Count cores = 2) {
  std::string text = "backend = sim\nmachine = localhost\ncores = " +
                     std::to_string(cores) +
                     "\nruntime = 36000\npattern = bag\ntasks = " +
                     std::to_string(units) +
                     "\n\n[task]\nkernel = misc.sleep\nduration = 1\n";
  auto spec = core::parse_workload(text);
  EXPECT_TRUE(spec.ok()) << spec.status().to_string();
  return spec.take();
}

/// A service plus a drive thread, torn down in order.
struct Driven {
  std::unique_ptr<Service> service;
  std::thread driver;

  explicit Driven(ServiceConfig config) {
    auto created = Service::create(std::move(config));
    EXPECT_TRUE(created.ok()) << created.status().to_string();
    service = created.take();
    driver = std::thread([this] { service->run(); });
  }
  ~Driven() {
    service->shutdown();
    driver.join();
  }
};

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

TEST(ServeService, QueueBoundShedsWithResourceExhausted) {
  ServiceConfig config;
  config.queue_capacity = 2;
  auto service = Service::create(config);
  ASSERT_TRUE(service.ok());
  // No drive thread: everything stays QUEUED, so the bound is exact.
  ASSERT_TRUE(service.value()->submit("alice", bag_spec(4)).ok());
  ASSERT_TRUE(service.value()->submit("alice", bag_spec(4)).ok());
  auto third = service.value()->submit("alice", bag_spec(4));
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), Errc::kResourceExhausted);

  const ServiceStats stats = service.value()->stats();
  EXPECT_EQ(stats.queue_depth, 2u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].rejected, 1u);
  service.value()->shutdown();
  service.value()->run();  // drains the shed queue and returns
}

TEST(ServeService, ZeroSessionCapOrQuantumIsRejected) {
  // Both default to a real value (4 and 8); 0 admits or credits nothing
  // and is refused like a 0 queue capacity.
  const ServiceConfig defaults;
  EXPECT_EQ(defaults.max_active_sessions, 4u);
  EXPECT_EQ(defaults.drr_quantum, 8u);
  ServiceConfig no_sessions;
  no_sessions.max_active_sessions = 0;
  EXPECT_EQ(Service::create(no_sessions).status().code(),
            Errc::kInvalidArgument);
  ServiceConfig no_quantum;
  no_quantum.drr_quantum = 0;
  EXPECT_EQ(Service::create(no_quantum).status().code(),
            Errc::kInvalidArgument);
  auto service = Service::create(defaults);
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  EXPECT_EQ(service.value()->stats().max_active_sessions, 4u);
}

TEST(ServeService, SubmitValidatesSpecAndTenant) {
  auto service = Service::create(ServiceConfig{});
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(service.value()->submit("no spaces", bag_spec(4)).status().code(),
            Errc::kInvalidArgument);
  EXPECT_EQ(service.value()->submit("", bag_spec(4)).status().code(),
            Errc::kInvalidArgument);
  core::WorkloadSpec wrong_machine = bag_spec(4);
  wrong_machine.machine = "xsede.comet";
  EXPECT_EQ(service.value()->submit("a", wrong_machine).status().code(),
            Errc::kInvalidArgument);
  core::WorkloadSpec too_wide = bag_spec(4);
  too_wide.cores = 100000;
  EXPECT_EQ(service.value()->submit("a", too_wide).status().code(),
            Errc::kInvalidArgument);
  service.value()->shutdown();
  service.value()->run();
}

TEST(ServeService, TenantWeightTooSmallToBankAUnitIsRejected) {
  // A tenant banks at most weight x drr_quantum x 4 credit and a flush
  // dispatches whole units of it, so below 1 it would never dispatch.
  TenantConfig tiny;
  tiny.weight = 0.01;  // 0.01 x 8 x 4 = 0.32
  ServiceConfig tiny_default;
  tiny_default.default_tenant = tiny;
  EXPECT_EQ(Service::create(tiny_default).status().code(),
            Errc::kInvalidArgument);
  Driven driven(ServiceConfig{});  // drr_quantum 8
  EXPECT_EQ(driven.service->configure_tenant("tiny", tiny).code(),
            Errc::kInvalidArgument);
  TenantConfig floor;
  floor.weight = 1.0 / 32;  // 1/32 x 8 x 4 = 1.0
  ASSERT_TRUE(driven.service->configure_tenant("floor", floor).is_ok());
  auto id = driven.service->submit("floor", bag_spec(4));
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  driven.service->drain();
  auto status = driven.service->status(id.value());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().state, WorkloadState::kDone)
      << status.value().outcome.to_string();
  EXPECT_EQ(status.value().units_done, 4u);
}

// ---------------------------------------------------------------------
// Lifecycle and cancellation
// ---------------------------------------------------------------------

TEST(ServeService, WorkloadRunsToDoneWithFullStatusLifecycle) {
  Driven driven(ServiceConfig{});
  auto id = driven.service->submit("alice", bag_spec(8), "opt-run");
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  driven.service->drain();

  auto status = driven.service->status(id.value());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().state, WorkloadState::kDone);
  EXPECT_EQ(status.value().tenant, "alice");
  EXPECT_EQ(status.value().label, "opt-run");
  EXPECT_EQ(status.value().session,
            "serve.alice." + std::to_string(id.value()));
  EXPECT_EQ(status.value().dispatched_units, 8u);
  EXPECT_EQ(status.value().units_done, 8u);
  EXPECT_GE(status.value().submit_latency_seconds, 0.0);
  EXPECT_TRUE(status.value().outcome.is_ok());

  auto results = driven.service->results(id.value());
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results.value().units_done, 8u);

  EXPECT_EQ(driven.service->status(9999).status().code(), Errc::kNotFound);
}

TEST(ServeService, ResultsBeforeTerminalIsFailedPrecondition) {
  ServiceConfig config;
  auto service = Service::create(config);
  ASSERT_TRUE(service.ok());
  auto id = service.value()->submit("alice", bag_spec(4));
  ASSERT_TRUE(id.ok());
  // No drive thread: still QUEUED.
  auto status = service.value()->status(id.value());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().state, WorkloadState::kQueued);
  EXPECT_LT(status.value().submit_latency_seconds, 0.0);
  EXPECT_EQ(service.value()->results(id.value()).status().code(),
            Errc::kFailedPrecondition);
  service.value()->shutdown();
  service.value()->run();
}

TEST(ServeService, CancelQueuedIsSynchronous) {
  auto service = Service::create(ServiceConfig{});
  ASSERT_TRUE(service.ok());
  auto id = service.value()->submit("alice", bag_spec(4));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.value()->cancel(id.value()).is_ok());
  auto status = service.value()->status(id.value());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().state, WorkloadState::kCancelled);
  // Terminal: a second cancel refuses.
  EXPECT_EQ(service.value()->cancel(id.value()).code(),
            Errc::kFailedPrecondition);
  EXPECT_EQ(service.value()->stats().cancelled, 1u);
  service.value()->shutdown();
  service.value()->run();
}

TEST(ServeService, CancelRunningAbortsInFlightUnits) {
  ServiceConfig config;
  // A one-unit in-flight cap turns the big bag into a long trickle:
  // the workload stays RUNNING for thousands of drive passes, so the
  // cancel below lands mid-run deterministically.
  TenantConfig slow;
  slow.max_inflight_units = 1;
  config.default_tenant = slow;
  Driven driven(std::move(config));
  auto id = driven.service->submit("alice", bag_spec(20000));
  ASSERT_TRUE(id.ok());
  while (true) {
    auto status = driven.service->status(id.value());
    ASSERT_TRUE(status.ok());
    if (status.value().state == WorkloadState::kRunning &&
        status.value().dispatched_units > 0) {
      break;
    }
    std::this_thread::yield();
  }
  ASSERT_TRUE(driven.service->cancel(id.value()).is_ok());
  driven.service->drain();
  auto results = driven.service->results(id.value());
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results.value().state, WorkloadState::kCancelled);
  EXPECT_EQ(results.value().outcome.code(), Errc::kCancelled);
  // Far fewer than the full bag actually dispatched.
  EXPECT_LT(results.value().dispatched_units, 20000u);
  EXPECT_EQ(driven.service->stats().cancelled, 1u);
}

TEST(ServeService, ShutdownShedsQueuedAndAbortsRunning) {
  ServiceConfig config;
  TenantConfig slow;
  slow.max_inflight_units = 1;
  config.default_tenant = slow;
  config.max_active_sessions = 1;
  Driven driven(std::move(config));
  auto running = driven.service->submit("alice", bag_spec(20000));
  auto queued = driven.service->submit("alice", bag_spec(4));
  ASSERT_TRUE(running.ok());
  ASSERT_TRUE(queued.ok());
  while (true) {
    auto status = driven.service->status(running.value());
    ASSERT_TRUE(status.ok());
    if (status.value().state == WorkloadState::kRunning) break;
    std::this_thread::yield();
  }
  driven.service->shutdown();
  driven.driver.join();
  driven.driver = std::thread([] {});  // destructor-friendly stub
  EXPECT_EQ(driven.service->status(running.value()).value().state,
            WorkloadState::kCancelled);
  EXPECT_EQ(driven.service->status(queued.value()).value().state,
            WorkloadState::kCancelled);
  // Shut down: further submissions are UNAVAILABLE.
  EXPECT_EQ(driven.service->submit("alice", bag_spec(4)).status().code(),
            Errc::kCancelled);
}

// ---------------------------------------------------------------------
// Quotas and fair-share
// ---------------------------------------------------------------------

TEST(ServeService, TenantSessionQuotaCapsConcurrency) {
  ServiceConfig config;
  config.max_active_sessions = 8;
  Driven driven(std::move(config));
  TenantConfig quota;
  quota.max_sessions = 1;
  ASSERT_TRUE(driven.service->configure_tenant("alice", quota).is_ok());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = driven.service->submit("alice", bag_spec(16));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  driven.service->drain();
  const ServiceStats stats = driven.service->stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  // The cap held at every instant, yet everything still completed.
  EXPECT_EQ(stats.tenants[0].peak_active_sessions, 1u);
  EXPECT_EQ(stats.completed, 6u);
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(driven.service->status(id).value().state,
              WorkloadState::kDone);
  }
}

TEST(ServeService, WeightedFairShareTracksWeightsUnderContention) {
  ServiceConfig config;
  config.max_active_sessions = 8;
  config.drr_quantum = 4;
  // A tight global budget keeps both tenants contending all run.
  config.max_inflight_total = 16;
  Driven driven(std::move(config));
  TenantConfig light;
  light.weight = 1.0;
  TenantConfig heavy;
  heavy.weight = 3.0;
  ASSERT_TRUE(driven.service->configure_tenant("light", light).is_ok());
  ASSERT_TRUE(driven.service->configure_tenant("heavy", heavy).is_ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(driven.service->submit("light", bag_spec(64)).ok());
    ASSERT_TRUE(driven.service->submit("heavy", bag_spec(64)).ok());
  }
  driven.service->drain();
  const ServiceStats stats = driven.service->stats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  double contended_heavy = 0.0;
  double contended_light = 0.0;
  for (const TenantStats& tenant : stats.tenants) {
    if (tenant.name == "heavy") {
      contended_heavy =
          static_cast<double>(tenant.contended_dispatched_units);
    } else {
      contended_light =
          static_cast<double>(tenant.contended_dispatched_units);
    }
  }
  ASSERT_GT(contended_light, 0.0);
  ASSERT_GT(contended_heavy, 0.0);
  // 3x the weight -> ~3x the contended dispatch (round granularity
  // and the drain tail leave a wide but meaningful band).
  const double ratio = contended_heavy / contended_light;
  EXPECT_GT(ratio, 1.8) << "heavy " << contended_heavy << " light "
                        << contended_light;
  EXPECT_LT(ratio, 4.5) << "heavy " << contended_heavy << " light "
                        << contended_light;
  EXPECT_EQ(stats.completed, 16u);
}

/// Queues `mix` on `service`, then runs the drive thread until it
/// drains; the service's stats.
ServiceStats drain_queued(Service& service,
                          const std::vector<mix_test::MixWorkload>& mix) {
  EXPECT_TRUE(mix_test::submit_mix(service, mix));
  std::thread driver([&service] { service.run(); });
  service.drain();
  ServiceStats stats = service.stats();
  service.shutdown();
  driver.join();
  return stats;
}

struct Tally {
  const char* tenant;
  std::uint64_t dispatched;
  std::uint64_t contended;
};

/// Tenants in name order.
void expect_tallies(const ServiceStats& stats, const Tally (&expected)[4]) {
  ASSERT_EQ(stats.tenants.size(), std::size(expected));
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    const TenantStats& tenant = stats.tenants[i];
    EXPECT_EQ(tenant.name, expected[i].tenant);
    EXPECT_EQ(tenant.dispatched_units, expected[i].dispatched) << tenant.name;
    EXPECT_EQ(tenant.contended_dispatched_units, expected[i].contended)
        << tenant.name;
  }
}

// The drive loop's dispatch decisions, pinned: each tenant's dispatched
// and contended-dispatched units for a queued mix, as the loop that
// advanced every running session after every engine step recorded
// them. A change to when a deficit round-robin round runs, the order it
// serves tenants and workloads in, or the credit and headroom it grants
// moves the contended tallies.

TEST(ServeService, QueuedContendedMixDispatchesAsBefore) {
  std::unique_ptr<Service> service = mix_test::make_mix_service();
  ASSERT_NE(service, nullptr);
  const ServiceStats stats =
      drain_queued(*service, mix_test::contended_mix(1, 256));
  const Tally expected[] = {
      {"alpha", 381, 75},
      {"beta", 569, 66},
      {"delta", 488, 61},
      {"gamma", 485, 71},
  };
  expect_tallies(stats, expected);
  EXPECT_EQ(stats.completed, 256u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ServeService, FractionalCreditMixDispatchesAsBefore) {
  // At quantum 1 these weights bank less than a unit of credit per
  // round, so under binding quotas rounds stall: one that dispatched
  // nothing repeated at every engine step, banking credit, until a
  // tenant with headroom held a whole unit. The tallies pin when those
  // repeats dispatch.
  constexpr mix_test::MixTenants kFractional = {
      {"alpha", 0.3, 6},
      {"beta", 0.45, 8},
      {"gamma", 0.7, 12},
      {"delta", 1.3, 16},
  };
  std::unique_ptr<Service> service =
      mix_test::make_mix_service(kFractional, 1);
  ASSERT_NE(service, nullptr);
  const ServiceStats stats =
      drain_queued(*service, mix_test::contended_mix(5, 200));
  const Tally expected[] = {
      {"alpha", 397, 323},
      {"beta", 422, 386},
      {"delta", 326, 319},
      {"gamma", 375, 353},
  };
  expect_tallies(stats, expected);
  EXPECT_EQ(stats.completed, 200u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ServeService, TimedOutMixDispatchesAsRecorded) {
  // Every task carries an execution timeout, and some first attempts
  // hang until it kills them. A finished unit's release cancels its
  // leftover timeout event, which would otherwise fire as a no-op engine
  // step, and a stalled round repeats once per step, so the contended
  // tallies differ from those of a loop that steps through such events
  // (41, 28, 55 and 30). Recorded with the cancel in place.
  std::unique_ptr<Service> service = mix_test::make_mix_service();
  ASSERT_NE(service, nullptr);
  const ServiceStats stats =
      drain_queued(*service, mix_test::contended_mix(3, 200, true));
  const Tally expected[] = {
      {"alpha", 337, 42},
      {"beta", 368, 26},
      {"delta", 390, 47},
      {"gamma", 384, 28},
  };
  expect_tallies(stats, expected);
  EXPECT_EQ(stats.completed, 200u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ServeService, DrainNeverReturnsWhileAWorkloadIsStarting) {
  // The drive thread takes a workload off the queue, then creates,
  // allocates and starts its session. A drain() that lands between the
  // two must still see the workload as running, or it returns early
  // and the STATUS below reads a workload that is not DONE yet. Waiting
  // for the queue to empty first aims each drain() at that window.
  Driven driven(ServiceConfig{});
  // A wide bag keeps start_run() (the graph compile) long enough for
  // the window to show.
  constexpr std::size_t kUnits = 256;
  for (int cycle = 0; cycle < 200; ++cycle) {
    auto id = driven.service->submit("alice", bag_spec(kUnits));
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    while (driven.service->stats().queue_depth != 0) {
      std::this_thread::yield();
    }
    driven.service->drain();
    auto status = driven.service->status(id.value());
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(status.value().state, WorkloadState::kDone)
        << "drain() returned before workload " << id.value()
        << " finished (cycle " << cycle << ")";
    EXPECT_EQ(status.value().units_done, kUnits);
  }
}

TEST(ServeService, CancelWhileAWorkloadStartsCancelsItAndFreesItsCores) {
  // A workload the drive thread has taken off the queue reads QUEUED
  // until its session has started, and starting reads its spec. A
  // CANCEL in that window must reach the drive thread like a running
  // workload's: the workload ends CANCELLED and gives back the cores
  // it holds. Waiting for the queue to empty first aims each cancel at
  // that window.
  ServiceConfig config;
  // A one-unit in-flight cap keeps each run going for thousands of
  // engine steps, long after the cancel lands.
  config.default_tenant.max_inflight_units = 1;
  Driven driven(std::move(config));
  Service& service = *driven.service;
  const Count machine = service.machine_cores();
  // The whole machine each time: cores left committed by one workload
  // would keep the next queued.
  const auto admitted = [&service] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (service.stats().queue_depth != 0) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  constexpr std::uint64_t kCycles = 20;
  for (std::uint64_t cycle = 0; cycle < kCycles; ++cycle) {
    auto id = service.submit("alice", bag_spec(20000, machine));
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    ASSERT_TRUE(admitted()) << "cycle " << cycle;
    const Status cancelled = service.cancel(id.value());
    ASSERT_TRUE(cancelled.is_ok()) << cancelled.to_string();
    service.drain();
    auto results = service.results(id.value());
    ASSERT_TRUE(results.ok()) << results.status().to_string();
    ASSERT_EQ(results.value().state, WorkloadState::kCancelled)
        << "cycle " << cycle << ": " << results.value().outcome.to_string();
  }
  auto last = service.submit("alice", bag_spec(4, machine));
  ASSERT_TRUE(last.ok());
  ASSERT_TRUE(admitted());
  service.drain();
  auto done = service.results(last.value());
  ASSERT_TRUE(done.ok()) << done.status().to_string();
  EXPECT_EQ(done.value().state, WorkloadState::kDone);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, kCycles);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(ServeService, WorkloadThatFailsToStartLeavesNothingRunning) {
  // start_workload()'s failure paths must give back the running count
  // the pop took, or this drain() never returns.
  Driven driven(ServiceConfig{});
  // An unknown scheduler policy passes SUBMIT and fails allocate().
  core::WorkloadSpec spec = bag_spec(4);
  spec.scheduler = "no-such-policy";
  auto id = driven.service->submit("alice", spec);
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  driven.service->drain();
  auto status = driven.service->status(id.value());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().state, WorkloadState::kFailed);
  EXPECT_NE(status.value().outcome.message().find("no-such-policy"),
            std::string::npos)
      << status.value().outcome.to_string();
  EXPECT_EQ(driven.service->stats().active_sessions, 0u);
}

TEST(ServeService, NonNumericKernelArgumentFailsOnlyItsWorkload) {
  // Kernel arguments stay text until a kernel binds them on the drive
  // thread; a malformed one must fail its own workload, not the daemon.
  Driven driven(ServiceConfig{});
  core::WorkloadSpec corrupted = bag_spec(4);
  corrupted.sections.at("task").set("duration", "3p");
  auto bad = driven.service->submit("alice", corrupted);
  ASSERT_TRUE(bad.ok()) << bad.status().to_string();
  driven.service->drain();
  auto failed = driven.service->status(bad.value());
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(failed.value().state, WorkloadState::kFailed);
  EXPECT_EQ(failed.value().outcome.code(), Errc::kInvalidArgument)
      << failed.value().outcome.to_string();
  EXPECT_NE(failed.value().outcome.message().find("3p"), std::string::npos)
      << failed.value().outcome.to_string();

  auto good = driven.service->submit("bob", bag_spec(4));
  ASSERT_TRUE(good.ok()) << good.status().to_string();
  driven.service->drain();
  auto done = driven.service->status(good.value());
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done.value().state, WorkloadState::kDone);
  EXPECT_EQ(done.value().units_done, 4u);
}

// ---------------------------------------------------------------------
// Protocol entry point (socket-free)
// ---------------------------------------------------------------------

TEST(ServeService, HandleLineDrivesTheFullVerbSet) {
  Driven driven(ServiceConfig{});
  const std::string submit_line =
      R"({"verb":"SUBMIT","tenant":"alice","name":"opt",)"
      R"("workload":"backend = sim\nmachine = localhost\ncores = 2\n)"
      R"(runtime = 600\npattern = bag\ntasks = 4\n\n[task]\n)"
      R"(kernel = misc.sleep\nduration = 1\n"})";
  auto submit = Json::parse(driven.service->handle_line(submit_line));
  ASSERT_TRUE(submit.ok());
  ASSERT_TRUE(submit.value().find("ok")->as_bool())
      << driven.service->handle_line(submit_line);
  const auto id = static_cast<std::uint64_t>(
      submit.value().find("id")->as_number());
  driven.service->drain();

  auto status = Json::parse(driven.service->handle_line(
      R"({"verb":"STATUS","id":)" + std::to_string(id) + "}"));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().find("state")->as_string(), "DONE");
  EXPECT_EQ(status.value().find("units_done")->as_number(), 4.0);

  auto results = Json::parse(driven.service->handle_line(
      R"({"verb":"RESULTS","id":)" + std::to_string(id) + "}"));
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results.value().find("outcome")->as_string(), "ok");

  auto stats = Json::parse(
      driven.service->handle_line(R"({"verb":"STATS"})"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().find("completed")->as_number(), 1.0);
  ASSERT_TRUE(stats.value().find("tenants")->is_array());

  auto missing = Json::parse(
      driven.service->handle_line(R"({"verb":"CANCEL","id":999})"));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().find("error")->as_string(), "NOT_FOUND");

  auto bad_workload = Json::parse(driven.service->handle_line(
      R"({"verb":"SUBMIT","tenant":"a","workload":"not a workload"})"));
  ASSERT_TRUE(bad_workload.ok());
  EXPECT_EQ(bad_workload.value().find("error")->as_string(),
            "BAD_REQUEST");

  auto shutdown = Json::parse(
      driven.service->handle_line(R"({"verb":"SHUTDOWN"})"));
  ASSERT_TRUE(shutdown.ok());
  EXPECT_EQ(shutdown.value().find("state")->as_string(),
            "SHUTTING_DOWN");
  auto late = Json::parse(driven.service->handle_line(submit_line));
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late.value().find("error")->as_string(), "UNAVAILABLE");
}

// ---------------------------------------------------------------------
// Serve lock order
// ---------------------------------------------------------------------

TEST(ServeLockRank, ServiceMutexesAreOutermost) {
  // The two service locks sit below every runtime rank, mailbox
  // before registry; entk-analyze --locks checks the code against
  // this table, and these assertions pin the table itself.
  EXPECT_LT(static_cast<int>(LockRank::kServeMailbox),
            static_cast<int>(LockRank::kServeRegistry));
  EXPECT_LT(static_cast<int>(LockRank::kServeRegistry),
            static_cast<int>(LockRank::kRuntime));
  EXPECT_LT(static_cast<int>(LockRank::kServeRegistry),
            static_cast<int>(LockRank::kGraphExecutor));
  EXPECT_LT(static_cast<int>(LockRank::kServeRegistry),
            static_cast<int>(LockRank::kUnitManager));
  EXPECT_STREQ(lock_rank_name(LockRank::kServeMailbox), "kServeMailbox");
  EXPECT_STREQ(lock_rank_name(LockRank::kServeRegistry),
               "kServeRegistry");
}

#if defined(ENTK_LOCK_RANK_CHECK)

template <typename Body>
int exit_status_of(Body body) {
  const pid_t pid = fork();
  if (pid == 0) {
    std::freopen("/dev/null", "w", stderr);
    body();
    _exit(0);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

TEST(ServeLockRank, MailboxThenRegistryPasses) {
  Mutex mailbox(LockRank::kServeMailbox);
  Mutex registry(LockRank::kServeRegistry);
  MutexLock outer(mailbox);
  MutexLock inner(registry);
  EXPECT_EQ(lockrank::held_count(), 2);
}

TEST(ServeLockRank, RegistryThenMailboxAborts) {
  const int status = exit_status_of([] {
    Mutex mailbox(LockRank::kServeMailbox);
    Mutex registry(LockRank::kServeRegistry);
    MutexLock outer(registry);
    MutexLock inner(mailbox);  // inverted service order: must abort
  });
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
}

TEST(ServeLockRank, RuntimeLockUnderRegistryPasses) {
  // The drive thread takes runtime locks while holding the registry
  // (snapshot updates mid-flush): that nesting must stay legal.
  Mutex registry(LockRank::kServeRegistry);
  Mutex graph(LockRank::kGraphExecutor);
  MutexLock outer(registry);
  MutexLock inner(graph);
  EXPECT_EQ(lockrank::held_count(), 2);
}

TEST(ServeLockRank, RegistryUnderRuntimeLockAborts) {
  const int status = exit_status_of([] {
    Mutex registry(LockRank::kServeRegistry);
    Mutex graph(LockRank::kGraphExecutor);
    MutexLock outer(graph);
    MutexLock inner(registry);  // service lock under a runtime lock
  });
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
}

#endif  // ENTK_LOCK_RANK_CHECK

}  // namespace
}  // namespace entk::serve

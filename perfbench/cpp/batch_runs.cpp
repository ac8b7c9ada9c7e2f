// One repetition and one resume of a batch workload, with the output
// checks that cannot flake: every unit DONE, unit counts as generated,
// virtual TTCs no shorter than the inputs allow, and a digest of every
// unit's final state and virtual timeline that must repeat exactly.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>

#include "ckpt/snapshot.hpp"
#include "common/uid.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using entk::core::Runtime;
using entk::core::Session;
using Units = std::vector<entk::pilot::ComputeUnitPtr>;

std::uint64_t count_not_done(const Units& units, std::uint64_t expected) {
  std::uint64_t not_done = 0;
  for (const auto& unit : units) {
    if (unit->state() != entk::pilot::UnitState::kDone) ++not_done;
  }
  if (units.size() < expected) not_done += expected - units.size();
  return not_done;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Times decode and encode of every snapshot a traced run wrote.
void time_codec(const std::string& dir, RepResult& result,
                SpanRecorder& spans, int parent) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  for (const std::string& file : files) {
    const std::string bytes = read_file(file);
    result.snapshot_bytes.push_back(static_cast<double>(bytes.size()));
    const double t0 = now_s();
    auto snapshot = entk::ckpt::decode_snapshot(bytes);
    const double t1 = now_s();
    if (!snapshot.ok()) continue;
    const std::string encoded = entk::ckpt::encode_snapshot(snapshot.value());
    const double t2 = now_s();
    spans.add("ckpt.decode", t0, t1, parent);
    spans.add("ckpt.encode", t1, t2, parent);
    result.decode_s.push_back(t1 - t0);
    result.encode_s.push_back(t2 - t1);
  }
}

std::uint64_t counter(entk::obs::WellKnownCounter id) {
  return entk::obs::Metrics::instance().counter(id).get();
}

}  // namespace

entk::sim::MachineProfile bench_machine(const std::string& name,
                                        long cores) {
  entk::sim::MachineProfile p;
  p.name = name;
  p.cores_per_node = 64;
  p.nodes = (cores + p.cores_per_node - 1) / p.cores_per_node;
  p.memory_per_node_gb = 256.0;
  p.performance_factor = 1.0;
  p.unit_spawn_overhead = 0.001;
  p.spawner_concurrency = 64;
  p.unit_launch_latency = 0.002;
  p.pilot_bootstrap = 0.1;
  p.batch_base_wait = 0.0;
  p.batch_wait_per_node = 0.0;
  p.staging_latency = 0.001;
  p.staging_bandwidth_mb_per_s = 1000.0;
  return p;
}

entk::core::TaskSpec sleep_task(double seconds) {
  entk::core::TaskSpec spec;
  spec.kernel = "misc.sleep";
  spec.args.set("duration", seconds);
  spec.cores = 1;
  return spec;
}

BatchWorkload::BatchWorkload(BatchPlan plan, Outcome& outcome)
    : plan_(std::move(plan)),
      registry_(entk::kernels::KernelRegistry::with_builtin_kernels()) {
  // Two untimed solo runs of the first session: one straight through
  // (the reference schedule), one stopped at the resume point.
  const SessionPlan& solo = plan_.sessions.front();
  const std::string dir = plan_.work_dir + "/" + plan_.name + "-resume-point";
  const std::string failure = plan_.name + " resume point: ";
  std::filesystem::remove_all(dir);
  Units reference;
  for (int pass = 0; pass < 2; ++pass) {
    entk::reset_uid_counters_with_prefix(solo.name);
    SessionMarks marks;
    auto pattern = solo.make_pattern(marks);
    entk::pilot::SimBackend backend(plan_.machine);
    Runtime runtime(backend, registry_);
    auto session = runtime.create_session({solo.name, solo.resources});
    if (!session.ok() || !session.value()->allocate().is_ok()) {
      outcome.fail(failure + "cannot allocate");
      return;
    }
    std::unique_ptr<entk::ckpt::Coordinator> coordinator;
    if (pass == 1) {
      entk::ckpt::Coordinator::Options options;
      options.directory = dir;
      options.policy.every_settled = plan_.resume_every;
      options.crash_after_snapshots = plan_.resume_at;
      coordinator = std::make_unique<entk::ckpt::Coordinator>(
          backend, *session.value(), std::move(options));
      coordinator->set_identity(pattern->name(), "");
      pattern->set_graph_run_observer(coordinator.get());
    }
    auto report = session.value()->run(*pattern);
    if (!report.ok()) {
      outcome.fail(failure + report.status().to_string());
      return;
    }
    const entk::Status& run_outcome = report.value().outcome;
    if (pass == 0) {
      outcome.check(run_outcome.is_ok(), failure + run_outcome.to_string());
      reference = report.value().units;
    } else {
      outcome.check(entk::ckpt::Coordinator::is_checkpoint_stop(run_outcome),
                    failure + "the run did not stop at its snapshot");
      resume_path_ = coordinator->last_snapshot_path();
    }
    (void)session.value()->deallocate();
  }
  auto snapshot = entk::ckpt::read_snapshot_file(resume_path_);
  if (!snapshot.ok()) {
    outcome.fail(failure + snapshot.status().to_string());
    return;
  }
  cut_ = snapshot.value().engine_now;
  solo_digest_ = unit_digest(reference);
  solo_remaining_digest_ = unit_digest(reference, cut_);
  outcome.check(solo_remaining_digest_ != solo_digest_,
                failure + "it leaves no work to resume");
}

RepResult BatchWorkload::rep(Outcome& outcome, SpanRecorder* spans,
                             int parent, bool recorder) {
  RepResult result;
  const std::size_t n = plan_.sessions.size();
  for (const SessionPlan& s : plan_.sessions) {
    entk::reset_uid_counters_with_prefix(s.name);
  }
  entk::obs::Metrics::instance().reset();
  std::vector<SessionMarks> marks(n);
  std::vector<std::unique_ptr<entk::core::ExecutionPattern>> patterns;
  for (std::size_t i = 0; i < n; ++i) {
    patterns.push_back(plan_.sessions[i].make_pattern(marks[i]));
  }
  const std::string dir = plan_.work_dir + "/" + plan_.name + "-rep";
  if (plan_.checkpoint_every > 0) std::filesystem::remove_all(dir);

  // Set-up: backend, Runtime, sessions and allocate().
  const double t_setup = now_s();
  const int setup_span = open_span(spans, "bench.setup", parent);
  auto backend = std::make_unique<entk::pilot::SimBackend>(plan_.machine);
  auto runtime = std::make_unique<Runtime>(*backend, registry_);
  std::vector<std::shared_ptr<Session>> sessions;
  for (const SessionPlan& s : plan_.sessions) {
    auto session = runtime->create_session({s.name, s.resources});
    if (!session.ok()) {
      outcome.fail("create_session: " + session.status().to_string());
      return result;
    }
    sessions.push_back(session.take());
    const double t0 = now_s();
    const entk::Status allocated = sessions.back()->allocate();
    if (spans != nullptr) {
      const double t1 = now_s();
      spans->add("core.session.allocate", t0, t1, setup_span);
      result.allocate_s += t1 - t0;
      ++result.allocate_calls;
    }
    if (!allocated.is_ok()) {
      outcome.fail("allocate: " + allocated.to_string());
      return result;
    }
  }
  result.setup_s = now_s() - t_setup;
  close_span(spans, setup_span);

  std::vector<std::unique_ptr<MarkedPattern>> wrapped;
  std::vector<const SessionMarks*> order;
  for (std::size_t i = 0; i < n; ++i) {
    wrapped.push_back(std::make_unique<MarkedPattern>(*patterns[i], marks[i]));
    order.push_back(&marks[i]);
  }
  StepProbe probe;
  if (spans != nullptr) probe.attach_before(*backend);
  // The recorder is never cleared: clear() retires its ring buffers for
  // good, so the events of this run are the growth of recorded + dropped.
  auto& trace = entk::obs::TraceRecorder::instance();
  const auto events_before = trace.stats();
  if (recorder) trace.set_enabled(true);

  // The run: from the call until the last report is back.
  const std::uint64_t allocs_entry = thread_allocs();
  const double entry = now_s();
  std::unique_ptr<entk::ckpt::Coordinator> coordinator;
  if (plan_.checkpoint_every > 0) {
    entk::ckpt::Coordinator::Options options;
    options.directory = dir;
    options.policy.every_settled = plan_.checkpoint_every;
    coordinator = std::make_unique<entk::ckpt::Coordinator>(
        *backend, *sessions.front(), std::move(options));
    coordinator->set_identity(wrapped.front()->name(), "");
  }
  std::vector<std::unique_ptr<MarkObserver>> observers;
  std::vector<Runtime::SessionRun> runs;
  for (std::size_t i = 0; i < n; ++i) {
    observers.push_back(
        std::make_unique<MarkObserver>(marks[i], coordinator.get()));
    wrapped[i]->set_graph_run_observer(observers.back().get());
    runs.push_back({sessions[i], wrapped[i].get()});
  }
  if (spans != nullptr) {
    probe.attach_after(*backend, coordinator.get(), plan_.checkpoint_every);
  }
  auto reports = runtime->run_concurrent(runs);
  const double ret = now_s();
  const std::uint64_t allocs_ret = thread_allocs();
  result.run_s = ret - entry;

  if (recorder) {
    trace.set_enabled(false);
    const auto events = trace.stats();
    result.recorder_events = events.recorded + events.dropped -
                             events_before.recorded - events_before.dropped;
  }
  for (const SessionMarks& m : marks) {
    result.first_dispatch_s.push_back(m.first_spec - entry);
  }
  if (spans != nullptr) {
    add_phase_spans(*spans, parent, entry, ret, order, probe);
    result.phases =
        split_phases(entry, allocs_entry, ret, allocs_ret, order, probe);
    result.step_s = probe.step_s;
    result.step_allocs = probe.step_allocs;
    result.hook_bracket_s = probe.bracket_s;
    result.captures = probe.captures;
    using entk::obs::WellKnownCounter;
    result.events = counter(WellKnownCounter::kEngineEventsDispatched);
    result.scheduler_cycles = counter(WellKnownCounter::kSchedulerCycles);
    result.scheduler_picks = counter(WellKnownCounter::kSchedulerPicks);
    result.frontier_batches =
        counter(WellKnownCounter::kGraphFrontierBatches);
    if (coordinator != nullptr) {
      const int codec = spans->open("bench.codec", parent);
      time_codec(dir, result, *spans, codec);
      spans->close(codec);
    }
  }

  const int verify_span = open_span(spans, "bench.verify", parent);
  for (const SessionPlan& s : plan_.sessions) result.units += s.units;
  if (!reports.ok() || reports.value().size() != n) {
    outcome.fail(plan_.name + " run: " + reports.status().to_string());
    result.units_failed = result.units;
    return result;
  }
  std::uint64_t digest = kFnvOffset;
  for (std::size_t i = 0; i < n; ++i) {
    const SessionPlan& s = plan_.sessions[i];
    const entk::core::RunReport& report = reports.value()[i];
    const std::uint64_t not_done = count_not_done(report.units, s.units);
    result.units_failed += not_done;
    outcome.check(report.outcome.is_ok(),
                  s.name + ": " + report.outcome.to_string());
    outcome.check(report.units.size() == s.units,
                  s.name + " ran " + std::to_string(report.units.size()) +
                      " units, want " + std::to_string(s.units));
    outcome.check(not_done == 0, s.name + " has units that are not DONE");
    outcome.check(report.overheads.ttc >= s.min_ttc,
                  s.name + " TTC is below its critical path");
    const std::uint64_t session_digest = unit_digest(report.units);
    const double ttc = report.overheads.ttc;
    digest = fnv1a(digest, &session_digest, sizeof(session_digest));
    digest = fnv1a(digest, &ttc, sizeof(ttc));
  }
  check_digest(outcome, digest);
  if (coordinator != nullptr) {
    const std::uint64_t written = coordinator->snapshots_written();
    if (reps_ == 0) snapshots_ = written;
    outcome.check(written > 0 && written == snapshots_,
                  plan_.name + " wrote " + std::to_string(written) +
                      " snapshots, its first repetition " +
                      std::to_string(snapshots_));
  }
  ++reps_;
  close_span(spans, verify_span);

  const int teardown_span = open_span(spans, "bench.teardown", parent);
  coordinator.reset();
  for (auto& session : sessions) (void)session->deallocate();
  sessions.clear();
  runtime.reset();
  backend.reset();
  if (plan_.checkpoint_every > 0) std::filesystem::remove_all(dir);
  close_span(spans, teardown_span);
  return result;
}

ResumeResult BatchWorkload::resume(Outcome& outcome, SpanRecorder* spans,
                                   int parent) {
  ResumeResult result;
  const SessionPlan& solo = plan_.sessions.front();
  result.units = solo.units;
  entk::reset_uid_counters_with_prefix(solo.name);
  entk::obs::Metrics::instance().reset();
  SessionMarks marks;
  auto pattern = solo.make_pattern(marks);
  const std::string dir = plan_.work_dir + "/" + plan_.name + "-resumed";
  std::filesystem::remove_all(dir);
  const auto failed = [&](const std::string& what) {
    outcome.fail(plan_.name + " resume: " + what);
    result.units_failed = result.units;
    return result;
  };

  // The `entk-run --resume` path: read and decode, rebuild and
  // allocate, restore_runtime, then run the rest.
  const double t0 = now_s();
  const int read_span = open_span(spans, "ckpt.read_decode", parent);
  auto snapshot = entk::ckpt::read_snapshot_file(resume_path_);
  close_span(spans, read_span);
  if (!snapshot.ok()) return failed(snapshot.status().to_string());
  const int setup_span = open_span(spans, "bench.setup", parent);
  entk::pilot::SimBackend backend(plan_.machine);
  Runtime runtime(backend, registry_);
  auto session = runtime.create_session({solo.name, solo.resources});
  if (!session.ok()) return failed(session.status().to_string());
  const int alloc_span =
      open_span(spans, "core.session.allocate", setup_span);
  const entk::Status allocated = session.value()->allocate();
  close_span(spans, alloc_span);
  close_span(spans, setup_span);
  if (!allocated.is_ok()) return failed(allocated.to_string());
  entk::ckpt::Coordinator::Options options;
  options.directory = dir;
  entk::ckpt::Coordinator coordinator(backend, *session.value(),
                                      std::move(options));
  coordinator.set_identity(pattern->name(), "");
  const int restore_span = open_span(spans, "ckpt.restore_runtime", parent);
  const entk::Status restored = coordinator.restore_runtime(snapshot.value());
  close_span(spans, restore_span);
  result.restore_s = now_s() - t0;
  if (!restored.is_ok()) return failed(restored.to_string());

  MarkedPattern wrapped(*pattern, marks);
  MarkObserver observer(marks, &coordinator);
  wrapped.set_graph_run_observer(&observer);
  StepProbe probe;
  if (spans != nullptr) {
    probe.attach_before(backend);
    probe.attach_after(backend, nullptr);
  }
  const double entry = now_s();
  auto report = session.value()->run(wrapped);
  const double ret = now_s();
  result.total_s = ret - t0;
  if (spans != nullptr) {
    add_phase_spans(*spans, parent, entry, ret, {&marks}, probe);
  }

  const int verify_span = open_span(spans, "bench.verify", parent);
  if (!report.ok()) return failed(report.status().to_string());
  const entk::Status& run_outcome = report.value().outcome;
  if (!run_outcome.is_ok()) return failed(run_outcome.to_string());
  const Units& units = report.value().units;
  result.units_failed = count_not_done(units, solo.units);
  outcome.check(result.units_failed == 0 && units.size() == solo.units,
                plan_.name + " resume left units unfinished");
  outcome.check(unit_digest(units) == solo_digest_,
                plan_.name + " resumed run differs from the whole run");
  outcome.check(unit_digest(units, cut_) == solo_remaining_digest_,
                plan_.name + " resumed schedule after the cut differs");
  close_span(spans, verify_span);
  (void)session.value()->deallocate();
  return result;
}

void BatchWorkload::check_digest(Outcome& outcome, std::uint64_t digest) {
  if (have_digest_) {
    outcome.check(digest == digest_,
                  plan_.name + " digest differs between repetitions");
    return;
  }
  have_digest_ = true;
  digest_ = digest;
  std::cerr << plan_.name << " digest 0x" << std::hex << digest << std::dec
            << "\n";
  if (plan_.seed == kDefaultSeed) {
    outcome.check(digest == plan_.default_seed_digest,
                  plan_.name + " digest differs from the value recorded " +
                      "for the default seed");
  }
}

}  // namespace perfbench

#!/usr/bin/env python3
"""Gate BENCH_scale.json against a committed baseline.

Usage:
    check_bench_regression.py BASELINE CANDIDATE [--tolerance 0.15]

Fails (exit 1) when the candidate run regresses more than the
tolerance below the baseline:

  * per matched sweep point -- keyed on (pattern, scaling, n_units,
    cores) -- candidate events_per_sec must be at least
    (1 - tolerance) * baseline events_per_sec;
  * the engine_compare speedup (pooled vs legacy engine, measured in
    the same process on the same machine) must be at least
    (1 - tolerance) * the baseline speedup.  This ratio is
    machine-relative, so it is the most trustworthy signal on
    differently-sized CI runners.

With --tracing-overhead-ceiling the candidate's "tracing" probe block
(bench/scale_sweep's traced-vs-untraced comparison, measured in the
same process) is also gated: overhead_fraction must not exceed the
ceiling, and a missing probe block is an error -- the observability
layer silently losing its cost measurement is itself a regression.

--checkpoint-overhead-ceiling gates the "checkpoint" probe block the
same way: bench/scale_sweep's checkpointed-vs-plain comparison (the
ckpt::Coordinator snapshotting every n_units/8 settled units).  Its
overhead_fraction is the *virtual-TTC* delta -- captures happen at
engine-step boundaries off the virtual-time path, so the expected
value is exactly zero and any drift means a capture perturbed the
run.  A missing block and a zero-snapshot run are both errors.

--multi-session-isolation-ceiling and
--multi-session-inflation-ceiling gate the "multi_session" probe block
(bench/multi_session_probe.hpp: 1/2/4/8 concurrent sessions splitting
one machine).  The isolation ratio is per-session TTC concurrent over
the same carve-up run serially -- sessions own their pilots, so the
expected value is ~1.0 plus the serialised task-creation charge, and
drift means one session's presence moved another's virtual schedule.
The normalised inflation is per-session TTC over the solo-full-machine
TTC, divided by the fleet size -- the shared-capacity stretch, which
exceeds 1.0 only through scheduling granularity at the thinner
per-session allocation.  A missing block or an empty fleet is an
error.

--serve-fairness-ceiling and --serve-p99-ceiling-ms gate the "serve"
probe block (bench/serve_probe.hpp: 8 equal-weight tenants racing
>= 1000 workloads through one in-process entk-serve Service).  The
fairness dispersion is max/min per-tenant units dispatched in
contended fair-share rounds -- equal weights and identical demand
make the expected value 1.0, so drift means the deficit-round-robin
favoured someone.  The p99 submission-to-first-dispatch latency is a
wall-clock tail; its generous ceiling catches stalled drive loops
(lost wakeups), not scheduler jitter.  Rejected submissions from a
queue sized for the storm, incomplete workloads, a storm that never
contended, and a missing block are all errors.

--parallel-speedup-floor gates the "parallel_runtime" probe block
(bench/scale_sweep's local-backend sweep: a bag of blocking misc.sleep
units through pilots of 1/4/16 cores, each core one LocalAgent worker
thread).  The gated speedup is the wall-clock ratio against the
one-core run -- the concurrency the agent actually delivered -- and
because the payloads block rather than spin, the ratio is
machine-independent and holds on one-core CI runners.
--parallel-speedup-threads picks the gated point (default 4, the smoke
point; the full-mode acceptance point is 16).  A missing block or
points list is an error.

Baseline points absent from the candidate are an error (a sweep point
silently disappearing is itself a regression); candidate points absent
from the baseline are reported but do not fail the gate.  Baselines
are expected to carry derated (conservative) absolute numbers so that
slower CI runners do not trip the gate on hardware variance -- see
docs/PERFORMANCE.md for the refresh procedure.
"""

import argparse
import json
import sys


def sweep_key(point):
    return (
        point["pattern"],
        point["scaling"],
        int(point["n_units"]),
        int(point["cores"]),
    )


def fmt_key(key):
    pattern, scaling, n_units, cores = key
    return f"{pattern}/{scaling} units={n_units} cores={cores}"


def check_tracing(candidate, ceiling):
    """Gates the tracing probe's overhead fraction against `ceiling`."""
    failures = []
    notes = []
    probe = candidate.get("tracing")
    if probe is None:
        failures.append(
            "candidate has no 'tracing' probe block: the bench ran "
            "without its tracing-overhead measurement (schema drift?)"
        )
        return failures, notes
    if "overhead_fraction" not in probe:
        failures.append(
            "candidate tracing probe has no 'overhead_fraction' metric"
        )
        return failures, notes
    overhead = float(probe["overhead_fraction"])
    compiled = "compiled in" if probe.get("compiled_in") else "compiled out"
    if overhead > ceiling:
        failures.append(
            f"tracing overhead ({compiled}) {overhead:.1%} exceeds "
            f"the {ceiling:.0%} ceiling"
        )
    else:
        notes.append(
            f"ok tracing overhead ({compiled}): {overhead:.1%} "
            f"<= {ceiling:.0%} ceiling"
        )
    return failures, notes


def check_checkpoint(candidate, ceiling):
    """Gates the checkpoint probe's overhead fraction against `ceiling`."""
    failures = []
    notes = []
    probe = candidate.get("checkpoint")
    if probe is None:
        failures.append(
            "candidate has no 'checkpoint' probe block: the bench ran "
            "without its checkpoint-overhead measurement (schema drift?)"
        )
        return failures, notes
    if "overhead_fraction" not in probe:
        failures.append(
            "candidate checkpoint probe has no 'overhead_fraction' metric"
        )
        return failures, notes
    overhead = float(probe["overhead_fraction"])
    snapshots = int(probe.get("snapshots_written", 0))
    if snapshots == 0:
        failures.append(
            "checkpoint probe wrote no snapshots: the checkpointed run "
            "measured nothing (policy drift?)"
        )
    if overhead > ceiling:
        failures.append(
            f"checkpoint overhead ({snapshots} snapshots) {overhead:.1%} "
            f"exceeds the {ceiling:.0%} ceiling"
        )
    elif snapshots > 0:
        notes.append(
            f"ok checkpoint overhead ({snapshots} snapshots): "
            f"{overhead:.1%} <= {ceiling:.0%} ceiling"
        )
    return failures, notes


def check_multi_session(candidate, isolation_ceiling, inflation_ceiling):
    """Gates the multi-session probe's two ratios against the ceilings.

    Either ceiling may be None (not gated); the block itself is
    required whenever this function is called.
    """
    failures = []
    notes = []
    probe = candidate.get("multi_session")
    if probe is None:
        failures.append(
            "candidate has no 'multi_session' probe block: the bench "
            "ran without its concurrent-session measurement "
            "(schema drift?)"
        )
        return failures, notes
    if not probe.get("points"):
        failures.append(
            "multi_session probe has no fleet points: the concurrent "
            "runs measured nothing (fleet drift?)"
        )
        return failures, notes
    sessions = sorted(int(p.get("n_sessions", 0)) for p in probe["points"])
    if isolation_ceiling is not None:
        if "max_isolation_ratio" not in probe:
            failures.append(
                "multi_session probe has no 'max_isolation_ratio' metric"
            )
        else:
            ratio = float(probe["max_isolation_ratio"])
            if ratio > isolation_ceiling:
                failures.append(
                    f"multi-session isolation ratio {ratio:.4f} exceeds "
                    f"the {isolation_ceiling:.2f} ceiling (a session's "
                    f"presence moved another session's virtual schedule)"
                )
            else:
                notes.append(
                    f"ok multi-session isolation (fleets {sessions}): "
                    f"{ratio:.4f} <= {isolation_ceiling:.2f} ceiling"
                )
    if inflation_ceiling is not None:
        if "max_normalized_inflation" not in probe:
            failures.append(
                "multi_session probe has no 'max_normalized_inflation' "
                "metric"
            )
        else:
            inflation = float(probe["max_normalized_inflation"])
            if inflation > inflation_ceiling:
                failures.append(
                    f"multi-session normalised inflation {inflation:.2f} "
                    f"exceeds the {inflation_ceiling:.2f} ceiling"
                )
            else:
                notes.append(
                    f"ok multi-session normalised inflation: "
                    f"{inflation:.2f} <= {inflation_ceiling:.2f} ceiling"
                )
    return failures, notes


def check_parallel_runtime(candidate, floor, threads):
    """Gates the parallel-runtime probe's speedup at `threads` pilot
    cores against `floor`.

    bench/scale_sweep runs a bag of blocking misc.sleep units through
    LocalBackend pilots of 1/4/16 cores; the speedup is the wall-clock
    ratio against the one-core run, i.e. the concurrency the agent's
    workers actually delivered. Blocking payloads make the ratio
    deterministic and meaningful even on one-core runners, so unlike
    the events/sec points this floor is machine-independent. A missing
    block is an error -- the runtime silently losing its concurrency
    measurement is itself a regression.
    """
    failures = []
    notes = []
    probe = candidate.get("parallel_runtime")
    if probe is None:
        failures.append(
            "candidate has no 'parallel_runtime' probe block: the bench "
            "ran without its local-backend concurrency measurement "
            "(schema drift?)"
        )
        return failures, notes
    key = f"speedup_at_{threads}"
    if key not in probe:
        failures.append(
            f"parallel_runtime probe has no '{key}' metric"
        )
        return failures, notes
    speedup = float(probe[key])
    if speedup < floor:
        failures.append(
            f"parallel runtime speedup at {threads} cores "
            f"{speedup:.2f}x below the {floor:.1f}x floor"
        )
    else:
        notes.append(
            f"ok parallel runtime speedup at {threads} cores: "
            f"{speedup:.2f}x >= {floor:.1f}x floor"
        )
    if not probe.get("points"):
        failures.append("parallel_runtime probe has no points")
    return failures, notes


def check_serve(candidate, fairness_ceiling, p99_ceiling_ms):
    """Gates the serve probe's fairness dispersion and latency tail.

    Either ceiling may be None (not gated); the block itself is
    required whenever this function is called, and the storm must
    actually have exercised the service: >= 1 workload accepted, zero
    rejected from a queue sized for the storm, every workload
    completed, and at least one contended fair-share round.
    """
    failures = []
    notes = []
    probe = candidate.get("serve")
    if probe is None:
        failures.append(
            "candidate has no 'serve' probe block: the bench ran "
            "without its multi-tenant service measurement "
            "(schema drift?)"
        )
        return failures, notes
    workloads = int(probe.get("workloads", 0))
    tenants = int(probe.get("tenants", 0))
    if workloads < 1000 or tenants < 8:
        failures.append(
            f"serve storm shrank to {workloads} workloads across "
            f"{tenants} tenants (acceptance shape is >= 1000 across "
            f">= 8)"
        )
    rejected = int(probe.get("rejected", 0))
    if rejected != 0:
        failures.append(
            f"serve admission shed {rejected} workloads from a queue "
            f"sized for the storm"
        )
    completed = int(probe.get("completed", 0))
    if completed != workloads:
        failures.append(
            f"serve storm completed only {completed}/{workloads} "
            f"workloads"
        )
    if int(probe.get("contended_total", 0)) == 0:
        failures.append(
            "serve storm had no contended fair-share rounds: the "
            "fairness metric measured nothing (sizing drift?)"
        )
    if fairness_ceiling is not None:
        if "fairness_dispersion" not in probe:
            failures.append(
                "serve probe has no 'fairness_dispersion' metric"
            )
        else:
            dispersion = float(probe["fairness_dispersion"])
            if dispersion > fairness_ceiling:
                failures.append(
                    f"serve fairness dispersion {dispersion:.3f} "
                    f"exceeds the {fairness_ceiling:.2f} ceiling (the "
                    f"fair-share pass favoured a tenant)"
                )
            else:
                notes.append(
                    f"ok serve fairness ({tenants} tenants, "
                    f"{workloads} workloads): dispersion "
                    f"{dispersion:.3f} <= {fairness_ceiling:.2f} "
                    f"ceiling"
                )
    if p99_ceiling_ms is not None:
        if "p99_submit_latency_seconds" not in probe:
            failures.append(
                "serve probe has no 'p99_submit_latency_seconds' "
                "metric"
            )
        else:
            p99_ms = 1000.0 * float(probe["p99_submit_latency_seconds"])
            if p99_ms > p99_ceiling_ms:
                failures.append(
                    f"serve p99 submit-to-first-dispatch latency "
                    f"{p99_ms:.1f} ms exceeds the "
                    f"{p99_ceiling_ms:.0f} ms ceiling"
                )
            else:
                notes.append(
                    f"ok serve p99 submit latency: {p99_ms:.1f} ms "
                    f"<= {p99_ceiling_ms:.0f} ms ceiling"
                )
    return failures, notes


def check(baseline, candidate, tolerance):
    failures = []
    notes = []
    floor = 1.0 - tolerance

    base_points = {sweep_key(p): p for p in baseline.get("sweeps", [])}
    cand_points = {sweep_key(p): p for p in candidate.get("sweeps", [])}

    for key, base in sorted(base_points.items()):
        cand = cand_points.get(key)
        if cand is None:
            failures.append(f"sweep point missing: {fmt_key(key)}")
            continue
        if "events_per_sec" not in base:
            failures.append(
                f"baseline point {fmt_key(key)} has no "
                f"'events_per_sec' metric (malformed baseline)"
            )
            continue
        if "events_per_sec" not in cand:
            failures.append(
                f"candidate point {fmt_key(key)} has no "
                f"'events_per_sec' metric: the bench wrote a point "
                f"without its gating metric (schema drift?)"
            )
            continue
        base_eps = float(base["events_per_sec"])
        cand_eps = float(cand["events_per_sec"])
        if cand_eps < base_eps * floor:
            failures.append(
                f"events/sec regression at {fmt_key(key)}: "
                f"{cand_eps:,.0f} < {floor:.2f} * {base_eps:,.0f}"
            )
        else:
            notes.append(
                f"ok {fmt_key(key)}: {cand_eps:,.0f} events/sec "
                f"(baseline {base_eps:,.0f})"
            )

    for key in sorted(set(cand_points) - set(base_points)):
        notes.append(f"new sweep point (not gated): {fmt_key(key)}")

    base_cmp = baseline.get("engine_compare")
    cand_cmp = candidate.get("engine_compare")
    if base_cmp and cand_cmp:
        if "speedup" not in base_cmp or "speedup" not in cand_cmp:
            missing = "baseline" if "speedup" not in base_cmp else "candidate"
            failures.append(
                f"{missing} engine_compare has no 'speedup' metric"
            )
            return failures, notes
        base_speedup = float(base_cmp["speedup"])
        cand_speedup = float(cand_cmp["speedup"])
        if cand_speedup < base_speedup * floor:
            failures.append(
                f"engine speedup regression: {cand_speedup:.2f}x < "
                f"{floor:.2f} * {base_speedup:.2f}x"
            )
        else:
            notes.append(
                f"ok engine speedup: {cand_speedup:.2f}x "
                f"(baseline {base_speedup:.2f}x)"
            )
    elif base_cmp:
        failures.append("candidate is missing the engine_compare block")

    return failures, notes


def self_test():
    """Exercises the gate logic on synthetic documents (no files)."""

    def point(eps=100.0, **overrides):
        p = {
            "pattern": "bot",
            "scaling": "weak",
            "n_units": 64,
            "cores": 64,
            "events_per_sec": eps,
        }
        p.update(overrides)
        return p

    def doc(points, speedup=10.0):
        return {
            "schema": "entk.bench.scale/1",
            "engine_compare": {"speedup": speedup},
            "sweeps": points,
        }

    checks = []

    # Identical documents pass.
    failures, _ = check(doc([point()]), doc([point()]), 0.15)
    checks.append(("identical passes", not failures))

    # A drop beyond tolerance fails; one inside tolerance passes.
    failures, _ = check(doc([point(100.0)]), doc([point(80.0)]), 0.15)
    checks.append(("eps regression caught", bool(failures)))
    failures, _ = check(doc([point(100.0)]), doc([point(90.0)]), 0.15)
    checks.append(("eps within tolerance passes", not failures))

    # A baseline point missing from the candidate fails.
    failures, _ = check(doc([point()]), doc([]), 0.15)
    checks.append(("missing sweep point caught", bool(failures)))

    # A candidate point without the gating metric is a clear failure,
    # not a traceback.
    broken = point()
    del broken["events_per_sec"]
    failures, _ = check(doc([point()]), doc([broken]), 0.15)
    checks.append(
        (
            "missing candidate metric reported",
            any("events_per_sec" in f for f in failures),
        )
    )

    # Speedup regression and missing speedup metric are both caught.
    failures, _ = check(doc([], 10.0), doc([], 5.0), 0.15)
    checks.append(("speedup regression caught", bool(failures)))
    failures, _ = check(
        doc([], 10.0),
        {"schema": "entk.bench.scale/1", "engine_compare": {}, "sweeps": []},
        0.15,
    )
    checks.append(("missing speedup reported", bool(failures)))

    # Extra candidate points are notes, not failures.
    failures, notes = check(doc([]), doc([point()]), 0.15)
    checks.append(
        ("new point not gated", not failures and any("new" in n for n in notes))
    )

    # Tracing probe: over-ceiling fails, under passes, absent block is
    # a clear failure.
    probe = {"compiled_in": True, "overhead_fraction": 0.21}
    failures, _ = check_tracing({"tracing": probe}, 0.05)
    checks.append(("tracing overhead over ceiling caught", bool(failures)))
    failures, notes = check_tracing({"tracing": probe}, 0.50)
    checks.append(
        (
            "tracing overhead under ceiling passes",
            not failures and any("tracing" in n for n in notes),
        )
    )
    failures, _ = check_tracing({}, 0.05)
    checks.append(
        (
            "missing tracing probe reported",
            any("tracing" in f for f in failures),
        )
    )

    # Checkpoint probe: over-ceiling fails, under passes, absent block
    # and a zero-snapshot run are both clear failures.
    ckpt = {
        "snapshots_written": 8,
        "overhead_fraction": 0.12,
    }
    failures, _ = check_checkpoint({"checkpoint": ckpt}, 0.05)
    checks.append(("checkpoint overhead over ceiling caught", bool(failures)))
    failures, notes = check_checkpoint({"checkpoint": ckpt}, 0.50)
    checks.append(
        (
            "checkpoint overhead under ceiling passes",
            not failures and any("checkpoint" in n for n in notes),
        )
    )
    failures, _ = check_checkpoint({}, 0.05)
    checks.append(
        (
            "missing checkpoint probe reported",
            any("checkpoint" in f for f in failures),
        )
    )
    failures, _ = check_checkpoint(
        {"checkpoint": {"snapshots_written": 0, "overhead_fraction": 0.0}},
        0.05,
    )
    checks.append(
        (
            "zero-snapshot checkpoint probe reported",
            any("no snapshots" in f for f in failures),
        )
    )

    # Multi-session probe: over-ceiling ratios fail, under pass, and
    # absent block / empty fleet / missing metrics are clear failures.
    multi = {
        "max_isolation_ratio": 1.02,
        "max_normalized_inflation": 1.4,
        "points": [{"n_sessions": 1}, {"n_sessions": 8}],
    }
    failures, notes = check_multi_session({"multi_session": multi}, 1.05, 3.0)
    checks.append(
        (
            "multi-session under ceilings passes",
            not failures
            and any("isolation" in n for n in notes)
            and any("inflation" in n for n in notes),
        )
    )
    failures, _ = check_multi_session({"multi_session": multi}, 1.01, 3.0)
    checks.append(
        ("multi-session isolation over ceiling caught", bool(failures))
    )
    failures, _ = check_multi_session({"multi_session": multi}, 1.05, 1.2)
    checks.append(
        ("multi-session inflation over ceiling caught", bool(failures))
    )
    failures, _ = check_multi_session({}, 1.05, 3.0)
    checks.append(
        (
            "missing multi-session probe reported",
            any("multi_session" in f for f in failures),
        )
    )
    failures, _ = check_multi_session(
        {"multi_session": {"points": []}}, 1.05, 3.0
    )
    checks.append(
        (
            "empty multi-session fleet reported",
            any("no fleet points" in f for f in failures),
        )
    )
    failures, _ = check_multi_session(
        {"multi_session": {"points": [{"n_sessions": 2}]}}, 1.05, None
    )
    checks.append(
        (
            "missing multi-session metric reported",
            any("max_isolation_ratio" in f for f in failures),
        )
    )

    # Parallel-runtime probe: below-floor speedup fails, above passes,
    # and absent block / missing metric / missing points are clear
    # failures.
    runtime = {
        "speedup_at_4": 3.8,
        "speedup_at_16": 14.2,
        "points": [{"threads": 1}, {"threads": 4}, {"threads": 16}],
    }
    failures, notes = check_parallel_runtime(
        {"parallel_runtime": runtime}, 2.0, 4
    )
    checks.append(
        (
            "parallel speedup above floor passes",
            not failures and any("parallel" in n for n in notes),
        )
    )
    failures, _ = check_parallel_runtime(
        {"parallel_runtime": runtime}, 10.0, 4
    )
    checks.append(("parallel speedup below floor caught", bool(failures)))
    failures, _ = check_parallel_runtime({}, 2.0, 4)
    checks.append(
        (
            "missing parallel_runtime probe reported",
            any("parallel_runtime" in f for f in failures),
        )
    )
    failures, _ = check_parallel_runtime(
        {"parallel_runtime": {"points": []}}, 2.0, 16
    )
    checks.append(
        (
            "missing parallel speedup metric reported",
            any("speedup_at_16" in f for f in failures),
        )
    )
    failures, _ = check_parallel_runtime(
        {"parallel_runtime": {"speedup_at_4": 3.8}}, 2.0, 4
    )
    checks.append(
        (
            "missing parallel points reported",
            any("no points" in f for f in failures),
        )
    )

    # Serve probe: over-ceiling dispersion / latency fail, under pass,
    # and absent block / shed admissions / incomplete storms /
    # no-contention storms are clear failures.
    serve = {
        "tenants": 8,
        "workloads": 1024,
        "rejected": 0,
        "completed": 1024,
        "contended_total": 16000,
        "fairness_dispersion": 1.05,
        "p99_submit_latency_seconds": 0.25,
    }
    failures, notes = check_serve({"serve": serve}, 1.5, 30000.0)
    checks.append(
        (
            "serve under ceilings passes",
            not failures
            and any("fairness" in n for n in notes)
            and any("p99" in n for n in notes),
        )
    )
    failures, _ = check_serve(
        {"serve": dict(serve, fairness_dispersion=2.0)}, 1.5, 30000.0
    )
    checks.append(("serve fairness over ceiling caught", bool(failures)))
    failures, _ = check_serve(
        {"serve": dict(serve, p99_submit_latency_seconds=45.0)},
        1.5,
        30000.0,
    )
    checks.append(("serve p99 over ceiling caught", bool(failures)))
    failures, _ = check_serve({}, 1.5, 30000.0)
    checks.append(
        (
            "missing serve probe reported",
            any("serve" in f for f in failures),
        )
    )
    failures, _ = check_serve(
        {"serve": dict(serve, rejected=3)}, 1.5, 30000.0
    )
    checks.append(
        ("serve shed admission caught", any("shed" in f for f in failures))
    )
    failures, _ = check_serve(
        {"serve": dict(serve, completed=1000)}, 1.5, 30000.0
    )
    checks.append(
        (
            "serve incomplete storm caught",
            any("completed only" in f for f in failures),
        )
    )
    failures, _ = check_serve(
        {"serve": dict(serve, contended_total=0)}, 1.5, 30000.0
    )
    checks.append(
        (
            "serve uncontended storm caught",
            any("no contended" in f for f in failures),
        )
    )
    failures, _ = check_serve(
        {"serve": dict(serve, workloads=100, completed=100)},
        1.5,
        30000.0,
    )
    checks.append(
        (
            "serve shrunken storm caught",
            any("shrank" in f for f in failures),
        )
    )

    bad = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"{'ok' if ok else 'FAIL'} self-test: {name}")
    if bad:
        print(f"\nself-test: {len(bad)} case(s) failed")
        return 1
    print("\nself-test: PASS")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "baseline", nargs="?", help="committed baseline JSON"
    )
    parser.add_argument(
        "candidate", nargs="?", help="freshly produced JSON"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional drop below baseline (default 0.15)",
    )
    parser.add_argument(
        "--tracing-overhead-ceiling",
        type=float,
        default=None,
        metavar="FRACTION",
        help="also gate the candidate's tracing probe: "
        "overhead_fraction must not exceed this (e.g. 0.05)",
    )
    parser.add_argument(
        "--checkpoint-overhead-ceiling",
        type=float,
        default=None,
        metavar="FRACTION",
        help="also gate the candidate's checkpoint probe: "
        "overhead_fraction must not exceed this (e.g. 0.05)",
    )
    parser.add_argument(
        "--multi-session-isolation-ceiling",
        type=float,
        default=None,
        metavar="RATIO",
        help="also gate the candidate's multi-session probe: "
        "max_isolation_ratio must not exceed this (e.g. 1.05)",
    )
    parser.add_argument(
        "--multi-session-inflation-ceiling",
        type=float,
        default=None,
        metavar="RATIO",
        help="also gate the candidate's multi-session probe: "
        "max_normalized_inflation must not exceed this (e.g. 3.0)",
    )
    parser.add_argument(
        "--parallel-speedup-floor",
        type=float,
        default=None,
        metavar="RATIO",
        help="also gate the candidate's parallel-runtime probe: the "
        "local backend's blocking-payload speedup must be at "
        "least this (e.g. 2.0)",
    )
    parser.add_argument(
        "--parallel-speedup-threads",
        type=int,
        default=4,
        metavar="N",
        help="which pilot-core point --parallel-speedup-floor gates "
        "(default 4; the full-mode acceptance point is 16)",
    )
    parser.add_argument(
        "--serve-fairness-ceiling",
        type=float,
        default=None,
        metavar="RATIO",
        help="also gate the candidate's serve probe: the contended "
        "fairness dispersion must not exceed this (e.g. 1.5)",
    )
    parser.add_argument(
        "--serve-p99-ceiling-ms",
        type=float,
        default=None,
        metavar="MS",
        help="also gate the candidate's serve probe: the p99 "
        "submit-to-first-dispatch latency must not exceed this "
        "(e.g. 30000)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the built-in logic checks and exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.baseline is None or args.candidate is None:
        parser.error("baseline and candidate are required (or --self-test)")

    with open(args.baseline, encoding="utf-8") as fp:
        baseline = json.load(fp)
    with open(args.candidate, encoding="utf-8") as fp:
        candidate = json.load(fp)

    for doc, name in ((baseline, args.baseline), (candidate, args.candidate)):
        schema = doc.get("schema", "")
        if not schema.startswith("entk.bench.scale/"):
            print(f"error: {name}: unrecognised schema {schema!r}")
            return 1

    failures, notes = check(baseline, candidate, args.tolerance)
    if args.tracing_overhead_ceiling is not None:
        tracing_failures, tracing_notes = check_tracing(
            candidate, args.tracing_overhead_ceiling
        )
        failures.extend(tracing_failures)
        notes.extend(tracing_notes)
    if args.checkpoint_overhead_ceiling is not None:
        ckpt_failures, ckpt_notes = check_checkpoint(
            candidate, args.checkpoint_overhead_ceiling
        )
        failures.extend(ckpt_failures)
        notes.extend(ckpt_notes)
    if (
        args.multi_session_isolation_ceiling is not None
        or args.multi_session_inflation_ceiling is not None
    ):
        multi_failures, multi_notes = check_multi_session(
            candidate,
            args.multi_session_isolation_ceiling,
            args.multi_session_inflation_ceiling,
        )
        failures.extend(multi_failures)
        notes.extend(multi_notes)
    if args.parallel_speedup_floor is not None:
        parallel_failures, parallel_notes = check_parallel_runtime(
            candidate,
            args.parallel_speedup_floor,
            args.parallel_speedup_threads,
        )
        failures.extend(parallel_failures)
        notes.extend(parallel_notes)
    if (
        args.serve_fairness_ceiling is not None
        or args.serve_p99_ceiling_ms is not None
    ):
        serve_failures, serve_notes = check_serve(
            candidate,
            args.serve_fairness_ceiling,
            args.serve_p99_ceiling_ms,
        )
        failures.extend(serve_failures)
        notes.extend(serve_notes)
    for note in notes:
        print(note)
    if failures:
        print(f"\n{len(failures)} regression(s) beyond "
              f"{args.tolerance:.0%} tolerance:")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print("\nbench regression gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())

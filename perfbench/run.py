#!/usr/bin/env python3
"""Build and run the entk-cpp benchmark.

    python3 perfbench/run.py --workload <pipelines|loop_ckpt|serve_mix>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
toolkit and the benchmark into .bench_build/ (RelWithDebInfo, the
repository's default options); later runs only rebuild what changed.
The benchmark's self-tests run after every build. The last line of
standard output is the result object with exactly the metrics
BENCHMARK.json declares for the mode (a per-layer metric of a layer the
workload does not exercise reads 0); progress goes to standard error.
A traced run (--trace 1) also writes a Chrome trace (loads in Perfetto)
to .bench_build/traces/<workload>-seed<n>.json.

Exit status: 0 when the run completed and every output check passed,
1 when an output check failed (the result then says "correct": false),
2 when the benchmark could not be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("pipelines", "loop_ckpt", "serve_mix")


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_logged(command, log_path):
    with open(log_path, "a") as out:
        return subprocess.run(command, stdout=out, stderr=subprocess.STDOUT).returncode


def build():
    """Configures (once) and builds; returns False with the log tail on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):  # not configured yet
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j2", "--target", "entk_perfbench",
                  "perfbench_selftest"])
    steps.append([os.path.join(BUILD, "perfbench_selftest")])
    for step in steps:
        if run_logged(step, log_path) != 0:
            with open(log_path) as out:
                log("".join(out.readlines()[-40:]))
            log("perfbench: step failed: " + " ".join(step))
            return False
    return True


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return json.load(spec)["per_layer" if trace else "end_to_end"]


def complete(result, trace):
    """Orders the metrics as declared; None when the binary's set differs."""
    measured = result["metrics"]
    metrics = {}
    for metric in declared_metrics(trace):
        value = measured.pop(metric["name"], None)
        if value is None and trace:
            value = {"value": 0, "unit": metric["unit"]}
        if value is None or value["unit"] != metric["unit"]:
            log("perfbench: metric %s missing or in the wrong unit" % metric["name"])
            return None
        metrics[metric["name"]] = value
    if measured:
        log("perfbench: undeclared metrics %s" % sorted(measured))
        return None
    result["metrics"] = metrics
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        return 2
    work = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [os.path.join(BUILD, "entk_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        log(proc.stdout)
        log("perfbench: the benchmark printed no result (exit %d)" % proc.returncode)
        return 2
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        print(lines[-1], flush=True)
        return 1
    result = complete(result, args.trace)
    if result is None:
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

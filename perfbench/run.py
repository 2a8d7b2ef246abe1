#!/usr/bin/env python3
"""The phillysim benchmark: one command, every metric, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--workload NAME] [--seed N]

Builds perfbench/ (which compiles the simulator from ../src) into
.bench_build/perfbench, then runs whole passes of the workload -- each in a
fresh process, one after another on one core -- for about S seconds, and
prints the medians. --trace 0 reports the end-to-end metrics from untraced
passes, which take turns over four traces derived from N. --trace 1
alternates untraced and traced passes of the trace of N itself and reports
the per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it record the
host, the exact command and the output digests.

--self-test feeds every correctness check a corrupted copy of a real pass's
outputs and exits non-zero unless each check counts it as failed.

See perfbench/README.md for every metric, its unit and its layer.
"""

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

# Metric names and units, and the benchmarked workloads, come from
# BENCHMARK.json. paper75, year365 and year365_faults are runnable too but
# not benchmarked (see README.md): the run budget holds two workloads at
# 55-second runs, and year365_faults' cost follows a seed-dependent
# fault-restart pathology that no bound can hold.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
PASS_TIMEOUT_S = 170

# An end-to-end run takes turns over this many traces: the one --seed names
# and three more derived from it. One 75-day trace's drain tail alone moves
# observed75's wall time by about 10%, so a run on a single trace would carry
# that into the spread across seeds.
TRACES_PER_RUN = 4
TRACE_STRIDE = 1_000_003

# Stage timers must account for this share of wall_s, so no stage is dark.
MIN_STAGE_COVERAGE = 0.95


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sched", "simulation.h")):
        raise BenchError("simulator sources not found under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])


def run_build_step(command):
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT, check=False)
    if result.returncode != 0:
        raise BenchError("build step failed: %s" % " ".join(command))


def run_pass(workload, seed, traced=False, self_test=False):
    binary = os.path.join(BUILD, "perfbench_traced" if traced else "perfbench_pass")
    command = [binary, "--workload", workload, "--seed", str(seed)]
    if self_test:
        command.append("--self-test")
    try:
        result = subprocess.run(command, capture_output=True, text=True,
                                cwd=ROOT, timeout=PASS_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError("pass timed out: %s" % " ".join(command))
    if result.returncode != 0 or not result.stdout.strip():
        raise BenchError("pass failed (exit %d): %s\n%s" % (
            result.returncode, " ".join(command), result.stderr.strip()))
    record = json.loads(result.stdout.strip().splitlines()[-1])
    coverage = record["values"]["bench.stage_coverage"]
    if coverage < MIN_STAGE_COVERAGE:
        raise BenchError("stage timers cover only %.3f of wall_s" % coverage)
    return record


def median(passes, name):
    return statistics.median(p["values"][name] for p in passes)


class Checks:
    """Tally of the passes' checks plus the run-level determinism checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add_pass(self, record):
        checks = record["checks"]
        self.attempted += checks["attempted"]
        self.failed += checks["failed"]
        for failure in checks["failures"]:
            log("check failed: %s" % failure)

    def add(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("check failed: %s %s" % (name, detail))


def deterministic_view(record):
    values = record["values"]
    view = {name: values[name] for name in record["deterministic"]}
    view.update(record["digest"])
    return view


def check_identical(checks, name, records):
    """Every deterministic count (and both digests) agrees across the
    `records` of each trace, on the names they share (only traced passes
    count scheduling passes). A trace with one record has nothing to compare."""
    for seed, group in sorted(by_trace(records).items()):
        if len(group) < 2:
            continue
        views = [deterministic_view(r) for r in group]
        shared = set.intersection(*(set(v) for v in views))
        diffs = sorted(k for k in shared if len({v[k] for v in views}) > 1)
        checks.add("%s (trace %d)" % (name, seed), not diffs,
                   "differ: %s" % ", ".join(diffs))


def by_trace(records):
    groups = {}
    for record in records:
        groups.setdefault(record["seed"], []).append(record)
    return groups


def trace_seeds(seed):
    return [seed + i * TRACE_STRIDE for i in range(TRACES_PER_RUN)]


def collect(workload, seed, seconds, traced):
    """Runs passes for about `seconds`, at least one of each kind.

    Untraced-only runs take turns over trace_seeds(seed); traced runs pair
    each untraced pass with a traced one on the trace of `seed`. A pass can
    take a quarter of a run, so the run stops where the next pass would end
    further past `seconds` than stopping now falls short of it."""
    untraced, traced_passes = [], []
    seeds = [seed] if traced else trace_seeds(seed)
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        pass_seed = seeds[len(untraced) % len(seeds)]
        untraced.append(run_pass(workload, pass_seed))
        if traced:
            traced_passes.append(run_pass(workload, pass_seed, traced=True))
        now = time.monotonic()
        if now - start + (now - round_start) / 2 >= seconds:
            return untraced, traced_passes


def end_to_end(untraced):
    setup = [s for p in untraced for s in p["setup_samples"]]
    return {
        "wall_s": median(untraced, "wall_s"),
        "setup_s": statistics.median(setup),
        "jobs_per_s": statistics.median(
            p["values"]["workload.jobs"] / p["values"]["wall_s"]
            for p in untraced),
        "peak_rss_mb": median(untraced, "peak_rss_mb"),
    }


def per_layer(workload, seed, untraced, traced, checks):
    metrics = {}
    for name in PER_LAYER_UNITS:
        if name in traced[0]["deterministic"]:
            metrics[name] = traced[0]["values"][name]  # checked identical
        elif name in traced[0]["values"]:
            metrics[name] = median(traced, name)
    # The engine's own cost, free of profiler slices and allocation counting.
    metrics["sched.run_s"] = median(untraced, "sched.run_s")
    metrics["sim.ns_per_event"] = (
        1e9 * metrics["sched.run_s"] / metrics["sim.events"])
    metrics["trace.overhead_frac"] = (
        median(traced, "wall_s") / median(untraced, "wall_s") - 1.0)
    metrics["mem.sinks_mb"] = 0.0
    if workload == "observed75":
        # HWM growth across Run with every sink attached, over the same
        # growth for the same trace with none (paper75).
        baseline = run_pass("paper75", seed)
        checks.add_pass(baseline)
        # Sinks observe, they never steer: the simulation is unchanged.
        observed = deterministic_view(untraced[0])
        diffs = sorted(k for k, v in deterministic_view(baseline).items()
                       if not k.startswith("obs.") and k != "events_sha256"
                       and observed.get(k) != v)
        checks.add("sinks leave the simulation unchanged", not diffs,
                   "differ: %s" % ", ".join(diffs))

        def growth(passes):
            return statistics.median(
                p["values"]["mem.after_run_mb"] - p["values"]["mem.before_run_mb"]
                for p in passes)
        metrics["mem.sinks_mb"] = growth(untraced) - growth([baseline])
    missing = sorted(set(PER_LAYER_UNITS) - set(metrics))
    if missing:
        raise BenchError("traced pass did not report: %s" % ", ".join(missing))
    return metrics


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def print_context(records):
    host = {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "compiler": records[0]["build"]["compiler"],
        "build_type": records[0]["build"]["build_type"],
    }
    print("# host: %s" % json.dumps(host, sort_keys=True))
    print("# command: %s" % " ".join(
        shlex.quote(a) for a in ["python3", "perfbench/run.py"] + sys.argv[1:]))
    for seed, group in sorted(by_trace(records).items()):
        print("# digest trace %d: %s" % (
            seed, json.dumps(group[0]["digest"], sort_keys=True)))


def benchmark(args):
    build()
    checks = Checks()
    untraced, traced = collect(args.workload, args.seed, args.seconds,
                               args.trace == 1)
    for record in untraced + traced:
        checks.add_pass(record)
    check_identical(checks, "deterministic across untraced passes", untraced)
    if args.trace == 1:
        check_identical(checks, "deterministic traced vs untraced",
                        untraced + traced)
        check_identical(checks, "deterministic across traced passes", traced)
        values = per_layer(args.workload, args.seed, untraced, traced, checks)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(untraced)
        units = END_TO_END_UNITS
    print_context(untraced)
    print("# passes: %d untraced, %d traced" % (len(untraced), len(traced)))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)


def self_test(args):
    build()
    workloads = [args.workload] if args.workload else WORKLOADS
    all_fired = True
    for workload in workloads:
        record = run_pass(workload, args.seed, self_test=True)
        checks = record["checks"]
        clean = checks["failed"] == 0
        print("%s seed %d: %d checks on the real outputs, %d failed" % (
            workload, args.seed, checks["attempted"], checks["failed"]))
        for name, fired in sorted(record["self_test"].items()):
            print("  %-24s %s" % (name, "fires" if fired else "DID NOT FIRE"))
            all_fired = all_fired and fired
        all_fired = all_fired and clean and bool(record["self_test"])
    print("self-test %s" % ("passed" if all_fired else "FAILED"))
    return 0 if all_fired else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.self_test:
            return self_test(args)
        if args.workload is None:
            parser.error("--workload is required")
        benchmark(args)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

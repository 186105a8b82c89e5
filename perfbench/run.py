#!/usr/bin/env python3
"""Host-cost benchmark for rofs: what one figure cell costs in host time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds perfbench/ (the simulator library
from src/ plus the rofs_perfbench harness) under $CARGO_TARGET_DIR (default
.bench_build), then runs the workload's experiment again and again, each in
a process of its own, until S seconds have passed. It checks that every
experiment's simulated result record is identical and in range, prints a
digest of that record, and prints one JSON object as the last line of
stdout:

  --trace 0: the end-to-end metrics, from plain runs (run_wall_s, setup_s,
             peak_rss_mib), each the median over the experiments run.
  --trace 1: the per-layer metrics, from rounds of a plain run, a run with
             obs metrics toggled, and a traced run (phase hooks, timed
             allocator, obs metrics on); spans go to
             <build dir>/spans/<workload>-seed<N>.json.

See perfbench/README.md for the workloads and what each metric predicts.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from statistics import median

WORKLOADS = ("fill_extent", "fill_cache", "io_cscan", "alloc_extent")
# Fewest plain experiments behind a --trace 0 median, and the time after
# which no new experiment starts, so a run ends well inside 180 s.
MIN_PLAIN = 3
HARD_STOP_S = 150

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds the harness; returns the binary, the build
    directory and a provenance line (build type, flags, compiler, CPUs)."""
    if not os.path.isfile(os.path.join(SRC_DIR, "exp", "experiment.h")):
        fail(f"simulator sources not found at {SRC_DIR}")
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            key, sep, value = line.strip().partition("=")
            if sep:
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[:1]
    provenance = (f"build={cache.get('CMAKE_BUILD_TYPE', '?')} "
                  f"flags='{cache.get('CMAKE_CXX_FLAGS_RELEASE', '?')}' "
                  f"compiler={version[0] if version else compiler} "
                  f"cpus={os.cpu_count()}")
    return os.path.join(build_dir, "rofs_perfbench"), build_dir, provenance


def experiment(binary, workload, seed, timeout, metrics=None, traced=False):
    """Runs one experiment in its own process; returns its JSON line, or
    None when it failed (error Status, crash, or timeout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if metrics is not None:
        cmd += ["--metrics", "1" if metrics else "0"]
    if traced:
        cmd += ["--traced", "1"]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return None
    if p.returncode == 2:  # Usage error or a ROFS_* knob set: not a run.
        fail(p.stderr.strip(), 2)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if p.returncode != 0 or not result.get("ok"):
        print(f"perfbench: {workload} failed: "
              f"{result.get('error') or p.stderr.strip()}", file=sys.stderr)
        return None
    return result


def sim_record(result):
    """The simulated result without obs.* metrics: what must be identical
    across plain, metrics-toggled and traced runs."""
    metrics = result["record"]["metrics"]
    return {k: v for k, v in metrics.items() if not k.startswith("obs.")}


def range_errors(workload, rec):
    """Sanity ranges of one simulated result record."""
    errors = []

    def check(ok, what):
        if not ok:
            errors.append(what)

    check(all(math.isfinite(v) and v >= 0 for v in rec.values()),
          "every metric finite and non-negative")
    check(rec.get("ops", 0) > 0, "ops > 0")
    check(rec.get("sim.events", 0) >= rec.get("ops", 0), "events >= ops")
    check(0 <= rec.get("internal_frag", -1) <= 1, "internal_frag in [0,1]")
    check(rec.get("allocator.failed_allocs", 0) <= rec.get("allocator.calls",
                                                           0),
          "failed allocs <= alloc calls")
    if workload == "alloc_extent":
        check(0 < rec.get("utilization", 0) <= 1, "utilization in (0,1]")
        check(0 <= rec.get("external_frag", -1) <= 1, "external_frag in [0,1]")
        check(rec.get("allocator.failed_allocs", 0) >= 1,
              "the test ends at an allocation failure")
    else:
        check(0 < rec.get("throughput_of_max", 0) < 10, "throughput_of_max")
        # The pinned measurement windows (simulated ms), with a sample
        # interval of slack: the clock stops at the window's last event.
        lo, hi = ((590_000, 610_000) if workload == "io_cscan" else
                  (10_000, 70_000))
        check(lo <= rec.get("measured_ms", 0) <= hi,
              f"measured_ms in [{lo}, {hi}]")
    return errors


def digest(rec):
    text = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    binary, build_dir, provenance = build()
    start = time.monotonic()
    deadline = start + args.seconds
    runs = {"plain": [], "toggled": [], "traced": []}
    attempted = failed = 0
    reference = {}  # variant -> first full record; "sim" -> sim record.

    def one(key, metrics=None, traced=False):
        """Runs and checks one experiment; keeps it under runs[key]."""
        nonlocal attempted, failed
        attempted += 1
        budget = HARD_STOP_S - (time.monotonic() - start)
        r = experiment(binary, args.workload, args.seed, budget, metrics,
                       traced)
        problems = []
        if r is not None:
            rec = sim_record(r)
            reference.setdefault("sim", rec)
            reference.setdefault(key, r["record"]["metrics"])
            if rec != reference["sim"]:
                problems.append("simulated record differs between runs")
            if r["record"]["metrics"] != reference[key]:
                problems.append(f"{key} record differs between runs")
            problems += range_errors(args.workload, rec)
            if traced:
                counts = (r["phases"]["fill"]["ops"],
                          r["phases"]["measure"]["ops"], r["alloc"]["calls"])
                reference.setdefault("counts", counts)
                if counts != reference["counts"]:
                    problems.append("traced op/call counts differ")
        if r is None or problems:
            failed += 1
            for p in problems:
                print(f"perfbench: {args.workload}: {p}", file=sys.stderr)
            return None
        runs[key].append(r)
        return r

    # One round: a plain run; with --trace 1 also a run with the
    # workload's obs-metrics setting flipped and a traced run.
    round_s = []
    while True:
        t0 = time.monotonic()
        plain = one("plain")
        if plain is None and not runs["plain"]:
            break
        if args.trace and plain is not None:
            one("toggled", metrics=not plain["metrics"])
            one("traced", metrics=True, traced=True)
        round_s.append(time.monotonic() - t0)
        now = time.monotonic()
        enough = len(round_s) >= (1 if args.trace else MIN_PLAIN)
        if (enough and now + median(round_s) > deadline) or \
                now - start > HARD_STOP_S:
            break

    if not runs["plain"] or (args.trace and not runs["traced"]):
        fail(f"{args.workload}: no successful experiment")

    sim = reference["sim"]
    print(f"# {provenance}")
    print(f"# digest {args.workload} seed={args.seed} {digest(sim)} "
          f"(sim.events={sim['sim.events']:.0f} ops={sim['ops']:.0f})")
    plain_wall = median([r["wall_s"] for r in runs["plain"]])
    if args.trace:
        metrics = per_layer(runs, plain_wall)
        write_spans(build_dir, args, runs["traced"])
    else:
        metrics = {
            "run_wall_s": (plain_wall, "s"),
            "setup_s": (median([r["setup_s"] for r in runs["plain"]]), "s"),
            "peak_rss_mib":
                (median([r["peak_rss_kib"] for r in runs["plain"]]) / 1024,
                 "MiB"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def per_layer(runs, plain_wall):
    traced = runs["traced"]
    first = traced[0]
    obs = first["record"]["metrics"]
    events = first["record"]["metrics"]["sim.events"]
    alloc = first["alloc"]
    phase = {p: median([r["phases"][p]["s"] for r in traced])
             for p in ("init", "fill", "measure")}
    alloc_phase = {p: median([r["phases"][p]["alloc_s"] for r in traced])
                   for p in ("fill", "measure")}
    traced_wall = median([r["wall_s"] for r in traced])
    fill_ops = first["phases"]["fill"]["ops"]
    measure_ops = first["phases"]["measure"]["ops"]
    alloc_s = median([r["alloc"]["self_s"] for r in traced])

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    on = [r["wall_s"] for r in runs["plain"] + runs["toggled"] if r["metrics"]]
    off = [r["wall_s"] for r in runs["plain"] + runs["toggled"]
           if not r["metrics"]]
    return {
        "exp.init_s": (phase["init"], "s"),
        "exp.fill_s": (phase["fill"], "s"),
        "exp.measure_s": (phase["measure"], "s"),
        "workload.fill_ops": (fill_ops, "count"),
        "workload.measure_ops": (measure_ops, "count"),
        "workload.fill_ops_per_s": (rate(fill_ops, phase["fill"]), "1/s"),
        "workload.measure_ops_per_s":
            (rate(measure_ops, phase["measure"]), "1/s"),
        "sim.events": (events, "count"),
        "sim.events_per_s": (rate(events, traced_wall), "1/s"),
        "sim.events_per_op": (rate(events, fill_ops + measure_ops), "count"),
        "alloc.self_s": (alloc_s, "s"),
        "alloc.share": (rate(alloc_s, traced_wall), "ratio"),
        "alloc.extend_calls": (alloc["extend_calls"], "count"),
        "alloc.extend_fail_ratio":
            (rate(alloc["extend_failed"], alloc["extend_calls"]), "ratio"),
        "alloc.truncate_calls": (alloc["truncate_calls"], "count"),
        "alloc.delete_calls": (alloc["delete_calls"], "count"),
        "alloc.ns_per_call": (rate(alloc_s * 1e9, alloc["calls"]), "ns"),
        "fs.cache.hits": (obs.get("obs.cache.hits", 0), "count"),
        "fs.cache.misses": (obs.get("obs.cache.misses", 0), "count"),
        "fs.cache.evictions": (obs.get("obs.cache.evictions", 0), "count"),
        "fs.physical_read_du": (obs.get("obs.fs.physical_read_du", 0), "du"),
        "fill.other_s": (phase["fill"] - alloc_phase["fill"], "s"),
        "disk.accesses": (obs.get("obs.disk.accesses", 0), "count"),
        "disk.busy_ms": (obs.get("obs.disk.busy_ms", 0), "ms"),
        "disk.queue_wait_ms.p50":
            (obs.get("obs.disk.queue_wait_ms.p50", 0), "ms"),
        "disk.queue_wait_ms.p99":
            (obs.get("obs.disk.queue_wait_ms.p99", 0), "ms"),
        "disk.sched.dispatches":
            (obs.get("obs.disk.sched.dispatches", 0), "count"),
        "disk.sched.mean_queue_depth":
            (obs.get("obs.disk.sched.mean_queue_depth", 0), "count"),
        "disk.sched.reorders": (obs.get("obs.disk.sched.reorders", 0),
                                "count"),
        "measure.other_s": (phase["measure"] - alloc_phase["measure"], "s"),
        "obs.metrics_overhead_s": (median(on) - median(off), "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
    }


def write_spans(build_dir, args, traced):
    """Run -> phase spans of every traced experiment, with the allocator's
    aggregated time per phase (allocator calls are too many for spans)."""
    spans = []
    for i, r in enumerate(traced):
        run_id = f"run{i}"
        spans.append({"id": run_id, "parent": None, "name": "run",
                      "start_s": 0.0, "end_s": r["wall_s"]})
        t = 0.0
        for p in ("init", "fill", "measure"):
            ph = r["phases"][p]
            spans.append({"id": f"{run_id}.{p}", "parent": run_id, "name": p,
                          "start_s": t, "end_s": t + ph["s"],
                          "ops": ph["ops"], "alloc_s": ph["alloc_s"]})
            t += ph["s"]
    out_dir = os.path.join(build_dir, "spans")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "spans": spans}, f, indent=1)


if __name__ == "__main__":
    main()

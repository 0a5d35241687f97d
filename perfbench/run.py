#!/usr/bin/env python3
"""The repository benchmark: one command for the mapper and the model.

Run from the repository root:

    python3 perfbench/run.py --workload attn-search --seed 1 --seconds 35 --trace 0

It builds perfbench/ (the tileflow library from src/ plus the C++
harness perfbench.cpp) into .bench_build/perfbench, runs one workload,
and prints informational lines followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics,
measured with tracing off; with --trace 1 they are its per_layer
metrics, from a separate traced run. --quick shrinks every workload to
a tiny size (used by perfbench/selftest.py). See perfbench/NOTES.md.
"""

import argparse
import bisect
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("attn-search", "chain-search", "model-eval")
BUILD_JOBS = 4


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the harness; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(BUILD_JOBS),
                  "--target", "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def nearest_rank(values, q):
    values = sorted(values)
    if not values:
        return float("nan")
    rank = max(1, math.ceil(q * len(values)))
    return values[min(rank, len(values)) - 1]


def cpu_times():
    """The host's aggregate CPU jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return [int(x) for x in fields[1:]] if fields[:1] == ["cpu"] else None


def host_load(before, after):
    """Share of host CPU time that was iowait and steal between two
    cpu_times() readings, and the 1-minute load average: a run taken
    while other tenants load the host shows here and can be rerun."""
    load = {"host_loadavg_1m": os.getloadavg()[0]}
    if before and after:
        delta = [b - a for a, b in zip(before, after)]
        total = sum(delta[:8]) or 1  # user .. steal; guest is in user
        load["host_iowait_ratio"] = delta[4] / total
        load["host_steal_ratio"] = delta[7] / total if len(delta) > 7 else 0
    return load


def union_ns(intervals):
    """Total length covered by a set of (start, end, ...) intervals."""
    covered, end = 0.0, -math.inf
    for span in sorted(intervals):
        if span[1] > end:
            covered += span[1] - max(span[0], end)
            end = span[1]
    return covered


def span_layers(trace_path, threads):
    """Per-layer metrics reduced from the traced run's Chrome trace:
    engine spans (ga.generation, mcts.batch, threadpool.task) and the
    bench-side perfbench.search / dataflows.build spans."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    spans = {}
    for ev in events:
        if ev.get("ph") == "X":
            start = float(ev["ts"]) * 1e3
            spans.setdefault(ev["name"], []).append(
                (start, start + float(ev["dur"]) * 1e3, ev["tid"]))
    # Searches run one at a time and generations one at a time, so each
    # list is sorted and non-overlapping: bisect finds the enclosing one.
    searches = sorted(spans.get("perfbench.search", []))
    gens = sorted(spans.get("ga.generation", []))
    tasks = spans.get("threadpool.task", [])

    def dur(span):
        return span[1] - span[0]

    def owner(span, outer):
        i = bisect.bisect_right(outer, (span[0], math.inf)) - 1
        return outer[i] if i >= 0 and span[1] <= outer[i][1] else None

    def in_searches(name):
        return [s for s in spans.get(name, []) if owner(s, searches)]

    # A generation's parallelFor enqueues every individual at once, so a
    # task's queue wait is its start minus its generation's start.
    waits = [t[0] - g[0] for t in tasks for g in [owner(t, gens)] if g]

    # Engine self time, summed over threads: each worker's task time, plus
    # the calling thread's serial time (search time during which no task
    # runs; it blocks while a parallelFor's tasks run), minus the traced
    # layer calls (tree builds, evaluations) on each thread. The lower
    # bound has no span in the library, so its time counts here.
    search_tasks = in_searches("threadpool.task")
    serial = sum(map(dur, searches)) - union_ns(search_tasks)
    layers = in_searches("evaluate") + in_searches("dataflows.build")
    layer_time = sum(union_ns([s for s in layers if s[2] == tid])
                     for tid in {s[2] for s in layers})
    self_ns = serial + sum(map(dur, search_tasks)) - layer_time
    p50 = lambda name: nearest_rank(map(dur, spans.get(name, [])), 0.5)
    return {
        "ga.generation_ns_p50": (p50("ga.generation"), "ns"),
        "mcts.batch_ns_p50": (p50("mcts.batch"), "ns"),
        "mapper.engine_self_ms": (self_ns / max(1, len(searches)) / 1e6,
                                  "ms"),
        "threadpool.queue_wait_ns_p50": (nearest_rank(waits, 0.5), "ns"),
        "threadpool.queue_wait_ns_p90": (nearest_rank(waits, 0.9), "ns"),
        "threadpool.task_run_ns_p50": (p50("threadpool.task"), "ns"),
        "threadpool.busy_ratio": (sum(map(dur, tasks))
                                  / (sum(map(dur, gens)) * threads), "ratio"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not build():
        return 1

    trace_path = os.path.join(BUILD, "trace-%s.json" % args.workload)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--specs", os.path.join(ROOT, "examples", "specs")]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    if args.quick:
        cmd.append("--quick")
    cpu_before = cpu_times()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if done.returncode != 0:
        log("perfbench: harness exited with %d" % done.returncode)
        return 1
    out = json.loads(done.stdout.strip().splitlines()[-1])
    out["env"].update(host_load(cpu_before, cpu_times()))

    metrics = out["metrics"]
    if args.trace:
        threads = int(out["env"]["mapper_threads"])
        for name, (value, unit) in span_layers(trace_path, threads).items():
            metrics[name] = {"value": value, "unit": unit}
        os.remove(trace_path)

    # Correct only when every check passed and every metric BENCHMARK.json
    # names came out as a finite number in its declared unit.
    problems = list(out["errors"])
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append("metric %s missing or not in %s"
                            % (m["name"], m["unit"]))
        elif got["value"] is None or not math.isfinite(got["value"]):
            problems.append("metric %s is not a finite number" % m["name"])
    names = {m["name"] for m in wanted}
    metrics = {k: v for k, v in metrics.items() if k in names}

    attempted = int(out["attempted"])
    failed = int(out["failed"])
    print("env: " + json.dumps(out["env"], sort_keys=True))
    print("info: " + json.dumps(out["info"], sort_keys=True))
    print("error_rate: %.6g (%d of %d operations failed)"
          % (failed / max(1, attempted), failed, attempted))
    if not args.trace:
        print("result_digest: " + out["result_digest"])
    for p in problems:
        print("problem: " + p)
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Quick self-test of the benchmark: every workload at a tiny size.

For each workload in BENCHMARK.json it runs perfbench/run.py with
--quick, untraced and traced, and checks that

  - the run is correct and prints exactly the metrics BENCHMARK.json
    names for that mode (end_to_end untraced, per_layer traced), each
    with its declared unit and a finite value;
  - another --seed changes the draw (the result digest) but not the
    metric names.

Run from the repository root:  python3 perfbench/selftest.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    digest = [l.split()[-1] for l in lines if l.startswith("result_digest:")]
    return json.loads(lines[-1]), digest[0] if digest else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        before = len(problems)
        digests = {}
        names = {}
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            section = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in spec[section]}
            result, digest = run(workload, seed, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            where = "%s seed %d trace %d" % (workload, seed, trace)
            if got != want:
                problems.append("%s: metrics %s, expected %s"
                                % (where, sorted(got.items()),
                                   sorted(want.items())))
            if any(v["value"] is None or not math.isfinite(v["value"])
                   for v in result["metrics"].values()):
                problems.append(where + ": a metric is not finite")
            if not result["correct"] or result["failed"]:
                problems.append(where + ": run is not correct")
            if not trace:
                digests[seed] = digest
                names[seed] = sorted(got)
        if digests[1] is None or digests[1] == digests[2]:
            problems.append(workload + ": --seed does not change the draw")
        if names[1] != names[2]:
            problems.append(workload + ": --seed changes the metric names")
        print("%s: %s" % (workload,
                          "ok" if len(problems) == before else "FAILED"))
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

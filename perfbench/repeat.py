"""Run one workload several times and summarise each metric.

    python3 perfbench/repeat.py --workload stream [--runs 10] [--first-seed 1]

Runs ``run.py`` once per seed (first-seed, first-seed + 1, ...), one after
the other, for the run length in BENCHMARK.json, and prints for every
metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median.  Beside each
end-to-end metric it prints the bound from BENCHMARK.json and whether the
spread is within a third of it, the margin the bounds are set from.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, config


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("quartiles need at least two runs")

    bounds = {m["name"]: m["bound"] for m in config()["end_to_end"]}
    results = []
    for n in range(args.runs):
        seed = args.first_seed + n
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit("run with seed %d failed (exit %d)"
                     % (seed, proc.returncode))
        result = json.loads(lines[-1])
        results.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.6g" % (k, v["value"])
                     for k, v in result["metrics"].items())),
            flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print("correct in every run: %s; failed shares: %s" % (
        all(r["correct"] for r in results), sorted(shares)))
    print("%-42s %12s %12s %12s %8s %6s %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "spread<bound/3"))
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median, q1, q3, spread = summarise(values)
        bound = bounds.get(name)
        verdict = "" if bound is None else ("yes" if spread < bound / 3
                                            else "NO")
        print("%-42s %12.6g %12.6g %12.6g %8.4f %6s %s" % (
            "%s (%s)" % (name, first["unit"]), median, q1, q3, spread,
            "" if bound is None else bound, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload stream|search|analyze \
        [--seed N] [--seconds S] [--trace 0|1]

One process, one thread, one caller in a closed loop: the next operation
starts when the previous one has returned and its outputs were checked.
Set-up (imports, inputs made from the seed and written to files, one
untimed warm-up operation) is timed apart from the operations.  ``--seconds``
defaults to ``run_seconds`` in BENCHMARK.json.  With ``--trace 0`` the last
line of standard output holds the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run, whose operations alternate
between traced and untraced so that the run also measures its own overhead.
See README.md in this directory.
"""

from __future__ import annotations

import os
import time

# The start of the first interpreter, carried through the re-execution under
# a fixed hash seed (see _same_hashing).  time.monotonic() reads
# CLOCK_MONOTONIC on Linux, one clock for the whole machine.
START_ENV = "PERFBENCH_STARTED"
STARTED = float(os.environ.get(START_ENV, time.monotonic()))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import NamedTuple  # noqa: E402

import machine  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
HASH_SEED = "0"
BUILD_REPEATS = 3
DEADLINE_S = 170  # a run that is still going then stops and reports


class Op(NamedTuple):
    """Wall and CPU seconds of one operation and of one ref while it ran
    (see machine.py), its per-layer values in a traced run, and whether it
    raised."""

    wall: float
    cpu: float
    ref_wall: float
    ref_cpu: float
    layers: dict
    failed: bool


class RunTimeout(BaseException):
    """The run outlived its deadline; the operation in flight is lost.  Not
    an Exception, so that no handler for the program's errors takes it."""


def _on_alarm(signum, frame):
    raise RunTimeout("run exceeded %d s" % DEADLINE_S)


def config():
    """BENCHMARK.json at the repository root."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream", "search", "analyze"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = config()["run_seconds"]
    return args


def _same_hashing():
    """Re-run this process under a fixed hash seed, once.  Set iteration
    order, and with it the program's work, then repeats from run to run."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        env[START_ENV] = repr(STARTED)
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "codetuples", "__init__.py")):
        sys.exit("perfbench: no program source at %s" % src)
    sys.path.insert(0, src)
    import workloads
    return workloads


def _median_ms(values):
    return statistics.median(values) * 1000.0


def _in_refs(sampler, func):
    """Run func under the sampler: (its result, its wall time in refs, the
    wall seconds of one ref)."""
    sampler.begin()
    wall0 = time.perf_counter()
    try:
        result = func()
    finally:
        sampler.stop()
        wall = time.perf_counter() - wall0
        wall, _, ref_wall, _ = sampler.end(wall, 0.0)
    return result, wall / ref_wall, ref_wall


def main(argv=None):
    args = _parse_args(argv)
    _same_hashing()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    sampler = machine.Sampler()
    before_s = time.monotonic() - STARTED  # start-up and re-execution
    workloads, import_refs, ref_wall = _in_refs(sampler, _import_program)

    workload = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, workloads, workload, workdir, sampler,
                    before_s / ref_wall + import_refs)
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workloads, workload, workdir, sampler, setup_refs):
    builds = []
    for _ in range(BUILD_REPEATS):
        pool, refs, _ = _in_refs(
            sampler, lambda: workload.build(args.seed, workdir))
        builds.append(refs)
    setup_refs += statistics.median(builds)

    tracer = tracing.Tracer() if args.trace else None
    correct = True
    problems = []

    def one(item, traced):
        """Run, time and check one operation."""
        nonlocal correct
        workloads.empty_caches()
        gc.collect()
        sampler.begin()
        if traced:
            tracer.begin_op()
            tracer.install()
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        try:
            outputs = workload.op(item, tracer if traced else None)
        except Exception as exc:  # a failed operation is counted, not fatal
            problems.append("operation failed: %r" % (exc,))
            outputs = None
        finally:
            sampler.stop()
            wall, cpu = (time.perf_counter() - wall0,
                         time.thread_time() - cpu0)
            if traced:
                tracer.uninstall()
            times = sampler.end(wall, cpu)
        if outputs is None:
            return Op(*times, {}, True)
        layers = tracer.op_values() if traced else {}
        try:
            workload.check(outputs)
        except Exception as exc:  # an output the checks cannot read is wrong
            correct = False
            problems.append("check failed: %r" % (exc,))
        if tracer is not None and hasattr(workload, "layer_values"):
            layers.update(workload.layer_values(outputs))
        return Op(*times, layers, False)

    plain, traced = [], []
    attempted = failed = 0
    setup_s = None
    try:
        warm = one(pool[0], False)
        setup_refs += warm.wall / warm.ref_wall
        setup_s = setup_refs * machine.NOMINAL_REF_S
        gc.collect()
        gc.freeze()
        setup_raw_s = time.monotonic() - STARTED
        phase0 = time.perf_counter()
        while time.perf_counter() - phase0 < args.seconds:
            item = pool[(attempted + 1) % len(pool)]
            use_tracer = bool(args.trace) and attempted % 2 == 1
            attempted += 1
            result = one(item, use_tracer)
            if result.failed:
                failed += 1
            else:
                (traced if use_tracer else plain).append(result)
    except RunTimeout as exc:
        sampler.stop()
        if setup_s is None:
            attempted += 1  # the warm-up operation
        failed += 1
        correct = False  # the final check cannot run in time
        problems.append(str(exc))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    final_check = getattr(workload, "final_check", None)
    if final_check is not None and correct:
        try:
            final_check(args.seed)
        except workloads.oracle.CheckFailed as exc:
            correct = False
            problems.append("check failed: %s" % exc)
        except RunTimeout as exc:
            correct = False
            problems.append("final check: %s" % exc)
    signal.alarm(0)

    for line in problems:
        print("perfbench: %s" % line, file=sys.stderr)
    if not plain:
        print("perfbench: no operation completed", file=sys.stderr)
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    if args.trace:
        metrics = _layer_metrics(plain, traced)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, "trace-%s-seed%d.tsv"
                                  % (args.workload, args.seed)))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_kref": {
                "value": 1000.0 * len(plain)
                / sum(op.wall / op.ref_wall for op in plain),
                "unit": "1/kref"},
            "op_p50_ref": {
                "value": statistics.median(op.wall / op.ref_wall
                                           for op in plain),
                "unit": "ref"},
            "op_cpu_p50_ref": {
                "value": statistics.median(op.cpu / op.ref_cpu
                                           for op in plain),
                "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print("perfbench: %s: %d operations, op_p50_ms=%.1f op_cpu_p50_ms=%.1f "
          "ops_per_s=%.4g ref_p50_ms=%.3f setup_raw_s=%.3f" % (
              args.workload, len(plain),
              _median_ms([op.wall for op in plain]),
              _median_ms([op.cpu for op in plain]),
              len(plain) / sum(op.wall for op in plain),
              _median_ms([op.ref_wall for op in plain]),
              setup_raw_s), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_metrics(plain, traced):
    """Median over the traced operations of each per-layer value, and the
    tracing overhead on the median operation time: traced minus untraced,
    in refs, times the median ref in ms."""
    if not traced:
        traced = plain  # a run too short for a traced operation
    metrics = {}
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        values = [op.layers.get(name, 0) for op in traced]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    # from the untraced operations, whose decode times carry no wrappers
    growth = [op.layers["codec.decode_growth"] for op in plain
              if "codec.decode_growth" in op.layers]
    metrics["codec.decode_growth"] = {
        "value": statistics.median(growth) if growth else 0.0, "unit": "1"}
    # in refs, so that a change of machine speed between the traced and
    # the untraced operations does not show as overhead
    refs = [op.wall / op.ref_wall for op in traced], \
        [op.wall / op.ref_wall for op in plain]
    metrics["trace.overhead_ms"] = {
        "value": ((statistics.median(refs[0]) - statistics.median(refs[1]))
                  * _median_ms([op.ref_wall for op in traced + plain])),
        "unit": "ms"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())

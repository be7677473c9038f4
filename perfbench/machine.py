"""How fast the machine runs the interpreter while an operation runs.

On a shared host the speed of one core changes from moment to moment: a
fixed pure-Python loop timed in 2-second windows on a 2-vCPU Xeon VM moved
between a fast and a slow state many times a second, and the share of fast
time changed from one window to the next, so the median operation time of
whole 20-second runs spread by 10-23% between runs.  The benchmark
therefore reports operation times in units of a fixed reference loop (one
"ref", about 2 ms there), timed right before and after each operation and,
through a CPU-time interval timer, every ``PERIOD_S`` of CPU time during
it.  The time spent in those samples is taken out of the operation's own
time.  A loop of string slices and dict updates alone tracked the machine
less well for ``analyze`` (spread 0.068 against 0.026 over five
interleaved runs) than this mix, which also builds, sorts and indexes small
objects.
"""

from __future__ import annotations

import gc
import signal
import time

EDGE_SAMPLES = 4  # samples before and after every operation
# Sampling every 10 ms rather than every 100 ms of CPU time halved the
# spread of single operation times in refs (log standard deviation 0.107
# to 0.060 on analyze, 0.092 to 0.055 on stream, 0.085 to 0.043 on search,
# about 230 interleaved operations each), at the cost of about a sixth of
# a run's time spent sampling.
PERIOD_S = 0.01
# Wall seconds of one ref on the host the benchmark was built on (the
# median over 20 runs of stream and search was 1.8 ms).  Set-up time is measured in refs and
# reported as refs times this, so that it reads in seconds there and does
# not move with the host's speed.
NOMINAL_REF_S = 0.0018


class _Cell:
    __slots__ = ("key", "text")

    def __init__(self, key, text):
        self.key = key
        self.text = text


def reference_loop():
    """Fixed work of the kinds the program does: string slices, dict
    updates, small objects built, sorted and indexed."""
    table = {}
    text = "0110100110010110" * 4
    for i in range(2500):
        key = text[i % 48:i % 48 + 8]
        table[key] = table.get(key, 0) + i
    cells = [_Cell(i * 7919 % 1000, str(i)) for i in range(800)]
    cells.sort(key=lambda c: (c.key, c.text))
    index = {c.text: c for c in cells}
    return len(table) + len(index) + len("".join(c.text for c in cells[::3]))


def sample():
    """(wall, CPU) seconds of one reference loop, run with the garbage
    collector off: the loop's small objects would otherwise start
    collections of the operation's objects, whose cost would be charged to
    the ref and taken out of the operation's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        reference_loop()
        return time.perf_counter() - wall0, time.thread_time() - cpu0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Reference samples around and during one operation."""

    def __init__(self):
        self.samples = []
        self.paused = (0.0, 0.0)  # wall, CPU spent sampling during the op
        signal.signal(signal.SIGPROF, self._tick)

    def _tick(self, signum, frame):
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        self.samples.append(sample())
        self.paused = (self.paused[0] + time.perf_counter() - wall0,
                       self.paused[1] + time.thread_time() - cpu0)

    def begin(self):
        """Sample before the operation, then every PERIOD_S of CPU time
        while it runs."""
        self.samples = [sample() for _ in range(EDGE_SAMPLES)]
        self.paused = (0.0, 0.0)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    @staticmethod
    def stop():
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def end(self, wall, cpu):
        """Sample after the operation, which ended with ``stop``.  Returns
        its wall and CPU seconds without the time the samples took, and the
        mean wall and CPU seconds of one ref."""
        self.samples.extend(sample() for _ in range(EDGE_SAMPLES))
        n = len(self.samples)
        return (wall - self.paused[0], cpu - self.paused[1],
                sum(s[0] for s in self.samples) / n,
                sum(s[1] for s in self.samples) / n)

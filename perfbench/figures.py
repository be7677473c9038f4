"""Reference figures that the workloads do not measure, printed as text.

    python3 perfbench/figures.py [--seed N]

- decode time on r3 at 1k, 4k and 16k bits, and its log-log slope;
- for each search filter at sigma=3, length<=3: the cold call (scan and
  combine), a warm call (combine only) and their difference (the scan);
- peak RSS and time of a cold sigma=4, length<=3 aifv search, in a child
  process of its own so that its memory is measured alone.

Takes about a minute; one run of each, so read the figures as orders of
magnitude.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from codetuples import codec, reference, search  # noqa: E402
from codetuples.bits import Bits  # noqa: E402
from codetuples.core import Alphabet, SourceDist  # noqa: E402

import workloads  # noqa: E402

BIG_SEARCH = """
import resource, sys, time
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from codetuples.core import Alphabet, SourceDist
from codetuples.search import SearchSpace, enumerate_min
dist = SourceDist(Alphabet(("a", "b", "c", "d")),
                  tuple(Fraction(n, 10) for n in (1, 2, 3, 4)))
t0 = time.perf_counter()
enumerate_min(SearchSpace(4, 2, 3, "aifv"), dist)
print("%.1f s, peak RSS %.0f MB" % (
    time.perf_counter() - t0,
    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))
"""


def decode_growth(seed):
    code = reference.TUPLES["r3"]
    words, targets = workloads.plain(code)
    rng = random.Random("figures:%d" % seed)
    sizes = (1024, 4096, 16384)
    ok = workloads.exact_lengths(words, targets, max(sizes))
    times = []
    for n in sizes:
        src = workloads.random_source(words, targets, 0, n, ok, rng)
        bits = Bits(workloads.oracle.encode(words, targets, 0, src)[0])
        workloads.empty_caches()
        t0 = time.perf_counter()
        codec.decode(code, 0, bits)
        times.append(time.perf_counter() - t0)
        print("decode r3, %5d bits: %8.1f ms" % (n, times[-1] * 1000))
    slope = math.log(times[-1] / times[0]) / math.log(sizes[-1] / sizes[0])
    print("decode log-log slope, 1k to 16k bits: %.2f" % slope)


def scan_split(seed):
    rng = random.Random("figures:%d" % seed)
    alphabet = Alphabet(workloads.SEARCH_NAMES)
    for name in ("f0", "aifv"):
        space = search.SearchSpace(3, 2, 3, name)
        workloads.empty_caches()
        dists = [SourceDist(alphabet, workloads.weights(rng, 3))
                 for _ in range(2)]
        t0 = time.perf_counter()
        search.enumerate_min(space, dists[0])
        t1 = time.perf_counter()
        search.enumerate_min(space, dists[1])
        t2 = time.perf_counter()
        cold, warm = t1 - t0, t2 - t1
        print("search %-4s sigma=3 len<=3: cold %.2f s = scan %.2f s + "
              "combine %.2f s" % (name, cold, cold - warm, warm))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    decode_growth(args.seed)
    scan_split(args.seed)
    proc = subprocess.run(
        [sys.executable, "-c", BIG_SEARCH, os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=300, check=True)
    print("search aifv sigma=4 len<=3, cold, own process: %s"
          % proc.stdout.strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The workloads: inputs made from a seed, one operation, and its checks.

A workload has ``build(seed, workdir)``, which makes a pool of operation
inputs (the seed picks their content, never their size), ``op(item,
tracer)``, which makes every call of one operation into the program and
returns the outputs, and ``check(outputs)``, which verifies them.  Only
``op`` is timed.  Every call goes through a module attribute looked up at
call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import statistics
import time
from fractions import Fraction

from codetuples import classes, cli, codec, reference, search
from codetuples.bits import Bits
from codetuples.core import Alphabet, SourceDist

import oracle
from oracle import require
from tracing import span


def empty_caches():
    """Empty the program's module caches, where it still has them."""
    scan = getattr(search, "_SCAN_CACHE", None)
    if isinstance(scan, dict):
        scan.clear()
    clear = getattr(getattr(codec, "_achievable", None), "cache_clear", None)
    if callable(clear):
        clear()


def plain(code):
    """(words, targets) of a program CodeTuple, for the oracle."""
    words = [[str(c) for c in t.codes] for t in code.tables]
    targets = [list(t.targets) for t in code.tables]
    return words, targets


def weights(rng, n):
    w = [rng.randint(1, 100) for _ in range(n)]
    return tuple(Fraction(x, sum(w)) for x in w)


# -- stream ------------------------------------------------------------------

STREAM_BITS = 4096
SHORT_BITS = STREAM_BITS // 4
CUT_WINDOW = 16  # the cut falls among the last CUT_WINDOW bits
STREAM_KEYS = ("r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10")
STREAM_POOL = 4


def exact_lengths(words, targets, n):
    """ok[r][j]: some source sequence from table j emits exactly r bits."""
    m = len(words)
    ok = [[True] * m] + [[False] * m for _ in range(n)]
    for r in range(1, n + 1):
        changed = True
        while changed:  # empty codewords keep r, so iterate to a fixed point
            changed = False
            for j in range(m):
                if not ok[r][j] and any(
                        len(w) <= r and ok[r - len(w)][t]
                        for w, t in zip(words[j], targets[j])):
                    ok[r][j] = changed = True
    return ok


def random_source(words, targets, start, nbits, ok, rng):
    """A uniform random walk over the symbols that still allow an emission
    of exactly nbits."""
    seq = []
    j, left = start, nbits
    while left:
        choices = [s for s, (w, t) in enumerate(zip(words[j], targets[j]))
                   if len(w) <= left and ok[left - len(w)][t]]
        s = rng.choice(choices)
        seq.append(s)
        left -= len(words[j][s])
        j = targets[j][s]
    return tuple(seq)


class Stream:
    """Long-stream coding on the f0 reference tuples r3..r10."""

    name = "stream"

    def build(self, seed, workdir):
        rng = random.Random("stream:%d" % seed)
        tables = []
        for key in STREAM_KEYS:
            code = reference.TUPLES[key]
            words, targets = plain(code)
            tables.append((key, code, words, targets,
                           exact_lengths(words, targets, STREAM_BITS)))
        pool = []
        for _ in range(STREAM_POOL):
            item = []
            for key, code, words, targets, ok in tables:
                start = rng.randrange(len(words))
                long_src = random_source(words, targets, start, STREAM_BITS, ok, rng)
                short_src = random_source(words, targets, start, SHORT_BITS, ok,
                                    rng)
                short, _ = oracle.encode(words, targets, start, short_src)
                cut = SHORT_BITS - rng.randint(1, CUT_WINDOW)
                item.append({
                    "key": key, "code": code, "words": words,
                    "targets": targets, "start": start,
                    "long_src": long_src,
                    "long": oracle.encode(words, targets, start, long_src)[0],
                    "short_src": short_src, "short": short,
                    "short_bits": Bits(short), "cut_bits": Bits(short[:cut]),
                })
            pool.append(item)
        return pool

    def op(self, item, tracer):
        out = []
        for e in item:
            bits, _ = codec.encode(e["code"], e["start"], e["long_src"])
            t0 = time.perf_counter()
            whole = codec.decode(e["code"], e["start"], bits)
            t1 = time.perf_counter()
            short = codec.decode(e["code"], e["start"], e["short_bits"])
            t2 = time.perf_counter()
            cut = codec.decode(e["code"], e["start"], e["cut_bits"])
            out.append((e, bits, whole, short, cut, t1 - t0, t2 - t1))
        return out

    def check(self, outputs):
        for e, bits, whole, short, cut, _, _ in outputs:
            require(str(bits) == e["long"], "%s: encode emitted %d bits, "
                    "not the %d-bit stream of the source", e["key"],
                    len(bits), len(e["long"]))
            runs = ((whole, e["long_src"], e["long"], True),
                    (short, e["short_src"], e["short"], True),
                    (cut, e["short_src"], str(e["cut_bits"]), False))
            for result, src, text, is_whole in runs:
                try:
                    oracle.check_decode(
                        e["words"], e["targets"], e["start"], src, text,
                        result.symbols, result.end_table,
                        str(result.info.tail), result.info.completions,
                        is_whole)
                except oracle.CheckFailed as exc:
                    raise oracle.CheckFailed("%s, %d-bit %s stream: %s" % (
                        e["key"], len(text), "whole" if is_whole else "cut",
                        exc)) from None

    @staticmethod
    def layer_values(outputs):
        """The log-log slope of decode time from the short to the long
        stream, median over the tuples."""
        slopes = [math.log(t_long / t_short) / math.log(4)
                  for *_, t_long, t_short in outputs]
        return {"codec.decode_growth": statistics.median(slopes)}


# -- search ------------------------------------------------------------------

SEARCH_SIGMA = 3
SEARCH_MAX_LEN = 3
SEARCH_DISTS = 3  # the first pays for the scans, the rest reuse them
SEARCH_POOL = 8
SEARCH_NAMES = ("a", "b", "c")


class Search:
    """Cold exhaustive minima at sigma=3, codewords of at most 3 bits."""

    name = "search"

    def __init__(self):
        make = search.SearchSpace
        self.spaces = tuple(make(SEARCH_SIGMA, 2, SEARCH_MAX_LEN, f)
                            for f in ("f0", "aifv"))

    def build(self, seed, workdir):
        rng = random.Random("search:%d" % seed)
        alphabet = Alphabet(SEARCH_NAMES)
        return [[SourceDist(alphabet, weights(rng, SEARCH_SIGMA))
                 for _ in range(SEARCH_DISTS)] for _ in range(SEARCH_POOL)]

    def op(self, item, tracer):
        f0_space, aifv_space = self.spaces
        out = []
        for dist in item:
            out.append((dist,
                        search.enumerate_min(f0_space, dist),
                        search.enumerate_min(aifv_space, dist),
                        search.compare_aifv_huffman(aifv_space, dist)))
        return out

    def check(self, outputs):
        for dist, f0, aifv, cmp in outputs:
            for space, result in zip(self.spaces, (f0, aifv)):
                words, targets = plain(result.best)
                in_class = classes.classify(result.best).flags[space.filter]
                oracle.check_search(space.filter, SEARCH_SIGMA,
                                    SEARCH_MAX_LEN, dist.probs, words,
                                    targets, result.avg_len, result.examined,
                                    in_class)
            oracle.check_search_order(f0.avg_len, aifv.avg_len, dist.probs,
                                      SEARCH_MAX_LEN, cmp.aifv_len,
                                      cmp.huffman_len)

    def final_check(self, seed):
        """The scan against the direct walk on a sigma=2, length<=2 space."""
        rng = random.Random("search-direct:%d" % seed)
        dist = SourceDist(Alphabet(SEARCH_NAMES[:2]), weights(rng, 2))
        for name in ("f0", "aifv"):
            space = search.SearchSpace(2, 2, 2, name)
            empty_caches()
            fast = search.enumerate_min(space, dist)
            slow = search.enumerate_min_direct(space, dist)
            require((fast.best, fast.avg_len, fast.examined)
                    == (slow.best, slow.avg_len, slow.examined),
                    "%s: the scan gives L %s, the direct walk %s",
                    name, fast.avg_len, slow.avg_len)


# -- analyze -----------------------------------------------------------------

WORDS = [""] + [format(v, "0%db" % n) for n in range(1, 5)
                for v in range(1 << n)]
NAMES = ("a", "b", "c", "d")
# (tables, symbols, kind) of the seeded tuples in every batch
ANALYZE_SLOTS = (
    (1, 2, "f0"), (1, 3, "f0"), (1, 4, "f0"), (2, 2, "f0"), (2, 3, "f0"),
    (2, 4, "f0"), (3, 2, "f0"), (3, 3, "f0"), (3, 4, "f0"),
    (1, 4, "regular"), (2, 3, "regular"), (3, 3, "regular"),
    (2, 3, "irregular"), (3, 4, "irregular"),
)
ANALYZE_POOL = 8
PSETS_K = 6
TRIALS = 20


def _random_tuple(rng, m, sigma, want):
    while True:
        words = [[rng.choice(WORDS) for _ in range(sigma)] for _ in range(m)]
        targets = [[rng.randrange(m) for _ in range(sigma)] for _ in range(m)]
        if oracle.kind(words, targets) == want:
            return words, targets


def _entry(workdir, tag, names, words, targets, probs, rt_seed, flags):
    ct = os.path.join(workdir, tag + ".ct")
    dist = os.path.join(workdir, tag + ".dist")
    with open(ct, "w", encoding="utf-8") as handle:
        handle.write(oracle.serialize(names, words, targets))
    with open(dist, "w", encoding="utf-8") as handle:
        handle.write("".join("%s %s\n" % pair for pair in zip(names, probs)))
    return {
        "tag": tag, "ct": ct, "dist": dist, "words": words,
        "targets": targets, "probs": probs, "seed": rt_seed,
        "kind": oracle.kind(words, targets),
        "core": oracle.core(targets),
        "next_bits": oracle.continuation_sets(words, targets, 1),
        "decodable": oracle.is_decodable(words, targets),
        "psets": oracle.continuation_sets(words, targets, PSETS_K),
        "flags": flags,
    }


def _fields(lines):
    return dict(line.split(" = ", 1) for line in lines if " = " in line)


def _exact(text):
    """The exact value of a 'p/q ≈ d' field."""
    return Fraction(text.split(" ≈ ")[0])


class Analyze:
    """Many small seeded tuples, and r1..r10, through the CLI verbs."""

    name = "analyze"

    def build(self, seed, workdir):
        rng = random.Random("analyze:%d" % seed)
        pool = []
        for b in range(ANALYZE_POOL):
            batch = []
            for n, (m, sigma, want) in enumerate(ANALYZE_SLOTS):
                words, targets = _random_tuple(rng, m, sigma, want)
                batch.append(_entry(
                    workdir, "b%d_t%d" % (b, n), NAMES[:sigma], words,
                    targets, weights(rng, sigma), rng.randrange(10 ** 6),
                    None))
            for key in reference.KEYS:
                words, targets = plain(reference.TUPLES[key])
                batch.append(_entry(
                    workdir, "b%d_%s" % (b, key), reference.SYMBOLS, words,
                    targets, weights(rng, len(reference.SYMBOLS)),
                    rng.randrange(10 ** 6), reference.EXPECTED_FLAGS[key]))
            pool.append(batch)
        return pool

    @staticmethod
    def _cli(tracer, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()), \
                span(tracer, "cli." + argv[0]):
            try:
                status = cli.main(list(argv))
            except SystemExit as exc:
                status = exc.code
        return status, out.getvalue().splitlines()

    def op(self, item, tracer):
        out = []
        run = self._cli
        for e in item:
            ct, dist = e["ct"], e["dist"]
            got = {
                "check": run(tracer, "check", "--tuple", ct, "--k", "2"),
                "classify": run(tracer, "classify", "--tuple", ct),
                "psets": run(tracer, "psets", "--tuple", ct,
                             "--k", str(PSETS_K)),
                "stationary": run(tracer, "stationary", "--tuple", ct,
                                  "--dist", dist),
                "avglen": run(tracer, "avglen", "--tuple", ct,
                              "--dist", dist),
            }
            if e["kind"] == "f0":
                got["transform"] = run(tracer, "transform", "--tuple", ct,
                                       "--op", "chain", "--target", "f1",
                                       "--dist", dist)
                got["decode"] = run(tracer, "decode", "--tuple", ct,
                                    "--roundtrip", "--trials", str(TRIALS),
                                    "--seed", str(e["seed"]))
            out.append((e, got))
        out.append((None, {"goldens": run(tracer, "goldens")}))
        return out

    def check(self, outputs):
        for e, got in outputs:
            for verb, (status, lines) in got.items():
                try:
                    getattr(self, "_check_" + verb)(e, status, lines, got)
                except (oracle.CheckFailed, ValueError, KeyError,
                        IndexError) as exc:
                    raise oracle.CheckFailed("%s %s: %s" % (
                        verb, e["tag"] if e else "", exc)) from None

    @staticmethod
    def _check_check(e, status, lines, got):
        f = _fields(lines)
        require(status == 0, "exit status %r", status)
        dead = [i for i, p in enumerate(e["next_bits"]) if not p]
        want = {
            "tables": str(len(e["words"])),
            "symbols": str(len(e["probs"])),
            "extendable": "no" if dead else "yes",
            "dead": " ".join(map(str, dead)) or "-",
            "regular": "yes" if e["core"] else "no",
            "core": " ".join(map(str, sorted(e["core"]))) or "-",
            "decodable": "yes" if e["decodable"] else "no",
        }
        for key, value in want.items():
            require(f.get(key) == value, "%s = %r, expected %r",
                    key, f.get(key), value)

    @staticmethod
    def _check_classify(e, status, lines, got):
        require(status == 0, "exit status %r", status)
        flags = {}
        for line in lines:
            name, _, verdict = line.partition(" ")
            if verdict.startswith(("PASS", "FAIL")):
                flags[name] = verdict.startswith("PASS")
        oracle.check_flags(flags, e["words"], e["targets"], e["flags"])
        passing = [n for n in oracle.CHAIN if flags[n]]
        finest = passing[-1] if passing else "-"
        require(_fields(lines).get("finest") == finest,
                "finest is not %s", finest)

    @staticmethod
    def _check_psets(e, status, lines, got):
        require(status == 0, "exit status %r", status)
        oracle.check_psets(lines, e["psets"], PSETS_K)

    @staticmethod
    def _pi(e, got):
        f = _fields(got["stationary"][1])
        return [_exact(f["pi[%d]" % i]) for i in range(len(e["words"]))]

    def _check_stationary(self, e, status, lines, got):
        require(status == (0 if e["core"] else 1),
                "exit status %r on a%s regular tuple",
                status, "" if e["core"] else " not")
        if not e["core"]:
            return
        pi = self._pi(e, got)
        require(oracle.is_stationary(e["targets"], e["probs"], pi),
                "pi %s is not stationary", pi)
        f = _fields(lines)
        lengths = oracle.table_lengths(e["words"], e["probs"])
        for i, length in enumerate(lengths):
            require(_exact(f["len[%d]" % i]) == length,
                    "len[%d] is not %s", i, length)

    def _average(self, e, got, words):
        lengths = oracle.table_lengths(words, e["probs"])
        return sum(p * n for p, n in zip(self._pi(e, got), lengths))

    def _check_avglen(self, e, status, lines, got):
        require(status == (0 if e["core"] else 1),
                "exit status %r on a%s regular tuple",
                status, "" if e["core"] else " not")
        if e["core"]:
            want = self._average(e, got, e["words"])
            got_l = _exact(_fields(lines)["L"])
            require(got_l == want, "L = %s, pi and len give %s", got_l, want)

    def _check_transform(self, e, status, lines, got):
        """Every step keeps L and the next-table maps; the chain ends in f1."""
        require(status == 0, "exit status %r", status)
        blocks = "\n".join(lines).split("\n\n")
        steps = int(_fields(blocks[0].splitlines())["# steps"])
        require(len(blocks) == steps + 1, "%d blocks for %d steps",
                len(blocks), steps)
        want = self._average(e, got, e["words"])
        for block in blocks[1:] if steps else blocks:
            rows = block.splitlines()
            body = [r for r in rows if not r.startswith("#")]
            _, words, targets = oracle.parse(body)
            require(targets == e["targets"], "a step changed next tables")
            if steps:
                step_l = _exact(_fields(rows)["# L"])
                require(step_l == want, "a step reports L %s, not %s",
                        step_l, want)
            require(self._average(e, got, words) == want,
                    "a step's codewords give another L than %s", want)
            final = (words, targets)
        require(oracle.is_f1(*final), "the chain does not end in f1")

    @staticmethod
    def _check_decode(e, status, lines, got):
        f = _fields(lines)
        require(status == 0, "exit status %r", status)
        require(f.get("trials") == str(TRIALS), "trials = %r",
                f.get("trials"))
        require(f.get("failures") == "0", "failures = %r",
                f.get("failures"))
        require(int(f["max_delay"]) <= oracle.DELAY, "max_delay = %s",
                f["max_delay"])

    @staticmethod
    def _check_goldens(e, status, lines, got):
        require(status == 0 and lines, "exit status %r", status)
        for line in lines:
            require(line.startswith("PASS "), "golden line %r", line)


WORKLOADS = {w.name: w for w in (Stream, Search, Analyze)}

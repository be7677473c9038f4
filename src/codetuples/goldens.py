"""Replay the hand-tabulated expectations against the real machinery.

Each check recomputes one family of reference values and yields them as
(item, computed, expected) triples; ``run_goldens`` compares them and
reports the first pair that differs.  The CLI exposes this as the
``goldens`` verb; a fresh checkout should pass every line.
"""

from __future__ import annotations

from . import reference as ref
from .analysis import (delay_decodability, is_extendable, is_regular,
                       reachable_tables, two_continuation_tables)
from .bits import Bits, parse as parse_bits, show
from .classes import K, classify, verify_hierarchy
from .codec import decode, encode
from .markov import (average_length, stationary_distribution, table_length,
                     transition_matrix)
from .search import huffman_length
from .transforms import forced_bit, rewrite_step, steer_bit


class GoldenCheck:
    """One named comparison; detail is empty when it holds."""

    def __init__(self, name, ok, detail=""):
        self.name = name
        self.ok = ok
        self.detail = detail

    def line(self):
        if self.ok:
            return "PASS %s" % self.name
        return "FAIL %s (%s)" % (self.name, self.detail)


def _continuation_sets():
    for key in ref.KEYS:
        code = ref.TUPLES[key]
        for i in code.table_indices():
            for k, table in ((1, ref.EXPECTED_NEXT_BITS),
                             (2, ref.EXPECTED_NEXT_PAIRS)):
                yield ("%s table %d k=%d" % (key, i, k), code.sets.base(i, k),
                       ref.bitset(table[key][i]))


def _strict_pairs():
    code = ref.TUPLES["r3"]
    for s, row in enumerate(ref.SYMBOLS):
        for i in code.table_indices():
            yield ("r3 symbol %s table %d" % (row, i),
                   code.sets.strict_continuations(i, code.code(i, s), 2),
                   ref.bitset(ref.EXPECTED_STRICT_PAIRS_R3[row][i]))


def _cores():
    for key in ref.KEYS:
        yield ("%s core" % key, reachable_tables(ref.TUPLES[key]).core,
               ref.EXPECTED_CORE[key])


def _classes():
    reports = []
    for key in ref.KEYS:
        reports.append(classify(ref.TUPLES[key]))
        for name, want in ref.EXPECTED_FLAGS[key].items():
            yield "%s %s" % (key, name), reports[-1][name], want
    yield "class hierarchy holds", verify_hierarchy(reports), True


def _properties():
    # Cross-check the flag table against the individual predicates.
    for key in ref.KEYS:
        code = ref.TUPLES[key]
        flags = ref.EXPECTED_FLAGS[key]
        yield "%s extendable" % key, is_extendable(code), flags["extendable"]
        yield "%s regular" % key, is_regular(code), flags["regular"]
        yield ("%s decodable" % key, delay_decodability(code, K).ok,
               flags["decodable"])
    for key, want in (("r3", {0}), ("r5", {0}), ("r7", set())):
        yield ("%s two-continuation tables" % key,
               set(two_continuation_tables(ref.TUPLES[key])), want)


def _stationary():
    golden = ref.STATIONARY_GOLDEN
    code = ref.TUPLES[golden["name"]]
    dist = ref.main_dist()
    yield ("transition matrix", transition_matrix(code, dist),
           golden["matrix"])
    yield ("stationary distribution", stationary_distribution(code, dist),
           golden["pi"])
    yield ("per-table lengths", tuple(table_length(code, dist, i)
                                      for i in code.table_indices()),
           golden["table_lengths"])
    yield "average length", average_length(code, dist), golden["avg_len"]


def _encode_decode():
    key, start, text, bits_text, end = ref.ENCODE_GOLDEN
    code = ref.TUPLES[key]
    seq = code.alphabet.seq(text)
    yield ("encode(%s, %d, %s)" % (key, start, text),
           encode(code, start, seq), (Bits(bits_text), end))
    result = decode(code, start, parse_bits(bits_text))
    yield ("decode(%s, %d, %s) symbols and resolved" % (key, start, bits_text),
           (tuple(result.symbols), result.info.resolved), (seq, True))


def _chain():
    dist = ref.main_dist()
    for src, op, dst in ref.CHAIN:
        before = ref.TUPLES[src]
        after = rewrite_step(before, op, dist)
        yield ("%s(%s) tables" % (op, src), after.result.tables,
               ref.TUPLES[dst].tables)
        yield ("%s(%s) average length change" % (op, src),
               after.avg_len - average_length(before, dist), 0)


def _bit_choices():
    for key, want in ref.EXPECTED_FORCED_BITS.items():
        code = ref.TUPLES[key]
        yield ("%s forced bits" % key, tuple(
            show(forced_bit(code, i)) for i in code.table_indices()), want)
    for key, want in ref.EXPECTED_STEER_BITS.items():
        code = ref.TUPLES[key]
        yield ("%s steer bits" % key, tuple(
            steer_bit(code, i) for i in code.table_indices()), want)


def _huffman():
    lengths, avg = huffman_length(ref.main_dist())
    yield "lengths", lengths, ref.HUFFMAN_GOLDEN["lengths"]
    yield "average length", avg, ref.HUFFMAN_GOLDEN["avg_len"]


CHECKS = (
    ("continuation-sets", _continuation_sets),
    ("strict-continuations", _strict_pairs),
    ("reachable-cores", _cores),
    ("class-flags", _classes),
    ("basic-properties", _properties),
    ("stationary-lengths", _stationary),
    ("encode-decode", _encode_decode),
    ("rewrite-chain", _chain),
    ("bit-choices", _bit_choices),
    ("huffman-lengths", _huffman),
)


def _show(value):
    """A set sorted in braces, codewords as ``show`` prints them."""
    if isinstance(value, (set, frozenset)):
        return "{%s}" % ",".join(show(v) if isinstance(v, Bits) else str(v)
                                 for v in sorted(value))
    return str(value)


def run_goldens():
    """One GoldenCheck per check: FAIL names the first item whose computed
    value differs from the expected one, or the exception the check raised."""
    results = []
    for name, triples in CHECKS:
        try:
            detail = next(("%s: computed %s, expected %s"
                           % (item, _show(got), _show(want))
                           for item, got, want in triples() if got != want),
                          "")
        except Exception as exc:
            detail = "raised %s: %s" % (type(exc).__name__, exc)
        results.append(GoldenCheck(name, not detail, detail))
    return results

"""Replay the hand-tabulated expectations against the real machinery.

Each check recomputes one family of reference values and compares.  The
CLI exposes this as the ``goldens`` verb; a fresh checkout should pass
every line.
"""

from __future__ import annotations

from . import reference as ref
from .analysis import (delay_decodability, is_extendable, is_regular,
                       reachable_tables, two_continuation_tables)
from .bits import Bits, parse as parse_bits
from .classes import classify, show_set, verify_hierarchy
from .codec import decode, encode
from .markov import (average_length, stationary_distribution, table_length,
                     transition_matrix)
from .search import huffman_length
from .transforms import ddot, dot, forced_bit, rotate, steer_bit


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


def _check_continuation_sets():
    for key in ref.KEYS:
        code = ref.TUPLES[key]
        for i in code.table_indices():
            for k, table in ((1, ref.EXPECTED_NEXT_BITS),
                             (2, ref.EXPECTED_NEXT_PAIRS)):
                want = ref.bitset(table[key][i])
                got = code.sets.base(i, k)
                if got != want:
                    return "%s table %d k=%d: computed %s, expected %s" % (
                        key, i, k, show_set(got), show_set(want))
    return ""


def _check_strict_pairs():
    code = ref.TUPLES["r3"]
    for s, row in enumerate(ref.SYMBOLS):
        for i in code.table_indices():
            want = ref.bitset(ref.EXPECTED_STRICT_PAIRS_R3[row][i])
            got = code.sets.strict_continuations(i, code.code(i, s), 2)
            if got != want:
                return "r3 symbol %s table %d: computed %s, expected %s" % (
                    row, i, show_set(got), show_set(want))
    return ""


def _check_cores():
    for key in ref.KEYS:
        report = reachable_tables(ref.TUPLES[key])
        if report.core != ref.EXPECTED_CORE[key]:
            return "%s: computed core %s, expected %s" % (
                key, sorted(report.core), sorted(ref.EXPECTED_CORE[key]))
    return ""


def _check_classes():
    reports = {}
    for key in ref.KEYS:
        report = classify(ref.TUPLES[key])
        reports[key] = report
        for name, want in ref.EXPECTED_FLAGS[key].items():
            if report[name] != want:
                return "%s %s: computed %s, expected %s" % (
                    key, name, report[name], want)
    if not verify_hierarchy(reports.values()):
        return "class hierarchy violated"
    return ""


def _check_stationary():
    golden = ref.STATIONARY_GOLDEN
    code = ref.TUPLES[golden["name"]]
    dist = ref.main_dist()
    matrix = transition_matrix(code, dist)
    if matrix != golden["matrix"]:
        return "transition matrix mismatch: %s" % (matrix,)
    pi = stationary_distribution(code, dist)
    if pi != golden["pi"]:
        return "stationary distribution mismatch: %s" % (pi,)
    lengths = tuple(table_length(code, dist, i) for i in code.table_indices())
    if lengths != golden["table_lengths"]:
        return "per-table lengths mismatch: %s" % (lengths,)
    avg = average_length(code, dist)
    if avg != golden["avg_len"]:
        return "average length mismatch: %s" % (avg,)
    return ""


def _check_encode_decode():
    key, start, text, bits_text, end = ref.ENCODE_GOLDEN
    code = ref.TUPLES[key]
    seq = code.alphabet.seq(text)
    bits, out_table = encode(code, start, seq)
    if bits != Bits(bits_text) or out_table != end:
        return "encode(%s, %d, %s) gave (%s, %d)" % (
            key, start, text, bits, out_table)
    result = decode(code, start, parse_bits(bits_text))
    if tuple(result.symbols) != tuple(seq) or not result.info.resolved:
        return "decode did not invert encode: %s tail %s" % (
            code.alphabet.render(result.symbols), result.info.tail)
    return ""


def _check_chain():
    ops = {"rotate": rotate, "dot": dot, "ddot": ddot}
    dist = ref.main_dist()
    for src, op, dst in ref.CHAIN:
        before = ref.TUPLES[src]
        after = ops[op](before)
        want = ref.TUPLES[dst]
        if after.tables != want.tables:
            return "%s(%s) differs from %s" % (op, src, dst)
        gap = average_length(after, dist) - average_length(before, dist)
        if gap != 0:
            return "%s(%s) changed the average length by %s" % (op, src, gap)
    return ""


def _check_bit_choices():
    for key, want in ref.EXPECTED_FORCED_BITS.items():
        code = ref.TUPLES[key]
        got = tuple(str(forced_bit(code, i)) if forced_bit(code, i) else "-"
                    for i in code.table_indices())
        if got != want:
            return "%s forced bits: computed %s, expected %s" % (
                key, got, want)
    for key, want in ref.EXPECTED_STEER_BITS.items():
        code = ref.TUPLES[key]
        got = tuple(steer_bit(code, i) for i in code.table_indices())
        if got != want:
            return "%s steer bits: computed %s, expected %s" % (
                key, got, want)
    return ""


def _check_properties():
    # Cross-check the flag table against the individual predicates.
    for key in ref.KEYS:
        code = ref.TUPLES[key]
        flags = ref.EXPECTED_FLAGS[key]
        if is_extendable(code) != flags["extendable"]:
            return "%s extendable predicate disagrees" % key
        if is_regular(code) != flags["regular"]:
            return "%s regular predicate disagrees" % key
        if delay_decodability(code, 2).ok != flags["decodable"]:
            return "%s decodability predicate disagrees" % key
    want = {"r3": {0}, "r5": {0}, "r7": set()}
    for key, expected in want.items():
        got = set(two_continuation_tables(ref.TUPLES[key]))
        if got != expected:
            return "%s two-continuation tables: computed %s, expected %s" % (
                key, sorted(got), sorted(expected))
    return ""


def _check_huffman():
    lengths, avg = huffman_length(ref.main_dist())
    golden = ref.HUFFMAN_GOLDEN
    if lengths != golden["lengths"] or avg != golden["avg_len"]:
        return "computed (%s, %s), expected (%s, %s)" % (
            lengths, avg, golden["lengths"], golden["avg_len"])
    return ""


CHECKS = (
    ("continuation-sets", _check_continuation_sets),
    ("strict-continuations", _check_strict_pairs),
    ("reachable-cores", _check_cores),
    ("class-flags", _check_classes),
    ("basic-properties", _check_properties),
    ("stationary-lengths", _check_stationary),
    ("encode-decode", _check_encode_decode),
    ("rewrite-chain", _check_chain),
    ("bit-choices", _check_bit_choices),
    ("huffman-lengths", _check_huffman),
)


def run_goldens():
    results = []
    for name, fn in CHECKS:
        try:
            detail = fn()
        except Exception as exc:
            detail = "raised %s: %s" % (type(exc).__name__, exc)
        results.append(GoldenCheck(name, not detail, detail))
    return results

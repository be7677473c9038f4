"""End-to-end acceptance run: ten numbered checks, one verdict line each.

Every test prints PASS/FAIL outside the capture so a full run always shows
the ten lines, then asserts, so a FAIL also fails the suite.  The checks
with stated time budgets enforce them with a monotonic clock.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from codetuples import (
    Alphabet,
    Bits,
    PrefixSetTable,
    SearchSpace,
    SourceDist,
    average_length,
    chain_to_class,
    classify,
    compare_aifv_huffman,
    ddot,
    decode,
    delay_decodability,
    dot,
    encode,
    enumerate_min,
    forced_bit,
    huffman_length,
    reachable_tables,
    roundtrip_check,
    rotate,
    stationary_distribution,
    table_length,
    transition_matrix,
)
from codetuples.markov import approx_decimal
from codetuples.prefix_sets import encode_from, symbols_with_codeword
from codetuples.reference import (
    CHAIN,
    ENCODE_GOLDEN,
    EXPECTED_CORE,
    EXPECTED_FLAGS,
    EXPECTED_NEXT_BITS,
    EXPECTED_NEXT_PAIRS,
    EXPECTED_STRICT_PAIRS_R3,
    HUFFMAN_GOLDEN,
    KEYS,
    STATIONARY_GOLDEN,
    SYMBOLS,
    TUPLES,
    bitset,
    main_dist,
)
from codetuples.search import all_words

from support import (
    oracle_continuations,
    random_code_tuple,
    random_seq,
    window_samples,
)

OPS = {"rotate": rotate, "dot": dot, "ddot": ddot}

WINDOWS_TO_SIX = tuple(map(Bits, all_words(6)))

# distributions for the bounded searches; the skewed pair heads each list
SEARCH_DISTS = {
    2: (("9/10", "1/10"), ("1/2", "1/2"), ("7/10", "3/10"),
        ("3/5", "2/5"), ("99/100", "1/100")),
    3: (("9/10", "1/20", "1/20"), ("1/2", "3/10", "1/5"),
        ("1/3", "1/3", "1/3"), ("4/5", "1/10", "1/10"),
        ("1/2", "2/5", "1/10")),
}
# sigma=4 with the same length bound 3: the minima agree on these rows ...
SEARCH_DISTS_SIGMA4 = (("1/10", "2/10", "3/10", "4/10"),
                       ("7/10", "1/10", "1/10", "1/10"),
                       ("1/4", "1/4", "1/4", "1/4"),
                       ("1/2", "1/4", "1/8", "1/8"))
# ... but not on this one: of the rows in descending order with denominators
# up to 11, the only one where they differ
SEARCH_GAP_SIGMA4 = ("5/11", "3/11", "2/11", "1/11")
# every row (a, b, c, d)/n with a >= b >= c >= d, gcd 1 and n <= 11: 36 rows
LENGTH_BOUND_ROWS = [
    row for n in range(4, 12)
    for row in itertools.combinations_with_replacement(range(n, 0, -1), 4)
    if sum(row) == n and math.gcd(*row) == 1]

NAMES = ("a", "b", "c", "d")


def _dist(probs):
    return SourceDist(Alphabet(NAMES[:len(probs)]),
                      tuple(Fraction(p) for p in probs))


def _verdict(capsys, number, name, body):
    ok = False
    detail = ""
    try:
        detail = body() or ""
        ok = True
    finally:
        line = "%s %2d %s" % ("PASS" if ok else "FAIL", number, name)
        if detail:
            line += " [%s]" % detail
        with capsys.disabled():
            print(line)


def test_01_continuation_set_tables(capsys):
    def body():
        t0 = time.monotonic()
        for key in KEYS:
            code = TUPLES[key]
            sets = PrefixSetTable(code)
            for i in code.table_indices():
                assert sets.base(i, 1) == bitset(
                    EXPECTED_NEXT_BITS[key][i]), (key, i)
                assert sets.base(i, 2) == bitset(
                    EXPECTED_NEXT_PAIRS[key][i]), (key, i)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, "took %.2fs" % elapsed
        return "10 tuples, %.2fs" % elapsed

    _verdict(capsys, 1, "one- and two-bit continuation sets", body)


def test_02_strict_continuation_cells(capsys):
    def body():
        code = TUPLES["r3"]
        sets = PrefixSetTable(code)
        cells = 0
        for sym, row in EXPECTED_STRICT_PAIRS_R3.items():
            s = code.alphabet.index(sym)
            for i in code.table_indices():
                got = sets.strict_continuations(i, code.code(i, s), 2)
                assert got == bitset(row[i]), (sym, i)
                cells += 1
        assert cells == 12
        return "12 cells"

    _verdict(capsys, 2, "strict continuation sets at each codeword", body)


def test_03_stationary_distribution_and_cost(capsys):
    def body():
        code = TUPLES[STATIONARY_GOLDEN["name"]]
        dist = main_dist()
        assert transition_matrix(code, dist) == STATIONARY_GOLDEN["matrix"]
        assert stationary_distribution(code, dist) == STATIONARY_GOLDEN["pi"]
        for i in code.table_indices():
            assert table_length(code, dist, i) == \
                STATIONARY_GOLDEN["table_lengths"][i]
        avg = average_length(code, dist)
        assert avg == STATIONARY_GOLDEN["avg_len"]
        assert approx_decimal(avg, 4) == STATIONARY_GOLDEN["avg_len_display"]
        return "L = %s" % STATIONARY_GOLDEN["avg_len_display"]

    _verdict(capsys, 3, "stationary table weights and expected length", body)


def test_04_worked_encode_decode(capsys):
    def body():
        key, start, text, bits, end = ENCODE_GOLDEN
        code = TUPLES[key]
        seq = code.alphabet.seq(text)
        got, got_end = encode(code, start, seq)
        assert str(got) == bits
        assert got_end == end
        result = decode(code, start, Bits(bits), k=2)
        assert result.symbols == seq
        assert result.end_table == end
        assert result.info.resolved
        return "%s -> %s" % (text, bits)

    _verdict(capsys, 4, "worked encode and decode round trip", body)


def test_05_reachable_cores(capsys):
    def body():
        for key in KEYS:
            assert reachable_tables(TUPLES[key]).core == \
                EXPECTED_CORE[key], key
        return "10 tuples"

    _verdict(capsys, 5, "reachable-core sets", body)


def test_06_rewrite_chain(capsys):
    def body():
        dist = main_dist()
        for src, op, dst in CHAIN:
            assert OPS[op](TUPLES[src]) == TUPLES[dst], (src, op)
            assert average_length(TUPLES[src], dist) == \
                average_length(TUPLES[dst], dist), (src, op)
        return "%d steps, cost preserved" % len(CHAIN)

    _verdict(capsys, 6, "rewrite chain, bit exact", body)


def test_07_classifier_column(capsys):
    def body():
        for key in KEYS:
            report = classify(TUPLES[key])
            assert report.flags == EXPECTED_FLAGS[key], key
        assert classify(TUPLES["r10"])["aifv"]
        assert classify(TUPLES["r9"])["f4"]
        assert not classify(TUPLES["r9"])["aifv"]
        return "10 tuples"

    _verdict(capsys, 7, "class membership column", body)


def test_08_property_suite(capsys):
    def body():
        t0 = time.monotonic()
        rng = random.Random(2026)

        # random continuation sets against the definitional search
        tuples_checked = 0
        for _ in range(500):
            code = random_code_tuple(rng, max_tables=3, max_sigma=4,
                                     max_len=3)
            sets = PrefixSetTable(code)
            for i in code.table_indices():
                for b in window_samples(code, rng):
                    for k in (1, 2):
                        for strict in (False, True):
                            want = oracle_continuations(code, i, b, k, strict)
                            got = (sets.strict_continuations(i, b, k)
                                   if strict else sets.continuations(i, b, k))
                            assert got == want, (code, i, b, k, strict)
            tuples_checked += 1
        assert tuples_checked >= 500

        # cardinality split of each window's continuation set
        split_cases = 0
        for _ in range(200):
            code = random_code_tuple(rng, max_tables=3, max_sigma=4,
                                     max_len=3)
            sets = PrefixSetTable(code)
            for k in (1, 2, 3):
                if not delay_decodability(code, k).ok:
                    continue
                split_cases += 1
                for i in code.table_indices():
                    for b in WINDOWS_TO_SIX:
                        lhs = len(sets.continuations(i, b, k))
                        rhs = len(sets.strict_continuations(i, b, k)) + sum(
                            len(sets.base(code.target(i, s), k))
                            for s in symbols_with_codeword(code, i, b))
                        assert lhs == rhs, (code, i, b, k)
        assert split_cases >= 20

        # round trips on every member decodable with two-bit delay
        for key in KEYS:
            if key == "r2":
                continue
            report = roundtrip_check(TUPLES[key], k=2, trials=1000, seed=97)
            assert report.ok, (key, report.failures[:1])
            assert report.max_delay <= 2, key

        # the forced bit commutes with encoding across a rotation
        for key in KEYS:
            if key == "r1":
                continue
            code = TUPLES[key]
            rotated = rotate(code)
            forced = [forced_bit(code, i) for i in code.table_indices()]
            for start in code.table_indices():
                for _ in range(30):
                    x = random_seq(rng, code, 6)
                    bits, end = encode_from(code, start, x)
                    hat, hat_end = encode_from(rotated, start, x)
                    assert hat_end == end
                    assert forced[start] + hat == bits + forced[end], (key, x)

        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, "took %.1fs" % elapsed
        return "%d random tuples, %d split cases, %.1fs" % (
            tuples_checked, split_cases, elapsed)

    _verdict(capsys, 8, "randomized property suite", body)


def test_09_bounded_search_equality(capsys):
    # exhaustive equality of the structural and the loose minimum over
    # every distribution below; evidence at this bounded scale only
    def body():
        t0 = time.monotonic()
        pairs = 0
        for sigma, dist_rows in SEARCH_DISTS.items():
            strict_space = SearchSpace(sigma, 2, 3, "aifv")
            loose_space = SearchSpace(sigma, 2, 3, "f0")
            for probs in dist_rows:
                dist = _dist(probs)
                strict = enumerate_min(strict_space, dist)
                loose = enumerate_min(loose_space, dist)
                assert strict.avg_len == loose.avg_len, (sigma, probs)
                pairs += 1
        assert pairs >= 10
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0, "took %.1fs" % elapsed
        return "%d searches, %.1fs" % (2 * pairs, elapsed)

    _verdict(capsys, 9, "bounded search minima agree across filters", body)


def test_10_baseline_comparison(capsys):
    def body():
        lengths, cost = huffman_length(main_dist())
        assert lengths == HUFFMAN_GOLDEN["lengths"]
        assert cost == HUFFMAN_GOLDEN["avg_len"]
        compared = 0
        cases = [(sigma, probs) for sigma, rows in SEARCH_DISTS.items()
                 for probs in rows]
        cases.append((4, ("1/10", "2/10", "3/10", "4/10")))
        for sigma, probs in cases:
            dist = _dist(probs)
            report = compare_aifv_huffman(SearchSpace(sigma, 2, 3, "aifv"),
                                          dist)
            assert report.note == "", (sigma, probs)
            assert report.aifv_wins_or_ties, (sigma, probs, report.gap)
            compared += 1
        return "baseline 3 3 2 1, %d comparisons" % compared

    _verdict(capsys, 10, "never behind the single-table baseline", body)


def test_wider_search_at_four_symbols():
    strict_space = SearchSpace(4, 2, 3, "aifv")
    loose_space = SearchSpace(4, 2, 3, "f0")
    for probs in SEARCH_DISTS_SIGMA4 + (SEARCH_GAP_SIGMA4,):
        report = compare_aifv_huffman(strict_space, _dist(probs))
        assert report.note == "", probs
        assert report.aifv_wins_or_ties, (probs, report.gap)
    for probs in SEARCH_DISTS_SIGMA4:
        dist = _dist(probs)
        strict = enumerate_min(strict_space, dist)
        loose = enumerate_min(loose_space, dist)
        assert strict.avg_len == loose.avg_len, probs

    # The length bound, not the class, makes the gap: the rewrites that
    # carry an f0 tuple towards the AIFV form keep its cost but lengthen a
    # codeword past 3 bits.  (The AIFV minimum with 4-bit codewords, 9/5,
    # is below both; the next test pins it.)
    dist = _dist(SEARCH_GAP_SIGMA4)
    strict = enumerate_min(strict_space, dist)
    loose = enumerate_min(loose_space, dist)
    assert (loose.avg_len, strict.avg_len) == (Fraction(219, 121),
                                               Fraction(20, 11))
    code = loose.best
    for target in ("f1", "f2", "f3"):
        code = chain_to_class(code, target, dist).final
        assert average_length(code, dist) == loose.avg_len
    assert classify(code).flags["f3"]
    assert code.max_code_len() == 4


def test_one_more_bit_lets_aifv_match_f0_at_four_symbols():
    # The gap above comes from the length bound: on every row of the slice,
    # the AIFV minimum with codewords of up to 4 bits is at most the f0
    # minimum with codewords of up to 3 bits, and often strictly below it.
    # One scan of each space serves all rows.
    loose_space = SearchSpace(4, 2, 3, "f0")
    strict_space = SearchSpace(4, 2, 4, "aifv")
    assert len(LENGTH_BOUND_ROWS) == 36
    below = 0
    for row in LENGTH_BOUND_ROWS:
        dist = _dist(["%d/%d" % (x, sum(row)) for x in row])
        strict = enumerate_min(strict_space, dist).avg_len
        loose = enumerate_min(loose_space, dist).avg_len
        assert strict <= loose, (row, strict, loose)
        below += strict < loose
    assert below == 19
    dist = _dist(SEARCH_GAP_SIGMA4)
    assert enumerate_min(strict_space, dist).avg_len == Fraction(9, 5)

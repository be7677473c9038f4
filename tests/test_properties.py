"""Hypothesis properties for the load-bearing invariants.

These complement the seeded random loops in the per-module tests: the
generators here shrink counterexamples, so a failure arrives minimal.
"""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from codetuples import (
    PrefixSetTable,
    average_length,
    classify,
    decode,
    delay_decodability,
    is_extendable,
    is_regular,
    make_tuple,
    rotate,
    stationary_distribution,
    transition_matrix,
)
from codetuples.bits import Bits
from codetuples.core import SourceDist
from codetuples.prefix_sets import encode_from
from codetuples.reference import KEYS, TUPLES

from support import NAME_POOL

CLASS_CHAIN = ("f0", "f1", "f2", "f3", "f4", "aifv")


@st.composite
def code_tuples(draw):
    sigma = draw(st.integers(2, 3))
    tables = draw(st.integers(1, 2))
    rows = []
    for _ in range(tables):
        row = []
        for _ in range(sigma):
            word = draw(st.text(alphabet="01", max_size=3))
            row.append((word or "-", draw(st.integers(0, tables - 1))))
        rows.append(row)
    return make_tuple(NAME_POOL[:sigma], rows)


@st.composite
def code_and_dist(draw):
    code = draw(code_tuples())
    weights = [draw(st.integers(1, 5)) for _ in range(code.sigma)]
    total = sum(weights)
    probs = tuple(Fraction(w, total) for w in weights)
    return code, SourceDist(code.alphabet, probs)


windows = st.text(alphabet="01", max_size=4).map(Bits)


@given(code_tuples(), windows, st.integers(1, 3))
def test_continuations_split_as_strict_plus_exact_matches(code, b, k):
    sets = PrefixSetTable(code)
    for i in code.table_indices():
        weak = sets.continuations(i, b, k)
        strict = sets.strict_continuations(i, b, k)
        assert strict <= weak
        assert all(len(c) == k for c in weak)
        via_exact = frozenset().union(*(
            sets.base(t, k) for w, t, _ in sets.rows[i] if w == str(b)),
            frozenset())
        assert weak == strict | via_exact


@given(code_tuples(), st.integers(1, 3))
def test_base_sets_extend_one_bit_at_a_time(code, k):
    # an achievable block of length k is exactly an achievable block of
    # length k-1 with one more achievable bit, when every table emits
    sets = PrefixSetTable(code)
    assume(is_extendable(code))
    for i in code.table_indices():
        shorter = {c[:k - 1] for c in sets.base(i, k)}
        assert shorter == sets.base(i, k - 1)


@given(code_and_dist())
@settings(suppress_health_check=[HealthCheck.filter_too_much])
def test_transition_rows_are_distributions(pair):
    code, dist = pair
    matrix = transition_matrix(code, dist)
    for i in code.table_indices():
        assert sum(matrix[i]) == 1
        for j in code.table_indices():
            assert matrix[i][j] == sum(
                dist.probs[s] for s in code.alphabet
                if code.target(i, s) == j)


@given(code_and_dist())
@settings(suppress_health_check=[HealthCheck.filter_too_much])
def test_stationary_weights_fix_the_chain(pair):
    code, dist = pair
    assume(is_regular(code))
    pi = stationary_distribution(code, dist)
    matrix = transition_matrix(code, dist)
    assert sum(pi) == 1
    for j in code.table_indices():
        assert pi[j] == sum(pi[i] * matrix[i][j] for i in code.table_indices())


@given(code_tuples())
def test_class_flags_form_a_chain(code):
    report = classify(code)
    for below, above in zip(CLASS_CHAIN, CLASS_CHAIN[1:]):
        if report[above]:
            assert report[below], (code, below, above)


@given(code_and_dist())
@settings(suppress_health_check=[HealthCheck.filter_too_much])
def test_rotate_preserves_cost(pair):
    code, dist = pair
    assume(is_extendable(code))
    assume(is_regular(code))
    assert average_length(rotate(code), dist) == average_length(code, dist)


@given(st.sampled_from([k for k in KEYS if k != "r2"]),
       st.lists(st.integers(0, 3), max_size=8), st.integers(0, 2))
def test_decoded_symbols_are_a_source_prefix(key, raw, start):
    code = TUPLES[key]
    start = start % code.num_tables
    seq = tuple(s % code.sigma for s in raw)
    bits, _ = encode_from(code, start, seq)
    result = decode(code, start, bits)
    assert result.symbols == seq[:len(result.symbols)]


@given(code_tuples(), st.integers(1, 3))
def test_delay_violations_carry_real_witnesses(code, k):
    sets = PrefixSetTable(code)
    report = delay_decodability(code, k)
    if report.ok:
        return
    violation = report.violations[0]
    # a named violation must re-verify against the continuation sets
    assert violation.describe(code)

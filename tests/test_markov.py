from fractions import Fraction
import random

import pytest

from codetuples import (NotRegular, SourceDist, approx_decimal,
                        average_length, make_tuple, stationary_distribution,
                        table_length, transition_matrix)
from codetuples.core import Alphabet
from codetuples.reference import (STATIONARY_GOLDEN, TUPLES, main_dist)
from codetuples.transforms import ddot, dot, rotate

from support import oracle_stationary, random_code_tuple

# distinct primes, so the denominators below share no factor
PRIMES = (999983, 1000003, 1000033, 1000037, 1000039, 2147483647)


def test_transition_matrix_worked_example():
    code = TUPLES["r3"]
    assert transition_matrix(code, main_dist()) == STATIONARY_GOLDEN["matrix"]


def test_transition_rows_sum_to_one():
    dist = main_dist()
    for key in ("r1", "r2", "r3", "r9", "r10"):
        code = TUPLES[key]
        if code.sigma != len(dist.alphabet):
            continue
        for row in transition_matrix(code, dist):
            assert sum(row) == 1
            assert all(q >= 0 for q in row)


def test_transition_matrix_k_row():
    assert transition_matrix(TUPLES["r10"], main_dist())[0] == \
        (Fraction(3, 5), Fraction(2, 5))


def test_stationary_worked_example():
    pi = stationary_distribution(TUPLES["r3"], main_dist())
    assert pi == STATIONARY_GOLDEN["pi"]
    matrix = STATIONARY_GOLDEN["matrix"]
    for j in range(3):
        assert sum(pi[i] * matrix[i][j] for i in range(3)) == pi[j]


def test_identity_chain_is_not_regular():
    code = make_tuple(("a", "b"), [
        [("0", 0), ("1", 0)],
        [("0", 1), ("1", 1)],
    ])
    with pytest.raises(NotRegular):
        stationary_distribution(code, SourceDist.uniform(code.alphabet))
    with pytest.raises(NotRegular):
        average_length(code, SourceDist.uniform(code.alphabet))


def test_single_table_forced_stationary():
    code = make_tuple(("a", "b"), [[("0", 0), ("10", 0)]])
    dist = SourceDist.uniform(code.alphabet)
    assert stationary_distribution(code, dist) == (Fraction(1),)
    assert average_length(code, dist) == Fraction(3, 2)


def test_table_lengths_worked_example():
    code = TUPLES["r3"]
    dist = main_dist()
    got = tuple(table_length(code, dist, i) for i in code.table_indices())
    assert got == STATIONARY_GOLDEN["table_lengths"]


def test_table_length_hand_sums():
    dist = main_dist()
    assert table_length(TUPLES["r10"], dist, 0) == Fraction(17, 10)
    all_lambda = make_tuple(("a", "b"), [[("-", 0), ("-", 0)]])
    assert table_length(all_lambda, SourceDist.uniform(all_lambda.alphabet),
                        0) == 0


def test_average_length_worked_example():
    avg = average_length(TUPLES["r3"], main_dist())
    assert avg == STATIONARY_GOLDEN["avg_len"]
    assert str(approx_decimal(avg)) == STATIONARY_GOLDEN["avg_len_display"]


def test_approx_decimal_rounds_half_even():
    assert str(approx_decimal(Fraction(1, 2), places=0)) == "0"
    assert str(approx_decimal(Fraction(3, 2), places=0)) == "2"
    assert str(approx_decimal(Fraction(19, 10))) == "1.9000"


def test_positivity_matches_core_membership():
    dist = main_dist()
    for key in ("r1", "r3", "r9", "r10"):
        code = TUPLES[key]
        if code.sigma != len(dist.alphabet):
            continue
        from codetuples import reachable_tables
        core = reachable_tables(code).core
        pi = stationary_distribution(code, dist)
        for i in code.table_indices():
            assert (pi[i] > 0) == (i in core)


def test_transition_data_ignores_codewords():
    # the matrix and stationary law depend only on the next-table maps
    dist = main_dist()
    for key, op in (("r5", dot), ("r7", ddot)):
        before = TUPLES[key]
        after = op(before)
        assert transition_matrix(before, dist) == \
            transition_matrix(after, dist)
        assert stationary_distribution(before, dist) == \
            stationary_distribution(after, dist)


def test_rotate_preserves_average_length():
    dist = main_dist()
    for key in ("r3", "r4", "r5", "r6", "r7"):
        code = TUPLES[key]
        assert average_length(rotate(code), dist) == \
            average_length(code, dist)


def coprime_dist(rng, alphabet):
    """Each probability but the last over its own large prime, below
    1/sigma so the last, over their product, stays positive."""
    n = len(alphabet)
    primes = rng.sample(PRIMES, n - 1)
    probs = [Fraction(rng.randint(1, p // n), p) for p in primes]
    return SourceDist(alphabet, tuple(probs) + (1 - sum(probs),))


def outcome(fn, *args):
    try:
        return fn(*args)
    except NotRegular as exc:
        return "NotRegular: %s" % exc


def test_integer_solve_matches_the_fraction_oracle():
    rng = random.Random(1415)
    seen = set()
    for _ in range(300):
        code = random_code_tuple(rng, max_tables=4, max_sigma=4, max_len=2)
        dist = coprime_dist(rng, code.alphabet)
        got = outcome(stationary_distribution, code, dist)
        assert got == outcome(oracle_stationary, code, dist), (code, dist)
        seen.add((code.num_tables, isinstance(got, str)))
    # regular and not, on one to four tables
    assert {m for m, _ in seen} == {1, 2, 3, 4}
    assert {irregular for _, irregular in seen} == {False, True}


def test_integer_weights_scale_by_the_lcm():
    dist = SourceDist.from_values(Alphabet(("a", "b", "c")),
                                  ("1/6", "1/4", "7/12"))
    assert dist.integer_weights() == (12, (2, 3, 7))

"""The pruned two-table scan and the integer combine against the old ones.

``support.oracle_scan_two_tables`` tries every content of every table under
every guess; ``support.oracle_combine`` adds costs in ``Fraction``s.  The
f0 scan shares each walked table 0 as table 1 of the swapped guess, so it
is compared through ``support.expand_scan``, which flips a copy of every
shared table 1 back into the oracle's shape.  The oracle keeps every length
vector of a bucket; the scan drops the ones another vector of the bucket
dominates, which no positive distribution can pick.  So
``support.assert_keeps_pareto_buckets`` asks for the same guesses, tables
and buckets in the same dict order, each bucket a sub-dict of the oracle's
in the oracle's order, with its first entry and every Pareto-minimal
vector; and the combine, reading the unexpanded scan, must pick the same
cost, contents and tuple as the oracle combine reading the oracle's scan.
At four symbols the oracle scan is too slow, so the scan is checked the
same way against ``support.oracle_walk_scan``, the walk before it dropped
dominated vectors, both combines read the scan, the oracle's expanded, and
the order the combine relies on, contents ascending in every bucket, is
checked on its own.  The combine stops at a bound, so it
is also checked on distributions whose costs tie often and with the
guesses in reverse order.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from codetuples import Alphabet, SearchSpace, SourceDist
from codetuples.search import _combine, _scan
from support import (assert_keeps_pareto_buckets, expand_scan,
                     oracle_combine, oracle_scan_two_tables, oracle_walk_scan)

SPACES = [(sigma, max_len, filt)
          for sigma, max_len in ((2, 1), (2, 2), (2, 3), (3, 2), (3, 3))
          for filt in ("f0", "aifv")]
COMBINE_DISTS = 20
# weights whose costs tie often: uniform, then a half and quarters and
# two fifths and a fifth in every order (a half, a quarter and eighths at
# four symbols, where the oracle takes seconds per distribution)
TIE_HEAVY = {
    3: [(1, 1, 1)] + sorted(set(itertools.permutations((2, 1, 1))))
    + sorted(set(itertools.permutations((2, 2, 1)))),
    4: [(1, 1, 1, 1), (4, 2, 1, 1)],
}


def seeded_dists(sigma, seed):
    """Uniform first, then seeded weights: small ones tie often."""
    rng = random.Random("combine:%d:%s" % (sigma, seed))
    alphabet = Alphabet(("a", "b", "c", "d")[:sigma])
    out = [SourceDist.uniform(alphabet)]
    while len(out) < COMBINE_DISTS:
        top = rng.choice((3, 10, 1000))
        weights = [rng.randint(1, top) for _ in range(sigma)]
        out.append(SourceDist(alphabet, tuple(Fraction(w, sum(weights))
                                              for w in weights)))
    return out


@pytest.mark.parametrize("sigma,max_len,filt", SPACES)
def test_scan_and_combine_match_the_oracle(sigma, max_len, filt):
    space = SearchSpace(sigma, 2, max_len, filt)
    scan = _scan(space)
    expected = oracle_scan_two_tables(space)
    assert_keeps_pareto_buckets(expand_scan(space, scan), expected)
    for dist in seeded_dists(sigma, space):
        got = _combine(space, dist, scan)
        want = oracle_combine(space, dist, expected)
        assert got == want, (space, dist.probs)
        assert got is None or type(got[0]) is Fraction


@functools.cache
def scan_of(sigma, max_len, filt):
    return _scan(SearchSpace(sigma, 2, max_len, filt))


@pytest.mark.parametrize("filt", ["f0", "aifv"])
def test_scan_keeps_the_old_walk_s_pareto_buckets_at_four_symbols(filt):
    space = SearchSpace(4, 2, 3, filt)
    assert_keeps_pareto_buckets(expand_scan(space, scan_of(4, 3, filt)),
                                expand_scan(space, oracle_walk_scan(space)))


@pytest.mark.parametrize("sigma,max_len,filt",
                         SPACES + [(4, 3, "f0"), (4, 3, "aifv")])
def test_scan_contents_ascend_in_dict_order(sigma, max_len, filt):
    # the combine takes a bucket's first content, and its first at the
    # minimum cost, as the canonical ones
    for tables in scan_of(sigma, max_len, filt).values():
        for table in tables:
            firsts = [next(iter(bucket.values())) for bucket in table.values()]
            assert firsts == sorted(firsts)
            for bucket in table.values():
                contents = list(bucket.values())
                assert all(x < y for x, y in zip(contents, contents[1:]))


@pytest.mark.parametrize("sigma", [3, 4])
def test_f0_scan_shares_each_table_with_the_swapped_guess(sigma):
    # the f0 scan keeps one table per walked guess and shares it
    scan = scan_of(sigma, 3, "f0")
    assert scan
    for a, b in scan:
        assert scan[a, b][1] is scan[b, a][0], (a, b)


@pytest.mark.parametrize("max_len,filt,count", [(2, "f0", COMBINE_DISTS),
                                                (2, "aifv", COMBINE_DISTS),
                                                (3, "f0", 2)])
def test_combine_matches_the_oracle_at_four_symbols(max_len, filt, count):
    # the oracle scan takes minutes here, so both combines read one scan
    space = SearchSpace(4, 2, max_len, filt)
    scan = scan_of(4, max_len, filt)
    for dist in seeded_dists(4, space)[:count]:
        assert _combine(space, dist, scan) == \
            oracle_combine(space, dist, expand_scan(space, scan)), dist.probs


@pytest.mark.parametrize("sigma,max_len,filt", [(3, 2, "f0"), (3, 3, "f0"),
                                                (3, 3, "aifv"), (4, 3, "f0")])
def test_bounded_combine_keeps_the_tie_break(sigma, max_len, filt):
    # the combine stops at the first guess whose bound is strictly above
    # the best cost: a bound equal to it can still hold a tie whose
    # contents come first, so neither the stop nor the visiting order may
    # change the result
    space = SearchSpace(sigma, 2, max_len, filt)
    scan = scan_of(sigma, max_len, filt)
    backwards = dict(reversed(scan.items()))
    alphabet = Alphabet(("a", "b", "c", "d")[:sigma])
    for weights in TIE_HEAVY[sigma]:
        dist = SourceDist(alphabet, tuple(Fraction(w, sum(weights))
                                          for w in weights))
        got = _combine(space, dist, scan)
        assert got == oracle_combine(space, dist, expand_scan(space, scan)), \
            dist.probs
        assert _combine(space, dist, backwards) == got, dist.probs

"""The pruned two-table scan and the integer combine against the old ones.

``support.oracle_scan_two_tables`` tries every content of every table under
every guess; ``support.oracle_combine`` adds costs in ``Fraction``s.  The
f0 scan, one ``search._Scan`` per space, walks one guess per complement
orbit when it is built and a mirror guess only when the combine reads its
contents, so every test that reads contents goes through
``support.walk_every_table``, which walks the rest and unpacks the scan's
packed ints into tuples (``support.unpack_table``); the combine is
compared on fresh scans, so that it walks its mirrors itself.  The f0
scan shares each walked table 0 as table 1 of the swapped guess, so it
is compared through ``support.expand_scan``, which flips a copy of every
shared table 1 back into the oracle's shape.  The oracle keeps every length
vector of a bucket; the scan drops the ones another vector of the bucket
dominates, which no positive distribution can pick.  So
``support.assert_keeps_pareto_buckets`` asks for the same guesses, tables
and buckets in the same dict order, each bucket a sub-dict of the oracle's
in the oracle's order, with its first entry and every Pareto-minimal
vector; and the combine, reading a fresh scan, must pick the same
cost, contents and tuple as the oracle combine reading the oracle's scan.
At four symbols the oracle scan is too slow, so the scan is checked the
same way against ``support.oracle_walk_scan``, the walk before it dropped
dominated vectors, both combines read the scan, the oracle's expanded, and
the order the combine relies on, contents ascending in every bucket, is
checked on its own.  The combine stops at a bound, so it
is also checked on distributions whose costs tie often and on a fresh
scan whose ``guesses`` are set in reverse order.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from codetuples import Alphabet, SearchSpace, SourceDist
from codetuples.search import MIRROR, _combine, _Scan
from support import (PAIR_INDEX, assert_keeps_pareto_buckets, expand_scan,
                     oracle_combine, oracle_scan_two_tables, oracle_walk_scan,
                     unpack_table, walk_every_table)

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
    expected = oracle_scan_two_tables(space)
    assert_keeps_pareto_buckets(
        expand_scan(space, walk_every_table(_Scan(space))), expected)
    for dist in seeded_dists(sigma, space):
        got = _combine(dist, _Scan(space))
        want = oracle_combine(space, dist, expected)
        assert got == want, (space, dist.probs)
        assert got is None or type(got[0]) is Fraction


@functools.cache
def walked_scan(sigma, max_len, filt):
    return walk_every_table(_Scan(SearchSpace(sigma, 2, max_len, filt)))


@pytest.mark.parametrize("filt", ["f0", "aifv"])
def test_scan_keeps_the_old_walk_s_pareto_buckets_at_four_symbols(filt):
    space = SearchSpace(4, 2, 3, filt)
    assert_keeps_pareto_buckets(expand_scan(space, walked_scan(4, 3, filt)),
                                expand_scan(space, oracle_walk_scan(space)))


@pytest.mark.parametrize("sigma,max_len,filt",
                         SPACES + [(4, 3, "f0"), (4, 3, "aifv")])
def test_scan_contents_ascend_in_dict_order(sigma, max_len, filt):
    # the combine takes a bucket's first content, and its first at the
    # minimum cost, as the canonical ones
    for tables in walked_scan(sigma, max_len, filt).values():
        for table in tables:
            firsts = [next(iter(bucket.values())) for bucket in table.values()]
            assert firsts == sorted(firsts)
            for bucket in table.values():
                contents = list(bucket.values())
                assert all(x < y for x, y in zip(contents, contents[1:]))


@pytest.mark.parametrize("sigma", [3, 4])
def test_f0_scan_shares_each_table_with_the_swapped_guess(sigma):
    # the f0 scan keeps one table per walked guess and shares it
    scan = walked_scan(sigma, 3, "f0")
    assert scan
    for a, b in scan:
        assert scan[a, b][1] is scan[b, a][0], (a, b)


def pareto_buckets(table):
    """A table's bucket keys, and per bucket its Pareto-minimal lenvecs."""
    return {targets: {v for v in bucket if not any(
        u != v and all(x <= y for x, y in zip(u, v)) for u in bucket)}
        for targets, bucket in table.items()}


def test_mirror_swaps_the_complemented_pairs():
    flip = {a: b for a, b in zip("0011", "1100")}
    for mask in range(16):
        pairs = {p for p, k in PAIR_INDEX.items() if mask >> k & 1}
        assert MIRROR[mask] == sum(1 << PAIR_INDEX[flip[p[0]] + flip[p[1]]]
                                   for p in pairs), mask


@pytest.mark.parametrize("tables", [1, 2])
@pytest.mark.parametrize("sigma,max_len", [(2, 1), (2, 2), (2, 3), (3, 1),
                                            (3, 2), (3, 3), (4, 1), (4, 2),
                                            (4, 3)])
def test_f0_table_zero_has_its_mirror_guess_s_buckets(sigma, max_len, tables):
    # complementing every bit keeps f0, targets and codeword lengths, so the
    # scan reads a mirror guess's costs from its orbit's walk
    space = SearchSpace(sigma, tables, max_len, "f0")
    scan = _Scan(space)
    for a, b in itertools.product(range(1, 16), repeat=2):
        if tables == 1 and a != b:
            continue
        walks = [unpack_table(space, scan._walk(0, guess))
                 for guess in ((a, b), (MIRROR[a], MIRROR[b]))]
        assert pareto_buckets(walks[0]) == pareto_buckets(walks[1]), (a, b)


@pytest.mark.parametrize("tables,walked", [(1, 9), (2, 117)])
@pytest.mark.parametrize("sigma,max_len", [(2, 2), (3, 3), (4, 2)])
def test_cold_f0_scan_walks_one_guess_per_orbit(sigma, max_len, tables,
                                               walked):
    walks = _Scan(SearchSpace(sigma, tables, max_len, "f0"))
    assert len(walks) == walked
    for index, (a, b) in walks:
        assert index == 0 and (a, b) <= (MIRROR[a], MIRROR[b]), (a, b)


@pytest.mark.parametrize("sigma,max_len", [(2, 2), (2, 3), (3, 3)])
def test_one_table_combine_reads_each_guess_s_own_contents(sigma, max_len):
    # a one-table winner sits under the full guess, its own mirror, so the
    # combine is also run on each guess alone: the least (cost, content)
    # of that guess's own table, mirror guesses walked on demand
    space = SearchSpace(sigma, 1, max_len, "f0")
    dist = seeded_dists(sigma, space)[1]
    for guess, (table,) in walk_every_table(_Scan(space)).items():
        scan = _Scan(space)
        scan.guesses = {guess: scan.guesses[guess]}
        got = _combine(dist, scan)
        want = min((sum(p * n for p, n in zip(dist.probs, lenvec)), row)
                   for bucket in table.values()
                   for lenvec, row in bucket.items())
        assert got[:2] == want, guess


@pytest.mark.parametrize("max_len,filt,count", [(2, "f0", COMBINE_DISTS),
                                                (2, "aifv", COMBINE_DISTS),
                                                (3, "f0", 2)])
def test_combine_matches_the_oracle_at_four_symbols(max_len, filt, count):
    # the oracle scan takes minutes here, so the oracle combine reads the
    # scan with every table walked, and the combine a fresh one each time
    space = SearchSpace(4, 2, max_len, filt)
    expected = expand_scan(space, walked_scan(4, max_len, filt))
    for dist in seeded_dists(4, space)[:count]:
        assert _combine(dist, _Scan(space)) == \
            oracle_combine(space, dist, expected), dist.probs


@pytest.mark.parametrize("sigma,max_len,filt", [(3, 2, "f0"), (3, 3, "f0"),
                                                (3, 3, "aifv"), (4, 3, "f0")])
def test_bounded_combine_keeps_the_tie_break(sigma, max_len, filt):
    # the combine stops at the first guess whose bound is strictly above
    # the best cost: a bound equal to it can still hold a tie whose
    # contents come first, so neither the stop nor the visiting order may
    # change the result
    space = SearchSpace(sigma, 2, max_len, filt)
    expected = expand_scan(space, walked_scan(sigma, max_len, filt))
    alphabet = Alphabet(("a", "b", "c", "d")[:sigma])
    for weights in TIE_HEAVY[sigma]:
        dist = SourceDist(alphabet, tuple(Fraction(w, sum(weights))
                                          for w in weights))
        got = _combine(dist, _Scan(space))
        assert got == oracle_combine(space, dist, expected), dist.probs
        backwards = _Scan(space)
        backwards.guesses = dict(reversed(backwards.guesses.items()))
        assert _combine(dist, backwards) == got, dist.probs

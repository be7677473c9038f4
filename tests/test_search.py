import functools
import itertools
import operator
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from codetuples import (
    Alphabet,
    SearchSpace,
    SourceDist,
    classify,
    compare_aifv_huffman,
    enumerate_min,
    huffman_length,
    is_aifv,
    space_size,
)
from codetuples import search
from codetuples.errors import (CodeTupleError, EmptySpace, InvalidSpace,
                               InvalidType, SearchCheckFailed)
from codetuples.reference import HUFFMAN_GOLDEN, main_dist
from codetuples.search import all_words, canonical_key, enumerate_min_direct
from support import _swapped, aifv_table_ok, oracle_masks, unpack_table

AB2 = Alphabet(("a", "b"))


def dist2(p):
    return SourceDist(AB2, (Fraction(p), 1 - Fraction(p)))


def test_space_size_closed_form():
    assert space_size(SearchSpace(2, 2, 1, "f0")) == 6 ** 4
    assert space_size(SearchSpace(2, 2, 2, "f0")) == 14 ** 4
    assert space_size(SearchSpace(2, 2, 3, "aifv")) == 30 ** 4
    assert space_size(SearchSpace(3, 1, 2, "f0")) == 7 ** 3


def test_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(1, 2, 2, "f0")
    with pytest.raises(ValueError):
        SearchSpace(2, 3, 2, "f0")
    with pytest.raises(ValueError):
        SearchSpace(2, 2, 0, "f0")
    with pytest.raises(ValueError):
        SearchSpace(2, 2, 2, "f7")


def test_space_errors_are_domain_errors():
    # still ValueErrors for old callers, and CodeTupleErrors for the CLI
    cases = (lambda: SearchSpace(2, 3, 2, "f0"),
             lambda: enumerate_min(SearchSpace(3, 2, 2, "f0"), dist2("1/2")),
             lambda: compare_aifv_huffman(SearchSpace(2, 1, 2, "aifv"),
                                          dist2("1/2")))
    for case in cases:
        with pytest.raises(InvalidSpace) as info:
            case()
        assert isinstance(info.value, CodeTupleError)
        assert isinstance(info.value, ValueError)
    # a space or dist of the wrong type is named, not an AttributeError
    space, dist = SearchSpace(2, 2, 1, "f0"), dist2("1/2")
    wrong_types = (("dist", lambda: enumerate_min(space, None)),
                   ("space", lambda: enumerate_min(None, dist)),
                   ("space", lambda: enumerate_min((2, 2, 1, "f0"), dist)),
                   ("dist", lambda: enumerate_min_direct(space, [0.5, 0.5])),
                   ("space", lambda: enumerate_min_direct("space", dist)),
                   ("dist", lambda: compare_aifv_huffman(space, None)),
                   ("space", lambda: compare_aifv_huffman(None, dist)),
                   ("space", lambda: space_size(None)),
                   ("dist", lambda: huffman_length(space)))
    for name, case in wrong_types:
        with pytest.raises(InvalidType, match="^%s must be " % name) as info:
            case()
        assert isinstance(info.value, CodeTupleError)
        assert isinstance(info.value, TypeError)


def test_all_words_canonical_order():
    assert all_words(2) == ["", "0", "1", "00", "01", "10", "11"]


def test_canonical_key_orders_by_length_then_bits():
    from codetuples import make_tuple

    small = make_tuple(("a", "b"), [[("0", 0), ("1", 0)]])
    longer = make_tuple(("a", "b"), [[("00", 0), ("1", 0)]])
    flipped = make_tuple(("a", "b"), [[("1", 0), ("0", 0)]])
    assert canonical_key(small) < canonical_key(longer)
    assert canonical_key(small) < canonical_key(flipped)


def test_scan_matches_direct_walk():
    # the guessing scan partitions the space; the plain walk is the oracle
    for filt, max_len, p in (("f0", 1, "7/10"),
                             ("f0", 2, "7/10"),
                             ("aifv", 2, "7/10"),
                             ("aifv", 2, "9/10")):
        space = SearchSpace(2, 2, max_len, filt)
        dist = dist2(p)
        direct = enumerate_min_direct(space, dist)
        scanned = enumerate_min(space, dist)
        assert scanned.best == direct.best, (filt, max_len, p)
        assert scanned.avg_len == direct.avg_len
        assert scanned.examined == direct.examined == space_size(space)


@pytest.mark.parametrize("sigma,max_len", [(2, 1), (2, 2), (2, 3), (3, 2),
                                            (3, 3), (4, 3)])
def test_f0_table_one_is_table_zero_under_the_swapped_guess(sigma, max_len):
    # the f0 scan derives table 1 instead of walking it; walk it anyway
    space = SearchSpace(sigma, 2, max_len, "f0")
    scan = search._Scan(space)

    def ordered(table):  # keys and buckets in dict order
        return [(targets, list(bucket.items()))
                for targets, bucket in table.items()]

    for a in range(1, 16):
        for b in range(1, 16):
            direct = unpack_table(space, scan._walk(1, (a, b)))
            derived = _swapped(unpack_table(space, scan._walk(0, (b, a))))
            assert ordered(direct) == ordered(derived), (a, b)


@pytest.mark.parametrize("filt", ["f0", "aifv"])
@pytest.mark.parametrize("sigma,max_len", [(2, 1), (2, 2), (2, 3), (3, 1),
                                            (3, 2), (3, 3), (4, 2)])
def test_single_table_matches_direct_walk(sigma, max_len, filt):
    # one table is scanned under each of the 15 guesses, like two tables
    space = SearchSpace(sigma, 1, max_len, filt)
    rng = random.Random("one-table:%d:%d" % (sigma, max_len))
    alphabet = Alphabet(("a", "b", "c", "d")[:sigma])
    for _ in range(3):
        weights = [rng.randint(1, 10) for _ in range(sigma)]
        dist = SourceDist(alphabet, tuple(Fraction(w, sum(weights))
                                          for w in weights))
        outcomes = []
        for walk in (enumerate_min_direct, enumerate_min):
            try:
                got = walk(space, dist)
            except EmptySpace as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append((got.best, got.avg_len, got.examined))
        assert outcomes[0] == outcomes[1], dist.probs
        assert filt == "f0" or "no aifv tuple with 1 table" in outcomes[0]


class _Unwalked(search._Scan):
    """A scan whose masks are built but whose tables are never walked."""

    def __missing__(self, key):
        return {}


@pytest.mark.parametrize("filt", ["f0", "aifv"])
@pytest.mark.parametrize("tables", [1, 2])
@pytest.mark.parametrize("sigma,max_len", [(sigma, max_len)
                                           for sigma in (2, 3, 4)
                                           for max_len in (1, 2, 3, 4)])
def test_masks_match_the_word_by_word_reference(sigma, max_len, tables, filt):
    # the scan reads each guess's clash rows per gate set and only the hit
    # entries it uses; support.oracle_masks builds them word by word and
    # every hit entry, as the scan once did, for every guess and index,
    # with and without a seeded keep
    scan = _Unwalked(SearchSpace(sigma, tables, max_len, filt))
    rng = random.Random("masks:%d:%d" % (tables, max_len))
    for guess in itertools.product(range(1, 16), repeat=2):
        for index in range(tables):
            assert scan._masks(index, guess) == \
                oracle_masks(scan, index, guess), (guess, index)
            keep = rng.getrandbits(len(scan.lens))
            assert scan._masks(index, guess, keep) == \
                oracle_masks(scan, index, guess, keep), (guess, index, keep)


@pytest.mark.parametrize("sigma,max_len", [(2, 1), (2, 2), (2, 3), (3, 1),
                                            (3, 2), (3, 3), (4, 1), (4, 2)])
def test_walk_masks_decide_the_aifv_clauses(sigma, max_len):
    # every content the aifv guess's masks let through (allowed slots, no
    # clashing pair, union the wanted set) passes all seven aifv clauses
    # exactly when its last slot passes the walk's rules over the scan's word
    # masks, folded over the head as the walk folds them: the owed rule
    # (extend every target-1 word no head word extends), the window rule
    # (target 1 only on a proper prefix of a head word) and the (vii) test
    # (every one-way window near a word, window 0 exempt in table 1); see
    # the proof above search._Scan
    scan = search._Scan(SearchSpace(sigma, 2, max_len, "aifv"))
    words, evens, longer = scan.words, scan.evens, scan.longer
    follow, near = scan.follow, scan.near
    passed = only_vii = 0
    for index, want in enumerate(search.AIFV_GUESS):
        contrib, clash, allowed, _ = scan._masks(index, search.AIFV_GUESS)
        slots = [sid for sid in range(2 * len(words)) if allowed >> sid & 1]
        for content in itertools.product(slots, repeat=sigma):
            if any(clash[a] >> b & 1
                   for a, b in itertools.combinations(content, 2)):
                continue
            if functools.reduce(operator.or_,
                                (contrib[s] for s in content)) != want:
                continue
            *head, last = content
            owed, after, covered = 0, 0, 4 * index
            for sid in head:
                ahead = follow[sid >> 1]
                owed = (owed & ~(ahead | ahead >> 1)
                        | (1 << sid >> 1 & ~(after | after >> 1)) * (sid & 1))
                after |= ahead
                covered |= near[sid >> 1]
            rules = (all(longer[w] >> last & 1 for w in range(len(words))
                         if owed >> 2 * w & 1)
                     and (evens | (after | after >> 1) << 1) >> last & 1)
            wi = last >> 1
            ahead = after | follow[wi]
            vii = not (ahead ^ ahead >> 1) & evens & ~(covered | near[wi])
            ok = aifv_table_ok(index, [words[s >> 1] for s in content],
                               [s & 1 for s in content])
            assert (rules and vii) == ok, (index, content)
            passed += ok
            only_vii += rules and not vii
    assert passed or max_len == 1
    assert only_vii or max_len < 3


def test_winner_is_a_member():
    result = enumerate_min(SearchSpace(2, 2, 2, "aifv"), dist2("9/10"))
    assert is_aifv(result.best)[0]
    report = classify(result.best)
    assert all(report[name] for name in ("f0", "f1", "f2", "f3", "f4"))


def test_empty_space():
    # one-bit codewords cannot fill a second table injectively
    with pytest.raises(EmptySpace, match="with 2 tables, 2 symbols"):
        enumerate_min(SearchSpace(2, 2, 1, "aifv"), dist2("1/2"))
    # no single table is AIFV, which needs two
    with pytest.raises(EmptySpace, match="no aifv tuple with 1 table, "
                                         "2 symbols, codewords up to 1 bits"):
        enumerate_min(SearchSpace(2, 1, 1, "aifv"), dist2("1/2"))


def test_rejected_winner_raises(monkeypatch):
    # the re-check of the scan's winner survives python -O
    space = SearchSpace(2, 2, 2, "aifv")
    monkeypatch.setattr(search, "_passes_filter", lambda code, space: False)
    with pytest.raises(SearchCheckFailed) as info:
        enumerate_min(space, dist2("9/10"))
    assert str(info.value) == (
        "aifv tuple with 2 tables, 2 symbols, codewords up to 2 bits: the "
        "scan's winner [->1 00>0 | 1>0 01>0] fails the filter; scan cost "
        "119/190, recomputed 119/190")


def test_miscosted_winner_raises(monkeypatch):
    monkeypatch.setattr(search, "average_length", lambda code, dist: 7)
    with pytest.raises(SearchCheckFailed,
                       match="passes the filter; scan cost 119/190, "
                             "recomputed 7$"):
        enumerate_min(SearchSpace(2, 2, 2, "aifv"), dist2("9/10"))


def test_short_direct_walk_raises(monkeypatch):
    space = SearchSpace(2, 1, 1, "f0")
    monkeypatch.setattr(search, "space_size", lambda space: 10)
    with pytest.raises(SearchCheckFailed, match="walked 9 assignments of 10"):
        enumerate_min_direct(space, dist2("1/2"))


def test_huffman_trivial_cases():
    assert huffman_length(dist2("1/2")) == ((1, 1), Fraction(1))
    uniform = SourceDist(main_dist().alphabet, (Fraction(1, 4),) * 4)
    assert huffman_length(uniform) == ((2, 2, 2, 2), Fraction(2))
    single = SourceDist(Alphabet(("a",)), (Fraction(1),))
    assert huffman_length(single) == ((0,), Fraction(0))


def test_huffman_worked_example():
    lengths, cost = huffman_length(main_dist())
    assert lengths == HUFFMAN_GOLDEN["lengths"]
    assert cost == HUFFMAN_GOLDEN["avg_len"]


def test_comparison_report():
    report = compare_aifv_huffman(SearchSpace(2, 2, 3, "aifv"), dist2("9/10"))
    assert report.huffman_len == 1
    assert report.huffman_lengths == (1, 1)
    assert report.aifv_wins_or_ties
    assert report.gap == report.huffman_len - report.aifv_len
    assert report.note == ""


def test_comparison_at_the_length_boundary():
    # the instant optimum's deepest codeword exactly fills the bound, so
    # the tie claim stands without a caveat
    ab4 = Alphabet(("a", "b", "c", "d"))
    skew = SourceDist(ab4, (Fraction(7, 10), Fraction(1, 10),
                            Fraction(1, 10), Fraction(1, 10)))
    report = compare_aifv_huffman(SearchSpace(4, 2, 3, "aifv"), skew)
    assert max(report.huffman_lengths) == 3
    assert report.note == ""
    assert report.aifv_len == report.huffman_len == Fraction(3, 2)


def test_comparison_needs_two_tables():
    with pytest.raises(ValueError):
        compare_aifv_huffman(SearchSpace(2, 1, 2, "aifv"), dist2("1/2"))


def test_strict_and_loose_filters_reach_the_same_minimum():
    # at this scale the structural filter costs nothing over the loose one
    for p in ("7/10", "9/10"):
        loose = enumerate_min(SearchSpace(2, 2, 2, "f0"), dist2(p))
        strict = enumerate_min(SearchSpace(2, 2, 2, "aifv"), dist2(p))
        assert loose.avg_len == strict.avg_len, p


def test_distribution_size_must_match_space():
    with pytest.raises(ValueError):
        enumerate_min(SearchSpace(3, 2, 2, "f0"), dist2("1/2"))


def test_scan_cache_keeps_one_scan_per_space_until_cleared(monkeypatch):
    # the benchmark empties search._SCAN_CACHE between runs, reading it by
    # name through getattr: a rename or another type would silently leave
    # its cold runs warm
    cache = search._SCAN_CACHE
    assert type(cache) is dict
    walks, walk = [], search._Scan._walk

    def counted(scan, *key):
        walks.append(key)
        return walk(scan, *key)

    monkeypatch.setattr(search._Scan, "_walk", counted)
    space, dist = SearchSpace(2, 2, 2, "f0"), dist2("7/10")
    cache.pop(space, None)
    first = enumerate_min(space, dist)
    assert type(cache[space]) is search._Scan and cache[space].space == space
    cold = len(walks)
    assert cold > 0
    assert enumerate_min(space, dist) == first and len(walks) == cold
    cache.clear()
    assert enumerate_min(space, dist) == first and len(walks) == 2 * cold
    # a scan that walked nothing is an empty dict, falsy, and still reused
    empty, held = SearchSpace(2, 1, 1, "aifv"), []
    for _ in range(2):
        with pytest.raises(EmptySpace):
            enumerate_min(empty, dist)
        held.append(cache[empty])
    assert held[0] is held[1] and held[0] == {} and held[0].guesses == {}
    assert len(walks) == 2 * cold and list(cache) == [space, empty]


# summary rows (least cost, weight leaving, targets): small ranges so that
# staying rows (weight 0), equal prices and single rows come up often
SUMMARY_ROWS = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 4),
                                  st.just(())), min_size=1, max_size=4)


@settings(max_examples=1000, deadline=None)
@given(rows0=SUMMARY_ROWS, rows1=SUMMARY_ROWS,
       best=st.tuples(st.integers(0, 60), st.integers(0, 8)) | st.just((1, 0)))
def test_price_test_keeps_a_guess_exactly_when_the_join_would(rows0, rows1,
                                                              best):
    # the combine's join of every pair, a mix of the two costs weighted by
    # the weight leaving each: a pair counts at or below the best cost
    num, den = best
    joined = any(
        leave0 + leave1 > 0
        and (leave1 * cost0 + leave0 * cost1) * den - num * (leave0 + leave1)
        <= 0
        for cost0, leave0, _ in rows0 for cost1, leave1, _ in rows1)
    assert search._reaches(rows0, rows1, num, den) is joined


@st.composite
def packed_fields(draw):
    """sigma, max_len, two sid tuples, targets and lengths, and the first
    sid tuple with one sid made the largest."""
    sigma, max_len = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    top = 2 * len(all_words(max_len)) - 1  # the largest sid
    fields = [st.lists(st.integers(0, high), min_size=sigma, max_size=sigma)
              for high in (top, top, 1, max_len)]
    sids, other, targets, lens = (tuple(draw(f)) for f in fields)
    at = draw(st.integers(0, sigma - 1))
    return (sigma, max_len, sids, other, targets, lens,
            sids[:at] + (top,) + sids[at + 1:])


@settings(max_examples=500, deadline=None)
@given(packed_fields())
def test_unpacking_inverts_the_scan_s_packing(case):
    # the walk packs a stored option a symbol at a time: contents by
    # shifting in each sid, targets by bit, length vectors by digit
    sigma, max_len, sids, other, targets, lens, topped = case
    space = types.SimpleNamespace(sigma=sigma, max_len=max_len)
    width = search._width(max_len)

    def pack(content):
        return functools.reduce(lambda row, sid: row << width | sid,
                                content, 0)

    packed_targets = sum(t << pos for pos, t in enumerate(targets))
    lenvec = sum(n * (max_len + 1) ** pos for pos, n in enumerate(lens))
    for content in (sids, other, topped):
        table = {packed_targets: {lenvec: pack(content)}}
        assert unpack_table(space, table) == {targets: {lens: content}}
        assert search._unpack(pack(content), sigma, width) == content
    # numeric order is tuple order, also with the largest sid
    for a, b in ((sids, other), (sids, topped), (topped, other)):
        assert (pack(a) < pack(b)) == (a < b), (a, b)

import random

import pytest

from codetuples import (PrefixSetTable, delay_decodability, is_extendable,
                        make_tuple)
from codetuples.bits import EMPTY, Bits
from codetuples.prefix_sets import DEFAULT_MAX_K, encode_from
from codetuples.reference import KEYS, TUPLES, bitset

from support import oracle_continuations, random_code_tuple, window_samples


def test_encode_from_composes():
    code = TUPLES["r3"]
    bits, end = encode_from(code, 0, code.alphabet.seq("badb"))
    assert bits == Bits("1000001111110")
    assert end == 0
    assert encode_from(code, 0, ()) == (EMPTY, 0)
    assert encode_from(code, 0, code.alphabet.seq("b")) == (Bits("10"), 1)
    # splitting the sequence anywhere gives the same bits
    seq = code.alphabet.seq("badb")
    for cut in range(len(seq) + 1):
        head, mid = encode_from(code, 0, seq[:cut])
        tail, end2 = encode_from(code, mid, seq[cut:])
        assert head + tail == bits and end2 == end


def test_encode_is_not_injective():
    code = TUPLES["r3"]
    bc, _ = encode_from(code, 0, code.alphabet.seq("bc"))
    bd, _ = encode_from(code, 0, code.alphabet.seq("bd"))
    assert bc == bd == Bits("1000111")


def test_windows_are_read_as_bits():
    r3 = TUPLES["r3"]
    assert r3.sets.search("10000", 0)[1]
    assert not r3.sets.search("00", 0)[1]
    assert r3.sets.continuations(0, "10", 2) == \
        r3.sets.continuations(0, Bits("10"), 2)


# Hand-built tuples whose empty codewords make the base sets of one level
# read each other: a chain closing into a cycle, a self-loop, and a dead
# table (only empty codewords) reached through an empty codeword.
EMPTY_CODEWORD_TUPLES = [
    [[("-", 1), ("0", 0)], [("-", 2), ("11", 1)], [("-", 0), ("10", 2)]],
    [[("-", 0), ("1", 1)], [("01", 0), ("-", 0)]],
    [[("-", 1), ("0", 0)], [("-", 1), ("-", 1)]],
    [[("-", 1), ("01", 3)], [("-", 2), ("1", 0)], [("-", 3), ("-", 1)],
     [("-", 3), ("-", 3)]],
    [[("-", 1), ("-", 2), ("110", 0)], [("-", 0), ("-", 1), ("0", 2)],
     [("-", 2), ("-", 3), ("-", 2)], [("1", 0), ("00", 3), ("-", 3)]],
]


@pytest.mark.parametrize("rows", EMPTY_CODEWORD_TUPLES)
def test_base_sets_through_empty_codewords_match_the_oracle(rows):
    code = make_tuple("abc"[:len(rows[0])], rows)
    sets = PrefixSetTable(code)
    for i in code.table_indices():
        for k in range(7):
            want = oracle_continuations(code, i, EMPTY, k, False)
            assert sets.base(i, k) == want, (i, k)
    # grown straight to the top level, not one level at a time
    assert all(PrefixSetTable(code).base(i, 6) == sets.base(i, 6)
               for i in code.table_indices())


def test_base_sets_match_reference_tables():
    # covered in depth by the goldens; spot-check the exact worked rows
    sets = PrefixSetTable(TUPLES["r3"])
    assert sets.base(0, 2) == bitset("01 10")
    assert sets.base(2, 2) == bitset("11")
    assert sets.base(0, 1) == bitset("0 1")


def test_base_set_of_dead_table_is_empty():
    sets = PrefixSetTable(TUPLES["r1"])
    assert sets.base(2, 1) == frozenset()
    assert sets.base(2, 5) == frozenset()


def test_level_zero_is_lambda():
    for key in ("r1", "r3", "r10"):
        sets = PrefixSetTable(TUPLES[key])
        for i in TUPLES[key].table_indices():
            assert sets.base(i, 0) == frozenset([EMPTY])


def test_worked_conditional_sets():
    beta = PrefixSetTable(TUPLES["r2"])
    assert beta.continuations(0, Bits("101"), 3) == bitset("100 101 111")
    assert beta.strict_continuations(0, Bits("101"), 3) == bitset("101")
    assert beta.strict_continuations(1, Bits("011"), 0) == frozenset([EMPTY])
    gamma = PrefixSetTable(TUPLES["r3"])
    assert gamma.strict_continuations(1, Bits("00"), 2) == bitset("11")
    assert gamma.strict_continuations(2, Bits("110"), 2) == bitset("00 01")


def test_conditional_with_empty_window_equals_base():
    for key in ("r3", "r7", "r10"):
        sets = PrefixSetTable(TUPLES[key])
        for i in TUPLES[key].table_indices():
            for k in range(0, 4):
                assert sets.continuations(i, EMPTY, k) == sets.base(i, k)


def test_k_above_cap_is_rejected():
    sets = PrefixSetTable(TUPLES["r3"])
    with pytest.raises(ValueError):
        sets.base(0, DEFAULT_MAX_K + 1)
    with pytest.raises(ValueError):
        sets.continuations(0, EMPTY, -1)


def test_achievable_prefix_examples():
    code = TUPLES["r3"]
    assert code.sets.search(Bits("10000"), 0)[1]
    assert code.sets.search(EMPTY, 0)[1]
    assert not code.sets.search(Bits("00"), 0)[1]


def test_achievable_prefix_agrees_with_base_sets():
    rng = random.Random(20260814)
    for _ in range(60):
        code = random_code_tuple(rng)
        sets = PrefixSetTable(code)
        for i in code.table_indices():
            for k in range(0, 4):
                level = sets.base(i, k)
                for word in level:
                    assert code.sets.search(word, i)[1]
                for word in set(map(Bits, _all_words(k))) - level:
                    assert not code.sets.search(word, i)[1]


def _all_words(k):
    return [format(v, "0%db" % k) for v in range(1 << k)] if k else [""]


def test_oracle_equivalence_random():
    rng = random.Random(1)
    for _ in range(120):
        code = random_code_tuple(rng)
        sets = PrefixSetTable(code)
        for i in code.table_indices():
            for b in window_samples(code, rng):
                for k in range(0, 3):
                    assert sets.continuations(i, b, k) == \
                        oracle_continuations(code, i, b, k, False)
                    assert sets.strict_continuations(i, b, k) == \
                        oracle_continuations(code, i, b, k, True)


def test_cardinality_identity_on_decodable_tuples():
    # |P^k(b)| = |strict part| + sum over symbols with codeword b of
    # |P^k of their next table|, whenever the tuple decodes with delay k.
    rng = random.Random(2)
    checked = 0
    for _ in range(150):
        code = random_code_tuple(rng)
        sets = PrefixSetTable(code)
        for k in range(0, 4):
            if not delay_decodability(code, k).ok:
                continue
            for i in code.table_indices():
                for b in window_samples(code, rng):
                    if len(b) > 6:
                        continue
                    total = len(sets.continuations(i, b, k))
                    strict = len(sets.strict_continuations(i, b, k))
                    exact = sum(len(sets.base(t, k)) for w, t, _
                                in sets.rows[i] if w == str(b))
                    assert total == strict + exact
                    checked += 1
    assert checked > 1000


def test_union_decomposition_always():
    # without decodability only the union form holds
    rng = random.Random(3)
    for _ in range(80):
        code = random_code_tuple(rng)
        sets = PrefixSetTable(code)
        for i in code.table_indices():
            for b in window_samples(code, rng):
                for k in range(0, 3):
                    union = set(sets.strict_continuations(i, b, k))
                    for w, t, _ in sets.rows[i]:
                        if w == str(b):
                            union |= sets.base(t, k)
                    assert sets.continuations(i, b, k) == union


def test_shift_decomposition():
    # strict continuations split on the first unread bit
    rng = random.Random(4)
    for _ in range(80):
        code = random_code_tuple(rng)
        sets = PrefixSetTable(code)
        for i in code.table_indices():
            for b in window_samples(code, rng):
                for k in range(1, 3):
                    left = {Bits("0") + c
                            for c in sets.continuations(i, b + "0", k - 1)}
                    right = {Bits("1") + c
                             for c in sets.continuations(i, b + "1", k - 1)}
                    assert sets.strict_continuations(i, b, k) == left | right


def test_monotone_extension_for_extendable():
    rng = random.Random(5)
    seen = 0
    while seen < 50:
        code = random_code_tuple(rng)
        if not is_extendable(code):
            continue
        seen += 1
        sets = PrefixSetTable(code)
        for i in code.table_indices():
            for b in window_samples(code, rng):
                for k in range(0, 3):
                    for kk in range(k, 4):
                        small = sets.continuations(i, b, k)
                        grown = {c[:k]
                                 for c in sets.continuations(i, b, kk)}
                        assert small == grown


def test_strict_plus_next_bounded_for_decodable():
    for key in KEYS:
        code = TUPLES[key]
        sets = PrefixSetTable(code)
        if not is_extendable(code) or not delay_decodability(code, 2).ok:
            continue
        for i in code.table_indices():
            for s in code.alphabet:
                for k in (0, 1, 2):
                    strict = sets.strict_continuations(i, code.code(i, s), k)
                    follow = sets.base(code.target(i, s), 2)
                    assert len(strict) + len(follow) <= 4


def test_every_element_has_length_k():
    rng = random.Random(6)
    for _ in range(40):
        code = random_code_tuple(rng)
        sets = PrefixSetTable(code)
        for i in code.table_indices():
            for b in window_samples(code, rng):
                for k in range(0, 4):
                    for c in sets.continuations(i, b, k):
                        assert len(c) == k
                    for c in sets.strict_continuations(i, b, k):
                        assert len(c) == k
                    assert sets.strict_continuations(i, b, k) <= \
                        sets.continuations(i, b, k)

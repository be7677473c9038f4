"""The codec's emission automaton against the old greedy decoder.

``support.oracle_decode`` and ``support.oracle_identification_delays`` are
the decoder and delay scan as they stood on ``Bits`` slices, with their own
state searches.  Every field of the result must agree: symbols, end table,
tail, completions, capped and conflicts, or both must refuse the bits.
``support.oracle_roundtrip_check`` runs the round trip on them, one fresh
decoder per trial, against the codec's table of steps shared by the trials.
"""

import itertools
import random

import pytest

from codetuples import (classify, decode, delay_decodability,
                        identification_delays, make_tuple, roundtrip_check)
from codetuples.bits import Bits
from codetuples.errors import NoConsistentCompletion
from codetuples.prefix_sets import encode_from
from codetuples.reference import TUPLES

from support import (oracle_decode, oracle_identification_delays,
                     oracle_roundtrip_check, random_code_tuple, random_seq)

STREAM_KEYS = ("r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10")


def has_empty_cycle(code):
    """Whether empty codewords alone lead from some table back to itself,
    the only way the old greedy scan fails to terminate."""
    succ = {i: {code.target(i, s) for s in code.alphabet
                if not code.code(i, s)} for i in code.table_indices()}
    for i in code.table_indices():
        seen, stack = set(), list(succ[i])
        while stack:
            j = stack.pop()
            if j == i:
                return True
            if j not in seen:
                seen.add(j)
                stack.extend(succ[j])
    return False


def outcome(fn, *args):
    try:
        return fn(*args)
    except NoConsistentCompletion:
        return "no completion"


def assert_same_decode(code, start, bits, k=2):
    assert outcome(decode, code, start, bits, k) == \
        outcome(oracle_decode, code, start, bits, k), (code, start, bits, k)


def test_empty_cycle_detector():
    loop = TUPLES["r1"]  # table 2 maps every symbol to itself with '-'
    assert has_empty_cycle(loop)
    assert not any(has_empty_cycle(TUPLES[key]) for key in STREAM_KEYS)


def test_random_f0_tuples_decode_like_the_oracle():
    rng = random.Random(4401)
    checked = 0
    while checked < 120:
        code = random_code_tuple(rng, max_tables=3, max_sigma=4, max_len=3)
        if not classify(code)["f0"]:
            continue
        checked += 1
        for _ in range(6):
            start = rng.randrange(code.num_tables)
            bits, _ = encode_from(code, start, random_seq(rng, code, 10))
            for cut in range(len(bits) + 1):
                assert_same_decode(code, start, bits.head(cut))


def test_random_bits_on_loop_free_tuples_decode_like_the_oracle():
    # arbitrary tuples reach conflicts, capped lists and refusals
    rng = random.Random(4402)
    checked = 0
    while checked < 300:
        code = random_code_tuple(rng, max_tables=3, max_sigma=4, max_len=3)
        if has_empty_cycle(code):
            continue
        checked += 1
        for _ in range(4):
            start = rng.randrange(code.num_tables)
            text = "".join(rng.choice("01")
                           for _ in range(rng.randint(0, 12)))
            assert_same_decode(code, start, Bits(text))


AMBIGUOUS = (
    make_tuple(("a", "b", "c", "d"), [[("0", 0), ("0", 1), ("00", 0), ("1", 1)],
                                      [("0", 0), ("-", 0), ("01", 1), ("1", 0)]]),
    make_tuple(("a", "b", "c"), [[("0", 0), ("0", 0), ("1", 0)]]),
    make_tuple(("a", "b", "c", "d"), [[("-", 1), ("0", 0), ("01", 1), ("1", 1)],
                                      [("0", 0), ("10", 0), ("1", 1), ("0", 1)]]),
)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_roundtrip_memos_serve_views_that_end_a_trial_and_recur(k):
    # short trials on tuples that are not delay-k decodable: the bits one
    # step reads often end a trial's stream, and the same bits recur in
    # the middle of another, where more bits may still identify the symbol
    rng = random.Random(4405 + k)
    tried = 0
    while tried < 12:
        code = random_code_tuple(rng, max_tables=3, max_sigma=3, max_len=2)
        if has_empty_cycle(code) or \
                delay_decodability(code, k):
            continue
        tried += 1
        assert_same_roundtrip(code, k, rng.randrange(999), trials=400,
                              max_len=6)


@pytest.mark.parametrize("code", AMBIGUOUS)
def test_every_short_string_on_ambiguous_tuples(code):
    # a long lookahead leaves long tails: conflicts, capped lists, settling
    for k in (1, 3, 5):
        for n in range(8):
            for text in itertools.product("01", repeat=n):
                for start in code.table_indices():
                    assert_same_decode(code, start, Bits("".join(text)), k)


@pytest.mark.parametrize("key", STREAM_KEYS)
def test_long_reference_streams_decode_like_the_oracle(key):
    code = TUPLES[key]
    rng = random.Random("stream:" + key)
    start = rng.randrange(code.num_tables)
    seq = []
    bits = Bits()
    while len(bits) < 4096:
        seq.extend(random_seq(rng, code, 256))
        bits, _ = encode_from(code, start, seq)
    assert_same_decode(code, start, bits)
    assert_same_decode(code, start, bits.head(len(bits) - rng.randint(1, 16)))


def test_identification_delays_match_the_oracle():
    rng = random.Random(4403)
    for _ in range(300):
        code = random_code_tuple(rng, max_tables=3, max_sigma=4, max_len=3)
        start = rng.randrange(code.num_tables)
        seq = random_seq(rng, code, 8)
        assert identification_delays(code, start, seq) == \
            oracle_identification_delays(code, start, seq), (code, seq)


def assert_same_roundtrip(code, k, seed, trials=60, max_len=10):
    got = roundtrip_check(code, k, trials, max_len, seed)
    assert got == oracle_roundtrip_check(code, k, trials, max_len, seed), \
        (code, k, seed)
    return got


def test_roundtrip_reports_on_random_tuples_match_the_oracle():
    # f0 tuples pass; the others fail, conflict and get refused, which must
    # be counted, capped and worded alike
    rng = random.Random(4404)
    wanted = {True: 20, False: 40}
    reports = []
    while any(wanted.values()):
        code = random_code_tuple(rng, max_tables=3, max_sigma=4, max_len=3)
        f0 = classify(code)["f0"]
        if has_empty_cycle(code) or not wanted[f0]:
            continue
        wanted[f0] -= 1
        for k in (1, 2, 3):
            reports.append(assert_same_roundtrip(code, k, rng.randrange(999)))
    reasons = {f.reason.split()[0] for r in reports for f in r.failures}
    # a symbol left out with k bits after it needs a loop of empty
    # codewords, which the oracle cannot run
    assert reasons == {"no", "decoded", "identification"}
    assert any(r.failure_count > len(r.failures) for r in reports)
    assert any(r.conflicts for r in reports)


@pytest.mark.parametrize("code", AMBIGUOUS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_roundtrip_reports_on_ambiguous_tuples_match_the_oracle(code, k):
    assert_same_roundtrip(code, k, seed=k, trials=200)


@pytest.mark.parametrize("key", ("r2",) + STREAM_KEYS)
def test_roundtrip_reports_on_reference_tuples_match_the_oracle(key):
    for k in (1, 2, 3):
        assert_same_roundtrip(TUPLES[key], k, seed=k, trials=100, max_len=16)

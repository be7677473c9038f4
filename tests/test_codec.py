import os
import random
import subprocess
import sys

import pytest

import codetuples
from codetuples import (
    Bits,
    decode,
    encode,
    identification_delays,
    make_tuple,
    roundtrip_check,
)
from codetuples.bits import EMPTY
from codetuples.errors import NoConsistentCompletion
from codetuples.prefix_sets import encode_from
from codetuples.reference import ENCODE_GOLDEN, KEYS, TUPLES

from support import random_code_tuple

TWO_DECODABLE = [k for k in KEYS if k != "r2"]


def test_encode_worked_example():
    key, start, text, bits, end = ENCODE_GOLDEN
    code = TUPLES[key]
    got, got_end = encode(code, start, code.alphabet.seq(text))
    assert str(got) == bits
    assert got_end == end


def test_encode_is_encode_from():
    assert encode is encode_from


def test_decode_worked_example_resolves_fully():
    key, start, text, bits, end = ENCODE_GOLDEN
    code = TUPLES[key]
    result = decode(code, start, Bits(bits))
    assert result.symbols == code.alphabet.seq(text)
    assert result.end_table == end
    assert result.info.resolved
    assert result.info.completions == ()
    assert result.info.conflicts == 0


def test_decode_reports_dangling_tail():
    code = TUPLES["r3"]
    result = decode(code, 0, Bits("1000111"))
    assert code.alphabet.render(result.symbols) == "b"
    assert result.end_table == 1
    assert str(result.info.tail) == "00111"
    assert not result.info.resolved
    # the tail is a full codeword of two symbols with different targets
    assert result.info.completions == ((2,), (3,))
    assert not result.info.capped


def test_decode_empty_input():
    result = decode(TUPLES["r3"], 0, EMPTY)
    assert result.symbols == ()
    assert result.info.resolved
    assert result.end_table == 0


def test_decode_rejects_unachievable_bits():
    with pytest.raises(NoConsistentCompletion):
        decode(TUPLES["r3"], 0, Bits("11"))


def test_decode_blames_bits_no_emission_starts_with():
    with pytest.raises(NoConsistentCompletion) as info:
        decode(TUPLES["r3"], 0, Bits("11111111"))
    assert str(info.value) == \
        "11111111 is not a prefix of any emission from table 0"


def test_decode_names_its_own_misstep():
    # encode made these bits from table 0, and r3 is 2-bit but not 1-bit
    # delay decodable: at k=1 a greedy step goes wrong, not the bits
    code, seq = TUPLES["r3"], (1, 1, 3, 3, 3, 1)
    bits, _ = encode(code, 0, seq)
    assert str(bits) == "10011101101110"
    assert decode(code, 0, bits).symbols == seq
    with pytest.raises(NoConsistentCompletion) as info:
        decode(code, 0, bits, k=1)
    assert str(info.value) == (
        "the decoder misstepped: at bit 4 it reached table 0, from which no "
        "emission starts with 1101101110; the tuple is not decodable with "
        "delay 1 there")


def test_decode_rejects_out_of_range_lookahead():
    with pytest.raises(ValueError):
        decode(TUPLES["r3"], 0, Bits("01"), k=99)


def test_decode_counts_conflicts_outside_decodable_inputs():
    code = make_tuple(("a", "b", "c"), [[("0", 0), ("00", 0), ("11", 0)]])
    result = decode(code, 0, Bits("0011"))
    assert result.info.conflicts >= 1


def test_decode_caps_completion_lists():
    names = tuple("s%d" % r for r in range(17))
    code = make_tuple(names, [[("0", 0)] * 17])
    result = decode(code, 0, Bits("0"))
    assert result.info.capped
    assert len(result.info.completions) == 16
    assert result.symbols == ()


def test_completions_sorted_by_length_then_symbols():
    # tail 00 is either one two-bit symbol or two one-bit ones
    code = make_tuple(("a", "b"), [[("0", 0), ("00", 0)]])
    result = decode(code, 0, Bits("00"))
    assert result.info.completions == ((1,), (0, 0))


def test_identification_delays_on_worked_example():
    # the last symbol stays ambiguous against a longer codeword once the
    # stream ends, so only three of the four symbols get measured
    key, start, text, bits, _ = ENCODE_GOLDEN
    code = TUPLES[key]
    delays = identification_delays(code, start, code.alphabet.seq(text))
    assert delays == [0, 1, 2]


def test_identification_stops_at_persistent_ambiguity():
    # equal codewords with equal targets can never be told apart
    code = make_tuple(("a", "b"), [[("0", 0), ("0", 0)]])
    delays = identification_delays(code, 0, (0, 0, 0))
    assert delays == []


def test_identification_refuses_bits_of_another_sequence():
    # the bits of 'b' from table 0 rule out 'a' after one bit
    code = TUPLES["r3"]
    with pytest.raises(NoConsistentCompletion):
        identification_delays(code, 0, (0,), Bits("10"))
    # the contradiction is placed at its absolute bit, past the first symbol
    with pytest.raises(NoConsistentCompletion, match="table 1, bit 3$"):
        identification_delays(code, 0, (1, 0), Bits("1010"))


def test_roundtrip_worked_example():
    report = roundtrip_check(TUPLES["r3"], trials=1000, max_len=50, seed=7)
    assert report.ok
    assert report.max_delay <= 2
    assert report.conflicts == 0
    assert report.trials == 1000


def test_roundtrip_all_two_delay_members():
    for key in TWO_DECODABLE:
        report = roundtrip_check(TUPLES[key], trials=200, seed=11)
        assert report.ok, (key, report.failures[:1])
        assert report.max_delay <= 2, key


def test_roundtrip_catches_undecodable_tuple():
    report = roundtrip_check(TUPLES["r2"], trials=300, seed=3)
    assert not report.ok
    assert report.failures  # capped list still carries examples
    assert all(f.reason for f in report.failures)


def test_roundtrip_requires_seed():
    with pytest.raises(ValueError):
        roundtrip_check(TUPLES["r3"])


LOOP_SCRIPT = r"""
import sys
from codetuples import decode, make_tuple, roundtrip_check
from codetuples.bits import Bits
from codetuples.cli import main
code = make_tuple(("a", "b", "c"), [[("-", 0), ("0", 0), ("1", 0)]])
result = decode(code, 0, Bits("0101"))
print("decode", result.symbols, result.info.tail, result.info.conflicts,
      result.info.capped, len(result.info.completions))
report = roundtrip_check(code, trials=200, seed=1)
print("roundtrip", report.trials, report.failure_count, report.conflicts > 0)
print("first failure", report.failures[0].reason)
with open(sys.argv[1], "w") as handle:
    handle.write("alphabet a b c\ntables 1\ntable 0\na - 0\nb 0 0\nc 1 0\n")
main(["decode", "--tuple", sys.argv[1], "--bits", "0101"])
main(["decode", "--tuple", sys.argv[1], "--roundtrip", "--seed", "1"])
# two tables joined by empty codewords: 0 -> 1 -> 0 would repeat (0, 0)
code = make_tuple(("a", "b"), [[("-", 1), ("0", 0)], [("-", 0), ("1", 1)]])
result = decode(code, 0, Bits("0110"))
print("two tables", result.symbols, result.end_table, result.info.tail,
      result.info.conflicts)
"""


def test_decode_terminates_on_empty_codeword_loop(tmp_path):
    # The greedy scan once kept emitting the empty codeword of 'a', which
    # loops back to its own table, and never returned.  A child process
    # with a timeout turns a hang into a failure.
    src = os.path.dirname(os.path.dirname(codetuples.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", LOOP_SCRIPT, str(tmp_path / "loop.ct")],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # the scan stops at the revisit, so every bit goes to the tail report
    assert lines[0] == "decode () 0101 1 True 16"
    # no symbol is ever committed, so trials whose stream holds a codeword
    # followed by k bits fail: the decoder owes those symbols
    name, trials, failures, conflicted = lines[1].split()
    assert (name, trials, conflicted) == ("roundtrip", "200", "True")
    assert int(failures) > 0
    assert lines[2] == ("first failure symbol 0 not decoded, though at "
                        "least 2 bits follow its codeword")
    assert lines[3:6] == ["decoded = -", "end_table = 0", "TAIL"]
    assert "bits = 0101" in lines
    assert "completion = b c b c" in lines
    assert "trials = 1000" in lines
    # a -> table 1, whose empty 'a' would return to (0, 0): stop in table 1
    assert lines[-1] == "two tables (0,) 1 0110 1"


def test_cut_streams_keep_the_symbols_followed_by_k_bits():
    # Decoding a stream cut inside a codeword settles the tail as if the
    # cut were a codeword boundary, so only symbols whose codeword is
    # followed by at least k bits are guaranteed to be the source's.
    rng = random.Random(3301)
    k = 2
    for key in ("r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10"):
        code = TUPLES[key]
        for _ in range(40):
            start = rng.randrange(code.num_tables)
            seq = tuple(rng.randrange(code.sigma) for _ in range(40))
            bits, _ = encode(code, start, seq)
            ends, pos, table = [], 0, start
            for s in seq:
                pos += len(code.code(table, s))
                table = code.target(table, s)
                ends.append(pos)
            cut = len(bits) - rng.randint(1, 12)
            got = decode(code, start, bits.head(cut), k).symbols
            covered = sum(1 for end in ends if end + k <= cut)
            assert len(got) >= covered
            assert got[:covered] == seq[:covered], (key, start, seq, cut)

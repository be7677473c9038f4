from fractions import Fraction
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from codetuples import (Alphabet, FormatError, SourceDist, UnknownSymbol,
                        make_tuple, parse_code_tuple, parse_dist,
                        serialize_code_tuple, serialize_dist)
from codetuples.bits import Bits
from codetuples.reference import KEYS, TUPLES, main_dist


def test_alphabet_seq_accepts_three_shapes():
    al = Alphabet(("a", "b", "c", "d"))
    assert al.seq("badb") == (1, 0, 3, 1)
    assert al.seq("b a d b") == (1, 0, 3, 1)
    assert al.seq(["b", "a"]) == (1, 0)
    assert al.render((1, 0, 3)) == "b a d"
    with pytest.raises(KeyError):
        al.seq("bax")


def test_alphabet_rejects_duplicates_and_blank():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("a", ""))


def test_alphabet_index_refuses_an_unhashable_name():
    al = Alphabet(("c", "a", "b"))
    assert [al.index(name) for name in ("a", "b", "c")] == [1, 2, 0]
    for call in (lambda: al.index(["a"]), lambda: al.seq([["a"]])):
        with pytest.raises(UnknownSymbol) as info:
            call()
        assert str(info.value) == "unknown symbol: ['a']"


def test_make_tuple_and_accessors():
    code = TUPLES["r3"]
    assert code.num_tables == 3
    assert code.sigma == 4
    assert code.code(0, 0) == Bits("01")
    assert code.target(0, 3) == 2
    assert code.max_code_len() == 6
    assert tuple(code.table_indices()) == (0, 1, 2)


def test_make_tuple_rejects_bad_target():
    with pytest.raises(ValueError):
        make_tuple(("a", "b"), [[("0", 0), ("1", 2)]])


def test_serialize_parse_roundtrip_on_all_references():
    for key in KEYS:
        code = TUPLES[key]
        again = parse_code_tuple(serialize_code_tuple(code))
        assert again == code


def test_parse_minimal_single_table():
    text = "alphabet a b\ntables 1\ntable 0\na 0 0\nb 1 0\n"
    code = parse_code_tuple(text)
    assert code.num_tables == 1
    assert code.code(0, 0) == Bits("0")


def test_parse_skips_comments_and_blanks():
    text = ("# header\n\nalphabet a b\n tables 1 \ntable 0\n"
            "a 0 0  # trailing\nb 1 0\n")
    code = parse_code_tuple(text)
    assert code.sigma == 2


def test_parse_errors_carry_line_numbers():
    bad_target = "alphabet a b\ntables 1\ntable 0\na 0 0\nb 1 3\n"
    with pytest.raises(FormatError) as err:
        parse_code_tuple(bad_target)
    assert "line 5" in str(err.value)

    duplicate = "alphabet a b\ntables 1\ntable 0\na 0 0\na 1 0\n"
    with pytest.raises(FormatError):
        parse_code_tuple(duplicate)

    missing_row = "alphabet a b\ntables 1\ntable 0\na 0 0\n"
    with pytest.raises(FormatError):
        parse_code_tuple(missing_row)

    unknown_symbol = "alphabet a b\ntables 1\ntable 0\na 0 0\nz 1 0\n"
    with pytest.raises(FormatError):
        parse_code_tuple(unknown_symbol)


WHOLE = ("# header", "alphabet a b", "tables 2", "table 0", "a 0 0", "b 1 1",
         "", "table 1", "a 0 0", "b 1 0")


@pytest.mark.parametrize("kept, message, line", [
    (0, "empty file", None),
    (1, "empty file", None),
    (2, "missing 'tables N' line", None),
    (3, "missing 'table 0' block", None),
    (4, "table 0 is missing rows", None),
    (5, "table 0 is missing rows", None),
    (6, "missing 'table 1' block", None),
    (7, "missing 'table 1' block", None),
    (8, "table 1 is missing rows", None),
    (9, "table 1 is missing rows", None),
])
def test_parse_names_what_a_cut_file_is_missing(kept, message, line):
    with pytest.raises(FormatError) as err:
        parse_code_tuple("\n".join(WHOLE[:kept]) + "\n")
    assert (str(err.value), err.value.line) == (message, line)


def test_parse_names_the_first_trailing_line():
    assert parse_code_tuple("\n".join(WHOLE) + "\n").num_tables == 2
    with pytest.raises(FormatError) as err:
        parse_code_tuple("\n".join(WHOLE) + "\n# note\nc 1 0\ntable 2\n")
    assert (str(err.value), err.value.line) == (
        "line 12: unexpected trailing content: 'c 1 0'", 12)


def test_lambda_codeword_round_trips():
    code = TUPLES["r1"]
    text = serialize_code_tuple(code)
    assert "\na - 2\n" in text
    assert parse_code_tuple(text) == code


def test_source_dist_validation():
    al = Alphabet(("a", "b"))
    with pytest.raises(ValueError):
        SourceDist(al, (Fraction(1), Fraction(0)))
    with pytest.raises(ValueError):
        SourceDist(al, (Fraction(2, 3), Fraction(2, 3)))
    uniform = SourceDist.uniform(al)
    assert uniform.probs == (Fraction(1, 2), Fraction(1, 2))
    assert uniform[0] == Fraction(1, 2)


def test_from_values_snaps_floats():
    al = Alphabet(("a", "b", "c", "d"))
    dist = SourceDist.from_values(al, (0.1, 0.2, 0.3, 0.4))
    assert dist.probs == (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10),
                          Fraction(2, 5))


def test_parse_dist_rational_and_decimal():
    dist = parse_dist("a 1/10\nb 2/10\nc 3/10\nd 4/10\n")
    assert dist.probs == main_dist().probs
    decimal = parse_dist("a 0.1\nb 0.2\nc 0.3\nd 0.4\n")
    assert decimal.probs == dist.probs


def test_parse_dist_against_alphabet_reorders():
    al = Alphabet(("a", "b"))
    dist = parse_dist("b 1/4\na 3/4\n", al)
    assert dist.probs == (Fraction(3, 4), Fraction(1, 4))
    with pytest.raises(FormatError):
        parse_dist("a 1/2\nz 1/2\n", al)


def test_parse_dist_names_the_duplicate_line_and_keeps_file_order():
    with pytest.raises(FormatError) as info:
        parse_dist("b 1/4\na 1/4\n# c\nb 1/2\n")
    assert str(info.value) == "line 4: duplicate symbol 'b'"
    dist = parse_dist("c 1/2\na 1/8\nb 3/8\n")
    assert dist.alphabet.names == ("c", "a", "b")
    assert dist.probs == (Fraction(1, 2), Fraction(1, 8), Fraction(3, 8))


def test_parse_dist_rejects_bad_total_and_zero():
    with pytest.raises(FormatError):
        parse_dist("a 1/2\nb 1/3\n")
    with pytest.raises(FormatError):
        parse_dist("a 1\nb 0\n")
    with pytest.raises(FormatError):
        parse_dist("")


# Fraction reads PEP 515 underscores in a string from Python 3.11 on
UNDERSCORES = sys.version_info >= (3, 11)


@pytest.mark.parametrize("token, value", [
    ("1/2", Fraction(1, 2)),
    ("0.5", Fraction(1, 2)),
    ("5E-1", Fraction(1, 2)),
    (".5", Fraction(1, 2)),
    ("+0.5", Fraction(1, 2)),
    ("1_0/20", Fraction(1, 2) if UNDERSCORES else None),
    ("5_0e-2", Fraction(1, 2) if UNDERSCORES else None),
    ("\u0663/6", Fraction(1, 2)),  # an Arabic-Indic 3
    ("1/2e0", None),
    ("inf", None),
    ("1e", None),
    ("1/0", None),
])
def test_parse_dist_reads_each_probability_token_shape(token, value):
    text = "a %s\nb 1/2\n" % token
    if value is None:
        with pytest.raises(FormatError) as err:
            parse_dist(text)
        assert str(err.value) == "line 1: bad probability %r" % token
    else:
        assert parse_dist(text).probs == (value, Fraction(1, 2))


def test_parse_dist_absorbs_rounding_only_of_decimal_files():
    # a token without '/' but with '.', 'e' or 'E' may be rounded, so a
    # defect up to 10**-12 goes into the largest entry; p/q is exact
    third = "0.3333333333333"
    dist = parse_dist("a %s\nb %s\nc %s\n" % (third, third, third))
    assert dist.probs == (1 - 2 * Fraction(third), Fraction(third),
                          Fraction(third))
    assert parse_dist("a 1/2\nb 5e-1\n").probs == (Fraction(1, 2),) * 2
    with pytest.raises(FormatError) as err:
        parse_dist("a 1/2\nb %d/%d\n" % (5 * 10 ** 12 - 1, 10 ** 13))
    assert "not 1" in str(err.value)


def test_dist_serialize_roundtrip():
    dist = main_dist()
    assert parse_dist(serialize_dist(dist)).probs == dist.probs


def test_parse_rejects_non_ascii_digits_with_line_numbers():
    # '\u00b2' passes str.isdigit, but int() refuses it
    with pytest.raises(FormatError) as err:
        parse_code_tuple("alphabet a b\ntables \u00b2\n")
    assert "line 2" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_code_tuple("alphabet a b\ntables 1\ntable 0\na 0 \u00b2\nb 1 0\n")
    assert "line 4" in str(err.value)


def test_parse_dist_bounds_exponents_with_line_numbers():
    # formatting 10**999999 in the sum message once raised ValueError
    with pytest.raises(FormatError) as err:
        parse_dist("a 1e999999\n")
    assert "line 1" in str(err.value)
    with pytest.raises(FormatError) as err:
        parse_dist("a 1/2\nb 5e-999999\n")
    assert "line 2" in str(err.value)
    assert parse_dist("a 1e-3\nb 0.999\n").probs == (Fraction(1, 1000),
                                                     Fraction(999, 1000))


def test_parse_dist_total_too_long_to_print():
    # two coprime 4000-digit denominators sum to an 8000-digit one
    text = "a 1/%s\nb 1/%s\n" % ("9" * 4000, "9" * 3999 + "7")
    with pytest.raises(FormatError):
        parse_dist(text)


AB = Alphabet(("a", "b"))
HUGE = ("1/" + "9" * 4000, "1/" + "9" * 3999 + "7")
THIRD_ROUNDED = ("1/3", "0.6666666666667")  # 10**-13 / 3 above one


@pytest.mark.parametrize("values, inexact, message", [
    (("1/2", "1/3"), False, "probabilities sum to 5/6, not 1"),
    (("1/2", "2/3"), False, "probabilities sum to 7/6, not 1"),
    (("1/2",), False, "probabilities sum to 1/2, not 1"),
    ((), False, "probabilities sum to 0, not 1"),
    (("1/2", "1/4", "1/4"), False, "distribution size does not match alphabet"),
    ((0, 1), False, "probabilities must be positive"),
    (("-1/2", "3/2"), False, "probabilities must be positive"),
    # the sum is tested first, and the sign only for a sum of one
    (("-1/2", "1/2"), False, "probabilities sum to 0, not 1"),
    (("1/2", 0), False, "probabilities sum to 1/2, not 1"),
    (THIRD_ROUNDED, False,
     "probabilities sum to 30000000000001/30000000000000, not 1"),
    (("1/3", "0.666666"), True, "probabilities sum to 1499999/1500000, not 1"),
    ((0.1, 0.2), False, "probabilities sum to 3/10, not 1"),
    (HUGE, False, "probabilities sum to a value too long to print, not 1"),
])
def test_from_values_refuses_as_before(values, inexact, message):
    with pytest.raises(ValueError) as err:
        SourceDist.from_values(AB, values, inexact)
    assert str(err.value) == message


@pytest.mark.parametrize("values, message", [
    (("1/2", "1/3"), "probabilities sum to 5/6, not 1"),
    (("1/2",), "distribution size does not match alphabet"),
    ((0, 1), "probabilities must be positive"),
    (("-1/2", "1/2"), "probabilities must be positive"),
    (THIRD_ROUNDED, "probabilities sum to 30000000000001/30000000000000, "
                    "not 1"),
    (HUGE, "probabilities sum to a value too long to print, not 1"),
])
def test_source_dist_refuses_as_from_values(values, message):
    with pytest.raises(ValueError) as err:
        SourceDist(AB, tuple(Fraction(v) for v in values))
    assert str(err.value) == message


def test_from_values_puts_a_small_defect_into_the_largest_entry():
    third = SourceDist.from_values(AB, THIRD_ROUNDED, inexact=True)
    assert third.probs == (Fraction(1, 3), Fraction(2, 3))
    assert third.integer_weights() == (3, (1, 2))
    floats = SourceDist.from_values(AB, (0.25, 0.75 - 1e-13))
    assert floats.probs == (Fraction(1, 4), Fraction(3, 4))


FUZZ_TOKENS = ("0", "1", "-", "01", "2", "10", "\u00b2", "\u0663", "1e999999",
               "1e-999999", "1/0", "0/0", "nan", "inf", "-1", "+1", "1_0",
               "9" * 5000, "1/3", "0.5", "1e", "e5", ".", "/", "#", "a", "b",
               "table", "tables", "alphabet", "\n", " ", "\t", "\u2028", "")


@st.composite
def mutated(draw, texts):
    """A valid file with one to three tokens replaced, doubled or deleted."""
    parts = re.split(r"(\s+)", draw(st.sampled_from(texts)))
    for _ in range(draw(st.integers(1, 3))):
        at = 2 * draw(st.integers(0, len(parts) // 2))
        token = draw(st.sampled_from(FUZZ_TOKENS))
        kind = draw(st.sampled_from(("replace", "replace", "insert", "delete")))
        if kind == "insert" or at >= len(parts):
            parts[at:at] = [token, " "]
        elif kind == "replace":
            parts[at] = token
        else:
            del parts[at:at + 2]
    return "".join(parts)


TUPLE_TEXTS = tuple(serialize_code_tuple(TUPLES[key]) for key in KEYS)
DIST_TEXTS = (serialize_dist(main_dist()), "a 0.1\nb 0.2\nc 0.3\nd 0.4\n",
              "a 1e-1\nb 2E-1\nc 0.3\nd 4e-1\n")


@settings(max_examples=300, deadline=None)
@given(mutated(TUPLE_TEXTS))
def test_code_tuple_parser_raises_only_format_errors(text):
    try:
        parse_code_tuple(text)
    except FormatError:
        pass


@settings(max_examples=300, deadline=None)
@given(mutated(DIST_TEXTS), st.booleans())
def test_dist_parser_raises_only_format_errors(text, with_alphabet):
    try:
        parse_dist(text, main_dist().alphabet if with_alphabet else None)
    except FormatError:
        pass

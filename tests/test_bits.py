import pytest
from hypothesis import given, strategies as st

from codetuples.bits import EMPTY, ONE, ZERO, Bits, bit, parse, show

bit_strings = st.text(alphabet="01", max_size=12)


def test_construction_and_len():
    assert len(Bits("0110")) == 4
    assert len(EMPTY) == 0
    assert not EMPTY
    assert Bits("0")
    with pytest.raises(ValueError):
        Bits("012")


def test_indexing_and_iteration():
    b = Bits("0110")
    assert b[0] == 0
    assert b[3] == 0
    assert list(b) == [0, 1, 1, 0]
    assert b[1:3] == Bits("11")
    assert isinstance(b[1:3], Bits)


def test_concat_and_equality():
    assert Bits("01") + Bits("10") == Bits("0110")
    assert Bits("01") + "10" == Bits("0110")
    assert EMPTY + Bits("1") == ONE
    assert ZERO != ONE
    assert hash(Bits("01")) == hash(Bits("01"))


def test_prefix_predicates():
    assert EMPTY.is_prefix_of(Bits("0"))
    assert EMPTY.is_proper_prefix_of(Bits("0"))
    assert not EMPTY.is_proper_prefix_of(EMPTY)
    assert Bits("01").is_prefix_of(Bits("0110"))
    assert not Bits("10").is_prefix_of(Bits("0110"))
    assert not Bits("0110").is_proper_prefix_of(Bits("0110"))


def test_head_tail_strip():
    b = Bits("0110")
    assert b.head(2) == Bits("01")
    assert b.head(9) == b
    assert b.tail_from(2) == Bits("10")
    assert b.tail_from(9) == EMPTY
    assert b.drop_first() == Bits("110")
    assert b[:-1] == Bits("011")
    assert b.strip_prefix(Bits("01")) == Bits("10")
    with pytest.raises(ValueError):
        b.strip_prefix(Bits("10"))


def test_order_is_length_then_lex():
    words = [Bits("1"), Bits("0"), Bits("00"), EMPTY, Bits("10")]
    assert sorted(words) == [EMPTY, Bits("0"), Bits("1"), Bits("00"),
                             Bits("10")]


def test_helpers():
    assert bit(0) == ZERO and bit(1) == ONE
    assert show(EMPTY) == "-"
    assert show(Bits("01")) == "01"
    assert parse("-") == EMPTY
    assert parse("01") == Bits("01")


@given(bit_strings, bit_strings, bit_strings)
def test_prefix_order_is_transitive(x, y, z):
    x, y, z = Bits(x), Bits(y), Bits(z)
    if x.is_prefix_of(y) and y.is_prefix_of(z):
        assert x.is_prefix_of(z)


@given(bit_strings, bit_strings)
def test_prefix_order_is_antisymmetric(x, y):
    x, y = Bits(x), Bits(y)
    if x.is_prefix_of(y) and y.is_prefix_of(x):
        assert x == y


@given(bit_strings)
def test_empty_is_least(x):
    assert EMPTY.is_prefix_of(Bits(x))


@given(bit_strings, bit_strings)
def test_concat_respects_prefix(x, y):
    x, y = Bits(x), Bits(y)
    assert x.is_prefix_of(x + y)
    assert (x + y).strip_prefix(x) == y

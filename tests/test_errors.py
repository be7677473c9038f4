"""Argument errors are domain errors and still ValueErrors (TypeErrors for
a value of the wrong type), with their messages unchanged; every public
callable and the CLI keep to that contract on generated wrong arguments."""

import contextlib
import inspect
import io
import signal
import types
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import codetuples
from codetuples import (Alphabet, Bits, CodeTuple, CodeTupleError,
                        InvalidArgument, PrefixSetTable, SearchSpace,
                        SourceDist, Table, UnknownSymbol, approx_decimal,
                        average_length, chain_to_class, classify, decode,
                        delay_decodability, encode, extend_to_two_tables,
                        forced_bit, identification_delays, is_aifv,
                        make_tuple, prefix_chain, roundtrip_check,
                        serialize_code_tuple, serialize_dist,
                        stationary_distribution, steer_bit, table_length,
                        transition_matrix)
from codetuples.bits import EMPTY
from codetuples.cli import main
from codetuples.codec import ROUNDTRIP_SYMBOL_CAP
from codetuples.classes import witness
from codetuples.errors import InvalidType
from codetuples.reference import TUPLES
from codetuples.transforms import rewrite_step

ONE_SYMBOL = make_tuple(("a",), [[("0", 0)]])
AB = Alphabet(("a", "b"))
HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
R3_UNIFORM = SourceDist.uniform(TUPLES["r3"].alphabet)


@pytest.mark.parametrize("call, message", [
    (lambda: chain_to_class(TUPLES["r5"], "f9"), "unknown target class 'f9'"),
    # a target or op is looked up in a tuple, so an unhashable one is refused
    (lambda: chain_to_class(TUPLES["r3"], ["f1"]),
     "unknown target class ['f1']"),
    (lambda: rewrite_step(TUPLES["r3"], "chain"), "unknown rewrite 'chain'"),
    (lambda: rewrite_step(TUPLES["r3"], ["dot"]), "unknown rewrite ['dot']"),
    (lambda: extend_to_two_tables(ONE_SYMBOL), "need at least two symbols"),
    (lambda: roundtrip_check(TUPLES["r3"]), "seed is required"),
    (lambda: PrefixSetTable(TUPLES["r3"]).base(0, 9), "k=9 outside 0..8"),
    (lambda: PrefixSetTable(TUPLES["r3"]).words(-1), "k=-1 outside 0..8"),
    (lambda: Alphabet(()), "alphabet is empty"),
    (lambda: Alphabet(("a", "a")), "duplicate symbol name"),
    (lambda: Alphabet(("a b",)), "bad symbol name: 'a b'"),
    (lambda: Table((Bits("0"),), ()), "codes and targets differ in length"),
    (lambda: CodeTuple(AB, ()), "a code tuple needs at least one table"),
    (lambda: CodeTuple(AB, (Table((Bits("0"),), (0,)),)),
     "table size does not match alphabet"),
    (lambda: CodeTuple(AB, (Table((Bits("0"), Bits("1")), (0, 1)),)),
     "next-table index 1 out of range"),
    (lambda: SourceDist(AB, (Fraction(1),)),
     "distribution size does not match alphabet"),
    (lambda: SourceDist(AB, (Fraction(0), Fraction(1))),
     "probabilities must be positive"),
    (lambda: SourceDist(AB, (HALF, THIRD)), "probabilities sum to 5/6, not 1"),
    (lambda: SourceDist.from_values(AB, (HALF, THIRD)),
     "probabilities sum to 5/6, not 1"),
    (lambda: SourceDist.from_values(AB, ("x", "1")), "bad probability 'x'"),
    (lambda: SourceDist.from_values(AB, (None, 1)), "bad probability None"),
    (lambda: SourceDist.from_values(AB, ("1/0", "1")),
     "bad probability '1/0'"),
    # Fraction raises ValueError on a float nan and OverflowError on inf
    (lambda: SourceDist.from_values(AB, (float("nan"), 0.5)),
     "bad probability nan"),
    (lambda: SourceDist.from_values(AB, (float("inf"), 0.5)),
     "bad probability inf"),
    # refused before Fraction builds 10**100000, as a distribution file is
    (lambda: SourceDist.from_values(AB, ("1e100000", "1")),
     "bad probability '1e100000'"),
    # so is a Decimal's, also a negative one; nan and infinity as before
    (lambda: SourceDist.from_values(AB, (Decimal("1e20000000"), "1")),
     "bad probability Decimal('1E+20000000')"),
    (lambda: SourceDist.from_values(AB, (Decimal("1e-20000000"), "1")),
     "bad probability Decimal('1E-20000000')"),
    (lambda: SourceDist.from_values(AB, (Decimal("NaN"), "1")),
     "bad probability Decimal('NaN')"),
    (lambda: SourceDist.from_values(AB, (Decimal("-Infinity"), "1")),
     "bad probability Decimal('-Infinity')"),
    # an entry that is not a (codeword, target) pair, not a raw unpack error
    (lambda: make_tuple(("a", "b"), [[("0", 0), ("1",)]]),
     "table 0, symbol b: expected a (codeword, target) pair, got ('1',)"),
    (lambda: make_tuple(("a", "b"), [[("0", 0), ("1", 0)], [("0", 0), "10"]]),
     "table 1, symbol b: expected a (codeword, target) pair, got '10'"),
    (lambda: make_tuple(("a", "b"), [[("0", 0), ("1", 0), 5]]),
     "table size does not match alphabet"),
    (lambda: witness("nope", TUPLES["r3"]), "unknown family 'nope', not one "
     "of extendable, regular, decodable, f0, f1, f2, f3, f4, aifv"),
    (lambda: Bits("012"), "not a binary string: '012'"),
    # as many digits as any parsed decimal exponent, not a raw decimal error
    (lambda: approx_decimal(THIRD, 10 ** 6),
     "places=1000000 outside -1000..1000"),
    (lambda: approx_decimal(THIRD, -1001), "places=-1001 outside -1000..1000"),
    # a negative index would silently count from the end
    (lambda: encode(TUPLES["r3"], 0, (9,)), "symbol 9 outside 0..3"),
    (lambda: encode(TUPLES["r3"], 0, (0, -1)), "symbol -1 outside 0..3"),
    (lambda: encode(TUPLES["r3"], 0, (0, "b")), "symbol 'b' outside 0..3"),
    (lambda: encode(TUPLES["r3"], 7, (0,)), "start table 7 outside 0..2"),
    (lambda: encode(TUPLES["r3"], -1, (0,)), "start table -1 outside 0..2"),
    (lambda: decode(TUPLES["r3"], 5, Bits("0101")),
     "start table 5 outside 0..2"),
    (lambda: decode(TUPLES["r3"], -3, Bits("0101")),
     "start table -3 outside 0..2"),
    (lambda: identification_delays(TUPLES["r3"], 3, (0,), Bits("0")),
     "start table 3 outside 0..2"),
    (lambda: identification_delays(TUPLES["r3"], 0, (4,), Bits("0")),
     "symbol 4 outside 0..3"),
    # a table index out of range is refused, not a raw IndexError, and a
    # negative one does not answer for the table it counts back to
    (lambda: forced_bit(TUPLES["r3"], 5), "start table 5 outside 0..2"),
    (lambda: forced_bit(TUPLES["r3"], -1), "start table -1 outside 0..2"),
    (lambda: steer_bit(TUPLES["r3"], 7), "start table 7 outside 0..2"),
    (lambda: prefix_chain(TUPLES["r3"], 9, 0), "start table 9 outside 0..2"),
    (lambda: prefix_chain(TUPLES["r3"], 0, 9), "symbol 9 outside 0..3"),
    (lambda: TUPLES["r3"].sets.search(Bits("0"), 9),
     "start table 9 outside 0..2"),
    (lambda: table_length(TUPLES["r3"], R3_UNIFORM, -1),
     "start table -1 outside 0..2"),
    (lambda: TUPLES["r3"].sets.base(5, 2), "start table 5 outside 0..2"),
    (lambda: TUPLES["r3"].sets.base(-1, 2), "start table -1 outside 0..2"),
    (lambda: TUPLES["r3"].sets.continuations(5, EMPTY, 2),
     "start table 5 outside 0..2"),
    (lambda: TUPLES["r3"].sets.strict_continuations(-1, Bits("0"), 2),
     "start table -1 outside 0..2"),
    # the emission automaton's search checks the table and the text
    # itself, not only behind the codec's checks
    (lambda: TUPLES["r3"].sets.search("01", 7), "start table 7 outside 0..2"),
    (lambda: TUPLES["r3"].sets.search("0x", 0), "not a binary string: '0x'"),
    # a window is read as Bits, so a bad one is refused, not matched by
    # nothing
    (lambda: TUPLES["r3"].sets.continuations(0, "0x", 2),
     "not a binary string: '0x'"),
    (lambda: TUPLES["r3"].sets.strict_continuations(0, 12, 2),
     "not a binary string: 12"),
    (lambda: TUPLES["r3"].sets.search("12", 0),
     "not a binary string: '12'"),
    (lambda: TUPLES["r3"].sets.search(12, 0),
     "not a binary string: 12"),
    # bits that are not a binary string are refused as such, not blamed
    # for having no completion, nor read as decoding nothing
    (lambda: decode(TUPLES["r3"], 0, 12), "not a binary string: 12"),
    # nor are an int's digits read as bits, though they are 0s and 1s
    (lambda: Bits(10), "not a binary string: 10"),
    (lambda: Bits(101), "not a binary string: 101"),
    (lambda: decode(TUPLES["r3"], 0, 1000001111110),
     "not a binary string: 1000001111110"),
    (lambda: make_tuple(("a", "b"), [[(10, 0), (11, 0)]]),
     "not a binary string: 10"),
    (lambda: TUPLES["r3"].sets.continuations(0, 10, 2),
     "not a binary string: 10"),
    (lambda: TUPLES["r3"].sets.search(101, 0), "not a binary string: 101"),
    (lambda: identification_delays(TUPLES["r3"], 0, (0, 1), bits="0x1"),
     "not a binary string: '0x1'"),
    # refused before any trial is drawn, not after a vacuous or random error
    (lambda: roundtrip_check(TUPLES["r3"], trials=-1, seed=1),
     "trials=-1 below 0"),
    (lambda: roundtrip_check(TUPLES["r3"], max_len=0, seed=1),
     "max_len=0 below 1"),
    (lambda: roundtrip_check(TUPLES["r3"], max_len=-4, seed=1),
     "max_len=-4 below 1"),
    # trials * max_len bounds the symbols a round trip draws; a size that
    # would run for ever is refused at once
    (lambda: roundtrip_check(TUPLES["r3"], trials=ROUNDTRIP_SYMBOL_CAP,
                             max_len=2, seed=1),
     "trials=1000000 times max_len=2 is above 1000000"),
    (lambda: roundtrip_check(TUPLES["r3"], trials=10 ** 30, seed=1),
     "trials=%d times max_len=12 is above 1000000" % 10 ** 30),
    # k is refused up front, also when no trial would read it
    (lambda: roundtrip_check(TUPLES["r3"], k=9, trials=0, seed=1),
     "k=9 outside 0..8"),
    # the value types' lookups name the index, and a negative one does not
    # count back from the end
    (lambda: TUPLES["r3"].code(9, 0), "table 9 outside 0..2"),
    (lambda: TUPLES["r3"].code(-1, 0), "table -1 outside 0..2"),
    (lambda: TUPLES["r3"].code(0, -1), "symbol -1 outside 0..3"),
    (lambda: TUPLES["r3"].target(0, 9), "symbol 9 outside 0..3"),
    (lambda: TUPLES["r3"].target(-2, 0), "table -2 outside 0..2"),
    (lambda: AB.name(9), "symbol 9 outside 0..1"),
    (lambda: AB.name(-1), "symbol -1 outside 0..1"),
    (lambda: AB.render([0, 9]), "symbol 9 outside 0..1"),
    (lambda: AB.render([-1]), "symbol -1 outside 0..1"),
    (lambda: R3_UNIFORM[9], "symbol 9 outside 0..3"),
    (lambda: R3_UNIFORM[-1], "symbol -1 outside 0..3"),
    (lambda: R3_UNIFORM["a"], "symbol 'a' outside 0..3"),
])
def test_argument_errors_are_domain_errors(call, message):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, CodeTupleError)
    assert isinstance(info.value, ValueError)
    assert str(info.value) == message


def test_unknown_symbol_is_a_domain_error_and_a_key_error():
    with pytest.raises(UnknownSymbol) as info:
        AB.seq("bz")
    assert isinstance(info.value, CodeTupleError)
    assert isinstance(info.value, KeyError)
    assert str(info.value) == "unknown symbol: 'z'"


@pytest.mark.parametrize("call, message", [
    (lambda: Table(("0",), (0,)), "codeword must be Bits, got '0'"),
    # a next-table index equal to an index but of another type is refused
    # where the tuple is built, not truncated nor met later as a raw error
    (lambda: CodeTuple(AB, (Table((Bits("0"), Bits("1")), (0.0, 0)),)),
     "table 0, symbol a: next-table index must be int, got 0.0"),
    (lambda: CodeTuple(AB, (Table((Bits("0"), Bits("1")), (0, True)),)),
     "table 0, symbol b: next-table index must be int, got True"),
    (lambda: make_tuple(("a", "b"), [[("0", 0.7), ("1", 0)]]),
     "table 0, symbol a: next-table index must be int, got 0.7"),
    (lambda: make_tuple(("a", "b"), [[("0", 0), ("1", 1)],
                                     [("0", 0), ("1", "x")]]),
     "table 1, symbol b: next-table index must be int, got 'x'"),
    (lambda: SourceDist(AB, (0.5, HALF)),
     "probability must be Fraction, got 0.5"),
    (lambda: SearchSpace("3", 2, 3, "f0"), "sigma must be int, got '3'"),
    (lambda: SearchSpace(3.0, 2, 2, "f0"), "sigma must be int, got 3.0"),
    (lambda: SearchSpace(3, True, 2, "f0"), "tables must be int, got True"),
    (lambda: SearchSpace(3, 2, 3.5, "f0"), "max_len must be int, got 3.5"),
    # a codec index equal to an index but of another type; the check is per
    # symbol, since set((1, 1.0)) is {1}
    (lambda: encode(TUPLES["r3"], 0, (1.0,)), "symbol must be int, got 1.0"),
    (lambda: encode(TUPLES["r3"], 0, (1, 1.0)), "symbol must be int, got 1.0"),
    (lambda: encode(TUPLES["r3"], 0, ([1],)), "symbol must be int, got [1]"),
    (lambda: identification_delays(TUPLES["r3"], 0, (0, True), Bits("0")),
     "symbol must be int, got True"),
    (lambda: encode(TUPLES["r3"], "0", (1,)),
     "start table must be int, got '0'"),
    (lambda: TUPLES["r3"].sets.base(1.0, 2),
     "start table must be int, got 1.0"),
    (lambda: TUPLES["r3"].sets.continuations("0", EMPTY, 2),
     "start table must be int, got '0'"),
    (lambda: encode(TUPLES["r3"], True, (1,)),
     "start table must be int, got True"),
    (lambda: decode(TUPLES["r3"], 0.0, Bits("0101")),
     "start table must be int, got 0.0"),
    # a k equal to a level but of another type, cached or not
    (lambda: decode(TUPLES["r3"], 0, Bits("0101"), k=2.0),
     "k must be int, got 2.0"),
    (lambda: delay_decodability(TUPLES["r3"], 2.0), "k must be int, got 2.0"),
    (lambda: TUPLES["r3"].sets.base(0, 2.0), "k must be int, got 2.0"),
    (lambda: PrefixSetTable(TUPLES["r3"]).base(0, True),
     "k must be int, got True"),
    (lambda: PrefixSetTable(TUPLES["r3"]).words("2"), "k must be int, got '2'"),
    (lambda: roundtrip_check(TUPLES["r3"], k=1.0, trials=1, seed=1),
     "k must be int, got 1.0"),
    (lambda: roundtrip_check(TUPLES["r3"], k=2.0, trials=0, seed=1),
     "k must be int, got 2.0"),
    # refused before any trial is drawn, not as a raw error from range(),
    # a comparison or random, nor as one trial for True
    (lambda: roundtrip_check(TUPLES["r3"], trials=2.5, seed=1),
     "trials must be int, got 2.5"),
    (lambda: roundtrip_check(TUPLES["r3"], trials="5", seed=1),
     "trials must be int, got '5'"),
    (lambda: roundtrip_check(TUPLES["r3"], trials=True, seed=1),
     "trials must be int, got True"),
    (lambda: roundtrip_check(TUPLES["r3"], max_len=3.5, seed=1),
     "max_len must be int, got 3.5"),
    (lambda: roundtrip_check(TUPLES["r3"], max_len=False, seed=1),
     "max_len must be int, got False"),
    # the class entry points check their argument, not a raw AttributeError
    (lambda: classify(5), "code must be CodeTuple, got 5"),
    (lambda: is_aifv(5), "code must be CodeTuple, got 5"),
    (lambda: witness("f0", 5), "code must be CodeTuple, got 5"),
    (lambda: rewrite_step(5, "rotate"), "code must be CodeTuple, got 5"),
    # so do the codec's, before they read a table
    (lambda: decode(5, 0, "01"), "code must be CodeTuple, got 5"),
    (lambda: encode(5, 0, (0,)), "code must be CodeTuple, got 5"),
    (lambda: identification_delays(5, 0, (0,)),
     "code must be CodeTuple, got 5"),
    (lambda: roundtrip_check(5, seed=1), "code must be CodeTuple, got 5"),
    # so do the Markov entry points, through their alphabet check
    (lambda: average_length(TUPLES["r3"], 5), "dist must be SourceDist, got 5"),
    (lambda: stationary_distribution(5, R3_UNIFORM),
     "code must be CodeTuple, got 5"),
    (lambda: table_length(TUPLES["r3"], 5, 0),
     "dist must be SourceDist, got 5"),
    (lambda: transition_matrix(TUPLES["r3"], None),
     "dist must be SourceDist, got None"),
    (lambda: chain_to_class(TUPLES["r3"], "f1", 5),
     "dist must be SourceDist, got 5"),
    (lambda: rewrite_step(TUPLES["r3"], "rotate", 5),
     "dist must be SourceDist, got 5"),
    (lambda: approx_decimal(0.5), "x must be Rational, got 0.5"),
    (lambda: approx_decimal(HALF, places="x"), "places must be int, got 'x'"),
    (lambda: approx_decimal(THIRD, True), "places must be int, got True"),
    # the CLI's --seed is an int; another seed is refused before a trial
    (lambda: roundtrip_check(TUPLES["r3"], trials=2, seed=[1]),
     "seed must be int, got [1]"),
    (lambda: roundtrip_check(TUPLES["r3"], trials=2, seed="x"),
     "seed must be int, got 'x'"),
    # every entry point that takes a tuple refuses anything else up front
    *((lambda call=call: call(5), "code must be CodeTuple, got 5")
      for call in (codetuples.PrefixSetTable, codetuples.dead_tables,
                   lambda code: delay_decodability(code, 2),
                   extend_to_two_tables, lambda code: forced_bit(code, 0),
                   codetuples.is_extendable, codetuples.is_regular,
                   lambda code: prefix_chain(code, 0, 0),
                   codetuples.prune_to_reachable, codetuples.reachable_tables,
                   codetuples.rotate, serialize_code_tuple,
                   lambda code: steer_bit(code, 0),
                   codetuples.two_continuation_tables)),
    (lambda: codetuples.parse_code_tuple(5), "text must be str, got 5"),
    (lambda: codetuples.parse_dist(b"a 1\n"),
     "text must be str, got b'a 1\\n'"),
    (lambda: codetuples.parse_dist("a 1\n", ("a",)),
     "alphabet must be Alphabet, got ('a',)"),
    (lambda: serialize_dist(5), "dist must be SourceDist, got 5"),
    (lambda: encode(TUPLES["r3"], 0, 5), "seq must be Iterable, got 5"),
    (lambda: identification_delays(TUPLES["r3"], 0, None),
     "seq must be Iterable, got None"),
    (lambda: CodeTuple(5, (Table((Bits("0"),), (0,)),)),
     "alphabet must be Alphabet, got 5"),
    (lambda: SourceDist(None, (HALF, HALF)),
     "alphabet must be Alphabet, got None"),
    (lambda: make_tuple(("a", "b"), None), "rows must be Iterable, got None"),
    (lambda: Alphabet((5,)), "symbol name must be str, got 5"),
    # a value type's field names itself, not a raw error from tuple() or len()
    (lambda: Table(5, 5), "codes must be Iterable, got 5"),
    (lambda: Table((Bits("0"),), 5), "targets must be Iterable, got 5"),
    (lambda: SourceDist(AB, 5), "probs must be Iterable, got 5"),
    (lambda: Alphabet(5), "names must be Iterable, got 5"),
    (lambda: CodeTuple(AB, 5), "tables must be Iterable, got 5"),
    (lambda: CodeTuple(AB, (5,)), "table 0 must be Table, got 5"),
    # so do the value types' methods and classmethods
    (lambda: SourceDist.from_values(AB, 5), "values must be Iterable, got 5"),
    (lambda: SourceDist.uniform(5), "alphabet must be Alphabet, got 5"),
    (lambda: AB.seq(5), "text must be Iterable, got 5"),
    (lambda: AB.render(5), "seq must be Iterable, got 5"),
    (lambda: make_tuple(("a", "b"), [5]), "rows[0] must be Iterable, got 5"),
    (lambda: TUPLES["r3"].code(None, 0), "table must be int, got None"),
    (lambda: TUPLES["r3"].target(0, 1.0), "symbol must be int, got 1.0"),
    (lambda: AB.name(None), "symbol must be int, got None"),
    (lambda: R3_UNIFORM[1.5], "symbol must be int, got 1.5"),
    # a bool equals an int to indexing and to ``|``, but names no index
    (lambda: TUPLES["r3"].code(True, 0), "table must be int, got True"),
    (lambda: TUPLES["r3"].target(True, 0), "table must be int, got True"),
    (lambda: TUPLES["r3"].code(0, True), "symbol must be int, got True"),
    (lambda: AB.name(True), "symbol must be int, got True"),
    (lambda: R3_UNIFORM[True], "symbol must be int, got True"),
])
def test_wrong_types_are_domain_errors_and_type_errors(call, message):
    with pytest.raises(InvalidType) as info:
        call()
    assert isinstance(info.value, CodeTupleError)
    assert isinstance(info.value, TypeError)
    assert str(info.value) == message


@pytest.mark.parametrize("values", [
    # many fraction digits are no large exponent, as a Decimal or a string
    (Decimal("0.5" + "0" * 1000), "0.5"),
    ("0.5" + "0" * 1000, Decimal("0.5")),
    (Decimal("5" + "0" * 2000 + "e-2001"), Fraction(1, 2)),
])
def test_long_decimal_probabilities_are_read(values):
    assert SourceDist.from_values(AB, values).probs == (HALF, HALF)


def test_make_tuple_reads_int_and_digit_string_targets():
    code = make_tuple(("a", "b"), [[("0", "1"), ("1", 0)],
                                   [("0", 0), ("1", "01")]])
    assert [t.targets for t in code.tables] == [(1, 0), (0, 1)]
    assert all(type(j) is int for t in code.tables for j in t.targets)


def test_list_built_values_hash_and_compare_as_tuple_built_ones():
    table = Table((Bits("0"), Bits("1")), (0, 0))
    pairs = [
        (Table([Bits("0"), Bits("1")], [0, 0]), table),
        (Alphabet(["a", "b"]), AB),
        (SourceDist(AB, [HALF, HALF]), SourceDist(AB, (HALF, HALF))),
        (CodeTuple(AB, [table]), CodeTuple(AB, (table,))),
    ]
    for built, want in pairs:
        assert built == want
        assert hash(built) == hash(want)


# -- the contract on generated arguments --------------------------------------

# One valid value per parameter name of the public callables, under
# "Owner.name" where a name means something else there.  A new parameter
# name needs an entry here before its callable passes the sweep.
SWEEP_CODE = make_tuple(("a", "b"), [[("-", 1), ("00", 0)],
                                     [("1", 0), ("01", 0)]])
SWEEP_DIST = SourceDist(SWEEP_CODE.alphabet, (Fraction(9, 10),
                                              Fraction(1, 10)))
VALID = {
    "alphabet": SWEEP_CODE.alphabet,
    "bits": "0101",
    "code": SWEEP_CODE,
    "codes": (Bits("0"), Bits("1")),
    "dist": SWEEP_DIST,
    "filter": "f0",
    "i": 0,
    "inexact": False,
    "k": 2,
    "max_len": 2,
    "name": "a",
    "names": ("a", "b"),
    "places": 4,
    "probs": (HALF, HALF),
    "rows": [[("0", 0), ("1", 0)]],
    "s": 0,
    "seed": 1,
    "seq": (0, 1, 0, 1),  # emits "0101" from table 0
    "sigma": 2,
    "sym": 1,
    "space": SearchSpace(2, 2, 1, "f0"),
    "start": 0,
    "tables": (Table((Bits("0"), Bits("1")), (0, 0)),),
    "SearchSpace.tables": 2,
    "target": "f1",
    "targets": (0, 0),
    "text": serialize_code_tuple(SWEEP_CODE),
    "Alphabet.seq.text": "b a",
    "parse_dist.text": serialize_dist(SWEEP_DIST),
    "trials": 20,
    "values": ("9/10", 0.1),
    "x": THIRD,
}
WRONG = (5, None, "x", 1.5, object())
# result records: dataclasses the package returns, which check nothing
RECORDS = ("ChainDecomposition", "ClassReport", "ComparisonReport",
           "DanglingInfo", "DecodabilityReport", "DecodeResult",
           "ReachabilityReport", "RoundTripReport", "SearchResult",
           "TransformStep", "TransformTrace")
PUBLIC = sorted(
    name for name in codetuples.__all__
    if callable(getattr(codetuples, name)) and name not in RECORDS
    and not (isinstance(getattr(codetuples, name), type)
             and issubclass(getattr(codetuples, name), BaseException)))
# the value types' public methods and classmethods, and the item lookup
# of SourceDist, each on a valid instance
INSTANCES = {"Alphabet": SWEEP_CODE.alphabet, "Table": SWEEP_CODE.tables[0],
             "CodeTuple": SWEEP_CODE, "SourceDist": SWEEP_DIST}
METHODS = sorted(
    "%s.%s" % (owner, name) for owner, value in INSTANCES.items()
    for name, attr in vars(type(value)).items()
    if (name == "__getitem__" or not name.startswith("_"))
    and isinstance(attr, (types.FunctionType, classmethod)))
CALL_SECONDS = 5


class Overran(BaseException):
    """Raised in a call that ran past CALL_SECONDS; no ``except
    Exception`` in the package can take it for a domain error."""


@contextlib.contextmanager
def time_bound(seconds):
    def overrun(signum, frame):
        raise Overran("still running after %s s" % seconds)
    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def outcome(func, kwargs):
    """None for a result or a CodeTupleError, else what went wrong."""
    try:
        with time_bound(CALL_SECONDS):
            func(**kwargs)
    except CodeTupleError:
        pass
    except (Exception, Overran) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return None


def test_every_public_callable_is_swept():
    assert len(PUBLIC) > 40
    assert {"decode", "rotate", "CodeTuple", "run_goldens"} <= set(PUBLIC)
    assert {"Alphabet.name", "CodeTuple.code", "SourceDist.__getitem__",
            "SourceDist.from_values", "SourceDist.uniform"} <= set(METHODS)


@pytest.mark.parametrize("name", PUBLIC + METHODS)
def test_public_callables_refuse_wrong_arguments(name):
    """Each parameter swapped, one at a time, for each WRONG value gives a
    result or a CodeTupleError within CALL_SECONDS, as the valid call does;
    never a raw error from inside the package."""
    owner, _, method = name.partition(".")
    func = getattr(INSTANCES[owner], method) if method else \
        getattr(codetuples, name)
    params = list(inspect.signature(func).parameters)
    missing = [p for p in params
               if "%s.%s" % (name, p) not in VALID and p not in VALID]
    if missing:
        pytest.fail("no valid value in VALID for %s(%s)"
                    % (name, ", ".join(missing)))
    valid = {p: VALID.get("%s.%s" % (name, p), VALID.get(p)) for p in params}
    bad = ["%s(valid): %s" % (name, outcome(func, valid))]
    for param in params:
        for wrong in WRONG:
            got = outcome(func, dict(valid, **{param: wrong}))
            bad.append("%s(%s=%r): %s" % (name, param, wrong, got))
    assert [line for line in bad if not line.endswith(": None")] == []


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Each file token by name: tuples, distributions, a bits file, bytes
    that are not UTF-8, a directory and a missing path."""
    root = tmp_path_factory.mktemp("cli")
    (root / "code.ct").write_text(serialize_code_tuple(TUPLES["r5"]))
    (root / "two.ct").write_text(serialize_code_tuple(SWEEP_CODE))
    (root / "main.dist").write_text(serialize_dist(R3_UNIFORM))
    (root / "two.dist").write_text(serialize_dist(SWEEP_DIST))
    (root / "stream.bits").write_text("0101\n")
    (root / "binary").write_bytes(bytes(range(256)))
    (root / "dir").mkdir()
    return {name: str(root / name) for name in (
        "code.ct", "two.ct", "main.dist", "two.dist", "stream.bits",
        "binary", "dir", "missing")}


# each verb's flags, and per flag the values a working run would pass
VERB_FLAGS = {
    "check": ("--tuple", "--k"), "classify": ("--tuple",),
    "psets": ("--tuple", "--k"),
    "encode": ("--tuple", "--start", "--symbols"),
    "decode": ("--tuple", "--k", "--start", "--bits", "--bits-file",
               "--roundtrip", "--trials", "--max-len", "--seed"),
    "transform": ("--tuple", "--op", "--target", "--dist"),
    "stationary": ("--tuple", "--dist"), "avglen": ("--tuple", "--dist"),
    "search": ("--sigma", "--tables", "--max-len", "--filter", "--dist"),
    "huffman": ("--dist",), "goldens": (),
}
GOOD = {
    "--tuple": ("code.ct", "two.ct"), "--dist": ("main.dist", "two.dist"),
    "--bits-file": ("stream.bits",), "--k": ("0", "1", "2"),
    "--start": ("0", "1"), "--symbols": ("ab", "b a", "abcd"),
    "--bits": ("0101", "1000001111110"), "--seed": ("1",),
    "--op": ("rotate", "dot", "ddot", "chain"), "--target": ("f1", "f2", "f3"),
    "--sigma": ("2", "4"), "--tables": ("1", "2"), "--filter": ("f0", "aifv"),
    "--trials": ("3",), "--max-len": ("1", "3"),
}
# any other token: missing, binary, a directory, huge and negative numbers
OTHER = ("binary", "dir", "missing", "-1", "9", "-" + "9" * 40,
         "1" + "0" * 40, "1.5", "1e5", "x", "", "-", "01x", "zz", "f4")
# --trials and --max-len size the work itself, and a huge one is a long
# run rather than a wrong argument, so they are drawn small
SIZES = ("-1", "0", "x", "2.5")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exits_0_1_or_2_without_a_traceback(cli_files, data):
    """argv from a verb's own flags, each left out a quarter of the time
    and given another token a quarter of the time, now and then with one
    stray flag or token."""
    def value(flag):
        odd = SIZES if flag in ("--trials", "--max-len") else OTHER
        good = data.draw(st.integers(0, 3))
        token = data.draw(st.sampled_from(GOOD[flag] if good else odd))
        return cli_files.get(token, token)
    verb = data.draw(st.sampled_from(tuple(VERB_FLAGS)))
    argv = [verb]
    for flag in data.draw(st.permutations(VERB_FLAGS[verb])):
        if data.draw(st.integers(0, 3)):
            argv += [flag] if flag == "--roundtrip" else [flag, value(flag)]
    if not data.draw(st.integers(0, 4)):
        stray = data.draw(st.sampled_from(tuple(GOOD) + OTHER))
        argv += [stray, value(stray)] if stray in GOOD else [stray]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with time_bound(60):
                status = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        status = exc.code
    event("exit %s" % status)
    assert status in (0, 1, 2), (argv, status)
    assert "Traceback" not in err.getvalue(), argv

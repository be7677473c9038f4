"""Argument errors are domain errors and still ValueErrors, with their
messages unchanged."""

import pytest

from codetuples import (CodeTupleError, InvalidArgument, PrefixSetTable,
                        chain_to_class, extend_to_two_tables, make_tuple,
                        roundtrip_check)
from codetuples.reference import TUPLES

ONE_SYMBOL = make_tuple(("a",), [[("0", 0)]])


@pytest.mark.parametrize("call, message", [
    (lambda: chain_to_class(TUPLES["r5"], "f9"), "unknown target class 'f9'"),
    (lambda: extend_to_two_tables(ONE_SYMBOL), "need at least two symbols"),
    (lambda: roundtrip_check(TUPLES["r3"]), "seed is required"),
    (lambda: PrefixSetTable(TUPLES["r3"]).base(0, 9), "k=9 outside 0..8"),
    (lambda: PrefixSetTable(TUPLES["r3"], max_k=2).words(-1),
     "k=-1 outside 0..2"),
])
def test_argument_errors_are_domain_errors(call, message):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, CodeTupleError)
    assert isinstance(info.value, ValueError)
    assert str(info.value) == message

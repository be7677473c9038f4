import random

import pytest

from codetuples import (
    Bits,
    PrefixSetTable,
    average_length,
    chain_to_class,
    classify,
    ddot,
    dot,
    extend_to_two_tables,
    forced_bit,
    make_tuple,
    prefix_chain,
    prune_to_reachable,
    rotate,
    steer_bit,
    two_continuation_tables,
)
from codetuples import classes, transforms
from codetuples.bits import EMPTY
from codetuples.errors import (
    AmbiguousChain,
    NonTerminatingRecursion,
    NotExtendable,
    NotInClass,
    NotRegular,
    StepLimitExceeded,
    WrongTableCount,
)
from codetuples.prefix_sets import encode_from
from codetuples.reference import (
    CHAIN,
    EXPECTED_FORCED_BITS,
    EXPECTED_STEER_BITS,
    KEYS,
    TUPLES,
    main_dist,
)

from support import random_code_tuple, random_seq

OPS = {"rotate": rotate, "dot": dot, "ddot": ddot}


def test_chain_is_bit_exact():
    for src, op, dst in CHAIN:
        assert OPS[op](TUPLES[src]) == TUPLES[dst], (src, op)


def test_chain_preserves_average_length():
    dist = main_dist()
    for src, op, dst in CHAIN:
        got = average_length(OPS[op](TUPLES[src]), dist)
        assert got == average_length(TUPLES[src], dist), (src, op)
        assert got == average_length(TUPLES[dst], dist)


def test_forced_bits():
    for key, shown in EXPECTED_FORCED_BITS.items():
        code = TUPLES[key]
        for i in code.table_indices():
            want = EMPTY if shown[i] == "-" else Bits(shown[i])
            assert forced_bit(code, i) == want, (key, i)


def test_forced_bit_rejects_dead_table():
    with pytest.raises(NotExtendable):
        forced_bit(TUPLES["r1"], 2)


def test_steer_bits():
    for key, bits in EXPECTED_STEER_BITS.items():
        code = TUPLES[key]
        got = tuple(steer_bit(code, i) for i in code.table_indices())
        assert got == bits, key


def test_steer_bit_rejects_delegation_cycle():
    code = make_tuple(("a",), [[("-", 1)], [("-", 0)]])
    with pytest.raises(NonTerminatingRecursion):
        steer_bit(code, 0)


def test_prefix_chain_worked_examples():
    a, b, c, d = range(4)
    deep = prefix_chain(TUPLES["r5"], 1, d)
    assert deep.chain == (b, a, c, d)
    assert [str(p) for p in deep.parts] == ["", "00", "111", "11"]
    assert deep.codeword == TUPLES["r5"].code(1, d)

    mid = prefix_chain(TUPLES["r5"], 0, c)
    assert mid.chain == (a, c)
    assert [str(p) for p in mid.parts] == ["01", "00"]

    late = prefix_chain(TUPLES["r7"], 1, d)
    assert late.chain == (a, c, d)
    assert [str(p) for p in late.parts] == ["01", "001", "00"]

    single = prefix_chain(TUPLES["r5"], 0, a)
    assert single.chain == (a,)
    assert [str(p) for p in single.parts] == ["01"]


def test_prefix_chain_round_trips_everywhere():
    ambiguous = []
    for key in KEYS:
        code = TUPLES[key]
        for i in code.table_indices():
            for s in code.alphabet:
                try:
                    decomp = prefix_chain(code, i, s)
                except AmbiguousChain:
                    ambiguous.append((key, i, s))
                    continue
                assert decomp.codeword == code.code(i, s), (key, i, s)
                assert decomp.chain[-1] == s
                # chain prefixes are themselves codewords of the same table
                acc = EMPTY
                for sym, part in zip(decomp.chain, decomp.parts):
                    acc = acc + part
                    assert code.code(i, sym) == acc
    # only r3 has a shared codeword sitting under a longer one
    assert ambiguous == [("r3", 0, 2)]


def test_prefix_chain_rejects_shared_prefix():
    code = make_tuple(("a", "b", "c"), [[("0", 0), ("0", 0), ("01", 0)]])
    with pytest.raises(AmbiguousChain):
        prefix_chain(code, 0, 2)


def test_dot_worked_codewords():
    out = dot(TUPLES["r5"])
    assert str(out.code(0, 2)) == "1000"
    assert str(out.code(1, 2)) == "01001"
    assert str(out.code(1, 3)) == "0100100"


def test_ddot_worked_codewords():
    out = ddot(TUPLES["r7"])
    assert str(out.code(0, 3)) == "001"
    assert [str(out.code(2, s)) for s in range(4)] == [
        "10", "011", "010011", "111"]


def test_dot_and_ddot_preserve_lengths_and_prefix_order():
    for src, op, _ in CHAIN:
        if op == "rotate":
            continue
        before = TUPLES[src]
        after = OPS[op](before)
        for i in before.table_indices():
            for s in before.alphabet:
                assert len(after.code(i, s)) == len(before.code(i, s))
            for s in before.alphabet:
                for s2 in before.alphabet:
                    old = before.code(i, s).is_prefix_of(before.code(i, s2))
                    new = after.code(i, s).is_prefix_of(after.code(i, s2))
                    assert old == new, (src, op, i, s, s2)


def test_rotate_commutes_with_encoding():
    # the forced bit migrates across the whole emission: prepending the
    # start table's bit to the rotated emission appends the end table's
    rng = random.Random(4)
    for key in KEYS:
        code = TUPLES[key]
        if key == "r1":
            continue  # dead table
        rotated = rotate(code)
        forced = [forced_bit(code, i) for i in code.table_indices()]
        for start in code.table_indices():
            for _ in range(40):
                x = random_seq(rng, code, 6)
                bits, end = encode_from(code, start, x)
                hat, hat_end = encode_from(rotated, start, x)
                assert hat_end == end
                assert forced[start] + hat == bits + forced[end], (key, x)


def test_rotate_rejects_dead_table():
    with pytest.raises(NotExtendable):
        rotate(TUPLES["r1"])


def test_dot_requires_both_next_bits_everywhere():
    with pytest.raises(NotInClass) as err:
        dot(TUPLES["r3"])
    assert err.value.required == "f1"


def test_ddot_requires_three_pairs_everywhere():
    with pytest.raises(NotInClass) as err:
        ddot(TUPLES["r5"])
    assert err.value.required == "f2"


# Inputs outside the class reach the guards in the rewrites only when the
# class precondition is skipped; each guard still raises under python -O.
ONE_BIT_HEAD = make_tuple(("a", "b"), [[("0", 1), ("11", 0)],
                                       [("1", 1), ("10", 0)]])
ONE_BIT_INCREMENT = make_tuple(("a", "b", "c"),
                               [[("0", 0), ("01", 0), ("1", 0)]])


@pytest.mark.parametrize("op, code, required, detail", [
    (dot, ONE_BIT_HEAD, "f1",
     "table 0, symbol a: one-bit codeword in a two-pair table"),
    (dot, ONE_BIT_INCREMENT, "f1",
     "table 0, symbol b: one-bit chain increment"),
    (ddot, ONE_BIT_INCREMENT, "f2",
     "table 0, symbol b: one-bit chain increment"),
])
def test_rewrite_guards_name_table_and_symbol(monkeypatch, op, code,
                                              required, detail):
    monkeypatch.setattr(transforms, "_require_class", lambda *args: None)
    with pytest.raises(NotInClass) as err:
        op(code)
    assert err.value.required == required
    assert str(err.value) == "input is not in class %s (%s)" % (required,
                                                                 detail)


def test_chain_to_f1_trace():
    trace = chain_to_class(TUPLES["r3"], "f1")
    assert [step.op for step in trace.steps] == ["rotate", "rotate"]
    assert trace.final == TUPLES["r5"]
    assert trace.steps[0].result == TUPLES["r4"]


def test_chain_to_f2_trace():
    trace = chain_to_class(TUPLES["r5"], "f2", dist=main_dist())
    assert [step.op for step in trace.steps] == ["dot", "rotate"]
    assert trace.final == TUPLES["r7"]
    assert trace.steps[0].result == TUPLES["r6"]
    assert trace.steps[0].table_bits == EXPECTED_STEER_BITS["r5"]
    lengths = {step.avg_len for step in trace.steps}
    assert lengths == {average_length(TUPLES["r5"], main_dist())}


def test_rewrite_step_is_each_op_with_its_table_bits_and_length():
    assert transforms.REWRITES == ("rotate", "dot", "ddot")
    dist = main_dist()
    for src, op, dst in CHAIN:
        code = TUPLES[src]
        step = transforms.rewrite_step(code, op, dist)
        assert (step.op, step.result) == (op, TUPLES[dst])
        assert step.avg_len == average_length(code, dist)
        table_bit = {"rotate": forced_bit, "dot": steer_bit}.get(op)
        assert step.table_bits == (tuple(
            table_bit(code, i) for i in code.table_indices())
            if table_bit else ())
        assert transforms.rewrite_step(code, op).avg_len is None


def test_chain_targets_follow_the_nesting_order():
    assert list(transforms.PRECEDING.items()) == [
        ("f1", "f0"), ("f2", "f1"), ("f3", "f2")]


def test_chains_call_the_module_rewrites_at_call_time(monkeypatch):
    # a wrapper bound to the module attribute, as a tracer binds one, sees
    # every rotation of a chain and of a single step
    calls = []
    monkeypatch.setattr(transforms, "rotate", lambda code, op=rotate:
                        calls.append(code) or op(code))
    trace = chain_to_class(TUPLES["r3"], "f1")
    assert calls == [TUPLES["r3"], TUPLES["r4"]]
    assert [step.result for step in trace.steps] == [TUPLES["r4"],
                                                     TUPLES["r5"]]
    transforms.rewrite_step(TUPLES["r5"], "rotate")
    assert len(calls) == 3


def test_f2_chain_steps_keep_two_pairs_in_every_table(monkeypatch):
    # The f2 loop runs while the f2 clause fails (some table has fewer than
    # three two-bit continuations).  That agrees with two_continuation_tables
    # (some table has exactly two) as long as every dot and rotate step
    # leaves at least two in every table, as it does from an f1 input.
    results = []
    for name in ("dot", "rotate"):
        op = getattr(transforms, name)
        monkeypatch.setattr(transforms, name, lambda code, op=op:
                            results.append(op(code)) or results[-1])
    rng = random.Random(13)
    inputs = [TUPLES["r5"]]
    while len(inputs) < 201:
        code = random_code_tuple(rng, max_tables=3, max_sigma=4, max_len=3)
        if classes.witness("f1", code) is None:
            inputs.append(code)
    for code in inputs:
        try:
            chain_to_class(code, "f2")
        except StepLimitExceeded:
            pass  # inputs of more than minimal cost need not terminate
    assert len(results) > 200
    for result in results:
        for i in result.table_indices():
            assert len(result.sets.base(i, 2)) >= 2, (result, i)


def test_chain_to_f3_trace():
    trace = chain_to_class(TUPLES["r7"], "f3")
    assert [step.op for step in trace.steps] == ["ddot"]
    assert trace.final == TUPLES["r8"]


def test_chain_already_in_target_is_empty():
    trace = chain_to_class(TUPLES["r5"], "f1")
    assert trace.steps == ()
    assert trace.final == TUPLES["r5"]


def test_rewrites_never_reuse_their_inputs_sets():
    # a rewrite returns a new tuple, which builds its own continuation sets
    # even when its input's sets were built first
    pairs = []
    for key in ("r3", "r4", "r5", "r6", "r7", "r8"):
        code = TUPLES[key]
        report = classify(code)
        for op, needs in (("rotate", "extendable"), ("dot", "f1"),
                          ("ddot", "f2")):
            if report[needs]:
                pairs.append((code, OPS[op](code)))
        for target, needs in transforms.PRECEDING.items():
            if report[needs]:
                before = code
                for step in chain_to_class(code, target).steps:
                    pairs.append((before, step.result))
                    before = step.result
    assert len(pairs) == 19
    for before, result in pairs:
        assert result.sets is not before.sets
        fresh = PrefixSetTable(result)
        for i in result.table_indices():
            for k in (1, 2):
                assert result.sets.base(i, k) == fresh.base(i, k), (result, i)


def test_chain_requires_the_preceding_class():
    # the f0 refusal names the first violated clause in classify's words
    for code, reason in (
            (TUPLES["r1"], "table 2 can emit no bits"),
            (TUPLES["r2"], "no table is reachable from every table"),
            (make_tuple(("a", "b"), [[("0", 0), ("0", 0)]]),
             "table 0, symbols a b: equal codewords with common "
             "continuation 00")):
        with pytest.raises(NotInClass) as err:
            chain_to_class(code, "f1")
        assert err.value.required == "f0"
        assert str(err.value) == "input is not in class f0 (%s)" % reason
    with pytest.raises(NotInClass) as err2:
        chain_to_class(TUPLES["r3"], "f2")
    assert err2.value.required == "f1"
    with pytest.raises(NotInClass):
        chain_to_class(TUPLES["r5"], "f3")
    with pytest.raises(ValueError):
        chain_to_class(TUPLES["r5"], "f9")


def test_dot_rotate_round_clears_two_pair_tables():
    assert two_continuation_tables(TUPLES["r5"]) == {0}
    stepped = dot(TUPLES["r5"])
    assert two_continuation_tables(stepped) == {0}
    assert two_continuation_tables(rotate(stepped)) == frozenset()


def test_dot_forced_bit_equals_old_steer_bit_on_two_pair_tables():
    # after dot, a table that had only two pairs emits only its steer bit
    before = TUPLES["r5"]
    after = dot(before)
    for i in two_continuation_tables(before):
        assert forced_bit(after, i) == Bits(str(steer_bit(before, i)))


def test_ddot_keeps_zero_pair_for_extensions_only():
    # after ddot, whatever strictly extends a codeword starts with 00
    code = TUPLES["r8"]
    sets = PrefixSetTable(code)
    zero_pair = frozenset({Bits("00")})
    for i in code.table_indices():
        for s in code.alphabet:
            strict = sets.strict_continuations(i, code.code(i, s), 2)
            assert strict in (frozenset(), zero_pair), (i, s)


def test_prune_keeps_full_core_intact():
    assert prune_to_reachable(TUPLES["r3"]) == TUPLES["r3"]


def test_prune_drops_unreachable_tables():
    pruned = prune_to_reachable(TUPLES["r1"])
    assert pruned.num_tables == 1
    for s in pruned.alphabet:
        assert pruned.code(0, s) == EMPTY
        assert pruned.target(0, s) == 0


def test_prune_requires_a_core():
    with pytest.raises(NotRegular):
        prune_to_reachable(TUPLES["r2"])


def test_extend_to_two_tables_shapes():
    one = make_tuple(("a", "b", "c", "d"),
                     [[("1", 0), ("01", 0), ("000", 0), ("001", 0)]])
    two = extend_to_two_tables(one)
    assert two.num_tables == 2
    assert two.tables[0] == one.tables[0]
    assert [str(two.code(1, s)) for s in range(4)] == [
        "01", "10", "110", "111"]
    assert all(two.target(1, s) == 0 for s in range(4))

    pair = extend_to_two_tables(make_tuple(("a", "b"), [[("0", 0), ("1", 0)]]))
    assert [str(pair.code(1, s)) for s in range(2)] == ["01", "1"]

    three = extend_to_two_tables(
        make_tuple(("a", "b", "c"), [[("0", 0), ("10", 0), ("11", 0)]]))
    assert [str(three.code(1, s)) for s in range(3)] == ["01", "10", "11"]
    sets = PrefixSetTable(three)
    assert sets.base(1, 2) == frozenset(
        {Bits("01"), Bits("10"), Bits("11")})


def test_extend_rejects_multi_table_input():
    with pytest.raises(WrongTableCount):
        extend_to_two_tables(TUPLES["r3"])

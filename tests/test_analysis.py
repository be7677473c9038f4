import random
from itertools import product

from codetuples import (PrefixSetTable, dead_tables, delay_decodability,
                        is_extendable, is_regular, reachable_tables,
                        two_continuation_tables)
from codetuples.prefix_sets import encode_from
from codetuples.reference import (EXPECTED_CORE, EXPECTED_FLAGS, KEYS, TUPLES)

from support import oracle_delay_violations, random_code_tuple


def test_extendable_flags_match_reference():
    for key in KEYS:
        assert is_extendable(TUPLES[key]) == EXPECTED_FLAGS[key]["extendable"]
    assert dead_tables(TUPLES["r1"]) == (2,)
    assert dead_tables(TUPLES["r3"]) == ()


def test_single_table_unit_code_is_extendable():
    from codetuples import make_tuple
    code = make_tuple(("a", "b"), [[("0", 0), ("1", 0)]])
    assert is_extendable(code)
    assert is_regular(code)
    assert delay_decodability(code, 0).ok


def test_gamma_decodable_at_two_not_one():
    code = TUPLES["r3"]
    assert delay_decodability(code, 2).ok
    report = delay_decodability(code, 1)
    assert not report.ok
    kinds = {(v.kind, v.table, v.symbols) for v in report.violations}
    # c and d share codeword 00111 in table 1 and their next tables both
    # allow a following 1
    assert ("equal-codewords", 1, (2, 3)) in kinds


def test_beta_not_decodable_with_equal_codeword_witness():
    report = delay_decodability(TUPLES["r2"], 2)
    assert not report.ok
    assert any(v.kind == "equal-codewords" and v.table == 1
               and v.symbols == (0, 1) for v in report.violations)
    # witnesses re-verify against the prefix sets
    code = TUPLES["r2"]
    sets = PrefixSetTable(code)
    for v in report.violations:
        if v.kind == "equal-codewords":
            s, s2 = v.symbols
            assert code.code(v.table, s) == code.code(v.table, s2)
            assert v.clash in sets.base(code.target(v.table, s), 2)
            assert v.clash in sets.base(code.target(v.table, s2), 2)
        else:
            (s,) = v.symbols
            assert v.clash in sets.base(code.target(v.table, s), 2)
            assert v.clash in sets.strict_continuations(
                v.table, code.code(v.table, s), 2)


def test_decodability_flags_match_reference():
    for key in KEYS:
        ok = delay_decodability(TUPLES[key], 2).ok
        assert ok == EXPECTED_FLAGS[key]["decodable"], key


def _report(code, k):
    report = delay_decodability(code, k)
    assert report.k == k and report.ok == (not report.violations)
    return tuple((v.kind, v.table, v.symbols, v.clash)
                 for v in report.violations)


def test_delay_report_matches_the_oracle_on_the_reference_tuples():
    # the whole report: kinds, tables, symbols, order and witnesses
    for key in KEYS:
        for k in range(5):
            assert _report(TUPLES[key], k) == \
                oracle_delay_violations(TUPLES[key], k), (key, k)


def test_delay_report_matches_the_oracle_on_random_tuples():
    rng = random.Random(1818)
    violated = 0
    for n in range(500):
        code = random_code_tuple(rng)
        for k in range(5):
            got = _report(code, k)
            assert got == oracle_delay_violations(code, k), (n, k)
            violated += bool(got)
    assert 500 < violated < 2500  # both verdicts occur, often


def test_decodability_monotone_in_k():
    for key in KEYS:
        code = TUPLES[key]
        for k in range(0, 3):
            if delay_decodability(code, k).ok:
                assert delay_decodability(code, k + 1).ok


def test_injective_tables_never_trip_equal_codeword_rule():
    rng = random.Random(7)
    seen = 0
    for _ in range(300):
        code = random_code_tuple(rng)
        injective = all(
            len(set(t.codes)) == len(t.codes) for t in code.tables)
        if not injective:
            continue
        seen += 1
        for k in (0, 1, 2):
            report = delay_decodability(code, k)
            assert all(v.kind != "equal-codewords" for v in report.violations)
    assert seen > 30


def test_some_codeword_has_no_strict_continuation():
    # every table contains a codeword no other codeword strictly extends
    for key in KEYS:
        code = TUPLES[key]
        sets = PrefixSetTable(code)
        for i in code.table_indices():
            assert any(
                not sets.strict_continuations(i, code.code(i, s), 0)
                for s in code.alphabet)


def test_empty_output_sequences_are_short():
    # extendable + decodable: a nonempty sequence encoding to no bits
    # never needs as many symbols as there are tables
    for key in KEYS:
        code = TUPLES[key]
        if not is_extendable(code) or not delay_decodability(code, 2).ok:
            continue
        m = code.num_tables
        for i in code.table_indices():
            for n in range(1, m + 1):
                for x in product(range(code.sigma), repeat=n):
                    bits, _ = encode_from(code, i, x)
                    if len(bits) == 0:
                        assert len(x) < m


def test_cores_match_reference():
    for key in KEYS:
        report = reachable_tables(TUPLES[key])
        assert report.core == EXPECTED_CORE[key], key
        assert is_regular(TUPLES[key]) == EXPECTED_FLAGS[key]["regular"]


def test_reach_witnesses_verify():
    for key in KEYS:
        code = TUPLES[key]
        report = reachable_tables(code)
        for start in code.table_indices():
            assert report.witness(start, start) == ()
            for target, seq in report.witnesses[start].items():
                _, end = encode_from(code, start, seq)
                assert end == target


def test_witnesses_are_shortest():
    rng = random.Random(8)
    for _ in range(50):
        code = random_code_tuple(rng)
        report = reachable_tables(code)
        for start in code.table_indices():
            best = {start: 0}
            frontier = [start]
            depth = 0
            while frontier:
                depth += 1
                nxt = []
                for j in frontier:
                    for s in code.alphabet:
                        t = code.target(j, s)
                        if t not in best:
                            best[t] = depth
                            nxt.append(t)
                frontier = nxt
            assert set(best) == set(report.witnesses[start])
            for target, seq in report.witnesses[start].items():
                assert len(seq) == best[target]


def test_two_continuation_tables():
    assert two_continuation_tables(TUPLES["r3"]) == {0}
    assert two_continuation_tables(TUPLES["r5"]) == {0}
    assert two_continuation_tables(TUPLES["r7"]) == frozenset()

import itertools
import random

import pytest

from codetuples import (CLASS_NAMES, CodeTuple, PrefixSetTable, classify,
                        is_aifv, make_tuple)
from codetuples import classes
from codetuples.bits import EMPTY, Bits
from codetuples.classes import ClassReport, show_set, verify_hierarchy
from codetuples.reference import EXPECTED_FLAGS, KEYS, TUPLES

from support import random_code_tuple


def test_flags_match_reference_column():
    for key in KEYS:
        report = classify(TUPLES[key])
        for name in CLASS_NAMES:
            assert report[name] == EXPECTED_FLAGS[key][name], (key, name)


def test_finest_labels():
    finest = {key: classify(TUPLES[key]).finest() for key in KEYS}
    assert finest == {
        "r1": None, "r2": None,
        "r3": "f0", "r4": "f0", "r6": "f0",
        "r5": "f1", "r7": "f2", "r8": "f3",
        "r9": "f4", "r10": "aifv",
    }


def test_failures_name_a_clause():
    report = classify(TUPLES["r3"])
    assert not report["f1"]
    assert report.failures["f1"]
    report2 = classify(TUPLES["r9"])
    assert not report2["aifv"]
    assert report2.failures["aifv"]


def test_lines_format():
    lines = classify(TUPLES["r10"]).lines()
    assert lines[0] == "extendable PASS"
    assert all(line.endswith("PASS") for line in lines)
    lines = classify(TUPLES["r2"]).lines()
    assert lines[0] == "extendable PASS"
    assert lines[1].startswith("regular FAIL (")


def test_hierarchy_on_reference_reports():
    reports = [classify(TUPLES[key]) for key in KEYS]
    assert verify_hierarchy(reports)
    assert verify_hierarchy([])


def test_hierarchy_rejects_fabricated_report():
    flags = {name: False for name in CLASS_NAMES}
    flags["f2"] = True
    assert not verify_hierarchy([ClassReport(flags)])


def test_aifv_needs_two_tables():
    ok, witness = is_aifv(TUPLES["r3"])
    assert not ok and witness


def test_aifv_reference_pair():
    ok, witness = is_aifv(TUPLES["r10"])
    assert ok and witness is None
    ok, witness = is_aifv(TUPLES["r9"])
    assert not ok and witness


def _derived_targets(words):
    # membership forces the next table: 1 when the codeword is extended
    # by another codeword of the same table, 0 otherwise
    return [1 if any(w != v and w == v[:len(w)] for v in words) else 0
            for w in words]


def _grid_members(symbols, pool0, pool1):
    # exhaust a grid of codeword assignments; membership fixes the targets,
    # so deriving them covers every candidate shape at this size
    n = len(symbols)
    for w0 in itertools.product(pool0, repeat=n):
        for w1 in itertools.product(pool1, repeat=n):
            rows0 = list(zip([w or "-" for w in w0], _derived_targets(w0)))
            rows1 = list(zip(w1, _derived_targets(w1)))
            code = make_tuple(symbols, [rows0, rows1])
            ok, _ = is_aifv(code)
            if ok:
                yield code


def test_aifv_membership_implies_every_flag():
    words = [""] + ["".join(p) for n in (1, 2, 3)
                    for p in itertools.product("01", repeat=n)]
    pool1 = [w for w in words if w not in ("", "0") and not w.startswith("00")]
    short = [w for w in words if len(w) <= 2]
    short1 = [w for w in pool1 if len(w) <= 2]
    hits = 0
    for symbols, p0, p1 in ((("a", "b"), words, pool1),
                            (("a", "b", "c"), short, short1)):
        for code in _grid_members(symbols, p0, p1):
            hits += 1
            report = classify(code)
            for name in CLASS_NAMES:
                assert report[name], (code, name)
    assert hits == 8 + 72


def test_f2_members_have_injective_tables():
    rng = random.Random(10)
    hits = 0
    for _ in range(2500):
        code = random_code_tuple(rng, max_tables=2, max_sigma=3, max_len=3)
        report = classify(code)
        if not report["f2"]:
            continue
        hits += 1
        for t in code.tables:
            assert len(set(t.codes)) == len(t.codes)
    assert hits > 10


def test_f1_members_have_at_least_two_pairs():
    for key in ("r5", "r6", "r7", "r8", "r9", "r10"):
        code = TUPLES[key]
        if not classify(code)["f1"]:
            continue
        sets = PrefixSetTable(code)
        for i in code.table_indices():
            assert len(sets.base(i, 2)) >= 2


def test_witness_is_the_one_membership_test():
    # classify and witness read one definition of every clause: they agree
    # on membership, and on the witness wherever classify names the clause
    # itself (f0 to f4 otherwise name the basic property they lack)
    rng = random.Random(8)
    codes = [TUPLES[key] for key in KEYS]
    codes += [random_code_tuple(rng, max_len=3) for _ in range(300)]
    for code in codes:
        report = classify(code)
        for name in CLASS_NAMES:
            reason = classes.witness(name, code)
            assert (reason is None) == report.flags[name], (code, name)
            if name in ("extendable", "regular", "decodable", "aifv") or \
                    name != "f0" and report.flags["regular"] and \
                    report.flags["decodable"]:
                assert reason == report.failures.get(name), (code, name)


@pytest.mark.parametrize("rows, lacking, own_clauses_pass", [
    ([[("0", 0), ("-", 1), ("11", 1)], [("111", 1), ("101", 0), ("01", 0)]],
     "decodable", True),
    ([[("0", 0), ("1", 0)], [("01", 1), ("1", 1)]], "regular", True),
    ([[("011", 0), ("-", 0)], [("-", 1), ("000", 1)]], "regular", False),
])
def test_f0_to_f4_name_the_first_basic_property_they_lack(
        rows, lacking, own_clauses_pass):
    # the requirements come before a family's own clause, regular before
    # decodable (the last tuple is neither)
    code = make_tuple(("a", "b", "c")[:len(rows[0])], rows)
    report = classify(code)
    for name in ("f1", "f2", "f3", "f4"):
        own = classes.FAMILIES[name][1](code)
        assert (own is None) == own_clauses_pass
        assert report.failures[name] == "not %s" % lacking
        assert classes.witness(name, code) == report.failures[lacking]
    assert report.failures["f0"] == "not %s" % lacking


def test_aifv_verdict_builds_no_continuation_sets():
    # the aifv clauses read codewords and targets only, so the aifv verdict
    # leaves a fresh tuple without continuation sets
    for key in ("r9", "r10"):
        code = CodeTuple(TUPLES[key].alphabet, TUPLES[key].tables)
        assert classes.witness("aifv", code) == \
            classify(TUPLES[key]).failures.get("aifv")
        assert is_aifv(code)[0] == EXPECTED_FLAGS[key]["aifv"]
        assert "sets" not in vars(code)
        assert code.sets.base(0, 1) and "sets" in vars(code)


def test_classify_handles_single_table():
    code = make_tuple(("a", "b"), [[("0", 0), ("1", 0)]])
    report = classify(code)
    assert report["f0"] and report["f1"]
    assert not report["f4"] and not report["aifv"]


def test_show_set_tells_the_empty_string_from_the_empty_set():
    assert show_set(frozenset([EMPTY])) == "{-}"
    assert show_set(frozenset()) == "{}"
    assert show_set(frozenset([Bits("1"), EMPTY, Bits("0")])) == "{-,0,1}"


# a table that passes every clause as table 0, and one that does as table 1
GOOD_TABLE = [("0", 0), ("10", 0), ("11", 0)]
GOOD_TABLE1 = [("11", 0), ("10", 0), ("01", 0)]


@pytest.mark.parametrize("rows, witness", [
    ([[("0", 0), ("0", 0), ("1", 0)], GOOD_TABLE1],
     "(i) table 0: symbols a and b share codeword 0"),
    ([GOOD_TABLE, [("", 0), ("", 0), ("1", 0)]],
     "(i) table 1: symbols a and b share codeword "),
    ([[("0", 1), ("01", 0), ("1", 0)], GOOD_TABLE1],
     "(ii) table 0, symbol a: bit 1 can follow window 0 inside a longer "
     "codeword"),
    ([[("0", 1), ("001", 0), ("1", 0)], GOOD_TABLE1],
     "(ii) table 0, symbol a: bit 1 can follow window 00 inside a longer "
     "codeword"),
    ([[("1", 1), ("10", 0), ("0", 0)], GOOD_TABLE1],
     "(iii) table 0: codeword of b is that of a plus 0"),
    ([[("0", 1), ("10", 0), ("11", 0)], GOOD_TABLE1],
     "(iv) table 0, symbol a: next table must be 0 because its codeword is "
     "not a longer codeword's prefix"),
    ([GOOD_TABLE, [("1", 0), ("100", 0), ("01", 0)]],
     "(iv) table 1, symbol a: next table must be 1 because its codeword is "
     "a longer codeword's prefix"),
    ([GOOD_TABLE, GOOD_TABLE],
     "(v) table 1, symbol a: codeword '0' is too short"),
    ([GOOD_TABLE, [("01", 0), ("1", 0), ("000", 0)]],
     "(vi) bit 0 can follow window 0 inside a longer codeword of table 1"),
    ([[("0", 0), ("110", 0), ("111", 0)], GOOD_TABLE1],
     "(vii) table 0: window 1 has exactly one possible next bit but is not "
     "a codeword or a codeword plus one bit"),
    ([GOOD_TABLE, [("11", 0), ("101", 0), ("100", 0)]],
     "(vii) table 1: window  has exactly one possible next bit but is not "
     "a codeword or a codeword plus one bit"),
    ([GOOD_TABLE], "needs exactly two tables, not 1"),
    ([GOOD_TABLE] * 3, "needs exactly two tables, not 3"),
])
def test_aifv_witness_messages(rows, witness):
    assert is_aifv(make_tuple(("a", "b", "c"), rows)) == (False, witness)

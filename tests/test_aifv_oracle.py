"""The table-local aifv clauses against the old membership test.

``support.oracle_is_aifv`` reads the clauses off continuation sets through
PrefixSetTable; ``support._aifv_table_ok`` is the scan's old per-table
predicate.  ``classes.is_aifv`` must give the same verdict and the same
witness text, and the clauses one table at a time
(``support.aifv_table_ok``) the same per-table verdict.
"""

import itertools
import random

from codetuples import SearchSpace, is_aifv, make_tuple
from codetuples.search import _Scan, all_words
from support import (_aifv_table_ok, aifv_table_ok, oracle_is_aifv,
                     random_code_tuple, walk_every_table)

SYMBOLS = ("a", "b", "c", "d")
MUTATED = 4000
RANDOM = 1000


def kept_contents(space):
    """Every content the scan keeps, per table, as (codeword, target) rows."""
    words = all_words(space.max_len)
    tables = ([], [])
    for scanned in walk_every_table(_Scan(space)).values():
        for rows, table in zip(tables, scanned):
            rows.extend([(words[sid >> 1] or "-", sid & 1) for sid in content]
                        for bucket in table.values()
                        for content in bucket.values())
    return tables


def test_witnesses_match_the_oracle_on_mutated_members():
    rng = random.Random(6)
    kept = kept_contents(SearchSpace(4, 2, 3, "aifv"))
    slots = [(w or "-", t) for w in all_words(3) for t in (0, 1)]
    clauses = {}
    for _ in range(MUTATED):
        # table 1 sometimes takes a table-0 content: the clauses (i)-(iv)
        # pass it, and (v)-(vii) see shapes only table 0 may have
        rows = [list(rng.choice(kept[0])),
                list(rng.choice(kept[0 if rng.random() < 0.2 else 1]))]
        for _ in range(rng.randint(0, 2)):
            rows[rng.randrange(2)][rng.randrange(4)] = rng.choice(slots)
        code = make_tuple(SYMBOLS, rows)
        got = is_aifv(code)
        assert got == oracle_is_aifv(code), rows
        key = got[1].split(" ")[0] if got[1] else "pass"
        clauses[key] = clauses.get(key, 0) + 1
    # the mutations reach every clause, and some tuples stay members
    assert sorted(clauses) == ["(i)", "(ii)", "(iii)", "(iv)", "(v)", "(vi)",
                               "(vii)", "pass"], clauses
    assert min(clauses.values()) >= 10, clauses


def test_witnesses_match_the_oracle_on_random_tuples():
    rng = random.Random(7)
    for _ in range(RANDOM):
        code = random_code_tuple(rng, max_tables=3, max_sigma=4, max_len=3)
        assert is_aifv(code) == oracle_is_aifv(code), code


def test_table_verdict_matches_the_old_scan_predicate():
    words = all_words(2)
    for content in itertools.product(range(2 * len(words)), repeat=3):
        ws = [words[sid >> 1] for sid in content]
        ts = [sid & 1 for sid in content]
        for index in (0, 1):
            assert aifv_table_ok(index, ws, ts) == \
                _aifv_table_ok(index, ws, ts), (index, ws, ts)

"""Structural properties: extendability, decoding delay, table reachability.

A tuple is extendable when every table can emit at least one more bit.  It is
decodable with delay k when k bits of lookahead always settle the current
codeword: no continuation of the next table may coincide with the extension
of a longer codeword, and symbols sharing a codeword must lead to tables
whose continuations are disjoint.  It is regular when some table is reachable
from every table, so long encodings forget where they started.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


def dead_tables(code):
    """Tables that can never emit another bit, in index order."""
    return tuple(i for i in code.table_indices() if not code.sets.base(i, 1))


def is_extendable(code):
    return not dead_tables(code)


@dataclass(frozen=True)
class DelayViolation:
    """One witness that k bits of lookahead are not enough.

    kind "codeword-extension": after symbols[0]'s codeword the stream can
    continue with clash, which also extends that codeword into a longer one.
    kind "equal-codewords": symbols share a codeword and clash can follow
    either one's next table.
    """

    kind: str
    table: int
    symbols: tuple
    clash: object

    def describe(self, code):
        names = " ".join(code.alphabet.name(s) for s in self.symbols)
        if self.kind == "codeword-extension":
            return (
                "table %d, symbol %s: continuation %s follows both the "
                "finished codeword and a longer one" % (self.table, names, self.clash)
            )
        return (
            "table %d, symbols %s: equal codewords with common continuation %s"
            % (self.table, names, self.clash)
        )


@dataclass
class DecodabilityReport:
    k: int
    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def delay_decodability(code, k):
    """Check k-bit delay decodability, collecting every violation."""
    sets = code.sets
    violations = []
    for i in code.table_indices():
        for s in code.alphabet:
            follow = sets.base(code.target(i, s), k)
            longer = sets.strict_continuations(i, code.code(i, s), k)
            common = follow & longer
            if common:
                violations.append(DelayViolation(
                    "codeword-extension", i, (s,), min(common)))
        for s in code.alphabet:
            for s2 in code.alphabet:
                if s2 <= s or code.code(i, s) != code.code(i, s2):
                    continue
                common = sets.base(code.target(i, s), k) \
                    & sets.base(code.target(i, s2), k)
                if common:
                    violations.append(DelayViolation(
                        "equal-codewords", i, (s, s2), min(common)))
    return DecodabilityReport(k, not violations, tuple(violations))


@dataclass
class ReachabilityReport:
    """Per-table reach sets, their intersection, and shortest witnesses.

    witnesses[i][j] is a shortest source sequence x with the table walk from
    i ending at j; ties go to earlier symbols.  Every table reaches itself
    via the empty sequence.
    """

    reach: tuple
    core: frozenset
    witnesses: tuple

    def witness(self, start, target):
        return self.witnesses[start][target]


def reachable_tables(code):
    reach = []
    witnesses = []
    for start in code.table_indices():
        found = {start: ()}
        queue = deque([start])
        while queue:
            j = queue.popleft()
            for s in code.alphabet:
                t = code.target(j, s)
                if t not in found:
                    found[t] = found[j] + (s,)
                    queue.append(t)
        reach.append(frozenset(found))
        witnesses.append(found)
    core = frozenset.intersection(*reach)
    return ReachabilityReport(tuple(reach), core, tuple(witnesses))


def is_regular(code):
    """Whether some table is reachable from every table."""
    return bool(reachable_tables(code).core)


def two_continuation_tables(code):
    """Tables with exactly two possible 2-bit continuations."""
    return frozenset(
        i for i in code.table_indices() if len(code.sets.base(i, 2)) == 2)

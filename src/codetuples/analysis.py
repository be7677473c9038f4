"""Structural properties: extendability, decoding delay, table reachability.

A tuple is extendable when every table can emit at least one more bit.  It is
decodable with delay k when k bits of lookahead always settle the current
codeword: no continuation of the next table may coincide with the extension
of a longer codeword, and symbols sharing a codeword must lead to tables
whose continuations are disjoint.  It is regular when some table is reachable
from every table, so long encodings forget where they started.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools

from .bits import Bits
from .prefix_sets import blocks, check_code, emits


def dead_tables(code):
    """Tables that can never emit another bit, in index order."""
    return tuple(i for i, bits in enumerate(check_code(code).sets.words(1))
                 if not bits)


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
    """Check k-bit delay decodability, collecting every violation: each
    codeword u against each rival v = u + r of its table, which clash on the
    blocks both u's target and r then v's target can emit.  Per table, one
    extension violation per symbol comes first, then the equal-codeword
    pairs; each witness is the lowest clashing block."""
    sets = check_code(code).sets
    levels = sets.levels(k)
    violations = []

    def lowest(clash):
        return Bits(blocks(clash, k)[0])

    for i, row in enumerate(sets.rows):
        longer, equal = [0] * len(row), []
        for (u, tu, s), (v, tv, s2) in itertools.product(row, repeat=2):
            if s != s2 and v.startswith(u):
                clash = emits(v[len(u):], levels[tv], k) & levels[tu][k]
                if len(v) > len(u):
                    longer[s] |= clash
                elif clash and s < s2:
                    equal.append(DelayViolation(
                        "equal-codewords", i, (s, s2), lowest(clash)))
        violations += [DelayViolation("codeword-extension", i, (s,),
                                      lowest(clash))
                       for s, clash in enumerate(longer) if clash]
        violations += equal
    return DecodabilityReport(k, not violations, tuple(violations))


@dataclass
class ReachabilityReport:
    """Per-table reach sets and their intersection; every table reaches
    itself."""

    reach: tuple
    core: frozenset


def reachable_tables(code):
    reach = []
    for start in check_code(code).table_indices():
        found = [start]
        for j in found:  # the list grows while it is read
            found += set(code.tables[j].targets) - set(found)
        reach.append(frozenset(found))
    core = frozenset.intersection(*reach)
    return ReachabilityReport(tuple(reach), core)


def is_regular(code):
    """Whether some table is reachable from every table."""
    return bool(reachable_tables(code).core)


def two_continuation_tables(code):
    """Tables with exactly two possible 2-bit continuations."""
    return frozenset(
        i for i, pairs in enumerate(check_code(code).sets.words(2))
        if len(pairs) == 2)

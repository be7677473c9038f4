"""Membership tests for the nested families of well-behaved code tuples.

The families, from loosest to tightest: extendable, regular, decodable with
delay 2; their intersection f0; f1 (every table can emit both next bits); f2
(at least three 2-bit continuations everywhere); f3 (01, 10, 11 possible
everywhere); f4 (exactly two tables, table 0 full, table 1 missing only 00);
aifv (two tables satisfying seven structural conditions on codewords and
next-table choices).  f1 through f4 are defined over regular, delay-2
decodable tuples; each family implies the previous one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bits import EMPTY, ZERO, Bits, all_bits, show
from .analysis import (
    dead_tables,
    delay_decodability,
    is_regular,
)
from .prefix_sets import PrefixSetTable

CLASS_NAMES = (
    "extendable", "regular", "decodable",
    "f0", "f1", "f2", "f3", "f4", "aifv",
)

# Each family on the right implies the one on the left.
HIERARCHY = (
    ("f0", "f1"), ("f1", "f2"), ("f2", "f3"), ("f3", "f4"), ("f4", "aifv"),
)

FULL_PAIRS = frozenset(all_bits(2))
NONZERO_PAIRS = frozenset(b for b in all_bits(2) if b != Bits("00"))
BOTH_BITS = frozenset(all_bits(1))


def show_set(bits_set):
    return "{%s}" % ",".join(map(show, sorted(bits_set)))


@dataclass
class ClassReport:
    """Flags per family plus the first violated clause of each failed one."""

    flags: dict
    failures: dict = field(default_factory=dict)
    prefix_check: str = "exact over proper prefixes of table codewords"

    def __getitem__(self, name):
        return self.flags[name]

    def finest(self):
        """The tightest nested family satisfied, or None outside f0."""
        best = None
        for name in ("f0", "f1", "f2", "f3", "f4", "aifv"):
            if self.flags[name]:
                best = name
        return best

    def lines(self):
        out = []
        for name in CLASS_NAMES:
            if self.flags[name]:
                out.append("%s PASS" % name)
            else:
                out.append("%s FAIL (%s)" % (name, self.failures[name]))
        return out


def _proper_codeword_prefixes(code, i):
    """Every strict prefix of a codeword of table i, shortest first.

    The one-bit follow-up set of any other window is empty, so these are
    the only windows that can have exactly one follow-up bit.
    """
    seen = set()
    for s in code.alphabet:
        c = code.code(i, s)
        for n in range(len(c)):
            seen.add(c.head(n))
    return sorted(seen)


def is_aifv(code, sets=None):
    """Check the seven structural conditions; returns (ok, failing clause)."""
    if code.num_tables != 2:
        return False, "needs exactly two tables, not %d" % code.num_tables
    sets = sets or PrefixSetTable(code)
    name = code.alphabet.name

    for i in code.table_indices():
        for s in code.alphabet:
            for s2 in code.alphabet:
                if s < s2 and code.code(i, s) == code.code(i, s2):
                    return False, "(i) table %d: symbols %s and %s share codeword %s" % (
                        i, name(s), name(s2), code.code(i, s))

    for i in code.table_indices():
        for s in code.alphabet:
            c = code.code(i, s)
            for window in (c, c + ZERO):
                if Bits("1") in sets.strict_continuations(i, window, 1):
                    return False, (
                        "(ii) table %d, symbol %s: bit 1 can follow window %s "
                        "inside a longer codeword" % (i, name(s), window))

    for i in code.table_indices():
        for s in code.alphabet:
            for s2 in code.alphabet:
                if code.code(i, s2) == code.code(i, s) + ZERO:
                    return False, "(iii) table %d: codeword of %s is that of %s plus 0" % (
                        i, name(s2), name(s))

    for i in code.table_indices():
        for s in code.alphabet:
            extended = bool(sets.strict_continuations(i, code.code(i, s), 0))
            required = 1 if extended else 0
            if code.target(i, s) != required:
                return False, (
                    "(iv) table %d, symbol %s: next table must be %d because its "
                    "codeword %s a longer codeword's prefix"
                    % (i, name(s), required, "is" if extended else "is not"))

    for s in code.alphabet:
        if code.code(1, s) in (EMPTY, ZERO):
            return False, "(v) table 1, symbol %s: codeword %r is too short" % (
                name(s), str(code.code(1, s)))

    if ZERO in sets.strict_continuations(1, ZERO, 1):
        return False, "(vi) bit 0 can follow window 0 inside a longer codeword of table 1"

    for i in code.table_indices():
        for b in _proper_codeword_prefixes(code, i):
            if len(sets.strict_continuations(i, b, 1)) != 1:
                continue
            if i == 1 and b == ZERO:
                continue
            stubs = {b} | ({b.drop_last()} if len(b) else set())
            if any(code.code(i, s) in stubs for s in code.alphabet):
                continue
            return False, (
                "(vii) table %d: window %s has exactly one possible next bit "
                "but is not a codeword or a codeword plus one bit" % (i, b))

    return True, None


def classify(code, dist=None):
    """Evaluate every family, cheap checks first; failed families carry the
    first violated clause as a witness."""
    sets = PrefixSetTable(code)
    flags = {}
    failures = {}

    dead = dead_tables(code, sets)
    flags["extendable"] = not dead
    if dead:
        failures["extendable"] = "table %d can emit no bits" % dead[0]

    flags["regular"] = is_regular(code)
    if not flags["regular"]:
        failures["regular"] = "no table is reachable from every table"

    report = delay_decodability(code, 2, sets)
    flags["decodable"] = report.ok
    if not report.ok:
        failures["decodable"] = report.violations[0].describe(code)

    flags["f0"] = flags["extendable"] and flags["regular"] and flags["decodable"]
    if not flags["f0"]:
        lacking = next(n for n in ("extendable", "regular", "decodable")
                       if not flags[n])
        failures["f0"] = "not %s" % lacking

    base_ok = flags["regular"] and flags["decodable"]
    base_reason = None if base_ok else "not %s" % (
        "regular" if not flags["regular"] else "decodable")

    def shape(name, ok_table):
        if not base_ok:
            flags[name] = False
            failures[name] = base_reason
            return
        for i in code.table_indices():
            reason = ok_table(i)
            if reason:
                flags[name] = False
                failures[name] = reason
                return
        flags[name] = True

    shape("f1", lambda i: None if sets.base(i, 1) == BOTH_BITS else
          "table %d next-bit set is %s" % (i, show_set(sets.base(i, 1))))
    shape("f2", lambda i: None if len(sets.base(i, 2)) >= 3 else
          "table %d has only %d two-bit continuations" % (i, len(sets.base(i, 2))))
    shape("f3", lambda i: None if sets.base(i, 2) >= NONZERO_PAIRS else
          "table %d misses %s" % (i, show_set(NONZERO_PAIRS - sets.base(i, 2))))

    if not base_ok:
        flags["f4"] = False
        failures["f4"] = base_reason
    elif code.num_tables != 2:
        flags["f4"] = False
        failures["f4"] = "needs exactly two tables, not %d" % code.num_tables
    elif sets.base(0, 2) != FULL_PAIRS:
        flags["f4"] = False
        failures["f4"] = "table 0 two-bit set is %s" % show_set(sets.base(0, 2))
    elif sets.base(1, 2) != NONZERO_PAIRS:
        flags["f4"] = False
        failures["f4"] = "table 1 two-bit set is %s" % show_set(sets.base(1, 2))
    else:
        flags["f4"] = True

    ok, clause = is_aifv(code, sets)
    flags["aifv"] = ok
    if not ok:
        failures["aifv"] = clause

    return ClassReport(flags, failures)


def verify_hierarchy(reports):
    """Whether every report's flags respect the implication chain."""
    for report in reports:
        for wider, tighter in HIERARCHY:
            if report.flags[tighter] and not report.flags[wider]:
                return False
    return True

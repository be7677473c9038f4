"""Membership tests for the nested families of well-behaved code tuples.

The families, from loosest to tightest: extendable, regular, decodable with
delay 2; their intersection f0; f1 (every table can emit both next bits); f2
(at least three 2-bit continuations everywhere); f3 (01, 10, 11 possible
everywhere); f4 (exactly two tables, table 0 full, table 1 missing only 00);
aifv (two tables satisfying seven structural conditions on codewords and
next-table choices).  f1 through f4 are defined over regular, delay-2
decodable tuples; each family implies the previous one.

Each class clause is defined once here: ``NESTED`` is the one nesting
order, and each family is one ``FAMILIES`` entry (its required basic
properties and its own clause), read by ``classify`` and ``witness``.
``witness``, a family's first violated clause or None for a member, is the
membership test of the search filter and the rewrites.  The seven aifv
clauses are table-local: they read only one table's codewords and targets,
so the search scan decides them one table at a time, with word masks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .bits import show
from .analysis import dead_tables, delay_decodability, is_regular
from .core import CodeTuple
from .errors import InvalidArgument
from .prefix_sets import K, blocks, check_type

# The nested families, loosest first: each implies the one before it.
NESTED = ("f0", "f1", "f2", "f3", "f4", "aifv")
CLASS_NAMES = ("extendable", "regular", "decodable") + NESTED
HIERARCHY = tuple(zip(NESTED, NESTED[1:]))

FULL_MASK = (1 << (1 << K)) - 1  # every K-bit block, as a level-K mask
NONZERO_MASK = FULL_MASK - 1  # every block but the all-zero one


def show_set(bits_set):
    return "{%s}" % ",".join(map(show, sorted(bits_set)))


@dataclass
class ClassReport:
    """Flags per family plus the first violated clause of each failed one."""

    flags: dict
    failures: dict = field(default_factory=dict)

    def __getitem__(self, name):
        return self.flags[name]

    def finest(self):
        """The tightest nested family satisfied, or None outside f0."""
        return next((n for n in reversed(NESTED) if self.flags[n]), None)

    def lines(self):
        out = []
        for name in CLASS_NAMES:
            if self.flags[name]:
                out.append("%s PASS" % name)
            else:
                out.append("%s FAIL (%s)" % (name, self.failures[name]))
        return out


# Each aifv clause reads one table's codewords (``str``) and targets and
# returns a witness or None; ``names`` label the symbols in the witness.


def _heads(words):
    """Every nonempty prefix of a codeword: bit x can follow window b inside
    a longer codeword of the table exactly when b + x is one of them."""
    return {w[:n] for w in words for n in range(1, len(w) + 1)}


def _distinct(i, words, targets, names):
    for s, w in enumerate(words):
        if w in words[s + 1:]:
            return "(i) table %d: symbols %s and %s share codeword %s" % (
                i, names[s], names[words.index(w, s + 1)], w)


def _no_one_after(i, words, targets, names):
    heads = _heads(words)
    for s, w in enumerate(words):
        for window in (w, w + "0"):
            if window + "1" in heads:
                return ("(ii) table %d, symbol %s: bit 1 can follow window %s "
                        "inside a longer codeword" % (i, names[s], window))


def _no_zero_extension(i, words, targets, names):
    for s, w in enumerate(words):
        if w + "0" in words:
            return "(iii) table %d: codeword of %s is that of %s plus 0" % (
                i, names[words.index(w + "0")], names[s])


def _targets(i, words, targets, names):
    heads = _heads(words)
    for s, (w, t) in enumerate(zip(words, targets)):
        extended = w + "0" in heads or w + "1" in heads
        if t != extended:
            return ("(iv) table %d, symbol %s: next table must be %d because "
                    "its codeword %s a longer codeword's prefix"
                    % (i, names[s], extended, "is" if extended else "is not"))


def _long_enough(i, words, targets, names):
    for s, w in enumerate(words):
        if i == 1 and w in ("", "0"):
            return "(v) table 1, symbol %s: codeword %r is too short" % (
                names[s], w)


def _no_double_zero(i, words, targets, names):
    if i == 1 and "00" in _heads(words):
        return ("(vi) bit 0 can follow window 0 inside a longer codeword "
                "of table 1")


def _one_way_windows(i, words, targets, names):
    heads = _heads(words)
    for b in sorted({h[:-1] for h in heads}, key=lambda b: (len(b), b)):
        if (b + "0" in heads) == (b + "1" in heads) or (i, b) == (1, "0"):
            continue  # both bits can follow b (at least one always can)
        if b in words or b and b[:-1] in words:
            continue
        return ("(vii) table %d: window %s has exactly one possible next bit "
                "but is not a codeword or a codeword plus one bit" % (i, b))


AIFV_CLAUSES = (_distinct, _no_one_after, _no_zero_extension, _targets,
                _long_enough, _no_double_zero, _one_way_windows)


def _two_tables(code):
    if code.num_tables != 2:
        return "needs exactly two tables, not %d" % code.num_tables


def is_aifv(code):
    """Check the seven structural conditions; returns (ok, failing clause),
    trying each clause on table 0, then on table 1."""
    if reason := _two_tables(check_type("code", code, CodeTuple)):
        return False, reason
    tables = [(i, [str(w) for w in t.codes], t.targets, code.alphabet.names)
              for i, t in enumerate(code.tables)]
    reason = next(filter(None, (clause(*table) for clause in AIFV_CLAUSES
                                for table in tables)), None)
    return reason is None, reason


# The f1, f2 and f3 clauses read table i's continuation sets through the
# tuple's ``sets``, ``words`` or level masks; each returns a witness or None.
TABLE_CLAUSES = {
    "f1": lambda sets, i: None if len(sets.words(1)[i]) == 2 else
    "table %d next-bit set is %s" % (i, show_set(sets.words(1)[i])),
    "f2": lambda sets, i: None if len(sets.words(K)[i]) >= 3 else
    "table %d has only %d two-bit continuations" % (i, len(sets.words(K)[i])),
    "f3": lambda sets, i: None if not (
        missing := NONZERO_MASK & ~sets.levels(K)[i][K]) else
    "table %d misses %s" % (i, show_set(blocks(missing, K))),
}


def table_witness(name, code):
    """The first table's witness against the f1, f2 or f3 clause, or None."""
    clause = TABLE_CLAUSES[name]
    return next(filter(None, (clause(code.sets, i)
                              for i in code.table_indices())), None)


def _f4_witness(code):
    if reason := _two_tables(code):
        return reason
    for i, want in enumerate((FULL_MASK, NONZERO_MASK)):
        if code.sets.levels(K)[i][K] != want:
            return "table %d two-bit set is %s" % (
                i, show_set(code.sets.words(K)[i]))


def _extendable(code):
    dead = dead_tables(code)
    return "table %d can emit no bits" % dead[0] if dead else None


def _regular(code):
    return None if is_regular(code) else \
        "no table is reachable from every table"


def _decodable(code):
    report = delay_decodability(code, K)
    return None if report.ok else report.violations[0].describe(code)


# Each family: (the basic properties it requires, in the order tried; its
# own clause, reading the tuple and returning a witness or None, if any).
FAMILIES = {
    "extendable": ((), _extendable),
    "regular": ((), _regular),
    "decodable": ((), _decodable),
    "f0": (("extendable", "regular", "decodable"), None),
    **{name: (("regular", "decodable"), functools.partial(table_witness, name))
       for name in TABLE_CLAUSES},
    "f4": (("regular", "decodable"), _f4_witness),
    "aifv": ((), lambda code: is_aifv(code)[1]),
}


def witness(name, code):
    """The first violated clause of family ``name``, or None for a member:
    a lacking requirement's own witness, else the family's own clause."""
    if name not in CLASS_NAMES:  # a tuple, so an unhashable name is refused
        raise InvalidArgument("unknown family %r, not one of %s"
                              % (name, ", ".join(CLASS_NAMES)))
    check_type("code", code, CodeTuple)
    requires, own = FAMILIES[name]
    lacking = (witness(basic, code) for basic in requires)
    return next(filter(None, lacking), None) or (own and own(code))


def classify(code):
    """Evaluate every family, cheap checks first; a failed family carries
    "not X" for the first basic property X it lacks, else its own clause's
    witness."""
    check_type("code", code, CodeTuple)
    reasons = {}
    for name in CLASS_NAMES:
        requires, own = FAMILIES[name]
        lacking = next((b for b in requires if reasons[b]), None)
        reasons[name] = "not %s" % lacking if lacking else (own and own(code))
    return ClassReport({n: reasons[n] is None for n in CLASS_NAMES},
                       {n: reasons[n] for n in CLASS_NAMES if reasons[n]})


def verify_hierarchy(reports):
    """Whether every report's flags respect the implication chain."""
    return all(report.flags[wider] or not report.flags[tighter]
               for report in reports for wider, tighter in HIERARCHY)

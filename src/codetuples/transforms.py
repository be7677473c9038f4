"""Rewrites that reshape continuation sets while preserving cost.

All three rewrites keep the alphabet, the table count, the next-table maps,
and the expected codeword length; they only rewrite codeword bits.

rotate: every table whose emissions all start with the same forced bit stops
emitting it and its callers append it instead, so the forced bit migrates
one codeword boundary backwards.  Repeated on a well-behaved tuple this
makes every table able to emit both next bits.

dot: rewrites each codeword along its prefix chain so that the bits that
extend a codeword disagree, right where the decoder looks, with the steer
bit of the table the shorter codeword jumps to.  Together with one rotate
this strictly shrinks the set of tables having only two 2-bit continuations.

ddot: reserves the pair 00 for in-codeword extension everywhere, freeing
01, 10, 11 as emittable pairs of every table.

The prefix-chain split, the per-table forced bit and steer bit, multi-step
chains toward a target family, reachable-table pruning, and the one-to-two
table extension live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import EMPTY, Bits
from .analysis import reachable_tables
from .classes import HIERARCHY, TABLE_CLAUSES, table_witness, witness
from .core import CodeTuple, Table
from .errors import (
    AmbiguousChain,
    InvalidArgument,
    NonTerminatingRecursion,
    NotExtendable,
    NotInClass,
    NotRegular,
    StepLimitExceeded,
    WrongTableCount,
)
from .markov import average_length
from .prefix_sets import check_code, check_indices


def forced_bit(code, i):
    """The single bit every emission of table i starts with, or empty.

    Undefined (NotExtendable) for a table that emits nothing.
    """
    check_indices(code, i)
    first = code.sets.words(1)[i]
    if not first:
        raise NotExtendable("table %d emits no bits" % i)
    return EMPTY if len(first) == 2 else Bits(min(first))


def _rewrite(code, word):
    """Codeword (i, s) replaced by the ``str`` ``word(i, s)``; the targets
    are kept."""
    return CodeTuple(code.alphabet, tuple(
        Table(tuple(Bits(word(i, s)) for s in code.alphabet),
              code.tables[i].targets) for i in code.table_indices()))


def rotate(code):
    """Move each table's forced first bit across codeword boundaries."""
    forced = [str(forced_bit(code, i))
              for i in check_code(code).table_indices()]
    rows = code.sets.rows

    def word(i, s):  # append the target's forced bit, drop the table's own
        w, t, _ = rows[i][s]
        return (w + forced[t])[len(forced[i]):]
    return _rewrite(code, word)


@dataclass(frozen=True)
class ChainDecomposition:
    """A codeword split along the codewords that are its strict prefixes.

    chain lists the owning symbols shortest-prefix first, ending with the
    symbol itself; parts are the successive increments, so concatenating
    parts yields the codeword and every chain prefix is itself a codeword.
    """

    table: int
    chain: tuple
    parts: tuple

    @property
    def codeword(self):
        return Bits("".join(map(str, self.parts)))


def prefix_chain(code, i, s):
    """Chain-decompose the codeword of (table i, symbol s).

    Each strict-prefix codeword must belong to exactly one symbol for the
    chain to be meaningful; a shared one raises AmbiguousChain.
    """
    check_indices(code, i, (s,))
    rows = code.sets.rows[i]
    word, below = rows[s][0], {}
    for c, _, s2 in rows:
        if len(c) < len(word) and word.startswith(c):
            if c in below:
                raise AmbiguousChain(
                    "table %d: codeword %r of %s is shared by %s" % (
                        i, c, code.alphabet.name(s2),
                        code.alphabet.name(below[c])))
            below[c] = s2
    order = sorted(below, key=len)
    ends = [len(c) for c in order] + [len(word)]
    parts = (word[a:b] for a, b in zip([0] + ends, ends))
    return ChainDecomposition(i, tuple(map(below.get, order)) + (s,),
                              tuple(map(Bits, parts)))


def steer_bit(code, i):
    """The bit dot-rewritten emissions of table i are made to start with.

    A table whose single empty codeword delegates to another table inherits
    that table's bit; otherwise the bit is 0 exactly when 00 is an
    emittable pair.  Delegation cycles are rejected.
    """
    check_indices(code, i)
    seen = []
    j = i
    while True:
        if j in seen:
            cycle = seen[seen.index(j):] + [j]
            raise NonTerminatingRecursion(
                "empty-codeword delegation cycle through tables %s"
                % "->".join(str(t) for t in cycle))
        seen.append(j)
        empties = [t for w, t, _ in code.sets.rows[j] if not w]
        if len(empties) == 1:
            j = empties[0]
            continue
        return 0 if "00" in code.sets.words(2)[j] else 1


def _require_class(code, name):
    """The one precondition of dot (f1), ddot (f2) and every chain."""
    reason = witness(name, code)
    if reason:
        raise NotInClass(name, reason)


def _rewrite_chains(code, family, head, increment):
    """Rewrite each codeword along its prefix chain: its first part by
    ``head(i, s, part)``, each later part, extending chain symbol prev, by
    ``increment(i, s, prev, part)``.  A one-bit increment would clash with
    the target table emitting that same bit, so it is refused."""
    def word(i, s):
        decomp = prefix_chain(code, i, s)
        parts = list(map(str, decomp.parts))
        out = head(i, s, parts[0])
        for prev, part in zip(decomp.chain, parts[1:]):
            if len(part) < 2:
                raise NotInClass(family, "table %d, symbol %s: one-bit chain "
                                 "increment" % (i, code.alphabet.name(s)))
            out += increment(i, s, prev, part)
        return out
    return _rewrite(code, word)


def dot(code):
    """Rewrite codewords along prefix chains against the steer bits."""
    _require_class(code, "f1")
    sets = code.sets
    steer = [steer_bit(code, i) for i in code.table_indices()]

    def head(i, s, part):
        if len(sets.words(2)[i]) != 2 or not part:
            return part
        # A one-bit codeword in a two-pair table would give both pairs its
        # head, against a next-bit set {0, 1}: the precondition rules it out.
        if len(part) < 2:
            raise NotInClass("f1", "table %d, symbol %s: one-bit codeword in "
                             "a two-pair table" % (i, code.alphabet.name(s)))
        return str(steer[i]) + part[0] + part[2:]

    def increment(i, s, prev, part):
        prev_word, j, _ = sets.rows[i][prev]
        opposite = str(1 - steer[j])
        longer = len(sets.strict_continuations(i, prev_word, 1))
        straight = len(sets.strict_continuations(j, "", 1))
        if longer == 2:
            return opposite + part[0] + part[2:]
        if longer == 1 and straight == 1:
            return opposite + "0" + part[2:]
        if longer == 1 and straight == 2 and len(sets.words(2)[j]) == 2:
            # The rewritten increment lands at the head of the whole
            # codeword exactly when the previous chain codeword is empty;
            # only then the filler bit is 1.
            return opposite + ("0" if prev_word else "1") + part[2:]
        if longer == 1 and straight == 2:
            return part
        raise NotInClass("f1", "table %d, symbol %s: continuation profile "
                         "out of range" % (i, code.alphabet.name(s)))
    return _rewrite_chains(code, "f1", head, increment)


def ddot(code):
    """Reserve the pair 00 for in-codeword extensions everywhere."""
    _require_class(code, "f2")

    def head(i, s, part):
        pairs = code.sets.words(2)[i]
        if len(pairs) == 4 or len(part) == 0:
            return part
        if len(part) == 1:
            return "1"
        if part[0] + "10"[int(part[1])] not in pairs:  # its sibling pair
            return "01" + part[2:]
        return "1" + part[1:]
    return _rewrite_chains(code, "f2", head, lambda i, s, prev, part:
                           "00" + part[2:])


@dataclass(frozen=True)
class TransformStep:
    op: str
    result: CodeTuple
    table_bits: tuple
    avg_len: object


@dataclass
class TransformTrace:
    start: CodeTuple
    target: str
    steps: tuple

    @property
    def final(self):
        return self.steps[-1].result if self.steps else self.start


def _rewrites():  # per call, so a rebound module attribute is called
    """Each rewrite by name, with the bit it reads per table or None."""
    return {"rotate": (rotate, forced_bit), "dot": (dot, steer_bit),
            "ddot": (ddot, None)}


REWRITES = tuple(_rewrites())


def rewrite_step(code, op, dist=None):
    """One rewrite of ``code`` by its ``REWRITES`` name, as a TransformStep:
    the bit the op reads per table (none for ddot), the result, and the
    result's average length under ``dist`` when one is given."""
    check_code(code)
    if op not in REWRITES:  # a tuple, so an unhashable op is refused
        raise InvalidArgument("unknown rewrite %r" % (op,))
    rewrite, table_bit = _rewrites()[op]
    bits = tuple(table_bit(code, i)
                 for i in code.table_indices()) if table_bit else ()
    result = rewrite(code)
    avg = average_length(result, dist) if dist is not None else None
    return TransformStep(op, result, bits, avg)


# Each chain target, a family with a table clause, from the one before it.
PRECEDING = {tighter: wider for wider, tighter in HIERARCHY
             if tighter in TABLE_CLAUSES}


def chain_to_class(code, target, dist=None):
    """Apply rewrites until the tuple lands in the target family.

    f1: repeated rotate from an f0 member; f2: alternating dot and rotate
    from an f1 member; f3: one ddot from an f2 member.  Step limits are
    explicit because termination is only guaranteed for inputs of minimal
    cost.
    """
    if target not in tuple(PRECEDING):  # an unhashable target is refused
        raise InvalidArgument("unknown target class %r" % (target,))
    _require_class(code, PRECEDING[target])
    current, steps = code, []
    if target == "f3":
        steps.append(rewrite_step(code, "ddot", dist))
        current = steps[-1].result
    else:  # rounds of ops while a table fails the clause, at most limit
        ops, limit, unit = {
            "f1": (("rotate",), 2 * code.max_code_len() + 2, "rotations"),
            "f2": (("dot", "rotate"), code.num_tables + 1,
                   "dot-rotate rounds")}[target]
        while table_witness(target, current):
            if len(steps) >= len(ops) * limit:
                raise StepLimitExceeded("still outside %s after %d %s"
                                        % (target, limit, unit))
            for op in ops:
                steps.append(rewrite_step(current, op, dist))
                current = steps[-1].result
    reason = witness(target, current)
    if reason:
        raise StepLimitExceeded(
            "chain ended outside %s: %s" % (target, reason))
    return TransformTrace(code, target, tuple(steps))


def prune_to_reachable(code):
    """Drop tables not reachable from every table, reindexing densely."""
    report = reachable_tables(code)
    if not report.core:
        raise NotRegular("no table is reachable from every table")
    kept = sorted(report.core)
    renumber = {old: new for new, old in enumerate(kept)}
    tables = []
    for old in kept:
        t = code.tables[old]
        tables.append(Table(t.codes, tuple(renumber[j] for j in t.targets)))
    return CodeTuple(code.alphabet, tuple(tables))


def extend_to_two_tables(code):
    """Pair a single-table tuple with a fresh second table that always
    hands control back, emitting 01, 10, 110, ..., 1...1 over the alphabet."""
    if check_code(code).num_tables != 1:
        raise WrongTableCount("expected a single table, got %d" % code.num_tables)
    sigma = code.sigma
    if sigma < 2:
        raise InvalidArgument("need at least two symbols")
    codes = ["01"] + ["1" * r + "0" for r in range(1, sigma - 1)]
    second = Table(map(Bits, codes + ["1" * (sigma - 1)]), (0,) * sigma)
    return CodeTuple(code.alphabet, (code.tables[0], second))

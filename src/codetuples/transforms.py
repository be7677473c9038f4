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

from .bits import EMPTY, ONE, ZERO, Bits, bit as bit_of
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
from .prefix_sets import check_code, check_indices, symbols_with_codeword


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
    """Codeword (i, s) replaced by ``word(i, s)``; the targets are kept."""
    return CodeTuple(code.alphabet, tuple(
        Table(tuple(word(i, s) for s in code.alphabet), code.tables[i].targets)
        for i in code.table_indices()))


def rotate(code):
    """Move each table's forced first bit across codeword boundaries."""
    forced = [forced_bit(code, i) for i in check_code(code).table_indices()]

    def word(i, s):  # an empty codeword inherits its target's forced bit
        w = code.code(i, s) + forced[code.target(i, s)]
        return w.drop_first() if forced[i] else w
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
        out = EMPTY
        for p in self.parts:
            out = out + p
        return out


def prefix_chain(code, i, s):
    """Chain-decompose the codeword of (table i, symbol s).

    Each strict-prefix codeword must belong to exactly one symbol for the
    chain to be meaningful; a shared one raises AmbiguousChain.
    """
    check_indices(code, i, (s,))
    word = code.code(i, s)
    below = {}
    for s2 in code.alphabet:
        c = code.code(i, s2)
        if c.is_proper_prefix_of(word):
            if c in below:
                raise AmbiguousChain(
                    "table %d: codeword %r of %s is shared by %s" % (
                        i, str(c), code.alphabet.name(s2),
                        code.alphabet.name(below[c])))
            below[c] = s2
    order = sorted(below, key=len)
    chain = tuple(below[c] for c in order) + (s,)
    parts = []
    prev = EMPTY
    for c in order + [word]:
        parts.append(c.strip_prefix(prev))
        prev = c
    return ChainDecomposition(i, chain, tuple(parts))


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
        empties = symbols_with_codeword(code, j, EMPTY)
        if len(empties) == 1:
            j = code.target(j, empties[0])
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
        out = head(i, s, decomp.parts[0])
        for prev, part in zip(decomp.chain, decomp.parts[1:]):
            if len(part) < 2:
                raise NotInClass(family, "table %d, symbol %s: one-bit chain "
                                 "increment" % (i, code.alphabet.name(s)))
            out = out + increment(i, s, prev, part)
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
        return bit_of(steer[i]) + part.head(1) + part.tail_from(2)

    def increment(i, s, prev, part):
        prev_word = code.code(i, prev)
        j = code.target(i, prev)
        opposite = bit_of(1 - steer[j])
        longer = len(sets.strict_continuations(i, prev_word, 1))
        straight = len(sets.strict_continuations(j, EMPTY, 1))
        if longer == 2:
            return opposite + part.head(1) + part.tail_from(2)
        if longer == 1 and straight == 1:
            return opposite + ZERO + part.tail_from(2)
        if longer == 1 and straight == 2 and len(sets.words(2)[j]) == 2:
            # The rewritten increment lands at the head of the whole
            # codeword exactly when the previous chain codeword is empty;
            # only then the filler bit is 1.
            filler = ONE if len(prev_word) == 0 else ZERO
            return opposite + filler + part.tail_from(2)
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
            return ONE
        sibling = str(part.head(1) + bit_of(1 - part[1]))
        if sibling not in pairs:
            return ZERO + ONE + part.tail_from(2)
        return ONE + part.tail_from(1)
    return _rewrite_chains(code, "f2", head, lambda i, s, prev, part:
                           ZERO + ZERO + part.tail_from(2))


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
    codes = []
    for r in range(1, sigma + 1):
        if r == 1:
            codes.append(ZERO + ONE)
        elif r < sigma:
            codes.append(Bits("1" * (r - 1) + "0"))
        else:
            codes.append(Bits("1" * (sigma - 1)))
    second = Table(tuple(codes), tuple(0 for _ in range(sigma)))
    return CodeTuple(code.alphabet, (code.tables[0], second))

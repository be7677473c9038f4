"""Exhaustive search for minimum expected length over bounded spaces.

A space fixes the alphabet size, the exact table count (one or two), a
codeword length bound, and a membership filter.  The searched set is every
assignment of a codeword of length 0..max_len and a next-table index to
every (table, symbol) slot, so its size has the closed form

    ((2**(max_len+1) - 1) * tables) ** (sigma * tables)

and enumerate_min always reports that number as examined: the partition
argument below covers each assignment exactly once, even though most are
rejected wholesale.

No space is walked tuple by tuple (enumerate_min_direct does that, for the
tests).  Instead the search guesses every table's two-bit continuation
set and scans each table's contents independently against the guess: the
guessed sets make every membership condition local to one table.  A guess
is kept only when the per-table unions reproduce it exactly and the delay
conditions hold, and then the guess provably equals the true continuation
sets (any overclaimed element would need support through an emission-free
cycle, which the delay conditions reject), so every tuple survives under
exactly one guess.  Costs factor the same way: the stationary weight of
each table depends only on the next-table choices, so the tables' expected
lengths are minimized independently per guess and target assignment (one
table's cost is its own expected length).

Under f0 only table 0 is walked: no f0 condition reads the table index, so
table 1 under guess (a, b) is table 0 under (b, a) with targets flipped.
The scan shares that table instead of copying it, and the combine flips
the winner's table-1 sids: a bucket's contents share their targets, so
flipping keeps them in the ascending order the combine reads them in.

The combine visits the guesses by a lower bound on their costs: a pair of
tables costs a mean of their two costs weighted by the weight leaving each,
so never less than the least bucket cost of either table.  It stops at the
first guess whose bound is strictly above the best cost: a guess whose
bound equals it may still hold a tie whose contents come first below.

Ties are broken canonically: tables in index order, symbols in alphabet
order, codewords compared by length then lexicographically, then the
next-table index.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .bits import Bits
from .classes import aifv_table_ok, witness
from .core import CodeTuple, Table
from .errors import EmptySpace, InvalidSpace, InvalidType, SearchCheckFailed
from .markov import average_length

FILTERS = ("f0", "aifv")

PAIR_INDEX = {"00": 0, "01": 1, "10": 2, "11": 3}
FULL_MASK = 0b1111
NONZERO_MASK = 0b1110  # 01, 10, 11


@dataclass(frozen=True)
class SearchSpace:
    sigma: int
    tables: int
    max_len: int
    filter: str

    def __post_init__(self):
        for name in ("sigma", "tables", "max_len"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidType("%s must be int, got %r" % (name, value))
        if self.sigma < 2:
            raise InvalidSpace("need at least two symbols")
        if self.tables not in (1, 2):
            raise InvalidSpace("table count must be 1 or 2")
        if self.max_len < 1:
            raise InvalidSpace("max_len must be positive")
        if self.filter not in FILTERS:
            raise InvalidSpace("filter must be one of %s" % (FILTERS,))


@dataclass(frozen=True)
class SearchResult:
    best: CodeTuple
    avg_len: Fraction
    examined: int


def space_size(space):
    """Number of assignments the space contains, in closed form."""
    words = 2 ** (space.max_len + 1) - 1
    return (words * space.tables) ** (space.sigma * space.tables)


def all_words(max_len):
    """Every codeword of length 0..max_len in canonical order."""
    out = [""]
    for length in range(1, max_len + 1):
        out.extend(format(v, "0%db" % length) for v in range(1 << length))
    return out


def canonical_key(code):
    """Sort key realizing the documented tie-break order."""
    return tuple(
        (len(t.codes[s]), str(t.codes[s]), t.targets[s])
        for t in code.tables for s in code.alphabet
    )


def _passes_filter(code, space):
    return witness(space.filter, code) is None


def _build(alphabet, sigma, slots):
    """The tuple whose (codeword, target) slots run table by table."""
    return CodeTuple(alphabet, tuple(Table(*zip(*slots[i:i + sigma]))
                                     for i in range(0, len(slots), sigma)))


def enumerate_min_direct(space, dist):
    """Walk every assignment and keep the best filter-passer.

    Only usable for small spaces; the guessing search must agree with this
    on any space where both run.
    """
    _space_dist(space, dist)
    words = all_words(space.max_len)
    slots = [(Bits(w), t) for w in words for t in range(space.tables)]
    best = None
    examined = 0
    for assignment in itertools.product(slots, repeat=space.sigma * space.tables):
        examined += 1
        code = _build(dist.alphabet, space.sigma, assignment)
        if not _passes_filter(code, space):
            continue
        entry = (average_length(code, dist), canonical_key(code), code)
        if best is None or entry[:2] < best[:2]:
            best = entry
    if examined != space_size(space):
        raise SearchCheckFailed("%s: walked %d assignments of %d" % (
            _describe(space), examined, space_size(space)))
    if best is None:
        raise EmptySpace("no %s" % _describe(space))
    return SearchResult(best[2], best[0], examined)


def _space_dist(space, dist):
    if len(dist.alphabet) != space.sigma:
        raise InvalidSpace("distribution has %d symbols, space wants %d"
                           % (len(dist.alphabet), space.sigma))


_SCAN_CACHE = {}


def enumerate_min(space, dist):
    """The minimum-cost member of the space under the filter."""
    _space_dist(space, dist)
    if space not in _SCAN_CACHE:
        _SCAN_CACHE[space] = _scan(space)
    entry = _combine(space, dist, _SCAN_CACHE[space])
    if entry is None:
        raise EmptySpace("no %s" % _describe(space))
    # The guessing scan is cross-checked in the tests; re-checking the
    # winner keeps a silent scan bug from returning a non-member.
    code = entry[2]
    cost = average_length(code, dist)
    member = _passes_filter(code, space)
    if not member or cost != entry[0]:
        winner = " | ".join(" ".join("%s>%d" % (str(w) or "-", t) for w, t in
                                     zip(table.codes, table.targets))
                            for table in code.tables)
        raise SearchCheckFailed(
            "%s: the scan's winner [%s] %s; scan cost %s, recomputed %s"
            % (_describe(space), winner, "passes the filter" if member
               else "fails the filter", entry[0], cost))
    return SearchResult(code, cost, space_size(space))


def _describe(space):
    return ("%s tuple with %d table%s, %d symbols, codewords up to %d bits"
            % (space.filter, space.tables, "s" * (space.tables != 1),
               space.sigma, space.max_len))


# -- two-table guessing scan -------------------------------------------------
#
# Sets of two-bit strings are 4-bit masks over PAIR_INDEX.  Slot number sid
# encodes (word index, target) as sid = 2 * word_index + target, so
# ascending sid tuples are exactly the canonical order and tuple comparison
# is the tie-break; sets of slots are int bitmasks over sid.


def _contrib(word, mask):
    """Two-bit blocks an emission can start with, given the target's set."""
    if len(word) >= 2:
        return 1 << PAIR_INDEX[word[:2]]
    if len(word) == 1:
        return sum(1 << PAIR_INDEX[word + bit]
                   for bit, firsts in (("0", 0b0011), ("1", 0b1100))
                   if mask & firsts)
    return mask


def _layout(max_len):
    words = all_words(max_len)
    nslots = 2 * len(words)
    lens = [len(words[sid >> 1]) for sid in range(nslots)]
    # each word's contribution under each of the 16 sets a target may guess
    reach = {w: [_contrib(w, mask) for mask in range(16)] for w in words}
    contrib = [reach[words[sid >> 1]] for sid in range(nslots)]
    # (shorter word, slot of a strict extension, the suffix's contributions)
    extensions = [(wi, sid, reach[words[sid >> 1][len(w):]])
                  for wi, w in enumerate(words) for sid in range(nslots)
                  if lens[sid] > len(w) and words[sid >> 1].startswith(w)]
    # a slot's part of the (targets, lenvec) key, and the slots sharing it
    key_of = [2 * lens[sid] + (sid & 1) for sid in range(nslots)]
    same_key = [sum(1 << s for s in range(nslots) if key_of[s] == key)
                for key in key_of]
    return words, lens, contrib, extensions, key_of, same_key


def _scan(space):
    """Per continuation-set guess and table: every passing content.

    Returns {guess: ({targets: {lenvec: sid tuple}}, ...)}, one dict per
    table, where each stored sid tuple is the canonically first content
    with its targets and codeword lengths, in ascending order.  Under f0,
    table 1 under (a, b) is the table 0 under (b, a), shared, not flipped.
    """
    layout = _layout(space.max_len)
    if space.filter == "aifv":  # two tables, and the clauses read the index
        guess = (FULL_MASK, NONZERO_MASK)
        tabs = tuple(_scan_table(space, i, guess, layout)
                     for i in range(space.tables))
        return {guess: tabs} if len(tabs) == 2 and all(tabs) else {}
    if space.tables == 1:  # only target-0 slots, so guess[1] is never read
        return {a: (tab,) for a in range(1, 16)
                if (tab := _scan_table(space, 0, (a, a), layout))}
    tab0 = {(a, b): _scan_table(space, 0, (a, b), layout)
            for a in range(1, 16) for b in range(1, 16)}
    return {(a, b): (tab0[a, b], tab0[b, a])
            for a, b in tab0 if tab0[a, b] and tab0[b, a]}


def _scan_table(space, index, guess, layout):
    """One table's passing contents under a guess, by a depth-first walk.

    Symbols take slots in ascending sid order, so contents appear in
    product order and the first one kept per (targets, lenvec) is the
    canonical one.  Only slots whose contribution lies inside the wanted
    set are tried, never one clashing with an earlier symbol's slot.  The
    last symbol must complete the union to exactly the wanted set, and is
    tried only for keys not yet found after the same head.
    """
    words, lens, by_mask, extensions, key_of, same_key = layout
    nslots = len(key_of)
    contrib = [row[guess[sid & 1]] for sid, row in enumerate(by_mask)]
    # Slots that cannot share a table: one codeword with overlapping target
    # sets, or a strict extension whose suffix can start a pair that the
    # shorter slot's target can start too.
    twin = 1 if guess[0] & guess[1] else 0
    clash = [1 << sid | twin << (sid ^ 1) for sid in range(nslots)]
    for wi, sid, reach in extensions:
        reach = reach[guess[sid & 1]]
        for short in (2 * wi, 2 * wi + 1):
            if reach & guess[short & 1]:
                clash[sid] |= 1 << short
                clash[short] |= 1 << sid
    want = guess[index]
    allowed = sum(1 << sid for sid, c in enumerate(contrib)
                  if not c & ~want and (sid & 1) < space.tables)
    by_pair = {pair: sum(1 << sid for sid, c in enumerate(contrib) if c & pair)
               for pair in (1, 2, 4, 8)}
    cover = [allowed]  # missing pairs -> allowed slots contributing them all
    for need in range(1, 16):
        cover.append(cover[need & need - 1] & by_pair[need & -need])
    aifv = space.filter == "aifv"
    last = space.sigma - 1
    filled = {}  # head key -> slots whose key is already found
    found = {}

    @functools.cache
    def verdict(slots):  # sorted: the clauses ignore symbol order
        return aifv_table_ok(index, [words[s >> 1] for s in slots],
                             [s & 1 for s in slots])

    def finish(options, head_key, head, head_targets, head_lens):
        done = filled.get(head_key, 0)
        while options:
            low = options & -options
            sid = low.bit_length() - 1
            row = head + (sid,)
            if aifv and not verdict(tuple(sorted(row))):
                options ^= low
                continue
            bucket = found.setdefault(head_targets + (sid & 1,), {})
            bucket[head_lens + (lens[sid],)] = row
            done |= same_key[sid]
            options &= ~done
        filled[head_key] = done

    def walk(pos, cand, union, head_key, head, head_targets, head_lens):
        base = head_key * nslots  # base > any part
        deeper = pos + 1 < last
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            sid = low.bit_length() - 1
            key = base + key_of[sid]
            if deeper:
                walk(pos + 1, cand & ~clash[sid], union | contrib[sid], key,
                     head + (sid,), head_targets + (sid & 1,),
                     head_lens + (lens[sid],))
            elif options := (cand & ~clash[sid] & ~filled.get(key, 0)
                             & cover[want & ~(union | contrib[sid])]):
                finish(options, key, head + (sid,), head_targets + (sid & 1,),
                       head_lens + (lens[sid],))

    walk(0, allowed, 0, 0, (), (), ())
    return found


def _combine(space, dist, scan):
    """Cheapest (guess, targets, contents) combo for this distribution.

    Probabilities become integer weights scaled by the lcm of their
    denominators, and costs are compared as cross-multiplied fractions.
    A bucket's contents ascend in dict order, so it is summarized as (min
    cost, weight leaving, canonical content at min cost, canonical content)
    by lookups, once per stored table: an f0 table read as table 1 leaves
    by its own targets' ones, so one summary serves both positions.

    Guesses are visited by the least bucket cost of either table, a lower
    bound on their pairs' costs, until it is strictly above the best cost;
    only then is no tie left that could win on contents.  Pairs strictly
    above the best are skipped before their contents are joined.
    """
    words = all_words(space.max_len)
    scale, weight = dist.integer_weights()
    cost = {lenvec: sum(w * n for w, n in zip(weight, lenvec))
            for lenvec in itertools.product(range(space.max_len + 1),
                                            repeat=space.sigma)}
    # weight sent to table 1 per target vector; the weights sum to scale
    ones = {targets: sum(w for w, t in zip(weight, targets) if t)
            for targets in itertools.product((0, 1), repeat=space.sigma)}
    flip = space.filter == "f0"  # table 1 is a table 0 with targets flipped
    # weight leaving each table: table 0's switches, table 1's returns
    leaving = (ones, ones if flip else
               {targets: scale - w for targets, w in ones.items()})
    summaries = {}  # by table identity: an f0 table serves two guesses

    def summarize(table, leave):  # (low, leave, at, any), least first
        ats = ((t, b, min(b, key=cost.__getitem__)) for t, b in table.items())
        return sorted((cost[at], leave[t], b[at], next(iter(b.values())))
                      for t, b, at in ats)

    guesses = [(min(s[0][0] for s in sums), sums) for sums in
               ([summaries[id(t)] if id(t) in summaries else
                 summaries.setdefault(id(t), summarize(t, leave))
                 for t, leave in zip(tabs, leaving)]
                for tabs in scan.values())]
    guesses.sort(key=lambda guess: guess[0])
    best = (1, 0, None)  # (numerator, denominator, content); 1/0 is above all
    for bound, sums in guesses:
        if bound * best[1] > best[0]:  # strictly: ties go to the contents
            break
        if len(sums) == 1:  # all targets 0: one bucket, the table's cost
            low, _, at, _ = sums[0][0]
            ahead = low * best[1] - best[0]
            if ahead < 0 or ahead == 0 and at < best[2]:
                best = (low, 1, at)
            continue
        for low0, leave0, at0, any0 in sums[0]:
            for low1, leave1, at1, any1 in sums[1]:
                total = leave0 + leave1
                if total == 0:
                    continue  # the two tables never mix: not regular
                num = leave1 * low0 + leave0 * low1
                ahead = num * best[1] - best[0] * total
                if ahead > 0:
                    continue
                half = at1 if leave0 > 0 else any1
                pick = (at0 if leave1 > 0 else any0) + \
                    (tuple([sid ^ 1 for sid in half]) if flip else half)
                if ahead < 0 or pick < best[2]:
                    best = (num, total, pick)
    if best[2] is None:
        return None
    return (Fraction(best[0], best[1] * scale), best[2],
            _build(dist.alphabet, space.sigma,
                   [(Bits(words[sid >> 1]), sid & 1) for sid in best[2]]))


# -- baseline ----------------------------------------------------------------


def huffman_length(dist):
    """Optimal single-codeword lengths and cost for instant decoding.

    Merging always takes the two lowest weights, breaking ties toward the
    earliest-created node, so the result is deterministic.
    """
    n = len(dist.alphabet)
    if n == 1:
        return (0,), Fraction(0)
    nodes = [(dist.probs[s], s, (s,)) for s in dist.alphabet]
    depth = [0] * n
    order = n
    while len(nodes) > 1:
        nodes.sort(key=lambda e: (e[0], e[1]))
        (p1, _, m1), (p2, _, m2) = nodes[0], nodes[1]
        for s in m1 + m2:
            depth[s] += 1
        nodes = nodes[2:] + [(p1 + p2, order, m1 + m2)]
        order += 1
    lengths = tuple(depth)
    cost = sum(dist.probs[s] * lengths[s] for s in dist.alphabet)
    return lengths, cost


@dataclass(frozen=True)
class ComparisonReport:
    space: SearchSpace
    aifv_len: Fraction
    huffman_len: Fraction
    huffman_lengths: tuple
    gap: Fraction
    note: str

    @property
    def aifv_wins_or_ties(self):
        return self.aifv_len <= self.huffman_len


def compare_aifv_huffman(space, dist):
    """Best two-table tuple against the single-codeword optimum.

    The two-table best can only be claimed at least as good when the space
    is wide enough to embed the single-codeword optimum; otherwise the
    report carries a note instead of a claim.
    """
    if space.tables != 2:
        raise InvalidSpace("the comparison needs a two-table space")
    space = dataclasses.replace(space, filter="aifv")
    lengths, huff = huffman_length(dist)
    result = enumerate_min(space, dist)
    note = ""
    if max(lengths) > space.max_len:
        note = ("length bound %d below the instant optimum's longest "
                "codeword %d" % (space.max_len, max(lengths)))
    return ComparisonReport(space, result.avg_len, huff, lengths,
                            huff - result.avg_len, note)

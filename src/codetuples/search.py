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
tests).  Instead the search guesses every table's K-bit continuation set
(K = 2) and scans each table's contents independently against the guess: the
guessed sets make every membership condition local to one table.  A guess
is kept only when the per-table unions reproduce it exactly and the delay
conditions hold, and then the guess provably equals the true continuation
sets (any overclaimed element would need support through an emission-free
cycle, which the delay conditions reject), so every tuple survives under
exactly one guess.  Costs factor the same way: the stationary weight of
each table depends only on the next-table choices, so the tables' expected
lengths are minimized independently per guess and target assignment (one
table's cost is its own expected length).  So a table's bucket (one target
vector) keeps its first content and each length vector no other dominates.

Under f0 only table 0 is walked: no f0 condition reads the table index, so
table 1 under guess (a, b) is table 0 under (b, a) with targets flipped.
The scan shares that table instead of copying it, and the combine flips
the winner's table-1 sids: a bucket's contents share their targets, so
flipping keeps them in the ascending order the combine reads them in.

Complementing every bit of every codeword keeps f0 membership, targets
and codeword lengths, and maps guess (a, b) to its mirror, with each block
swapped for its complement.  So table 0 under a guess and under its
mirror have the same buckets and the same least costs, and the scan walks
one guess per orbit: 117 of the 225 guesses, 9 of 15 for one table.  The
canonical contents differ: complementing reverses the order of the words
of one length, so a mirror's first content is the complement of its orbit
walk's last one, which the walk does not keep.  The combine walks a
mirror guess only when it reads its contents, for a pair at the best
cost, and the walk stays in the cached scan for later distributions.

Under aifv both tables are walked under the one aifv guess, whose masks
imply every aifv clause but (iv)'s demand that a target-1 word be a proper
prefix of another word of its table and (vii)'s that a window with one
possible next bit be a codeword or one plus one bit.  The walk decides both
with word masks as it carries the union (see the proof above _layout).

The combine visits the guesses by a lower bound on their costs: a pair of
tables costs a mean of their two costs weighted by the weight leaving each,
so never less than the least bucket cost of either table.  It stops at the
first guess whose bound is strictly above the best cost: a guess whose
bound equals it may still hold a tie whose contents come first below.  A
guess is joined only when its rows, priced at the best cost as in the cost
parameter of Yamamoto, Tsuchihashi and Honda's AIFV iteration (Dinkelbach's
method), can reach it (_reaches); contents are read only at the tie-break.

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
from .classes import FULL_MASK, K, NONZERO_MASK, witness
from .core import CodeTuple, SourceDist, Table
from .errors import EmptySpace, InvalidSpace, SearchCheckFailed
from .markov import average_length
from .prefix_sets import check_int, check_type, emits

FILTERS = ("f0", "aifv")

BLOCKS = 1 << K  # the K-bit blocks a guessed set may hold
GUESSES = range(1, FULL_MASK + 1)  # the non-empty sets a table may guess
AIFV_GUESS = (FULL_MASK, NONZERO_MASK)  # the sets an aifv tuple's tables have
# complementing every bit maps block n to BLOCKS - 1 - n: a set's mirror
MIRROR = [int(format(mask, "0%db" % BLOCKS)[::-1], 2)
          for mask in range(FULL_MASK + 1)]


@dataclass(frozen=True)
class SearchSpace:
    sigma: int
    tables: int
    max_len: int
    filter: str

    def __post_init__(self):
        for name in ("sigma", "tables", "max_len"):
            check_int(name, getattr(self, name))
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
    words = 2 ** (check_type("space", space, SearchSpace).max_len + 1) - 1
    return (words * space.tables) ** (space.sigma * space.tables)


def all_words(max_len):
    """Every codeword of length 0..max_len in canonical order."""
    out = [""]
    for length in range(1, max_len + 1):
        out.extend(format(v, "0%db" % length) for v in range(1 << length))
    return out


def canonical_key(code):
    """Sort key realizing the documented tie-break order."""
    return tuple((len(t.codes[s]), str(t.codes[s]), t.targets[s])
                 for t in code.tables for s in code.alphabet)


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
    check_type("space", space, SearchSpace)
    if len(check_type("dist", dist, SourceDist).alphabet) != space.sigma:
        raise InvalidSpace("distribution has %d symbols, space wants %d"
                           % (len(dist.alphabet), space.sigma))


_SCAN_CACHE = {}  # kept until the benchmark's warm reuse calls a scan API


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


# -- guessing scan -----------------------------------------------------------
#
# A guessed set of K-bit blocks is a mask as prefix_sets counts them, bit
# int(c, 2) per block c.  Slot number sid encodes (word index, target) as
# sid = 2 * word_index + target, so ascending sid tuples are exactly the
# canonical order and tuple comparison is the tie-break; sets of slots are
# int bitmasks over sid.


def _unions(parts):
    """The union of every subset of parts, indexed by the subset's bitmask."""
    out = [0]
    for part in parts:
        out += [x | part for x in out]
    return out


def _prefix_levels(mask):
    """Levels 0..K of a table whose K-bit set is ``mask``: its blocks'
    prefixes.  A member is extendable, so every shorter emission goes on to
    K bits, and a level holds exactly those prefixes."""
    heads = [p for p in range(BLOCKS) if mask >> p & 1]
    return [sum(1 << q for q in {p >> K - n for p in heads})
            for n in range(K + 1)]


# A suffix emits what its first K bits do, its gate.  Per set a target may
# guess, _EMITTED has what each gate emits.  A word and its extension clash
# when the suffix's gate, under the longer slot's set, emits a block of the
# shorter's: _CLASHING[longer set][shorter set] has those gates, the union
# of the gates emitting each block.  None of it depends on the space.
_GATES = {gate: n for n, gate in enumerate(all_words(K))}
_EMITTED = [[emits(gate, levels, K) for gate in _GATES]
            for levels in map(_prefix_levels, range(FULL_MASK + 1))]
_CLASHING = [_unions([sum(1 << n for n, sent in enumerate(row)
                          if sent >> b & 1) for b in range(BLOCKS)])
             for row in _EMITTED]

# Under the aifv guess the guess masks and clash decide five aifv clauses
# and half of a sixth.  Table 0 guesses every block and table 1 every block
# but 00, so both targets' level-1 sets are {0, 1}.  A slot (u, t) and
# another slot whose word is u + s clash when what the other emits after u
# meets t's set: the other target's whole set for s empty, s0 and s1 for
# one bit s, and s[:2] for more bits.  The two sets meet, so no two slots
# share a word: (i).  Target 0's set has every block, so its word is no
# other word's prefix: the target-0 half of (iv), and (ii) and (iii) for it.
# Target 1's set has every block but 00, so every word extending its word
# u starts with u00: no word u0 (iii), and none starting u1 or u01 (ii).
# Table 1 allows no slot that can emit 00: no word starting 00 (vi), no
# word 0 (it emits 00 and 01) and no empty word with target 0 (it emits
# 00); an empty word with target 1 could share the table only with words
# starting 00, and there is another symbol: (v).  The walk decides the
# rest with _layout's word masks: the target-1 half of (iv) by the words it
# owes an extension, and (vii) by the one-way windows that follow marks,
# which near must cover.  tests/test_search.py pins this at small sizes.


def _layout(max_len):
    words = all_words(max_len)
    lens = [len(w) for w in words for _ in "01"]
    evens = int("01" * len(words), 2)  # the target-0 slots
    # per set a target may guess: each word's contribution, its gate's, and
    # the target-0 slots meeting each set of blocks, those of the words
    # whose gates emit one
    gate = [_GATES[w[:K]] for w in words]
    reach = [[row[n] for n in gate] for row in _EMITTED]
    slots = [sum(4 ** wi for wi, g in enumerate(gate) if g == n)
             for n in _GATES.values()]
    hits = [_unions([sum(slots[n] for n, sent in enumerate(row)
                         if sent >> b & 1) for b in range(BLOCKS)])
            for row in _EMITTED]
    # up (down)[word][gates] has the prefixes (extensions) behind the gates
    up, down = ([[0] * len(_GATES) for _ in words] for _ in "ud")
    for (ui, u), (vi, v) in itertools.product(enumerate(words), repeat=2):
        if v.startswith(u):
            n = _GATES[v[len(u):len(u) + K]]
            up[vi][n] |= 1 << 2 * ui
            down[ui][n] |= 1 << 2 * vi
    up, down = ([_unions(row) for row in rows] for rows in (up, down))
    # a slot's part of the (targets, lenvec) key, the slots sharing it, and
    # the slots it dominates
    key_of = [2 * n + (sid & 1) for sid, n in enumerate(lens)]
    group = [sum(1 << sid for sid, part in enumerate(key_of) if part == n)
             for n in range(2 * max_len + 2)]
    tail = [evens << (sid & 1) >> lens.index(n) << lens.index(n)
            for sid, n in enumerate(lens)]
    # per word: the slots strictly extending it; per proper prefix p, bit
    # 2 * index(p) + the bit after p in the word; and the target-0 slots of
    # it and of it plus one bit, the windows (vii) lets be one-way
    longer = [(down[wi][-1] & ~(1 << 2 * wi)) * 3 for wi in range(len(words))]
    at = {w: 2 * wi for wi, w in enumerate(words)}
    follow = [sum(1 << at[w[:n]] + int(w[n]) for n in range(len(w)))
              for w in words]
    near = [sum(1 << at[v] for v in (w, w + "0", w + "1") if v in at)
            for w in words]
    return (words, lens, evens, reach, hits, up, down, key_of, group, tail,
            longer, follow, near)


class _Tables(dict):
    """Walked tables by walk key (index, guess), walking a missing one."""

    def __init__(self, space):
        self.space, self.layout = space, _layout(space.max_len)

    def __missing__(self, key):
        table = self[key] = _scan_table(self.space, *key, self.layout)
        return table


def _scan(space):
    """Per continuation-set guess and table: every passing content.

    Returns (guesses, tables).  guesses maps each kept guess to a (key,
    orbit key) pair per table: key (index, guess) names the walk that
    gives the table, the orbit key the walk with the same buckets and
    costs.  tables maps a walk key to {targets: {lenvec: sid tuple}} and
    walks a missing key when it is first read.  A bucket (targets) holds
    its first lenvec and every one that no other in it dominates, each
    with the canonically first content with those targets and codeword
    lengths, in ascending order.  Under f0, table 1 under (a, b) is the
    table 0 under (b, a), shared, not flipped, and only the orbit keys are
    walked here, the least guess of each complement orbit.
    """
    tables = _Tables(space)
    if space.filter == "aifv":  # two tables, and the clauses read the index
        cells = tuple(((i, AIFV_GUESS),) * 2 for i in range(2))
        kept = space.tables == 2 and all(tables[key] for key, _ in cells)
        return {AIFV_GUESS: cells} if kept else {}, tables

    def cell(walk):  # an f0 table is a table 0, costed by its orbit's walk
        mirror = (MIRROR[walk[0]], MIRROR[walk[1]])
        return (0, walk), (0, min(walk, mirror))

    if space.tables == 1:  # only target-0 slots, so guess[1] is never read
        every = {a: (cell((a, a)),) for a in GUESSES}
    else:
        every = {(a, b): (cell((a, b)), cell((b, a)))
                 for a in GUESSES for b in GUESSES}
    return {guess: cells for guess, cells in every.items()
            if all(tables[orbit] for _, orbit in cells)}, tables


def _masks(space, index, guess, layout):
    """Table index's masks under a guess: each slot's contribution, the
    slots each slot clashes with, the slots allowed, and per set of missing
    blocks the allowed slots giving them all."""
    words, _, evens, reach, hits, up, down, *_ = layout
    contrib = [c for pair in zip(*(reach[g] for g in guess)) for c in pair]
    # slots that cannot share a table, by the gates that clash
    gates = [[_CLASHING[long][short] for short in guess] for long in guess]
    clash = [(up[wi][gates[t][t]] | down[wi][gates[t][t]]) << t
             | (up[wi][gates[t][1 - t]] | down[wi][gates[1 - t][t]]) << 1 - t
             for wi in range(len(words)) for t in (0, 1)]
    hit = [h0 | h1 << 1 for h0, h1 in zip(hits[guess[0]], hits[guess[1]])]
    allowed = (evens if space.tables == 1 else evens * 3) \
        & ~hit[FULL_MASK & ~guess[index]]
    cover = [allowed & ~miss
             for miss in _unions([~hit[1 << n] for n in range(BLOCKS)])]
    return contrib, clash, allowed, cover


def _scan_table(space, index, guess, layout):
    """One table's passing contents under a guess, by a depth-first walk.

    Symbols take slots in ascending sid order, so contents appear in
    product order and the first one kept per (targets, lenvec) is the
    canonical one.  Only slots whose contribution lies inside the wanted
    set are tried, never one clashing with an earlier symbol's slot.  The
    last symbol must complete the union to exactly the wanted set; per
    target it takes only a slot shorter than any taken after the same head
    key, since a longer one only adds a dominated lenvec; once every
    candidate is found or dominated after a head key, the heads with that
    key are skipped, every slot of the (target, length) at once.  Under
    aifv, walked under the aifv guess only, the walk also decides clauses
    (iv) and (vii), and a target-1 slot no allowed slot can extend is
    never tried: see the proof above _layout.
    """
    lens, evens, *_, key_of, group, tail, longer, follow, near = layout[1:]
    contrib, clash, allowed, cover = _masks(space, index, guess, layout)
    want, aifv, last = guess[index], space.filter == "aifv", space.sigma - 1
    filled = {}  # head key -> slots found or dominated after it
    found = {}

    if aifv:
        @functools.cache
        def extending(owed):  # the slots strictly extending every owed word
            out = -1
            while owed:
                low = owed & -owed
                out &= longer[low.bit_length() >> 1]
                owed ^= low
            return out

        def windows_near(options, after, covered):  # (vii): see walk
            out = options
            while options:
                low = options & -options
                options ^= low
                wi = low.bit_length() - 1 >> 1
                ahead = after | follow[wi]
                if (ahead ^ ahead >> 1) & evens & ~(covered | near[wi]):
                    out ^= low
            return out

        # a target-1 word that no allowed slot can extend is never paid
        allowed &= ~sum(1 << sid for sid in range(1, len(lens), 2)
                        if not longer[sid >> 1] & allowed & ~clash[sid])

    # Under aifv, owed has the target-0 slots of the target-1 words no taken
    # word extends yet, after the OR of their follow masks and covered that
    # of their near masks, and window 0 in table 1.  The last word must
    # extend every owed word, take target 1 only on a proper prefix of a
    # taken word, (after | after >> 1) & evens, and leave each one-way
    # window, (after ^ after >> 1) & evens, covered.
    def walk(pos, cand, union, owed, after, covered, head_key, head,
             head_targets, head_lens):
        base = head_key * len(key_of)  # base > any part
        deeper = pos + 1 < last
        rest, now_owed, now_after, now_covered = cand, 0, 0, 0
        while rest:
            low = rest & -rest
            rest ^= low
            sid = low.bit_length() - 1
            key = base + key_of[sid]
            if aifv:
                ahead = follow[sid >> 1]
                now_owed = (owed & ~(ahead | ahead >> 1)
                            | (low >> 1 & ~(after | after >> 1)) * (sid & 1))
                now_after = after | ahead
                now_covered = covered | near[sid >> 1]
            if deeper:
                walk(pos + 1, cand & ~clash[sid], union | contrib[sid],
                     now_owed, now_after, now_covered, key, head + (sid,),
                     head_targets + (sid & 1,), head_lens + (lens[sid],))
            elif cand & ~(done := filled.get(key, 0)):
                options = (cand & ~clash[sid] & ~done
                           & cover[want & ~(union | contrib[sid])])
                if aifv and options:
                    options = windows_near(
                        options & extending(now_owed)
                        & (evens | (now_after | now_after >> 1) << 1),
                        now_after, now_covered)
                while options:  # store each option, shortest first
                    low = options & -options
                    end = low.bit_length() - 1
                    found.setdefault(head_targets + (sid & 1, end & 1), {})[
                        head_lens + (lens[sid], lens[end])] = head + (sid, end)
                    done |= tail[end]
                    options &= ~done
                filled[key] = done
            else:  # every candidate taken or dominated after this head key
                rest &= ~group[key_of[sid]]

    walk(0, allowed, 0, 0, 0, 4 * index, 0, (), (), ())  # window 0: word 1
    return found


def _reaches(rows0, rows1, num, den):
    """Whether a pair of rows (cost, weight leaving, targets), one per
    table, costs at most num / den.  Priced at a = cost * den - num, it
    does when l1 * a0 + l0 * a1 <= 0 < l0 + l1, the join's test: for two
    leaving rows a0 / l0 + a1 / l1 <= 0, which the least a / l of each
    table decide, and for a staying one (l0 = 0) a0 <= 0."""
    ends = []
    for rows in (rows0, rows1):
        a, l, stays = 1, 0, False  # least a / l over leaving rows, from 1/0
        for cost, leave, _ in rows:
            price = cost * den - num
            if not leave:
                stays = stays or price <= 0
            elif price * l < a * leave:
                a, l = price, leave
        ends.append((a, l, stays))
    (a0, l0, s0), (a1, l1, s1) = ends
    return (s0 and l1 > 0 or s1 and l0 > 0
            or l0 > 0 and l1 > 0 and a0 * l1 + a1 * l0 <= 0)


def _combine(space, dist, scan):
    """Cheapest (guess, targets, contents) combo for this distribution.

    Probabilities become integer weights scaled by the lcm of their
    denominators, and costs are compared as cross-multiplied fractions.
    A walked table is summarized once, per bucket as its least cost, weight
    leaving and targets, and read for its orbit (same buckets and least
    costs); an f0 table read as table 1 leaves by its own targets' ones.
    Guesses are visited by the least bucket cost of either table, a lower
    bound on their pairs' costs, until it is strictly above the best cost,
    and joined only when the price test (_reaches) passes.  The pairs at
    the best cost are kept as (key, targets, unused) parts, read only at
    the tie-break, table 0's first and table 1's only for the ties whose
    table 0 is least: from each table's own walk (a mirror is walked there,
    once per scan), the bucket's first content at the least cost, or its
    first when the table is unused.
    """
    guesses, tables = scan
    words = all_words(space.max_len)
    scale, weight = dist.integer_weights()
    cost = {lenvec: sum(w * n for w, n in zip(weight, lenvec))
            for lenvec in itertools.product(range(space.max_len + 1),
                                            repeat=space.sigma)}
    # weight sent to table 1 per target vector; the weights sum to scale
    ones = {targets: sum(w for w, t in zip(weight, targets) if t)
            for targets in itertools.product((0, 1), repeat=space.sigma)}
    flip = space.filter == "f0"  # table 1 is a table 0 with targets flipped
    # weight leaving a table walked as table 0 (its switches) or 1 (its
    # returns); an f0 table is always walked as table 0
    leaving = (ones, {targets: scale - w for targets, w in ones.items()})
    summaries = {}  # by walk key

    def summary(key):  # (least cost, [(cost, leave, targets)] per bucket)
        if key not in summaries:
            rows = [(min(map(cost.__getitem__, b)), leaving[key[0]][t], t)
                    for t, b in tables[key].items()]
            summaries[key] = (min(rows)[0], rows)
        return summaries[key]

    order = sorted(((min(summary(orbit)[0] for _, orbit in cells), cells)
                    for cells in guesses.values()), key=lambda guess: guess[0])
    best = (1, 0, [])  # (numerator, denominator, tied parts); 1/0 is above all
    for bound, cells in order:
        if bound * best[1] > best[0]:  # strictly: ties go to the contents
            break
        (key0, orbit0), *rest = cells
        if not rest:  # all targets 0: one bucket, the table's cost
            (low, _, targets), = summary(orbit0)[1]
            ahead = low * best[1] - best[0]
            if ahead < 0:
                best = (low, 1, [])
            if ahead <= 0:
                best[2].append(((key0, targets, False),))
            continue
        (key1, orbit1), = rest
        rows0, rows1 = summary(orbit0)[1], summary(orbit1)[1]
        if not _reaches(rows0, rows1, best[0], best[1]):
            continue
        for low0, leave0, t0 in rows0:
            for low1, leave1, t1 in rows1:
                total = leave0 + leave1
                if total == 0:
                    continue  # the two tables never mix: not regular
                num = leave1 * low0 + leave0 * low1
                ahead = num * best[1] - best[0] * total
                if ahead > 0:
                    continue
                if ahead < 0:
                    best = (num, total, [])
                best[2].append(((key0, t0, leave1 == 0),
                                (key1, t1, leave0 == 0)))
    if not best[2]:
        return None
    pick, tied = (), best[2]
    for i in range(len(tied[0])):  # table by table, each part read once
        read = dict.fromkeys(part[i] for part in tied)
        for key, targets, unused in read:
            bucket = tables[key][targets]
            row = bucket[next(iter(bucket)) if unused
                         else min(bucket, key=cost.__getitem__)]
            read[key, targets, unused] = \
                tuple([sid ^ 1 for sid in row]) if i and flip else row
        pick += (least := min(read.values()))
        tied = [part for part in tied if read[part[i]] == least]
    return (Fraction(best[0], best[1] * scale), pick,
            _build(dist.alphabet, space.sigma,
                   [(Bits(words[sid >> 1]), sid & 1) for sid in pick]))


# -- baseline ----------------------------------------------------------------


def huffman_length(dist):
    """Optimal single-codeword lengths and cost for instant decoding.

    Merging always takes the two lowest weights, breaking ties toward the
    earliest-created node, so the result is deterministic.
    """
    n = len(check_type("dist", dist, SourceDist).alphabet)
    scale, weights = dist.integer_weights()
    nodes = [(w, s, (s,)) for s, w in enumerate(weights)]
    depth, order = [0] * n, n
    while len(nodes) > 1:
        nodes.sort()  # by weight, then creation order, which is unique
        (p1, _, m1), (p2, _, m2) = nodes[0], nodes[1]
        for s in m1 + m2:
            depth[s] += 1
        nodes = nodes[2:] + [(p1 + p2, order, m1 + m2)]
        order += 1
    cost = sum(w * d for w, d in zip(weights, depth))
    return tuple(depth), Fraction(cost, scale)


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
    if check_type("space", space, SearchSpace).tables != 2:
        raise InvalidSpace("the comparison needs a two-table space")
    space = dataclasses.replace(space, filter="aifv")
    lengths, huff = huffman_length(dist)
    result = enumerate_min(space, dist)
    note = ("length bound %d below the instant optimum's longest codeword %d"
            % (space.max_len, max(lengths)) if max(lengths) > space.max_len
            else "")
    return ComparisonReport(space, result.avg_len, huff, lengths,
                            huff - result.avg_len, note)

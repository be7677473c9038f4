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
vector) keeps its first content and each length vector no other dominates,
and the few dominated ones the walk cannot drop cheaply: (3,2,3,f0) stores
3,726 entries, of which 3,450 are a bucket's first or Pareto-minimal.
The scan packs targets, length vectors and contents into ints (see _Scan).

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
walk's last one, which the walk does not keep.  The combine walks a mirror
at the tie-break, a used table only over its least-cost lenvecs' (length,
target) pairs: Pareto-minimal, they keep their first contents.

Under aifv both tables are walked under the one aifv guess, whose masks
imply every aifv clause but (iv)'s demand that a target-1 word be a proper
prefix of another word of its table and (vii)'s that a window with one
possible next bit be a codeword or one plus one bit.  The walk decides both
with word masks as it carries the union (see the proof above _Scan).

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
TABLES = (1, 2)  # the table counts a space may have

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
        if self.tables not in TABLES:
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
        _SCAN_CACHE[space] = _Scan(space)
    entry = _combine(dist, _SCAN_CACHE[space])
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
# int bitmasks over sid.  The scan packs contents, target vectors and
# length vectors into ints (see _Scan).


def _width(max_len):
    """Bits per sid in a packed content: enough for the largest sid."""
    return (2 * (2 ** (max_len + 1) - 1) - 1).bit_length()


def _unpack(row, sigma, width):
    """The sid tuple of a packed content."""
    return tuple(row >> width * pos & (1 << width) - 1
                 for pos in reversed(range(sigma)))


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
# rest with the scan's word masks: the target-1 half of (iv) by the words
# it owes an extension, and (vii) by the one-way windows that follow marks,
# which near must cover.  tests/test_search.py pins this at small sizes.


class _Scan(dict):
    """Per continuation-set guess and table: every passing content.

    Built once per space: its word masks as named attributes, then
    guesses, which maps each kept guess to a (key, orbit key) pair per
    table: key (index, guess) names the walk that gives the table, the
    orbit key the walk with the same buckets and costs.  The scan maps a
    walk key to {targets: {lenvec: content}} and walks a missing key when
    it is first read; one that walked nothing is an empty dict.  All three
    are packed ints: targets bit i is symbol i's target, a lenvec is the
    sum of l_i * (max_len + 1) ** i, and a content holds symbol i's sid in
    width bits from bit width * (sigma - 1 - i), so contents compare as
    their sid tuples do.  A bucket (targets) holds, per lengths of the
    first sigma - 1 symbols, each last length shorter than every one
    stored before it with them or, before they were first walked, with
    lengths one bit shorter for one of those symbols: its first lenvec,
    every one that no other in it dominates, and a few that a vector with
    other head lengths dominates.  Each comes with the canonically first
    content with those targets and codeword lengths, in ascending order.
    Under f0, table 1 under (a, b) is the table 0 under (b, a), shared,
    not flipped, and only the orbit keys are walked here, the least guess
    of each complement orbit, then the combine's mirrors: (index,
    guess[, keep]).
    """

    def __init__(self, space):
        self.space, self.width = space, _width(space.max_len)
        self.words = words = all_words(space.max_len)
        self.lens = lens = [len(w) for w in words for _ in "01"]
        self.evens = evens = int("01" * len(words), 2)  # the target-0 slots
        # per set a target may guess: each word's contribution, its gate's, and
        # the target-0 slots meeting each set of blocks, those of the words
        # whose gates emit one
        gate = [_GATES[w[:K]] for w in words]
        self.reach = [[row[n] for n in gate] for row in _EMITTED]
        slots = [sum(4 ** wi for wi, g in enumerate(gate) if g == n)
                 for n in _GATES.values()]
        self.hits = [_unions([sum(slots[n] for n, sent in enumerate(row)
                                  if sent >> b & 1) for b in range(BLOCKS)])
                     for row in _EMITTED]
        # up (down)[gates][word] has the prefixes (extensions) behind gates
        up, down = ([[0] * len(_GATES) for _ in words] for _ in "ud")
        for (ui, u), (vi, v) in itertools.product(enumerate(words), repeat=2):
            if v.startswith(u):
                n = _GATES[v[len(u):len(u) + K]]
                up[vi][n] |= 1 << 2 * ui
                down[ui][n] |= 1 << 2 * vi
        self.up, self.down = up, down = [list(zip(*map(_unions, rows)))
                                         for rows in (up, down)]
        # a slot's part of the (targets, lenvec) key, the slots sharing it, and
        # the slots it dominates
        self.key_of = key_of = [2 * n + (sid & 1)
                                for sid, n in enumerate(lens)]
        self.group = [sum(1 << sid for sid, part in enumerate(key_of)
                          if part == n) for n in range(2 * space.max_len + 2)]
        self.tail = [evens << (sid & 1) >> lens.index(n) << lens.index(n)
                     for sid, n in enumerate(lens)]
        # per word: the slots strictly extending it; per proper prefix p, bit
        # 2 * index(p) + the bit after p in the word; and the target-0 slots of
        # it and of it plus one bit, the windows (vii) lets be one-way
        self.longer = [(down[-1][wi] & ~(1 << 2 * wi)) * 3
                       for wi in range(len(words))]
        at = {w: 2 * wi for wi, w in enumerate(words)}
        self.follow = [sum(1 << at[w[:n]] + int(w[n]) for n in range(len(w)))
                       for w in words]
        self.near = [sum(1 << at[v] for v in (w, w + "0", w + "1") if v in at)
                     for w in words]
        if space.filter == "aifv":  # two tables, the clauses read the index
            cells = tuple(((i, AIFV_GUESS),) * 2 for i in range(2))
            kept = space.tables == 2 and all(self[key] for key, _ in cells)
            self.guesses = {AIFV_GUESS: cells} if kept else {}
            return

        # an f0 table is a table 0, costed by its orbit's walk
        cell = {(a, b): ((0, (a, b)), (0, min((a, b), (MIRROR[a], MIRROR[b]))))
                for a, b in itertools.product(GUESSES, repeat=2)}
        if space.tables == 1:  # only target-0 slots, so guess[1] is never read
            every = {a: (cell[a, a],) for a in GUESSES}
        else:
            every = {(a, b): (cell[a, b], cell[b, a]) for a, b in cell}
        self.guesses = {guess: cells for guess, cells in every.items()
                        if all(self[orbit] for _, orbit in cells)}

    def __missing__(self, key):
        table = self[key] = self._walk(*key)
        return table

    def _masks(self, index, guess, keep=-1):
        """Table index's masks under a guess: each slot's contribution, the
        slots each slot clashes with, the slots allowed (within keep), and
        per set of missing blocks the allowed slots giving them all."""
        evens, hits, up, down = self.evens, self.hits, self.up, self.down
        (a, ca), (b, cb) = ((g, _CLASHING[g]) for g in guess)
        contrib, clash = [0] * len(self.lens), [0] * len(self.lens)
        contrib[::2], contrib[1::2] = self.reach[a], self.reach[b]
        # slots that cannot share a table, by the gates that clash
        clash[::2] = [u | d | (x | y) << 1 for u, d, x, y in zip(
            up[ca[a]], down[ca[a]], up[ca[b]], down[cb[a]])]
        clash[1::2] = [(u | d) << 1 | x | y for u, d, x, y in zip(
            up[cb[b]], down[cb[b]], up[cb[a]], down[ca[b]])]
        h0, h1 = hits[a], hits[b]
        allowed = (evens if self.space.tables == 1 else evens * 3) & keep & ~(
            h0[miss := FULL_MASK & ~guess[index]] | h1[miss] << 1)
        cover = [allowed]  # by De Morgan: AND the hits of the missing blocks
        for hit in [h0[1 << n] | h1[1 << n] << 1 for n in range(BLOCKS)]:
            cover += [c & hit for c in cover]
        return contrib, clash, allowed, cover

    def _walk(self, index, guess, keep=-1):
        """One table's passing contents under a guess, by a depth-first walk.

        Symbols take slots in ascending sid order, so contents appear in
        product order and the first one kept per (targets, lenvec) is the
        canonical one.  Only slots in keep whose contribution lies inside the
        wanted set are tried, never one clashing with an earlier symbol's
        slot.  The last symbol must complete the union to exactly the wanted
        set; per target it takes only a slot shorter than any taken after
        the same head key or, when the key is first read, after a key with
        the same targets and one bit less in one place, since a longer one
        only adds a dominated lenvec; once every candidate is found or
        dominated after a head key, the heads with that key are skipped,
        every slot of the (target, length) at once.  Under aifv, walked
        under the aifv guess only, the walk also decides clauses (iv) and
        (vii), and a target-1 slot no allowed slot can extend is never
        tried: see the proof above _Scan.
        """
        space, lens, evens = self.space, self.lens, self.evens
        key_of, group, tail = self.key_of, self.group, self.tail
        longer, follow, near = self.longer, self.follow, self.near
        contrib, clash, allowed, cover = self._masks(index, guess, keep)
        want, last, width = guess[index], space.sigma - 1, self.width
        aifv = space.filter == "aifv"
        place = [(space.max_len + 1) ** pos for pos in range(space.sigma)]
        # per head position: the head key step of one bit less there, and
        # the place above it; key % above >= step when it has a bit to drop
        fewer = [(2 * len(key_of) ** j, len(key_of) ** (j + 1))
                 for j in range(last)]
        filled = {}  # head key -> slots found or dominated after it
        found = {}

        if aifv:
            @functools.cache
            def extending(owed):  # slots strictly extending every owed word
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

        # Under aifv, owed has the target-0 slots of the target-1 words no
        # taken word extends yet, after the OR of their follow masks and
        # covered that of their near masks, and window 0 in table 1.  The
        # last word must extend every owed word, take target 1 only on a
        # proper prefix of a taken word, (after | after >> 1) & evens, and
        # leave each one-way window, (after ^ after >> 1) & evens, covered.
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
                    now_owed = (owed & ~(ahead | ahead >> 1) | (
                        low >> 1 & ~(after | after >> 1)) * (sid & 1))
                    now_after = after | ahead
                    now_covered = covered | near[sid >> 1]
                if deeper:
                    walk(pos + 1, cand & ~clash[sid], union | contrib[sid],
                         now_owed, now_after, now_covered, key,
                         head << width | sid, head_targets | (sid & 1) << pos,
                         head_lens + lens[sid] * place[pos])
                    continue
                if (done := filled.get(key)) is None:  # a new head key: seed
                    done = 0  # it from the keys one bit shorter in one place
                    for step, above in fewer:
                        if key % above >= step:
                            done |= filled.get(key - step, 0)
                    filled[key] = done
                if cand & ~done:
                    options = (cand & ~clash[sid] & ~done
                               & cover[want & ~(union | contrib[sid])])
                    if aifv and options:
                        options = windows_near(
                            options & extending(now_owed)
                            & (evens | (now_after | now_after >> 1) << 1),
                            now_after, now_covered)
                    if not options:  # nothing found: done is as it was
                        continue
                    row = (head << width | sid) << width  # per head slot
                    targets = head_targets | (sid & 1) << pos
                    lenvec = head_lens + lens[sid] * place[pos]
                    while options:  # store each option, shortest first
                        end = (options & -options).bit_length() - 1
                        if (t := targets | (end & 1) << last) not in found:
                            found[t] = {}  # a new target vector
                        found[t][lenvec + lens[end] * place[last]] = row | end
                        done |= tail[end]
                        options &= ~done
                    filled[key] = done
                else:  # every candidate taken or dominated after this head key
                    rest &= ~group[key_of[sid]]

        walk(0, allowed, 0, 0, 0, 4 * index, 0, 0, 0, 0)  # window 0: word 1
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


def _combine(dist, scan):
    """Cheapest (guess, targets, contents) combo for this distribution.

    Probabilities become integer weights scaled by the lcm of their
    denominators, and costs are compared as cross-multiplied fractions.
    The scan's keys are packed ints (see _Scan), so a lenvec's cost and a
    target vector's weight sent to table 1 are list entries, built a
    digit (a bit) per symbol, and an f0 table 1's contents are its table
    0's with each sid's low bit flipped by one XOR; only the winner's
    contents are unpacked, into the sid tuple returned as pick.
    A walked table is summarized once, per bucket as its least cost, weight
    leaving and targets, and read for its orbit (same buckets and least
    costs); an f0 table read as table 1 leaves by its own targets' ones.
    Guesses are visited by the least bucket cost of either table, a lower
    bound on their pairs' costs, until it is strictly above the best cost,
    and joined only when the price test (_reaches) passes.  The pairs at
    the best cost are kept as (cell, targets, least cost) parts, the cost 0
    for an unused table (a used one costs more), read only at the tie-break,
    table 0's first and table 1's only for the ties whose table 0 is least:
    from each table's own walk, the bucket's first content at the least
    cost, or its first when unused (a mirror walked as the module says).
    """
    space, words, width = scan.space, scan.words, scan.width
    base, (scale, weight) = space.max_len + 1, dist.integer_weights()
    # cost per packed lenvec, and weight sent to table 1 per packed target
    # vector, a digit (a bit) per symbol; the weights sum to scale
    cost, ones = [0], [0]
    for w in weight:
        cost = [c + w * n for n in range(base) for c in cost]
        ones += [o + w for o in ones]
    # an f0 table 1 is a table 0 with targets flipped: each sid's low bit
    flip = (sum(1 << width * pos for pos in range(space.sigma))
            if space.filter == "f0" else 0)
    # weight leaving a table walked as table 0 (its switches) or 1 (its
    # returns); an f0 table is always walked as table 0
    leaving = (ones, [scale - w for w in ones])
    summaries = {}  # by walk key

    def summary(key):  # (least cost, [(cost, leave, targets)] per bucket)
        if key not in summaries:
            rows = [(min(map(cost.__getitem__, b)), leaving[key[0]][t], t)
                    for t, b in scan[key].items()]
            summaries[key] = (min(rows)[0], rows)
        return summaries[key]

    order = sorted(((min(summary(orbit)[0] for _, orbit in cells), cells)
                    for cells in scan.guesses.values()), key=lambda g: g[0])
    best = (1, 0, [])  # (numerator, denominator, tied parts); 1/0 is above all
    for bound, cells in order:
        if bound * best[1] > best[0]:  # strictly: ties go to the contents
            break
        (_, orbit0), *rest = cells
        if not rest:  # all targets 0: one bucket, the table's cost
            (low, _, targets), = summary(orbit0)[1]
            ahead = low * best[1] - best[0]
            if ahead < 0:
                best = (low, 1, [])
            if ahead <= 0:
                best[2].append(((cells[0], targets, low),))
            continue
        (_, orbit1), = rest
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
                best[2].append(((cells[0], t0, leave1 and low0),
                                (cells[1], t1, leave0 and low1)))
    if not best[2]:
        return None
    pick, tied = (), best[2]
    for i in range(len(tied[0])):  # table by table, each part read once
        read = dict.fromkeys(part[i] for part in tied)
        keep = {}  # per used mirror: the slots matching its least-cost lenvecs
        for (key, orbit), targets, low in read:
            if low and key not in scan:  # low is 0 for an unused table
                keep[key] = keep.get(key, 0) | sum(scan.group[n] for n in {
                    2 * (v // base ** pos % base) + (targets >> pos & 1)
                    for v in scan[orbit][targets] if cost[v] == low
                    for pos in range(space.sigma)})
        walked = {key: scan[key + (slots,)] for key, slots in keep.items()}
        for (key, orbit), targets, low in read:
            bucket = (walked if low and key in walked else scan)[key][targets]
            row = bucket[min(bucket, key=cost.__getitem__) if low
                         else next(iter(bucket))]
            read[(key, orbit), targets, low] = row ^ flip if i else row
        pick += _unpack(least := min(read.values()), space.sigma, width)
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

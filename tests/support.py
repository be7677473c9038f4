"""Shared test helpers: a definitional continuation-set oracle, the old
greedy decoder, a bit-by-bit delay scan and a round trip on them, the old
search scan, walk and combine, the old aifv membership test, a per-table
verdict from the aifv clauses, the old rational stationary solve, the old
Fraction-summed costs (transition matrix, table and average lengths, the
Huffman cost) and rounding, an exact redundancy test, the codec's old tail
completions on a repeated sweep of finishing lengths, the codec's old
per-bit symbol identification, and a random tuple generator.

The continuation oracle explores source sequences directly, memoized on
(table, emitted-prefix) states, so it never touches the library's
fixed-point computation; agreement between the two is evidence, not
circularity.  The decoder oracle works on ``Bits`` slices and searches
states with its own code, independently of the codec's emission automaton.
"""

from decimal import Decimal
from fractions import Fraction
import functools
import itertools
import math
import random

from codetuples import Bits, PrefixSetTable, make_tuple
from codetuples.bits import EMPTY
from codetuples.classes import AIFV_CLAUSES
from codetuples.codec import (COMPLETION_CAP, FAILURE_CAP, DanglingInfo,
                              DecodeResult, RoundTripFailure, RoundTripReport)
from codetuples.core import CodeTuple, Table
from codetuples.errors import NoConsistentCompletion, NotRegular
from codetuples.prefix_sets import encode_from
from codetuples.search import _CLASHING, _unions, all_words

NAME_POOL = ("a", "b", "c", "d", "e", "f", "g", "h")
# The oracle scans' own two-bit sets, 4-bit masks over PAIR_INDEX, written
# out so that they share no constant with the scan they check.
PAIR_INDEX = {"00": 0, "01": 1, "10": 2, "11": 3}
FULL_MASK = 0b1111
NONZERO_MASK = 0b1110  # 01, 10, 11


def oracle_continuations(code, i, b, k, strict):
    """Length-k continuations of window b per the defining search.

    A string c qualifies when some nonempty source sequence, encoded from
    table i, emits b c ... and its first codeword extends b (strictly when
    ``strict``).
    """
    need = len(b) + k
    out = set()
    seen = set()
    stack = []
    for s in code.alphabet:
        first = code.code(i, s)
        ok = b.is_proper_prefix_of(first) if strict else b.is_prefix_of(first)
        if ok:
            stack.append((code.target(i, s), first[:need]))
    while stack:
        j, emitted = stack.pop()
        if len(emitted) >= need:
            out.add(emitted[len(b):])
            continue
        if (j, emitted) in seen:
            continue
        seen.add((j, emitted))
        for s in code.alphabet:
            grown = (emitted + code.code(j, s))[:need]
            stack.append((code.target(j, s), grown))
    return frozenset(out)


def oracle_delay_violations(code, k):
    """The delay-k violations as (kind, table, symbols, clash) tuples, by
    the ``Bits``-set algebra over ``oracle_continuations``: per table, a
    codeword-extension violation per symbol in order, then an
    equal-codewords one per pair of symbols sharing a codeword, each with
    its least common continuation as the clash."""
    base = functools.cache(
        lambda j: oracle_continuations(code, j, EMPTY, k, False))
    out = []
    for i in code.table_indices():
        for s in code.alphabet:
            word = code.code(i, s)
            common = base(code.target(i, s)) & oracle_continuations(
                code, i, word, k, True)
            if common:
                out.append(("codeword-extension", i, (s,), min(common)))
        for s, s2 in itertools.combinations(code.alphabet, 2):
            common = base(code.target(i, s)) & base(code.target(i, s2))
            if code.code(i, s) == code.code(i, s2) and common:
                out.append(("equal-codewords", i, (s, s2), min(common)))
    return tuple(out)


def random_code_tuple(rng, max_tables=3, max_sigma=4, max_len=4, min_sigma=2):
    tables = rng.randint(1, max_tables)
    sigma = rng.randint(min_sigma, max_sigma)
    rows = []
    for _ in range(tables):
        row = []
        for _ in range(sigma):
            length = rng.randint(0, max_len)
            word = "".join(rng.choice("01") for _ in range(length))
            row.append((word or "-", rng.randrange(tables)))
        rows.append(row)
    return make_tuple(NAME_POOL[:sigma], rows)


def random_seq(rng, code, max_len):
    return tuple(rng.randrange(code.sigma)
                 for _ in range(rng.randint(0, max_len)))


def window_samples(code, rng=None):
    """Interesting windows per table: the empty window, every codeword,
    and a one-bit extension of each codeword."""
    windows = {EMPTY}
    for i in code.table_indices():
        for s in code.alphabet:
            word = code.code(i, s)
            windows.add(word)
            if rng is not None:
                windows.add(word + rng.choice("01"))
    return sorted(windows)


def all_sequences(sigma, max_len):
    seqs = [()]
    level = [()]
    for _ in range(max_len):
        level = [seq + (s,) for seq in level for s in range(sigma)]
        seqs.extend(level)
    return seqs


# --------------------------------------------------------------------------
# The greedy decoder as it stood before the codec moved onto the emission
# automaton, kept verbatim on ``Bits`` as the oracle for differential tests.
# It does not terminate on tuples whose greedy scan can loop through empty
# codewords, so only call it on tuples without such loops.  The delay scan
# beside it reads ``Bits`` through ``code.code`` and ``code.target`` alone,
# one bit at a time, and ends on any tuple.
# --------------------------------------------------------------------------

ORACLE_COMPLETION_CAP = 16


def oracle_achievable(code, start, b):
    """Whether some emission from table ``start`` has b as a prefix."""
    if len(b) == 0:
        return True
    seen = set()
    frontier = [(start, 0)]
    while frontier:
        j, p = frontier.pop()
        if (j, p) in seen:
            continue
        seen.add((j, p))
        if p == len(b):
            return True
        rest = b[p:]
        for s in code.alphabet:
            c = code.code(j, s)
            if c.is_prefix_of(rest):
                frontier.append((code.target(j, s), p + len(c)))
            elif rest.is_proper_prefix_of(c):
                return True
    return False


def _oracle_exact_emitters(code, tail):
    n = len(tail)
    exact = [[u == n for _ in code.table_indices()] for u in range(n + 1)]
    for u in range(n - 1, -1, -1):
        rest = tail[u:]
        changed = True
        while changed:
            changed = False
            for i in code.table_indices():
                if exact[u][i]:
                    continue
                for s in code.alphabet:
                    w = code.code(i, s)
                    if w.is_prefix_of(rest) and exact[u + len(w)][code.target(i, s)]:
                        exact[u][i] = True
                        changed = True
                        break
    return exact


def _oracle_completions(code, start, tail, cap=ORACLE_COMPLETION_CAP):
    exact = _oracle_exact_emitters(code, tail)
    found = []
    frontier = [(start, 0, ())] if exact[0][start] else []
    while frontier and len(found) <= cap:
        nxt = []
        for table, used, acc in frontier:
            if used == len(tail):
                found.append(acc)
                if len(found) > cap:
                    break
                continue
            rest = tail[used:]
            for s in code.alphabet:
                w = code.code(table, s)
                j = code.target(table, s)
                if w.is_prefix_of(rest) and exact[used + len(w)][j]:
                    nxt.append((j, used + len(w), acc + (s,)))
        frontier = nxt
    capped = len(found) > cap
    return tuple(found[:cap]), capped


def _oracle_greedy_step(code, sets, k, table, bits, pos):
    rest = bits[pos:]
    out = []
    for s in code.alphabet:
        w = code.code(table, s)
        if not w.is_prefix_of(rest):
            continue
        window = rest[len(w):][:k]
        if len(window) < k:
            continue
        if window in sets.base(code.target(table, s), k):
            out.append(s)
    return out


def _oracle_common_prefix(seqs):
    if not seqs:
        return ()
    first = min(seqs, key=len)
    out = []
    for r, s in enumerate(first):
        if all(seq[r] == s for seq in seqs):
            out.append(s)
        else:
            break
    return tuple(out)


def oracle_decode(code, start, bits, k=2):
    """The old greedy decoder; returns a DecodeResult like ``decode``."""
    sets = PrefixSetTable(code)
    symbols = []
    table = start
    pos = 0
    conflicts = 0
    while True:
        cands = _oracle_greedy_step(code, sets, k, table, bits, pos)
        if not cands:
            break
        if len(cands) > 1:
            conflicts += 1
        s = cands[0]
        symbols.append(s)
        pos += len(code.code(table, s))
        table = code.target(table, s)

    tail = bits[pos:]
    if not oracle_achievable(code, table, tail):
        if oracle_achievable(code, start, bits):
            raise NoConsistentCompletion(
                "the decoder misstepped: at bit %d it reached table %d, from "
                "which no emission starts with %s; the tuple is not "
                "decodable with delay %d there" % (pos, table, tail, k))
        raise NoConsistentCompletion(
            "%s is not a prefix of any emission from table %d"
            % (tail, table))
    completions, capped = _oracle_completions(code, table, tail)
    settled = _oracle_common_prefix(completions) if not capped else ()
    if settled:
        for s in settled:
            symbols.append(s)
            pos += len(code.code(table, s))
            table = code.target(table, s)
        tail = bits[pos:]
        completions, capped = _oracle_completions(code, table, tail)
    if not tail:
        completions, capped = (), False

    info = DanglingInfo(tail, completions, capped, conflicts)
    return DecodeResult(tuple(symbols), start, table, info)


def _oracle_read(code, states, bit):
    """The states (table, symbol, bits of its codeword read) a candidate is
    in after one more bit, from those it was in: a state at the end of its
    codeword goes on with every codeword of its target, once per table,
    which also ends a loop of empty codewords."""
    out, frontier, opened = set(), list(states), set()
    for j, s, d in frontier:  # the list grows while it is read
        w, t = code.code(j, s), code.target(j, s)
        if d < len(w):
            if w[d] == bit:
                out.add((j, s, d + 1))
        elif t not in opened:
            opened.add(t)
            frontier.extend((t, s2, 0) for s2 in code.alphabet)
    return out


def oracle_identification_delays(code, start, seq, bits=None):
    """The bit-by-bit identification scan.  Each candidate symbol carries
    the states the bits read so far leave it in, one bit at a time, and
    stays consistent while it has one: its codeword, then some emission
    from its target, agrees with every bit read."""
    if bits is None:
        bits, _ = encode_from(code, start, seq)
    table = start
    pos = 0
    delays = []
    for s in seq:
        boundary = pos + len(code.code(table, s))
        live = {s2: {(table, s2, 0)} for s2 in code.alphabet}
        identified = None
        for t in range(pos, len(bits) + 1):
            if len(live) == 1:
                if s not in live:
                    raise AssertionError(
                        "identification scan contradicts the source at "
                        "table %d, bit %d" % (table, t))
                identified = t
                break
            if not live or t == len(bits):
                break  # none comes back once all are gone, or the bits end
            live = {s2: after for s2, states in live.items()
                    if (after := _oracle_read(code, states, bits[t]))}
        if identified is None:
            break
        delays.append(max(0, identified - boundary))
        pos = boundary
        table = code.target(table, s)
    return delays


def oracle_identify(auto, table, text):
    """``codec._identify`` as it was: the candidate rows narrowed one bit at
    a time, each survivor whose codeword the bits read so far pass checked
    by a walk of the automaton over those bits alone."""
    cands = auto.rows[table]
    for t in range(len(text) + 1):
        cands = [(w, j, s) for w, j, s in cands if text.startswith(w[:t])
                 and (len(w) >= t or auto._search(text[:t], j, len(w))[1])]
        if len(cands) == 1:
            return t, cands[0][2]
    return None


def oracle_roundtrip_check(code, k=2, trials=1000, max_len=12, seed=None):
    """``roundtrip_check`` with each trial decoded by ``oracle_decode`` and
    timed by ``oracle_identification_delays``: the same random draws, the
    same failure reasons, a fresh decoder per trial."""
    rng = random.Random(seed)
    failures, count, max_delay, conflicts = [], 0, 0, 0

    def fail(trial, start, seq, reason):
        nonlocal count
        count += 1
        if len(failures) < FAILURE_CAP:
            failures.append(RoundTripFailure(trial, start, tuple(seq), reason))

    for trial in range(trials):
        start = rng.randrange(code.num_tables)
        seq = tuple(rng.randrange(code.sigma)
                    for _ in range(rng.randint(1, max_len)))
        bits, _ = encode_from(code, start, seq)
        try:
            result = oracle_decode(code, start, bits, k)
        except NoConsistentCompletion as exc:
            fail(trial, start, seq, "no completion: %s" % exc)
            continue
        got = result.symbols
        if got != seq[:len(got)]:
            fail(trial, start, seq, "decoded %r instead of a prefix" % (got,))
            continue
        conflicts += result.info.conflicts
        n = len(got)
        if n < len(seq) and \
                len(encode_from(code, start, seq[:n + 1])[0]) + k <= len(bits):
            fail(trial, start, seq, "symbol %d not decoded, though at least "
                 "%d bits follow its codeword" % (n, k))
            continue
        worst = max(oracle_identification_delays(code, start, seq, bits),
                    default=None)
        if worst is not None:
            max_delay = max(max_delay, worst)
            if worst > k:
                fail(trial, start, seq, "identification delay %d" % worst)
    return RoundTripReport(trials, tuple(failures), count, max_delay, conflicts)


# --------------------------------------------------------------------------
# The two-table search scan and its combine step as they stood before the
# scan became a pruned depth-first walk and the combine moved to integer
# weights, kept verbatim as the oracle for differential tests.  The scan
# tries every content of every table under every guess, so it is slow
# beyond sigma=3 with codewords of up to 3 bits.  Its helpers are copied
# too, so the oracle shares no clause with the code under test.
# --------------------------------------------------------------------------


def _heads(mask):
    return (1 if mask & 0b0011 else 0) | (2 if mask & 0b1100 else 0)


def _contrib(word, target, pair_masks):
    """Mask of two-bit blocks an emission can start with, given the slot."""
    if len(word) >= 2:
        return 1 << PAIR_INDEX[word[:2]]
    if len(word) == 1:
        heads = _heads(pair_masks[target])
        out = 0
        if heads & 1:
            out |= 1 << PAIR_INDEX[word + "0"]
        if heads & 2:
            out |= 1 << PAIR_INDEX[word + "1"]
        return out
    return pair_masks[target]


def aifv_table_ok(i, words, targets):
    """Whether table i with these contents passes the seven aifv clauses."""
    return not any(clause(i, words, targets, range(len(words)))
                   for clause in AIFV_CLAUSES)


def _aifv_table_ok(table_index, words, targets):
    """The structural clauses, restricted to one table's contents."""
    if len(set(words)) != len(words):
        return False
    for w in words:
        for b in (w, w + "0"):
            if any(w2.startswith(b) and len(w2) > len(b) and
                   w2[len(b)] == "1" for w2 in words):
                return False
    word_set = set(words)
    for w in words:
        if w + "0" in word_set:
            return False
    for w, t in zip(words, targets):
        extendable = any(w2.startswith(w) and len(w2) > len(w)
                         for w2 in words)
        if t != (1 if extendable else 0):
            return False
    if table_index == 1:
        if "" in word_set or "0" in word_set:
            return False
        if any(w.startswith("00") for w in words):
            return False
    prefixes = {w[:n] for w in words for n in range(len(w))}
    near = word_set | {w + x for w in words for x in "01"}
    for b in sorted(prefixes):
        firsts = {w[len(b)] for w in words
                  if w.startswith(b) and len(w) > len(b)}
        if len(firsts) == 1:
            if b in near or (table_index == 1 and b == "0"):
                continue
            return False
    return True


def oracle_scan_two_tables(space):
    """Per continuation-set guess and table: every passing content.

    Returns {guess: ({targets: {lenvec: sid tuple}}, {targets: ...})} where
    the stored sid tuple is the canonically first content with those
    targets and codeword lengths.
    """
    words = all_words(space.max_len)
    nwords = len(words)
    nslots = 2 * nwords
    sigma = space.sigma
    word_len = [len(w) for w in words]
    # suffix of a strict prefix pair, None when the words are unrelated
    suffix = [[None] * nslots for _ in range(nwords)]
    for wi, w in enumerate(words):
        for sid in range(nslots):
            w2 = words[sid >> 1]
            if len(w2) > len(w) and w2.startswith(w):
                suffix[wi][sid] = (w2[len(w):], sid & 1)

    if space.filter == "aifv":
        guesses = [(FULL_MASK, NONZERO_MASK)]
        aifv_ok = []
        for i in (0, 1):
            table_ok = {}
            for wordvec in itertools.product(range(nwords), repeat=sigma):
                for targetvec in itertools.product((0, 1), repeat=sigma):
                    content = tuple(2 * wi + t
                                    for wi, t in zip(wordvec, targetvec))
                    table_ok[content] = _aifv_table_ok(
                        i, [words[wi] for wi in wordvec], targetvec)
            aifv_ok.append(table_ok)
    else:
        guesses = [(a, b) for a in range(1, 16) for b in range(1, 16)]
        aifv_ok = None

    scan = {}
    sym_pairs = list(itertools.combinations(range(sigma), 2))
    for guess in guesses:
        contrib = [_contrib(words[sid >> 1], sid & 1, guess)
                   for sid in range(nslots)]
        ext_mask = [[0 if e is None else _contrib(e[0], e[1], guess)
                     for e in row] for row in suffix]
        target_mask = (guess[0], guess[1])
        per_table = []
        for i in (0, 1):
            want = guess[i]
            found = {}
            for content in itertools.product(range(nslots), repeat=sigma):
                union = 0
                for sid in content:
                    union |= contrib[sid]
                if union != want:
                    continue
                ok = True
                for a, b in sym_pairs:
                    sa, sb = content[a], content[b]
                    if sa >> 1 == sb >> 1 and \
                            target_mask[sa & 1] & target_mask[sb & 1]:
                        ok = False
                        break
                if ok:
                    for sid in content:
                        row = ext_mask[sid >> 1]
                        strict = 0
                        for other in content:
                            strict |= row[other]
                        if strict & target_mask[sid & 1]:
                            ok = False
                            break
                if not ok or (aifv_ok and not aifv_ok[i][content]):
                    continue
                targets = tuple(sid & 1 for sid in content)
                lenvec = tuple(word_len[sid >> 1] for sid in content)
                bucket = found.setdefault(targets, {})
                if lenvec not in bucket:
                    bucket[lenvec] = content
            per_table.append(found)
        if per_table[0] and per_table[1]:
            scan[guess] = tuple(per_table)
    return scan


def unpack_table(space, table):
    """A walked table, packed into ints, as {targets: {lenvec: sid tuple}}.

    The scan keys a table by packed ints: targets with bit i for symbol
    i's target, a length vector as the digits l_i of base max_len + 1, and
    a content as each symbol's sid in as many bits as the largest sid
    needs, symbol 0 most significant.  This reads them back into tuples,
    keeping the dict order, with field sizes worked out here.
    """
    sigma, base = space.sigma, space.max_len + 1
    width = (2 * len(all_words(space.max_len)) - 1).bit_length()
    targets = [tuple(t >> i & 1 for i in range(sigma)) for t in table]
    return {bits: {tuple(v // base ** i % base for i in range(sigma)):
                   tuple(row >> width * (sigma - 1 - i) & (1 << width) - 1
                         for i in range(sigma))
                   for v, row in bucket.items()}
            for bits, bucket in zip(targets, table.values())}


def walk_every_table(scan):
    """A ``search._Scan`` in its walked shape, {guess: tables}, per kept
    guess of ``scan.guesses`` its tables, each walked and unpacked by
    ``unpack_table``.

    The scan walks one f0 guess per complement orbit, and a mirror guess
    only once the combine reads its contents.  This reads every guess's
    own tables from the scan, a dict by walk key that walks the missing
    mirrors, so a test that compares contents sees each guess's own walk.
    Under f0 table 1 under (a, b) is the table 0 under (b, a), shared, not
    flipped.
    """
    keys = dict.fromkeys(key for cells in scan.guesses.values()
                         for key, _ in cells)
    plain = {key: unpack_table(scan.space, scan[key]) for key in keys}
    return {guess: tuple(plain[key] for key, _ in cells)
            for guess, cells in scan.guesses.items()}


def _swapped(table):
    """Table 0 under guess (b, a) as f0 table 1 under (a, b), in walk order."""
    buckets = sorted([(tuple([sid ^ 1 for sid in row]), lenvec)
                      for lenvec, row in bucket.items()]
                     for bucket in table.values())
    return {tuple([sid & 1 for sid in rows[0][0]]):
            {lenvec: row for row, lenvec in rows} for rows in buckets}


def expand_scan(space, scan):
    """A search scan in the oracle's shape, {guess: (table 0, table 1)}.

    It reads a scan as ``walk_every_table`` returns it.  The f0 scan
    stores table 1 under (a, b) as the table 0 it keeps under (b, a); this
    flips a copy of it, the way the scan itself once stored it.  Other
    scans already have the oracle's shape.
    """
    if space.filter != "f0" or space.tables != 2:
        return scan
    return {guess: (tab0, _swapped(tab1))
            for guess, (tab0, tab1) in scan.items()}


def _dominates(low, high):
    return low != high and all(x <= y for x, y in zip(low, high))


def assert_keeps_pareto_buckets(got, full):
    """got holds full's guesses, tables and buckets, trimmed by dominance.

    Both scans are in the oracle's shape.  Keys match in dict order.  Each
    bucket of got is a sub-dict of full's, with the same contents in the
    same order; it starts with full's first entry and holds every length
    vector that no other vector of full's bucket dominates.  These are all
    the combine reads: the first content, and per cost the first content
    at the least cost, which only a Pareto-minimal vector can reach since
    probabilities are positive.
    """
    assert list(got) == list(full)
    for guess, tables in full.items():
        for mine, theirs in zip(got[guess], tables, strict=True):
            assert list(mine) == list(theirs), guess
            for targets, bucket in theirs.items():
                kept = mine[targets]
                where = (guess, targets)
                order = [list(bucket).index(v) for v in kept]
                assert order == sorted(order), where
                assert all(bucket[v] == row for v, row in kept.items()), where
                assert next(iter(kept.items())) == \
                    next(iter(bucket.items())), where
                assert all(any(_dominates(u, v) for u in bucket)
                           for v in bucket if v not in kept), where


def oracle_combine(space, dist, scan):
    """Cheapest (guess, targets, contents) combo for this distribution.

    Costs and weights are ``Fraction`` sums, each taken once per call.
    """
    words = all_words(space.max_len)

    @functools.cache
    def price(lenvec):
        return sum(dist.probs[s] * lenvec[s] for s in range(space.sigma))

    @functools.cache
    def weight(targets, target):
        return sum(dist.probs[s] for s in range(space.sigma)
                   if targets[s] == target)

    def summarize(bucket):
        # (min cost, canonical-min content at min cost, canonical-min overall)
        low = min(map(price, bucket))
        return (low, min(content for lenvec, content in bucket.items()
                         if price(lenvec) == low), min(bucket.values()))

    best = None
    for guess, (tab0, tab1) in scan.items():
        sums0 = {t: summarize(b) for t, b in tab0.items()}
        sums1 = {t: summarize(b) for t, b in tab1.items()}
        for t0, (low0, at0, any0) in sums0.items():
            leave0 = weight(t0, 1)
            for t1, (low1, at1, any1) in sums1.items():
                leave1 = weight(t1, 0)
                total = leave0 + leave1
                if total == 0:
                    continue  # the two tables never mix: not regular
                cost = (leave1 * low0 + leave0 * low1) / total
                c0 = at0 if leave1 > 0 else any0
                c1 = at1 if leave0 > 0 else any1
                entry = (cost, c0 + c1)
                if best is None or entry < best[:2]:
                    best = (cost, c0 + c1, (c0, c1))
    if best is None:
        return None
    tables = []
    for content in best[2]:
        tables.append(Table(tuple(Bits(words[sid >> 1]) for sid in content),
                            tuple(sid & 1 for sid in content)))
    return (best[0], best[1], CodeTuple(dist.alphabet, tuple(tables)))


# --------------------------------------------------------------------------
# The f0 and aifv scan walk as it stood before it dropped a bucket's
# dominated length vectors and read its per-guess masks from tables, kept
# verbatim (renamed) as the oracle walk: every bucket holds the canonical
# first content of every length vector.  Unlike oracle_scan_two_tables it
# prunes by the guess, so it runs at four symbols too.
# --------------------------------------------------------------------------


def _walk_contrib(word, mask):
    """Two-bit blocks an emission can start with, given the target's set."""
    if len(word) >= 2:
        return 1 << PAIR_INDEX[word[:2]]
    if len(word) == 1:
        return sum(1 << PAIR_INDEX[word + bit]
                   for bit, firsts in (("0", 0b0011), ("1", 0b1100))
                   if mask & firsts)
    return mask


def _walk_layout(max_len):
    words = all_words(max_len)
    nslots = 2 * len(words)
    lens = [len(words[sid >> 1]) for sid in range(nslots)]
    # each word's contribution under each of the 16 sets a target may guess
    reach = {w: [_walk_contrib(w, mask) for mask in range(16)] for w in words}
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


def oracle_walk_scan(space):
    """Per continuation-set guess and table: every passing content.

    Returns {guess: ({targets: {lenvec: sid tuple}}, ...)}, one dict per
    table, where each stored sid tuple is the canonically first content
    with its targets and codeword lengths, in ascending order.  Under f0,
    table 1 under (a, b) is the table 0 under (b, a), shared, not flipped.
    """
    layout = _walk_layout(space.max_len)
    if space.filter == "aifv":  # two tables, and the clauses read the index
        guess = (FULL_MASK, NONZERO_MASK)
        tabs = tuple(_walk_table(space, i, guess, layout)
                     for i in range(space.tables))
        return {guess: tabs} if len(tabs) == 2 and all(tabs) else {}
    if space.tables == 1:  # only target-0 slots, so guess[1] is never read
        return {a: (tab,) for a in range(1, 16)
                if (tab := _walk_table(space, 0, (a, a), layout))}
    tab0 = {(a, b): _walk_table(space, 0, (a, b), layout)
            for a in range(1, 16) for b in range(1, 16)}
    return {(a, b): (tab0[a, b], tab0[b, a])
            for a, b in tab0 if tab0[a, b] and tab0[b, a]}


def _walk_table(space, index, guess, layout):
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


# --------------------------------------------------------------------------
# The scan's per-guess masks as they stood before its clash rows were read
# per gate set: each word's prefix and extension masks, one union per gate
# set, indexed word first, and every hit entry of the guess built.  Kept as
# the reference for search._Scan._masks.
# --------------------------------------------------------------------------


@functools.cache
def _word_masks(max_len):
    """Per word and gate set, the target-0 slots of its prefixes (up) and
    extensions (down) whose suffix's first two bits are one of the gates."""
    words = all_words(max_len)
    gates = {w: n for n, w in enumerate(all_words(2))}
    up, down = ([[0] * len(gates) for _ in words] for _ in "ud")
    for (ui, u), (vi, v) in itertools.product(enumerate(words), repeat=2):
        if v.startswith(u):
            n = gates[v[len(u):len(u) + 2]]
            up[vi][n] |= 1 << 2 * ui
            down[ui][n] |= 1 << 2 * vi
    return [[_unions(row) for row in rows] for rows in (up, down)]


def oracle_masks(scan, index, guess, keep=-1):
    """``scan._masks(index, guess, keep)``, word by word: each slot's
    contribution, the slots it clashes with, the allowed slots within keep,
    and per set of missing blocks the allowed slots giving them all.  The
    scan's per-set tables (``reach``, ``hits``) and ``search._CLASHING`` are
    read as they are; the clash is rebuilt from the words."""
    up, down = _word_masks(scan.space.max_len)
    contrib = [c for p in zip(*(scan.reach[g] for g in guess)) for c in p]
    gates = [[_CLASHING[long][short] for short in guess] for long in guess]
    clash = [(up[wi][gates[t][t]] | down[wi][gates[t][t]]) << t
             | (up[wi][gates[t][1 - t]] | down[wi][gates[1 - t][t]])
             << 1 - t for wi in range(len(scan.words)) for t in (0, 1)]
    hit = [h0 | h1 << 1
           for h0, h1 in zip(scan.hits[guess[0]], scan.hits[guess[1]])]
    allowed = ((scan.evens if scan.space.tables == 1 else scan.evens * 3)
               & keep & ~hit[FULL_MASK & ~guess[index]])
    cover = [allowed & ~miss
             for miss in _unions([~hit[1 << n] for n in range(4)])]
    return contrib, clash, allowed, cover


# --------------------------------------------------------------------------
# The aifv membership test as it stood before its seven clauses became
# table-local functions on ``str`` shared with the search scan, kept
# verbatim (renamed) as the oracle: it reads the clauses off continuation
# sets through PrefixSetTable and formats witnesses from ``Bits``.
# --------------------------------------------------------------------------


def _proper_codeword_prefixes(code, i):
    """Every strict prefix of a codeword of table i, shortest first.

    The one-bit follow-up set of any other window is empty, so these are
    the only windows that can have exactly one follow-up bit.
    """
    seen = set()
    for s in code.alphabet:
        c = code.code(i, s)
        for n in range(len(c)):
            seen.add(c[:n])
    return sorted(seen)


def oracle_is_aifv(code, sets=None):
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
            for window in (c, c + "0"):
                if Bits("1") in sets.strict_continuations(i, window, 1):
                    return False, (
                        "(ii) table %d, symbol %s: bit 1 can follow window %s "
                        "inside a longer codeword" % (i, name(s), window))

    for i in code.table_indices():
        for s in code.alphabet:
            for s2 in code.alphabet:
                if code.code(i, s2) == code.code(i, s) + "0":
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
        if code.code(1, s) in (EMPTY, Bits("0")):
            return False, "(v) table 1, symbol %s: codeword %r is too short" % (
                name(s), str(code.code(1, s)))

    if Bits("0") in sets.strict_continuations(1, "0", 1):
        return False, "(vi) bit 0 can follow window 0 inside a longer codeword of table 1"

    for i in code.table_indices():
        for b in _proper_codeword_prefixes(code, i):
            if len(sets.strict_continuations(i, b, 1)) != 1:
                continue
            if i == 1 and b == Bits("0"):
                continue
            stubs = {b, b[:-1]}
            if any(code.code(i, s) in stubs for s in code.alphabet):
                continue
            return False, (
                "(vii) table %d: window %s has exactly one possible next bit "
                "but is not a codeword or a codeword plus one bit" % (i, b))

    return True, None


# --------------------------------------------------------------------------
# The stationary solve as it stood before it moved to integer weights and
# fraction-free elimination: Gauss-Jordan on Fractions, kept verbatim
# (renamed) as the oracle for differential tests.
# --------------------------------------------------------------------------


def _oracle_solve_unique(rows, n):
    mat = [list(r) for r in rows]
    pivot_cols = []
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        head = mat[rank][col]
        mat[rank] = [v / head for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        pivot_cols.append(col)
        rank += 1
    for r in range(rank, len(mat)):
        if mat[r][n] != 0:
            return None
    if rank < n:
        return None
    solution = [Fraction(0)] * n
    for r, col in enumerate(pivot_cols):
        solution[col] = mat[r][n]
    return solution


def oracle_transition_matrix(code, dist):
    """``transition_matrix`` as a Fraction sum per entry."""
    m = code.num_tables
    rows = []
    for i in code.table_indices():
        row = [Fraction(0)] * m
        for s in code.alphabet:
            row[code.target(i, s)] += dist[s]
        rows.append(tuple(row))
    return tuple(rows)


def oracle_table_length(code, dist, i):
    """``table_length`` as a Fraction sum over the symbols."""
    return sum((dist[s] * len(code.code(i, s)) for s in code.alphabet),
               Fraction(0))


def oracle_average_length(code, dist):
    """``average_length`` as a Fraction sum over the oracle stationary
    vector and the oracle table lengths."""
    pi = oracle_stationary(code, dist)
    return sum((pi[i] * oracle_table_length(code, dist, i)
                for i in code.table_indices()), Fraction(0))


def oracle_huffman_length(dist):
    """``huffman_length`` merging Fraction weights, with a Fraction cost."""
    n = len(dist.alphabet)
    if n == 1:
        return (0,), Fraction(0)
    nodes = [(dist.probs[s], s, (s,)) for s in dist.alphabet]
    depth, order = [0] * n, n
    while len(nodes) > 1:
        nodes.sort(key=lambda e: (e[0], e[1]))
        (p1, _, m1), (p2, _, m2) = nodes[0], nodes[1]
        for s in m1 + m2:
            depth[s] += 1
        nodes = nodes[2:] + [(p1 + p2, order, m1 + m2)]
        order += 1
    return tuple(depth), sum(dist.probs[s] * depth[s] for s in dist.alphabet)


REDUNDANCY_BITS = 1 << 20  # largest n ** (n * v) redundancy_within builds


def redundancy_within(cost, counts, bound, strict=False):
    """Whether cost - H(p) <= bound (< if strict), decided in integers, for
    p = counts / n with n = sum(counts) and every count positive.

    Write cost - bound = u / v in lowest terms.  H(p) >= 0, so the bound
    holds when u < 0, and when u == 0 unless strict.  Otherwise u / v <=
    H(p) = log2(n) - sum(a * log2(a)) / n is, times n * v and raised to
    the power of two, 2 ** (u * n) * prod(a ** (a * v)) <= n ** (n * v).
    """
    n = sum(counts)
    gap = Fraction(cost) - Fraction(bound)
    u, v = gap.numerator, gap.denominator
    if u < 0 or u == 0 and not strict:
        return True
    if n * v * n.bit_length() > REDUNDANCY_BITS:
        raise ValueError("%s: n ** (n * v) is past the bit budget" % (counts,))
    left = 2 ** (u * n) * math.prod(a ** (a * v) for a in counts)
    return left < n ** (n * v) if strict else left <= n ** (n * v)


def oracle_approx_decimal(x, places=4):
    """``approx_decimal`` scaling a Fraction by Fraction(10) ** places and
    rounding it with ``round``, ties to even."""
    n = round(Fraction(x) * Fraction(10) ** places)
    digits = Decimal(abs(n)).as_tuple().digits
    return str(Decimal((int(x < 0), digits, -places)))


def oracle_stationary(code, dist):
    """``stationary_distribution`` in Fractions throughout."""
    q = oracle_transition_matrix(code, dist)
    m = code.num_tables
    rows = []
    for j in range(m):
        row = [q[i][j] - (1 if i == j else 0) for i in range(m)]
        row.append(Fraction(0))
        rows.append(row)
    rows.append([Fraction(1)] * m + [Fraction(1)])
    solution = _oracle_solve_unique(rows, m)
    if solution is None:
        raise NotRegular("stationary distribution is not unique")
    return tuple(solution)


def oracle_finish_lengths(graph, end, width):
    """Per state that reaches offset ``end``: (d, mask), where d is the
    fewest symbols that get there, bit i of mask is set when exactly d + i
    do (i < width), and bit ``width`` stands for any longer count; swept
    until a pass changes nothing."""
    out = {st: (0, 1) for st in graph if st[1] == end}
    order = sorted((st for st in graph if st[1] < end), key=lambda st: -st[1])
    changed = True
    while changed:
        changed = False
        for st in order:
            succ = [out[nxt] for _, nxt in graph[st] if nxt in out]
            if succ:
                d = 1 + min(e for e, _ in succ)
                mask = 0
                for e, m in succ:
                    mask |= m << (e + 1 - d)
                if mask >> width > 1:
                    mask = mask & ((1 << width) - 1) | 1 << width
                if out.get(st) != (d, mask):
                    out[st], changed = (d, mask), True
    return out


def oracle_completions(auto, tail, table):
    """``codec._completions`` as it was: each length is listed by a walk
    through states that finish in exactly the symbols left, known from
    ``oracle_finish_lengths`` for a window of lengths above each state's
    fewest; the window doubles until it holds one sequence over the cap or
    all of them."""
    graph, reaches = auto._search(tail, table)
    if not reaches:
        return None
    start, width = (table, 0), 2 * COMPLETION_CAP
    while True:
        finish = oracle_finish_lengths(graph, len(tail), width)
        if start not in finish:
            return (), False

        def exact(st, r):
            d, mask = finish.get(st, (r + 1, 0))
            return 0 <= r - d < width and mask >> (r - d) & 1
        found = []
        d, mask = finish[start]
        for length in [d + i for i in range(width) if mask >> i & 1]:
            stack = [(start, length, None)]
            while stack and len(found) <= COMPLETION_CAP:
                st, left, path = stack.pop()  # path: (symbol, path) links
                if not left:
                    found.append(_oracle_unlink(path))
                    continue
                stack.extend((nxt, left - 1, (s, path)) for s, nxt
                             in reversed(graph[st]) if exact(nxt, left - 1))
        if len(found) > COMPLETION_CAP or not finish[start][1] >> width:
            return tuple(found[:COMPLETION_CAP]), len(found) > COMPLETION_CAP
        width *= 2


def _oracle_unlink(path):
    seq = []
    while path:
        s, path = path
        seq.append(s)
    return tuple(reversed(seq))

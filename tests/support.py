"""Shared test helpers: a definitional continuation-set oracle, the old
greedy decoder, and a random tuple generator.

The continuation oracle explores source sequences directly, memoized on
(table, emitted-prefix) states, so it never touches the library's
fixed-point computation; agreement between the two is evidence, not
circularity.  The decoder oracle works on ``Bits`` slices and searches
states with its own code, independently of the codec's emission automaton.
"""

from codetuples import Bits, PrefixSetTable, make_tuple
from codetuples.bits import EMPTY
from codetuples.codec import DanglingInfo, DecodeResult
from codetuples.errors import NoConsistentCompletion
from codetuples.prefix_sets import encode_from

NAME_POOL = ("a", "b", "c", "d", "e", "f", "g", "h")


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
            stack.append((code.target(i, s), first.head(need)))
    while stack:
        j, emitted = stack.pop()
        if len(emitted) >= need:
            out.add(emitted.tail_from(len(b)))
            continue
        if (j, emitted) in seen:
            continue
        seen.add((j, emitted))
        for s in code.alphabet:
            grown = (emitted + code.code(j, s)).head(need)
            stack.append((code.target(j, s), grown))
    return frozenset(out)


def random_code_tuple(rng, max_tables=3, max_sigma=4, max_len=4):
    tables = rng.randint(1, max_tables)
    sigma = rng.randint(2, max_sigma)
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
# codewords, so only call it on tuples without such loops.
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
        rest = b.tail_from(p)
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
        rest = tail.tail_from(u)
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
            rest = tail.tail_from(used)
            for s in code.alphabet:
                w = code.code(table, s)
                j = code.target(table, s)
                if w.is_prefix_of(rest) and exact[used + len(w)][j]:
                    nxt.append((j, used + len(w), acc + (s,)))
        frontier = nxt
    capped = len(found) > cap
    return tuple(found[:cap]), capped


def _oracle_greedy_step(code, sets, k, table, bits, pos):
    rest = bits.tail_from(pos)
    out = []
    for s in code.alphabet:
        w = code.code(table, s)
        if not w.is_prefix_of(rest):
            continue
        window = rest.tail_from(len(w)).head(k)
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

    tail = bits.tail_from(pos)
    if not oracle_achievable(code, table, tail):
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
        tail = bits.tail_from(pos)
        completions, capped = _oracle_completions(code, table, tail)
    if not tail:
        completions, capped = (), False

    info = DanglingInfo(tail, completions, capped, conflicts)
    return DecodeResult(tuple(symbols), start, table, info)


def _oracle_consistent(code, table, s, obs):
    w = code.code(table, s)
    if obs.is_prefix_of(w):
        return True
    if w.is_prefix_of(obs):
        return oracle_achievable(code, code.target(table, s),
                                 obs.strip_prefix(w))
    return False


def oracle_identification_delays(code, start, seq, bits=None):
    """The old bit-by-bit identification scan."""
    if bits is None:
        bits, _ = encode_from(code, start, seq)
    table = start
    pos = 0
    delays = []
    for s in seq:
        boundary = pos + len(code.code(table, s))
        identified = None
        for t in range(pos, len(bits) + 1):
            obs = bits[pos:t]
            cands = [s2 for s2 in code.alphabet
                     if _oracle_consistent(code, table, s2, obs)]
            if len(cands) == 1:
                if cands[0] != s:
                    raise AssertionError(
                        "identification scan contradicts the source at "
                        "table %d, bit %d" % (table, t))
                identified = t
                break
        if identified is None:
            break
        delays.append(max(0, identified - boundary))
        pos = boundary
        table = code.target(table, s)
    return delays

"""Encoding, decoding with bounded lookahead, and round-trip checking.

The decoder is greedy: in table i it emits the symbol whose codeword the
unread bits start with and whose next k bits are an emittable k-bit block
of the next table.  For a tuple decodable with delay k that candidate is
unique once the window is fully available, so the scan never misreads; it
stops when fewer than k bits remain past the codeword, or rather than
revisit a (table, offset) state through an empty codeword.  A step reads at
most its table's longest codeword plus k bits, so each call memoizes steps by
those bits in one dict per table; ``roundtrip_check``'s trials share one
call's dicts.
It also memoizes tails by (table, bits left) and the delay scan by what a step
reads.  Decoding, tail completion and the round-trip delay scan all walk the
tuple's emission automaton, ``code.sets``, over ``str`` offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
import random

from .bits import Bits
from .errors import InvalidArgument, InvalidType, NoConsistentCompletion
from .prefix_sets import K, check_indices, check_k, encode_from

COMPLETION_CAP = 16
FAILURE_CAP = 10

encode = encode_from


@dataclass(frozen=True)
class DanglingInfo:
    """What the bits left unread after decoding could still mean.

    completions lists the shortest symbol sequences emitting exactly the
    tail, in length-then-lexicographic order, at most COMPLETION_CAP of
    them (capped tells whether more exist).  conflicts counts greedy steps
    with more than one admissible symbol, which a tuple decodable with the
    requested delay never produces.
    """

    tail: Bits
    completions: tuple
    capped: bool
    conflicts: int

    @property
    def resolved(self):
        return len(self.tail) == 0


@dataclass(frozen=True)
class DecodeResult:
    symbols: tuple
    start: int
    end_table: int
    info: DanglingInfo


def _finish_lengths(graph, end, width):
    """Per state that reaches offset ``end``: (d, mask), where d is the
    fewest symbols that get there, bit i of mask is set when exactly d + i
    do (i < width), and bit ``width`` stands for any longer count."""
    out = {st: (0, 1) for st in graph if st[1] == end}
    order = sorted((st for st in graph if st[1] < end), key=lambda st: -st[1])
    changed = True
    while changed:  # passes repeat only around cycles of empty codewords
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


def _completions(auto, tail, table):
    """The first COMPLETION_CAP symbol sequences emitting exactly ``tail``
    from ``table``, by length then lexicographically, and whether more
    exist; NoConsistentCompletion when no emission even starts with it.

    A sequence stops at its first exact match: extending one only appends
    symbols that emit nothing, which the bits cannot testify to.  Each
    length is listed by a walk through states that finish in exactly the
    symbols left, known for a window of lengths above each state's fewest;
    the window widens until it holds one sequence over the cap or all.
    """
    graph, reaches = auto._search(tail, table)
    if not reaches:
        raise NoConsistentCompletion(
            "%s is not a prefix of any emission from table %d"
            % (tail, table))
    start, width = (table, 0), 2 * COMPLETION_CAP
    while True:
        finish = _finish_lengths(graph, len(tail), width)
        if start not in finish or not tail:
            return (), False

        def exact(st, r):
            d, mask = finish.get(st, (r + 1, 0))
            return 0 <= r - d < width and mask >> (r - d) & 1
        found = []
        for length in range(finish[start][0], finish[start][0] + width):
            stack = [(start, length, None)] if exact(start, length) else []
            while stack and len(found) <= COMPLETION_CAP:
                st, left, path = stack.pop()  # path: (symbol, path) links
                if not left:
                    found.append(_unlink(path))
                    continue
                stack.extend((nxt, left - 1, (s, path)) for s, nxt
                             in reversed(graph[st]) if exact(nxt, left - 1))
        if len(found) > COMPLETION_CAP or not finish[start][1] >> width:
            return tuple(found[:COMPLETION_CAP]), len(found) > COMPLETION_CAP
        width *= 2


def _unlink(path):
    seq = []
    while path:
        s, path = path
        seq.append(s)
    return tuple(reversed(seq))


def _common_prefix(seqs):
    lo, hi = min(seqs, default=()), max(seqs, default=())
    return next((lo[:n] for n, (a, b) in enumerate(zip(lo, hi)) if a != b), lo)


def _decode(auto, k, start, text, steps, tails):
    """Decode text from start; ``steps[i]`` maps the bits a step reads in
    table i to (symbol, codeword length, target, more than one candidate) or
    () when none fits, and ``tails`` maps (table, bits left) to their
    completions."""
    rows, windows = auto.rows, auto.words(k)
    widths = [n + k for n in auto.longest]
    symbols, table, pos, conflicts = [], start, 0, 0
    memo, width = steps[start], widths[start]
    seen = set()  # (table, offset) states left by an empty codeword
    while True:
        view = text[pos:pos + width]
        step = memo.get(view)
        if step is None:
            step = ()  # the first candidate; a second only flags a conflict
            for w, t, s in rows[table]:
                n = len(w)  # a k-bit window is there only if k bits follow
                if view.startswith(w) and view[n:n + k] in windows[t]:
                    if step:
                        step = step[:3] + (True,)
                        break
                    step = (s, n, t, False)
            memo[view] = step
        if not step:
            break
        s, n, t, conflict = step
        conflicts += conflict
        if not n:  # stop rather than revisit a state by empty codewords
            seen.add((table, pos))
            if (t, pos) in seen:
                break
        symbols.append(s)
        pos += n
        table, memo, width = t, steps[t], widths[t]

    def complete():  # a function of (table, text[pos:]) alone
        key = (table, text[pos:])
        return tails.get(key) or tails.setdefault(
            key, _completions(auto, key[1], table))

    try:
        completions, capped = complete()
    except NoConsistentCompletion:
        if not auto._search(text, start)[1]:
            raise
        raise NoConsistentCompletion(
            "the decoder misstepped: at bit %d it reached table %d, from "
            "which no emission starts with %s; the tuple is not decodable "
            "with delay %d there" % (pos, table, text[pos:], k)) from None
    # With the list capped an unseen completion could disagree, so only an
    # uncapped consensus is safe to emit.
    settled = _common_prefix(completions) if not capped else ()
    if settled:
        for s in settled:
            w, table, _ = rows[table][s]
            symbols.append(s)
            pos += len(w)
        completions, capped = complete()

    info = DanglingInfo(Bits(text[pos:]), completions, capped, conflicts)
    return DecodeResult(tuple(symbols), start, table, info)


def decode(code, start, bits, k=K):
    """Decode as much of ``bits`` as the k-bit lookahead determines.

    For a tuple decodable with delay k, every symbol decoded from a whole
    emission is the source's.  On a stream cut inside a codeword only the
    symbols whose codeword is followed by at least k bits are guaranteed:
    the tail's settled prefix takes the cut for a codeword boundary.

    Raises NoConsistentCompletion if the bits cannot be a prefix of any
    emission from the start table, or naming the table and bit where a
    greedy step went wrong: the tuple is not decodable with delay k there.
    """
    check_indices(code, start)
    steps = [{} for _ in code.tables]
    return _decode(code.sets, k, start, str(Bits(bits)), steps, {})


def _identify(auto, table, text):
    """(offset, symbol) once text[:offset] leaves one symbol of ``table``
    consistent (more bits only rule more out), or None if text never does."""
    cands = auto.rows[table]
    for t in range(len(text) + 1):
        cands = [(w, j, s) for w, j, s in cands if text.startswith(w[:t])
                 and (len(w) >= t or auto._search(text, j, len(w), t)[1])]
        if len(cands) == 1:
            return t, cands[0][2]
    return None


def _delays(auto, start, seq, text, k, memo):
    """Identify each symbol within the bits a k-delay step reads, memoized
    by (table, those bits, whether they end the text), else on all of it."""
    rows, longest = auto.rows, auto.longest
    table, pos, delays = start, 0, []
    for s in seq:
        w, nxt, _ = rows[table][s]
        view = text[pos:pos + longest[table] + k]
        key = (table, view, pos + len(view) == len(text))
        found = memo.get(key, False)
        if found is False:
            found = _identify(auto, table, view)
            if found or key[2]:
                memo[key] = found
            else:  # more bits may yet identify the symbol
                found = _identify(auto, table, text[pos:])
        if found is None:
            break  # never the only explanation: the decoder's dangling tail
        if found[1] != s:
            raise NoConsistentCompletion(
                "the bits do not encode the sequence: the scan "
                "contradicts it at table %d, bit %d" % (table, pos + found[0]))
        delays.append(max(0, found[0] - len(w)))
        pos += len(w)
        table = nxt
    return delays


def identification_delays(code, start, seq, bits=None):
    """Per-symbol identification delay when reading bits one at a time.

    The delay of a symbol is how many bits past the end of its codeword
    the reader needed before that symbol became the only consistent
    explanation (0 when it already was at the boundary).  Symbols the full
    stream never pins down are not measured; they are exactly the ones the
    decoder reports as dangling.
    """
    seq = tuple(seq)
    check_indices(code, start, seq)
    auto = code.sets
    text = auto._emit(start, seq)[0] if bits is None else str(Bits(bits))
    return _delays(auto, start, seq, text, 2, {})  # any view width is exact


@dataclass(frozen=True)
class RoundTripFailure:
    trial: int
    start: int
    seq: tuple
    reason: str


@dataclass(frozen=True)
class RoundTripReport:
    trials: int
    failures: tuple
    failure_count: int
    max_delay: int
    conflicts: int

    @property
    def ok(self):
        return self.failure_count == 0


def roundtrip_check(code, k=K, trials=1000, max_len=12, seed=None):
    """Encode random sequences, decode, and measure identification delays.

    A trial fails when the decoder output is not a prefix of the source,
    when it leaves out a symbol whose codeword is followed by at least k
    bits, when the bits admit no completion, or when some symbol needed
    more than k bits of delay to identify.  ``seed`` is required so runs are
    reproducible.
    """
    if seed is None:
        raise InvalidArgument("seed is required")
    for name, value, low in (("trials", trials, 0), ("max_len", max_len, 1)):
        if type(value) is not int:  # a float or str would fail mid-trial
            raise InvalidType("%s must be int, got %r" % (name, value))
        if value < low:
            raise InvalidArgument("%s=%r below %d" % (name, value, low))
    check_k(k)  # before the trials, of which there may be none
    rng = random.Random(seed)
    auto, tails, scans = code.sets, {}, {}  # shared by the trials
    steps = [{} for _ in code.tables]
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
        text = auto._emit(start, seq)[0]
        try:
            result = _decode(auto, k, start, text, steps, tails)
        except NoConsistentCompletion as exc:
            fail(trial, start, seq, "no completion: %s" % exc)
            continue
        got = result.symbols
        if got != seq[:len(got)]:
            fail(trial, start, seq, "decoded %r instead of a prefix" % (got,))
            continue
        conflicts += result.info.conflicts
        n = len(got)  # the cut-stream contract owes seq[n] if k bits follow
        if n < len(seq) and len(auto._emit(start, seq[:n + 1])[0]) + k \
                <= len(text):
            fail(trial, start, seq, "symbol %d not decoded, though at least "
                 "%d bits follow its codeword" % (n, k))
            continue
        delays = _delays(auto, start, seq, text, k, scans)
        if delays:
            worst = max(delays)
            max_delay = max(max_delay, worst)
            if worst > k:
                fail(trial, start, seq, "identification delay %d" % worst)
    return RoundTripReport(trials, tuple(failures), count, max_delay, conflicts)

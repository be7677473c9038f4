"""Encoding, decoding with bounded lookahead, and round-trip checking.

The decoder is greedy: in table i it emits the symbol whose codeword the
unread bits start with and whose next k bits are an emittable k-bit block
of the next table.  For a tuple decodable with delay k that candidate is
unique once the window is fully available, so the scan never misreads; it
stops when fewer than k bits remain past the codeword, or rather than
revisit a (table, offset) state through an empty codeword.

Each memo is keyed by the bits that decide its answer:
- a greedy step by the bits it reads, at most its table's longest codeword
  plus k, in the automaton's ``steps(k)``: one dict per table, kept with the
  tuple, of at most STEP_CAP views.  A missed view probes ``fits(k)``, keyed
  by each codeword plus a k-bit window its target can emit: a row fits
  exactly when one of its keys is a prefix of the view.
- a tail's completions, or that it has none, by (table, bits left).
- a symbol's identification by (table, its identifying prefix) and by
  (table, the bits a step reads): each row stays consistent up to its reach
  into the bits, and no bit past an offset decides whether it gets there,
  so every view starting with that prefix is identified there alike.  A
  view that identifies nothing is stored as such, under itself alone.
Decoding, tail completion and the round-trip delay scan all walk the tuple's
emission automaton, ``code.sets``, over ``str`` offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from os.path import commonprefix
import random

from .bits import Bits
from .errors import InvalidArgument, NoConsistentCompletion
from .prefix_sets import (K, check_code, check_indices, check_int, check_k,
                          encode_from)

COMPLETION_CAP = 16
STEP_CAP = 2 ** 12  # views per table in ``steps(k)``, whatever the streams
FAILURE_CAP = 10
ROUNDTRIP_SYMBOL_CAP = 10 ** 6  # trials * max_len, the most symbols drawn

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


def _completions(auto, tail, table):
    """The first COMPLETION_CAP symbol sequences emitting exactly a nonempty
    ``tail`` from ``table``, by length then lexicographically, and whether more
    exist; None when no emission even starts with it.

    A sequence stops at its first exact match: extending one only appends
    symbols that emit nothing, which the bits cannot testify to.  A backward
    BFS gives each state its fewest symbols to the tail's end; a step's
    slack, 1 + fewest[next] - fewest[state], is never negative, so a
    sequence is fewest[start] plus its total slack long.  Slack budgets are
    walked depth first in symbol order within the slack left, each listing
    one length: 0 first, then the least budget that takes a step the last
    walk cut.  A longer sequence's first step past the budget is cut, so no
    sequence lies between, and a walk that cut none leaves none.  A walk
    ends one path per sequence found so far: linear in the tail's length.
    """
    graph, reaches = auto._search(tail, table)
    if not reaches:
        return None
    fewest, back = {st: 0 for st in graph if st[1] == len(tail)}, {}
    for st, edges in graph.items():
        for _, nxt in edges:
            back.setdefault(nxt, []).append(st)
    queue = list(fewest)
    for st in queue:  # the list grows while it is read
        for prev in set(back.get(st, ())).difference(fewest):
            fewest[prev] = fewest[st] + 1
            queue.append(prev)
    found, budget = [], 0 if (table, 0) in fewest else None
    while budget is not None and len(found) <= COMPLETION_CAP:
        path, lacks, stack = [], set(), [(0, None, (table, 0), budget)]
        while stack and len(found) <= COMPLETION_CAP:
            depth, s, st, left = stack.pop()
            path[depth:] = [s]
            if not fewest[st] and not left:
                found.append(tuple(path[1:]))  # path[0] holds no symbol
            for s, nxt in reversed(graph[st]):
                if nxt in fewest:  # lack: the slack the step needs beyond left
                    lack = 1 + fewest[nxt] - fewest[st] - left
                    if lack > 0:
                        lacks.add(lack)
                    else:
                        stack.append((depth + 1, s, nxt, -lack))
        budget = budget + min(lacks) if lacks else None
    return tuple(found[:COMPLETION_CAP]), len(found) > COMPLETION_CAP


def _decode(auto, k, start, text, steps, tails):
    """Decode text from start.  ``steps[i]``, at most STEP_CAP views, maps
    the bits a step reads in table i to the lowest fitting row's (symbol,
    codeword length, target, more than one row fits), () if none fits, and
    ``tails`` (table, bits left) to their completions, None if unemittable."""
    rows, fits = auto.rows, auto.fits(k)
    widths = [n + k for n in auto.longest]
    symbols, table, pos, conflicts = [], start, 0, 0
    memo, width = steps[start], widths[start]
    seen = set()  # (table, offset) states left by an empty codeword
    while True:
        view = text[pos:pos + width]
        step = memo.get(view)
        if step is None:  # probe the prefixes that ``fits`` keys
            keys, lengths = fits[table]
            if len(view) < width:  # a row fits only when k bits follow it
                lengths = [n for n in lengths if n <= len(view)]
            step = ()
            for n in lengths:
                fit = keys.get(view[:n])
                if fit:  # a second row only flags a conflict
                    step = min(step, fit)[:3] + (True,) if step else fit
            if len(memo) < STEP_CAP:  # bounded whatever the streams
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
        if pos == len(text):
            return (), False
        key = (table, text[pos:])
        found = tails.get(key, False)  # a stored tail holds None or a pair
        if found is False:
            found = tails[key] = _completions(auto, key[1], table)
        if found is None:
            raise NoConsistentCompletion(
                "%s is not a prefix of any emission from table %d"
                % (key[1], table))
        return found

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
    settled = commonprefix(completions) if not capped else ()
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
    sets = code.sets
    return _decode(sets, k, start, str(Bits(bits)), sets.steps(k), {})


def _identify(auto, table, text):
    """(offset, symbol) once text[:offset] leaves one symbol of ``table``
    consistent (more bits only rule more out), or None if text never does.
    Each row is consistent up to its reach, the longest prefix of text its
    codeword, then an emission from its target, agrees with: a walk past
    the codeword to text's end reaches all of it, else the codewords that
    may pass the walk's furthest state tell.  A unique longest reach
    identifies one past the second-longest."""
    rows, reaches = auto.rows, [(-1, -1)]
    for w, j, s in rows[table]:
        walk, whole = auto._search(text, j, len(w)) if text.startswith(w) \
            else ((), False)
        top = max(u for _, u in walk) if walk else len(commonprefix((w, text)))
        reaches.append((len(text) if whole else max([top] + [
            u + len(commonprefix((c, text[u:u + len(c)])))
            for i, u in walk for c, _, _ in rows[i] if u + len(c) > top]), s))
    (second, _), (reach, s) = sorted(reaches)[-2:]
    return (second + 1, s) if reach > second else None


def _delays(auto, start, seq, text, k, memo):
    """Identify each symbol within the bits a k-delay step reads, else on
    views of the rest, unstored, growing from w to 2w + 1 bits until one
    does or the stream ends.  ``memo`` maps (table, bits) to the (offset,
    symbol) ``_identify`` finds on any bits starting with them, or to ()
    when they alone identify nothing, never to None.  No later bit decides
    it, so a found one is stored under its identifying prefix and the view."""
    rows, longest = auto.rows, auto.longest
    table, pos, delays = start, 0, []
    for s in seq:
        w, nxt, _ = rows[table][s]
        view = text[pos:pos + longest[table] + k]
        found = memo.get((table, view))
        if found is None:
            found = next(filter(None, (memo.get((table, view[:n]))
                                       for n in range(len(view)))), None)
            if found is None:
                found = _identify(auto, table, view) or ()
                if found:
                    memo[table, view[:found[0]]] = found
            memo[table, view] = found
        while not found and pos + len(view) < len(text):  # more bits may tell
            view = text[pos:pos + 2 * len(view) + 1]
            found = _identify(auto, table, view)
        if not found:
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
    seq = check_indices(code, start, seq)
    auto = code.sets
    text = auto._emit(start, seq)[0] if bits is None else str(Bits(bits))
    return _delays(auto, start, seq, text, K, {})  # any view width is exact


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
    more than k bits of delay to identify.  ``seed``, an int, is required so
    runs are reproducible; trials * max_len may not pass
    ROUNDTRIP_SYMBOL_CAP.
    """
    check_code(code)
    if seed is None:
        raise InvalidArgument("seed is required")
    check_int("seed", seed)
    for name, value, low in (("trials", trials, 0), ("max_len", max_len, 1)):
        if check_int(name, value) < low:  # a float or str would fail mid-trial
            raise InvalidArgument("%s=%r below %d" % (name, value, low))
    if trials * max_len > ROUNDTRIP_SYMBOL_CAP:
        raise InvalidArgument("trials=%d times max_len=%d is above %d" % (
            trials, max_len, ROUNDTRIP_SYMBOL_CAP))
    check_k(k)  # before the trials, of which there may be none
    rng = random.Random(seed)
    randrange, sigma = rng.randrange, code.sigma
    auto, tails, scans = code.sets, {}, {}  # shared by the trials
    failures, count, max_delay, conflicts = [], 0, 0, 0

    def fail(trial, start, seq, reason):
        nonlocal count
        count += 1
        if len(failures) < FAILURE_CAP:
            failures.append(RoundTripFailure(trial, start, tuple(seq), reason))

    for trial in range(trials):
        start = randrange(code.num_tables)
        seq = tuple(randrange(sigma) for _ in range(rng.randint(1, max_len)))
        text = auto._emit(start, seq)[0]
        try:
            result = _decode(auto, k, start, text, auto.steps(k), tails)
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

"""What the benchmark computes apart from the program, and the checks on it.

Nothing here imports ``codetuples``.  A tuple is a pair ``(words, targets)``
of per-table lists: ``words[i][s]`` is the codeword of symbol s in table i
as a plain ``"0"``/``"1"`` string (``""`` when empty) and ``targets[i][s]``
its next-table index.  Every check compares an output of the program with a
value recomputed here from the definitions, or with a property the method
must have, and raises ``CheckFailed`` naming the first disagreement.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

DELAY = 2


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own value."""


def require(ok, message, *args):
    if not ok:
        raise CheckFailed(message % args if args else message)


# -- tuples ------------------------------------------------------------------


def encode(words, targets, start, seq):
    """The emission of seq from the start table, and the table it ends in."""
    out = []
    j = start
    for s in seq:
        out.append(words[j][s])
        j = targets[j][s]
    return "".join(out), j


def continuation_sets(words, targets, k):
    """Per table, every k-bit string that starts some emission from it.

    A search over (table, bits emitted so far) states, independent of the
    program's fixed point over lower levels.
    """
    out = []
    for i in range(len(words)):
        found = set()
        seen = set()
        stack = [(i, "")]
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            j, acc = state
            for word, t in zip(words[j], targets[j]):
                emitted = acc + word
                if len(emitted) >= k:
                    found.add(emitted[:k])
                else:
                    stack.append((t, emitted))
        out.append(frozenset(found))
    return out


def reach_sets(targets):
    """Per table, the tables some source sequence walks it to."""
    out = []
    for i in range(len(targets)):
        seen = {i}
        stack = [i]
        while stack:
            for t in targets[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        out.append(frozenset(seen))
    return out


def core(targets):
    """Tables reachable from every table; empty exactly when not regular."""
    return frozenset.intersection(*reach_sets(targets))


def is_decodable(words, targets):
    """Delay-2 decodability from its two clauses.

    After a codeword, the next two bits must tell the finished codeword from
    every longer codeword it starts, and two symbols sharing a codeword must
    lead to tables with no two-bit emission in common.
    """
    sets = {k: continuation_sets(words, targets, k) for k in (1, 2)}
    for i, row in enumerate(words):
        for s, word in enumerate(row):
            follow = sets[DELAY][targets[i][s]]
            for s2, longer in enumerate(row):
                if s2 == s:
                    continue
                if longer == word:
                    if s2 > s and follow & sets[DELAY][targets[i][s2]]:
                        return False
                    continue
                if not longer.startswith(word):
                    continue
                rest = longer[len(word):]
                if len(rest) >= DELAY:
                    clash = {rest[:DELAY]}
                else:
                    clash = {rest + r for r in
                             sets[DELAY - len(rest)][targets[i][s2]]}
                if follow & clash:
                    return False
    return True


def kind(words, targets):
    """'f0' (extendable, regular, delay-2 decodable), 'regular' (regular but
    not f0) or 'irregular'."""
    if not core(targets):
        return "irregular"
    extendable = all(continuation_sets(words, targets, 1))
    if extendable and is_decodable(words, targets):
        return "f0"
    return "regular"


def is_f1(words, targets):
    return kind(words, targets) == "f0" and all(
        p == {"0", "1"} for p in continuation_sets(words, targets, 1))


def serialize(names, words, targets):
    lines = ["alphabet " + " ".join(names), "tables %d" % len(words)]
    for i, (row, trow) in enumerate(zip(words, targets)):
        lines.append("table %d" % i)
        for name, word, t in zip(names, row, trow):
            lines.append("%s %s %d" % (name, word or "-", t))
    return "\n".join(lines) + "\n"


def parse(lines):
    """(names, words, targets) from the lines of a code-tuple file."""
    fields = [line.split() for line in lines if line.strip()]
    require(fields and fields[0][0] == "alphabet", "no alphabet line")
    names = fields[0][1:]
    require(fields[1][0] == "tables", "no tables line")
    m = int(fields[1][1])
    words, targets = [], []
    pos = 2
    for i in range(m):
        require(fields[pos] == ["table", str(i)], "no 'table %d' line", i)
        rows = {f[0]: f for f in fields[pos + 1:pos + 1 + len(names)]}
        require(set(rows) == set(names), "table %d rows do not match", i)
        words.append([rows[n][1].replace("-", "") for n in names])
        targets.append([int(rows[n][2]) for n in names])
        pos += 1 + len(names)
    require(pos == len(fields), "trailing lines after the last table")
    return names, words, targets


# -- costs -------------------------------------------------------------------


def table_lengths(words, probs):
    return [sum((p * len(w) for p, w in zip(probs, row)), Fraction(0))
            for row in words]


def is_stationary(targets, probs, pi):
    """pi sums to one and is fixed by the table-to-table chain."""
    if sum(pi) != 1 or any(x < 0 for x in pi):
        return False
    moved = [Fraction(0)] * len(pi)
    for i, row in enumerate(targets):
        for p, t in zip(probs, row):
            moved[t] += pi[i] * p
    return moved == list(pi)


def two_table_length(words, targets, probs):
    """Average length of a two-table tuple from the closed form

        L = (q10 * len0 + q01 * len1) / (q01 + q10),

    where q01 (q10) is the probability of leaving table 0 (1); None when
    neither table is ever left."""
    q01 = sum((p for p, t in zip(probs, targets[0]) if t == 1), Fraction(0))
    q10 = sum((p for p, t in zip(probs, targets[1]) if t == 0), Fraction(0))
    if q01 + q10 == 0:
        return None
    len0, len1 = table_lengths(words, probs)
    return (q10 * len0 + q01 * len1) / (q01 + q10)


def huffman(probs):
    """Codeword lengths and cost of a binary Huffman code, by a heap."""
    heap = [(p, n, (n,)) for n, p in enumerate(probs)]
    heapq.heapify(heap)
    depth = [0] * len(probs)
    order = len(probs)
    while len(heap) > 1:
        p1, _, m1 = heapq.heappop(heap)
        p2, _, m2 = heapq.heappop(heap)
        for s in m1 + m2:
            depth[s] += 1
        heapq.heappush(heap, (p1 + p2, order, m1 + m2))
        order += 1
    return depth, sum(p * d for p, d in zip(probs, depth))


def space_size(sigma, tables, max_len):
    """Assignments in a search space: every slot takes one of the
    2**(max_len+1) - 1 codewords and one of the next-table indices."""
    words = 2 ** (max_len + 1) - 1
    return (words * tables) ** (sigma * tables)


# -- checks ------------------------------------------------------------------


def check_decode(words, targets, start, source, bits, decoded, end_table,
                 tail, completions, whole):
    """One decode of ``bits``, an emission of ``source`` from ``start``, or
    a cut copy of one when ``whole`` is false.

    - the symbols the delay-2 guarantee covers (every codeword followed by
      at least two more bits) are decoded and equal the source; on a whole
      stream every decoded symbol does;
    - the decoded symbols re-encode to exactly the bits consumed;
    - every listed completion emits exactly the tail.
    """
    ends = []
    pos, j = 0, start
    for s in source:
        pos += len(words[j][s])
        j = targets[j][s]
        ends.append(pos)
    covered = sum(1 for e in ends if e + DELAY <= len(bits))
    require(len(decoded) >= covered,
            "decoded %d symbols, the delay-%d guarantee covers %d",
            len(decoded), DELAY, covered)
    upto = len(decoded) if whole else covered
    for n in range(upto):
        require(decoded[n] == source[n],
                "symbol %d decoded as %r, the source has %r",
                n, decoded[n], source[n])
    consumed, end = encode(words, targets, start, decoded)
    require(consumed + tail == bits,
            "the decoded symbols emit %d bits and the tail has %d, of a "
            "%d-bit stream that they do not rebuild",
            len(consumed), len(tail), len(bits))
    require(end == end_table, "decode ends in table %r, the symbols in %r",
            end_table, end)
    for completion in completions:
        emitted, _ = encode(words, targets, end_table, completion)
        require(emitted == tail, "completion %r emits %r, not the tail %r",
                completion, emitted, tail)


def check_search(filter_name, sigma, max_len, probs, words, targets,
                 avg_len, examined, in_class):
    """One search result: the winner is in its class, its reported L is the
    two-table closed form and ``examined`` is the size of the space."""
    require(in_class, "the %s winner fails classify for %s",
            filter_name, filter_name)
    require(len(words) == 2 and all(len(r) == sigma for r in words),
            "the winner is not a two-table tuple over %d symbols", sigma)
    require(all(len(w) <= max_len for r in words for w in r),
            "the winner has a codeword longer than %d bits", max_len)
    own = two_table_length(words, targets, probs)
    require(own == avg_len, "reported L %s, the closed form gives %s",
            avg_len, own)
    size = space_size(sigma, 2, max_len)
    require(examined == size, "examined %r, the space holds %d",
            examined, size)


def check_search_order(f0_len, aifv_len, probs, max_len, cmp_aifv, cmp_huff):
    """The minima against each other and against Huffman.

    Every AIFV code is an f0 code, so the f0 minimum is at most the AIFV
    minimum; the comparison must report that same AIFV minimum and the
    Huffman cost, and a Huffman code within the length bound is itself an
    AIFV code (with an unused second table), so it bounds the AIFV minimum.
    """
    require(f0_len <= aifv_len, "f0 minimum %s exceeds the aifv minimum %s",
            f0_len, aifv_len)
    require(cmp_aifv == aifv_len, "the comparison reports aifv L %s, the "
            "search %s", cmp_aifv, aifv_len)
    lengths, cost = huffman(probs)
    require(cmp_huff == cost, "the comparison reports Huffman L %s, the "
            "heap gives %s", cmp_huff, cost)
    if max(lengths) <= max_len:
        require(aifv_len <= cost, "aifv minimum %s exceeds the Huffman "
                "cost %s", aifv_len, cost)


def check_psets(lines, want, k):
    """``psets`` output lines equal ``want``, the continuation sets that
    ``continuation_sets`` searched."""
    require(len(lines) == len(want), "psets printed %d lines for %d tables",
            len(lines), len(want))
    for i, (line, expected) in enumerate(zip(lines, want)):
        head, _, body = line.partition("=")
        require(head == "P%d[%d]" % (k, i), "unexpected psets line %r", line)
        inner = body.strip()[1:-1]
        got = frozenset(inner.split(",")) if inner else frozenset()
        require(got == expected, "P%d[%d]: printed %s, the search gives %s",
                k, i, sorted(got), sorted(expected))


CHAIN = ("f0", "f1", "f2", "f3", "f4", "aifv")


def check_flags(flags, words, targets, expected=None):
    """``classify`` flags: the chain holds, the f0 parts agree with the
    benchmark's own tests and, for a reference tuple, with its table."""
    for wider, tighter in zip(CHAIN, CHAIN[1:]):
        require(flags[wider] or not flags[tighter],
                "%s passes but %s fails", tighter, wider)
    own = kind(words, targets)
    require(flags["regular"] == (own != "irregular"),
            "regular is %s, reachability says %s",
            flags["regular"], own != "irregular")
    require(flags["f0"] == (own == "f0"), "f0 is %s, the own test says %s",
            flags["f0"], own == "f0")
    if expected is not None:
        require(flags == expected, "flags %s differ from the table %s",
                flags, expected)

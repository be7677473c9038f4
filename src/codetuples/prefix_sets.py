"""Sets of possible next bits, the engine behind every decodability check.

For a table i and a window b, the k-bit continuation set holds every length-k
binary string c such that some source sequence, encoded from table i with its
first codeword extending b, emits b c ... .  A set of k-bit blocks is a
2**k-bit int mask with bit int(c, 2) per block c, and ``emits`` is the one
step from a codeword and its target's masks to the blocks an emission can
start with: the continuation sets, the delay test and the search scan read
it.  The base sets (empty window) of one level read each other only through
empty codewords, since a nonempty one reads its target's shorter levels; so
a level is one pass, table i taking what the nonempty codewords emit in each
table it reaches through empty codewords.  A table that can never emit k
bits ends with an empty set, which is the correct answer, not an error.

The same table is the tuple's emission automaton, which the codec walks;
``fits`` keys its greedy steps by a codeword and the k-bit window after it.
Sets grow like 2**k, so k is refused beyond the fixed bound DEFAULT_MAX_K.
Each argument kind has one guard here, which every public entry point
reaches: ``check_code`` for a code tuple and ``check_int`` for an int.
"""

from __future__ import annotations

from collections.abc import Iterable

from .bits import Bits
from .errors import InvalidArgument, InvalidType

DEFAULT_MAX_K = 8
K = 2  # the decoding delay of the paper's families, and every default k


def check_int(name, value, *args):
    """``value`` if it is an int and not a bool, else InvalidType naming
    ``name``, formatted with ``args`` only then: 2.0 and True equal an
    int, and would pass a range test or index a table."""
    if type(value) is int:
        return value
    raise InvalidType("%s must be int, got %r" % (name % args, value))


def check_k(k):
    """Refuse a k that is not an int or lies outside 0..DEFAULT_MAX_K."""
    check_int("k", k)
    if not 0 <= k <= DEFAULT_MAX_K:
        raise InvalidArgument("k=%d outside 0..%d" % (k, DEFAULT_MAX_K))


def check_type(name, value, kind):
    """``value`` if it is a ``kind``, else InvalidType naming ``name``."""
    if isinstance(value, kind):
        return value
    raise InvalidType("%s must be %s, got %r" % (name, kind.__name__, value))


def emits(word, levels, k):
    """The k-bit blocks an emission can start with whose first codeword is
    ``word``, with ``levels`` its target's level masks: a word of k bits or
    more fixes one block, a shorter one heads its target's shorter blocks."""
    if len(word) >= k:
        return 1 << int(word[:k] or "0", 2)
    rest = k - len(word)
    return levels[rest] << (int(word or "0", 2) << rest)


def blocks(mask, k):
    """The k-bit blocks of a level-k mask as ``str``, ascending."""
    return [bin(n | 1 << k)[3:] for n in range(1 << k) if mask >> n & 1]


class PrefixSetTable:
    """One code tuple's emission automaton and memoized continuation sets:
    level masks on ``str`` codewords, viewed once per level by ``words``.

    An automaton state (table, offset) says a bit string up to offset is
    exactly an emission ending in that table, and each symbol whose
    codeword the string goes on with is an edge.  ``rows[i]``: table i's
    (codeword, target, symbol); ``longest[i]``: its longest codeword."""

    def __init__(self, code):
        check_code(code)
        self.rows = tuple(
            tuple((str(w), t, s) for s, (w, t)
                  in enumerate(zip(table.codes, table.targets)))
            for table in code.tables)
        self.longest = tuple(max(map(len, t.codes)) for t in code.tables)
        self._levels = tuple([1] for _ in code.tables)  # the empty block
        self._reach = tuple(map(self._reached_rows, range(len(self.rows))))
        self._words = {}
        self._fits = {}

    def _reached_rows(self, i):
        """The rows of the tables i reaches by empty codewords, i included."""
        reach = [i]
        for j in reach:  # the list grows while it is read
            reach += {t for w, t, _ in self.rows[j] if not w} - set(reach)
        return [row for j in reach for row in self.rows[j]]

    def levels(self, k):
        """Every table's level masks 0..k, indexed [table][level].  Only an
        empty codeword reads the level being built, so level n of table i is
        what the nonempty codewords of its reached rows emit, in one pass."""
        check_k(k)
        for n in range(len(self._levels[0]), k + 1):
            for levels, rows in zip(self._levels, self._reach):
                levels.append(self._mask(rows, "", n, True))
        return self._levels

    def _mask(self, rows, b, k, strict):
        """The blocks ``emits`` gives for the codewords of ``rows`` extending
        b (strictly when ``strict``), as one mask."""
        mask = 0
        for c, t, _ in rows:
            if c.startswith(b) and (len(c) > len(b) or not strict):
                mask |= emits(c[len(b):], self._levels[t], k)
        return mask

    def words(self, k):
        """The base sets of every table at level k, as sets of ``str``."""
        check_k(k)
        if k not in self._words:
            self._words[k] = tuple(frozenset(blocks(table[k], k))
                                   for table in self.levels(k))
        return self._words[k]

    def fits(self, k):
        """Per table, (keys, lengths): ``keys`` maps each codeword followed
        by a k-bit block of its target's base set to (symbol, codeword
        length, target, more than one row gives it), first row first, and
        ``lengths`` lists the keys' lengths ascending.  A row fits bits
        exactly when one of its keys is their prefix, so a greedy step
        probes the prefixes of those lengths, at most sigma * 2**k keys."""
        check_k(k)  # before the lookup, which finds 2 for 2.0
        if k not in self._fits:
            words, tables = self.words(k), []
            for rows in self.rows:
                keys = {}
                for w, t, s in rows:
                    for c in words[t]:
                        key = w + c
                        keys[key] = keys[key][:3] + (True,) if key in keys \
                            else (s, len(w), t, False)
                tables.append((keys, sorted(set(map(len, keys)))))
            self._fits[k] = tuple(tables)
        return self._fits[k]

    def base(self, i, k):
        """All k-bit strings table i can emit next, as ``Bits`` (``words``)."""
        check_table(i, len(self.rows))
        return frozenset(map(Bits, self.words(k)[i]))

    def continuations(self, i, b, k):
        """k-bit continuations of window b when the first codeword of the
        encoding weakly extends b (equals it or extends it)."""
        return self._conditional(i, b, k, strict=False)

    def strict_continuations(self, i, b, k):
        """Same, but the first codeword must strictly extend b."""
        return self._conditional(i, b, k, strict=True)

    def _conditional(self, i, b, k, strict):
        self.levels(k)
        check_table(i, len(self.rows))
        mask = self._mask(self.rows[i], str(Bits(b)), k, strict)
        return frozenset(map(Bits, blocks(mask, k)))

    def _emit(self, table, seq):
        """The codewords of seq from table joined as a str, and the table
        it ends in; ``encode_from`` and the codec check the arguments."""
        rows, words = self.rows, []
        append = words.append
        for s in seq:
            w, table, _ = rows[table][s]
            append(w)
        return "".join(words), table

    def search(self, text, table):
        """The states reachable from (table, 0) by codewords inside text,
        each with its edges (symbol, next state) in symbol order, and
        whether some emission has text as a prefix."""
        check_table(table, len(self.rows))
        return self._search(str(Bits(text)), table)

    def _search(self, text, table, pos=0):
        """``search`` from (table, pos) inside text[pos:], for checked
        arguments, as the codec passes them."""
        graph = {}
        reaches = False
        stack = [(table, pos)]
        while stack:
            state = stack.pop()
            if state in graph:
                continue
            j, u = state
            left = len(text) - u
            edges = graph[state] = []
            reaches = reaches or left == 0
            for w, t, s in self.rows[j] if left else ():
                if text.startswith(w, u):
                    nxt = (t, u + len(w))
                    edges.append((s, nxt))
                    stack.append(nxt)
                elif text.startswith(w[:left], u):  # w runs past text's end
                    reaches = True
        return graph, reaches


class _Sets:
    """``CodeTuple.sets``, built on first read and then stored on the tuple
    with ``object.__setattr__``: unlike ``functools.cached_property``'s
    write to ``__dict__``, that keeps CPython 3.11's inline attributes."""

    def __get__(self, code, owner=None):
        if code is None:
            return self
        object.__setattr__(code, "sets", PrefixSetTable(code))
        return code.sets


def check_code(code):
    """``code`` if it is a code tuple, else InvalidType.  ``core``, which
    defines CodeTuple, imports this module, so a tuple is known by the
    ``sets`` descriptor on its type; reading ``code.sets`` would build it."""
    if isinstance(getattr(type(code), "sets", None), _Sets):
        return code
    raise InvalidType("code must be CodeTuple, got %r" % (code,))


def encode_from(code, start, seq):
    """Concatenate the codewords of seq starting in the given table.

    Returns (bits, end_table); the empty sequence returns (empty, start).
    """
    seq = check_indices(code, start, seq)
    text, end = code.sets._emit(start, seq)
    return Bits(text), end


def check_table(i, count, name="start table"):
    """Refuse a table index that is not an int or lies outside 0..count-1:
    a negative one would silently index from the end."""
    check_int(name, i)
    if not 0 <= i < count:
        raise InvalidArgument("%s %r outside 0..%d" % (name, i, count - 1))


def check_symbols(seq, count):
    """Refuse a symbol outside 0..count-1 or not an int: 1.0 and True equal
    an index, and ``set((1, 1.0))`` is ``{1}``, so types are read one by
    one; a str symbol names no index."""
    if list(map(type, seq)).count(int) != len(seq):
        odd = [s for s in seq if type(s) not in (int, str)]
        if odd:
            raise InvalidType("symbol must be int, got %r" % (odd[0],))
    bad = set(seq).difference(range(count))
    if bad:
        raise InvalidArgument("symbol %r outside 0..%d" % (
            next(s for s in seq if s in bad), count - 1))


def check_indices(code, start, seq=()):
    """``seq`` as a tuple, once ``code`` is a tuple (``check_code``) and the
    start table (``check_table``) and each symbol (``check_symbols``) lie
    inside it."""
    check_table(start, len(check_code(code).tables))
    seq = tuple(check_type("seq", seq, Iterable))
    check_symbols(seq, len(code.alphabet))
    return seq


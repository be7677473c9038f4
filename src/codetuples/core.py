"""Core value types and the text file formats.

A code tuple is a finite family of code tables over one alphabet.  Table i
assigns every symbol a binary codeword (possibly empty) and a next-table
index; encoding starts in a chosen table and hops tables after every symbol.
All values here are immutable and hashable, with their sequence fields
stored as tuples whatever sequence built them; a tuple builds its emission
automaton and continuation sets on first use and keeps them
(``CodeTuple.sets``).  Symbol order is the order of first appearance in the
alphabet line; every iteration in the package follows that order.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
import math

from .bits import Bits, parse as parse_bits, show as show_bits
from .errors import (AlphabetMismatch, FormatError, InvalidArgument,
                     InvalidType, UnknownSymbol)
from .prefix_sets import PrefixSetTable, check_type

MAX_FLOAT_DENOMINATOR = 10 ** 6
MAX_DECIMAL_EXPONENT = 1000
FLOAT_SUM_TOLERANCE = Fraction(1, 10 ** 12)


def _store_tuple(value, field):
    """Store a frozen value's sequence field as a tuple; InvalidType naming
    the field when it is not Iterable."""
    items = getattr(value, field)
    if type(items) is not tuple:
        try:
            object.__setattr__(value, field, tuple(items))
        except TypeError:
            check_type(field, items, Iterable)
            raise


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of distinct symbol names."""

    names: tuple

    def __post_init__(self):
        _store_tuple(self, "names")
        if not self.names:
            raise InvalidArgument("alphabet is empty")
        if len(set(self.names)) != len(self.names):
            raise InvalidArgument("duplicate symbol name")
        for name in self.names:
            if not name or any(ch.isspace() for ch in name):
                raise InvalidArgument("bad symbol name: %r" % (name,))

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(range(len(self.names)))

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownSymbol("unknown symbol: %r" % (name,)) from None

    def name(self, sym):
        return self.names[sym]

    def seq(self, text):
        """Parse a source sequence.

        Accepts an iterable of names, a whitespace-separated string of
        names, or (when every name is one character) a plain concatenation
        like "badb".
        """
        if isinstance(text, str):
            tokens = text.split()
            if len(tokens) == 1 and tokens[0] not in self.names and all(
                len(n) == 1 for n in self.names
            ):
                tokens = list(tokens[0])
        else:
            tokens = list(text)
        return tuple(self.index(t) for t in tokens)

    def render(self, seq):
        """Render a source sequence as space-separated names."""
        return " ".join(self.names[s] for s in seq)


@dataclass(frozen=True)
class Table:
    """One code table: a codeword and a next-table index per symbol."""

    codes: tuple
    targets: tuple

    def __post_init__(self):
        _store_tuple(self, "codes")
        _store_tuple(self, "targets")
        if len(self.codes) != len(self.targets):
            raise InvalidArgument("codes and targets differ in length")
        for c in self.codes:
            if not isinstance(c, Bits):
                raise InvalidType("codeword must be Bits, got %r" % (c,))


class _Sets:
    """``CodeTuple.sets``, built on first read and then stored on the tuple
    with ``object.__setattr__``: unlike ``functools.cached_property``'s
    write to ``__dict__``, that keeps CPython 3.11's inline attributes."""

    def __get__(self, code, owner=None):
        if code is None:
            return self
        object.__setattr__(code, "sets", PrefixSetTable(code))
        return code.sets


@dataclass(frozen=True)
class CodeTuple:
    """A family of code tables over a common alphabet."""

    alphabet: Alphabet
    tables: tuple

    def __post_init__(self):
        _store_tuple(self, "tables")
        if not self.tables:
            raise InvalidArgument("a code tuple needs at least one table")
        m = len(self.tables)
        for i, t in enumerate(self.tables):
            if not isinstance(t, Table):
                raise InvalidType("table %d must be Table, got %r" % (i, t))
            if len(t.codes) != len(self.alphabet):
                raise InvalidArgument("table size does not match alphabet")
            for name, j in zip(self.alphabet.names, t.targets):
                if type(j) is not int:  # 0.0 and True equal an index
                    raise InvalidType("table %d, symbol %s: next-table index "
                                      "must be int, got %r" % (i, name, j))
                if not 0 <= j < m:
                    raise InvalidArgument("next-table index %r out of range" % (j,))

    @property
    def num_tables(self):
        return len(self.tables)

    @property
    def sigma(self):
        return len(self.alphabet)

    def code(self, i, sym):
        return self.tables[i].codes[sym]

    def target(self, i, sym):
        return self.tables[i].targets[sym]

    def table_indices(self):
        return range(len(self.tables))

    def max_code_len(self):
        return max(len(c) for t in self.tables for c in t.codes)

    sets = _Sets()  # this tuple's continuation sets


def make_tuple(names, rows):
    """Build a CodeTuple from symbol names and per-table (code, target) rows.

    ``rows`` is a sequence of tables; each table is a sequence of
    (codeword string, target index) pairs in symbol order.
    """
    alphabet = Alphabet(names)
    tables = []
    for i, table_rows in enumerate(rows):
        pairs = tuple(table_rows)
        if len(pairs) != len(alphabet):
            raise InvalidArgument("table size does not match alphabet")
        for name, pair in zip(alphabet.names, pairs):
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise InvalidArgument("table %d, symbol %s: expected a "
                                      "(codeword, target) pair, got %r"
                                      % (i, name, pair))
        codes = [parse_bits(c) for c, _ in pairs]
        # an ASCII-digit string names its index; CodeTuple refuses the rest
        targets = [j if not isinstance(j, str) or _natural(j) is None
                   else _natural(j) for _, j in pairs]
        tables.append(Table(codes, targets))
    return CodeTuple(alphabet, tables)


@dataclass(frozen=True)
class SourceDist:
    """Exact symbol probabilities over an alphabet, summing to one."""

    alphabet: Alphabet
    probs: tuple

    def __post_init__(self):
        _store_tuple(self, "probs")
        if len(self.probs) != len(self.alphabet):
            raise InvalidArgument("distribution size does not match alphabet")
        for p in self.probs:
            if not isinstance(p, Fraction):
                raise InvalidType("probability must be Fraction, got %r" % (p,))
            if p <= 0:
                raise InvalidArgument("probabilities must be positive")
        if sum(self.probs) != 1:
            raise InvalidArgument("probabilities sum to %s, not 1" % (sum(self.probs),))

    def __getitem__(self, sym):
        return self.probs[sym]

    def integer_weights(self):
        """(lcm of the denominators, each probability times it as an int)."""
        scale = math.lcm(*(p.denominator for p in self.probs))
        return scale, tuple(p.numerator * (scale // p.denominator)
                            for p in self.probs)

    @classmethod
    def uniform(cls, alphabet):
        n = len(alphabet)
        return cls(alphabet, tuple(Fraction(1, n) for _ in range(n)))

    @classmethod
    def from_values(cls, alphabet, values, inexact=False):
        """Build from ints, Fractions, strings, or floats.

        Floats snap to rationals with denominator at most 10**6.  When a
        value was a float, or ``inexact`` says the caller rounded, a defect
        up to 10**-12 goes into the largest entry so they sum to one exactly.
        """
        probs = []
        for v in values:
            try:  # a float nan or inf raises ValueError or OverflowError
                p = _fraction(v)
            except (TypeError, ValueError, OverflowError, ZeroDivisionError):
                raise InvalidArgument("bad probability %r" % (v,)) from None
            if isinstance(v, float):
                p = p.limit_denominator(MAX_FLOAT_DENOMINATOR)
                inexact = True
            probs.append(p)
        defect = 1 - sum(probs)
        if defect != 0:
            if not inexact or abs(defect) > FLOAT_SUM_TOLERANCE:
                try:
                    total = str(sum(probs))
                except ValueError:  # past the interpreter's digit limit
                    total = "a value too long to print"
                raise InvalidArgument("probabilities sum to %s, not 1" % total)
            top = probs.index(max(probs))
            probs[top] += defect
        return cls(alphabet, probs)


def check_same_alphabet(code, dist):
    """Refuse a wrong-typed code or dist, or two different alphabets."""
    check_type("code", code, CodeTuple)
    check_type("dist", dist, SourceDist)
    if code.alphabet != dist.alphabet:
        raise AlphabetMismatch("code tuple and distribution use different alphabets")


# --------------------------------------------------------------------------
# Text formats.
#
# Code tuple file, line oriented, '#' starts a comment:
#
#   alphabet a b c d
#   tables 3
#   table 0
#   a 01 0
#   ...
#
# Codewords use '-' for the empty string.  Distribution file: one
# "symbol probability" pair per line, probability as decimal or p/q.
# --------------------------------------------------------------------------


def _natural(token):
    """An ASCII decimal token's value, or None (isdigit admits '\u00b2')."""
    try:
        return int(token) if token.isascii() and token.isdigit() else None
    except ValueError:  # past the interpreter's digit limit
        return None


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_code_tuple(text):
    """Parse the code-tuple file format into a CodeTuple."""
    lines = _content_lines(text)

    def take(missing):
        """The next content line as (line number, fields); at the end of
        the file, FormatError(missing)."""
        for lineno, line in lines:
            return lineno, line.split()
        raise FormatError(missing)

    lineno, fields = take("empty file")
    if fields[0] != "alphabet":
        raise FormatError("expected 'alphabet ...'", lineno)
    if len(fields) < 2:
        raise FormatError("alphabet needs at least one symbol", lineno)
    try:
        alphabet = Alphabet(fields[1:])
    except ValueError as exc:
        raise FormatError(str(exc), lineno) from None

    lineno, fields = take("missing 'tables N' line")
    num_tables = _natural(fields[1]) if len(fields) == 2 else None
    if fields[0] != "tables" or num_tables is None:
        raise FormatError("expected 'tables N'", lineno)
    if num_tables < 1:
        raise FormatError("need at least one table", lineno)

    tables = []
    for i in range(num_tables):
        lineno, fields = take("missing 'table %d' block" % i)
        if fields != ["table", str(i)]:
            raise FormatError("expected 'table %d'" % i, lineno)
        codes = [None] * len(alphabet)
        targets = [None] * len(alphabet)
        for _ in range(len(alphabet)):
            lineno, fields = take("table %d is missing rows" % i)
            if len(fields) != 3:
                raise FormatError("expected 'symbol codeword target'", lineno)
            name, word, target = fields
            try:
                sym = alphabet.index(name)
            except KeyError:
                raise FormatError("unknown symbol %r" % name, lineno) from None
            if codes[sym] is not None:
                raise FormatError("duplicate row for symbol %r" % name, lineno)
            try:
                codes[sym] = parse_bits(word)
            except ValueError:
                raise FormatError("bad codeword %r" % word, lineno) from None
            targets[sym] = _natural(target)
            if targets[sym] is None or targets[sym] >= num_tables:
                raise FormatError(
                    "next-table index %r out of range 0..%d" % (target, num_tables - 1),
                    lineno,
                )
        tables.append(Table(codes, targets))

    for lineno, line in lines:
        raise FormatError("unexpected trailing content: %r" % line, lineno)
    return CodeTuple(alphabet, tables)


def serialize_code_tuple(code):
    """Render a CodeTuple in the file format (round-trips with the parser)."""
    out = ["alphabet " + " ".join(code.alphabet.names)]
    out.append("tables %d" % code.num_tables)
    for i, table in enumerate(code.tables):
        out.append("table %d" % i)
        for sym in code.alphabet:
            out.append("%s %s %d" % (
                code.alphabet.name(sym), show_bits(table.codes[sym]),
                table.targets[sym],
            ))
    return "\n".join(out) + "\n"


def _fraction(value):
    """``Fraction(value)``; a decimal exponent is bounded first, since
    Fraction builds 10**exponent (ValueError past MAX_DECIMAL_EXPONENT): a
    string's ``e`` part, or a finite Decimal's exponent less its digit count,
    which a Decimal's fraction digits add to its exponent."""
    exponent = 0
    if isinstance(value, str):
        exponent = abs(int(value.lower().partition("e")[2] or 0))
    elif isinstance(value, Decimal) and value.is_finite():
        _, digits, exponent = value.as_tuple()
        exponent = abs(exponent) - len(digits)
    if exponent > MAX_DECIMAL_EXPONENT:
        raise ValueError(value)
    return Fraction(value)


def parse_dist(text, alphabet=None):
    """Parse a distribution file; optionally check it against an alphabet."""
    names = []
    probs = []
    inexact = False
    for lineno, line in _content_lines(text):
        fields = line.split()
        if len(fields) != 2:
            raise FormatError("expected 'symbol probability'", lineno)
        name, token = fields
        if name in names:
            raise FormatError("duplicate symbol %r" % name, lineno)
        try:
            probs.append(_fraction(token))
        except (ValueError, ZeroDivisionError):
            raise FormatError("bad probability %r" % token, lineno) from None
        names.append(name)
        if "/" not in token and any(c in token for c in ".eE"):
            inexact = True
    if not names:
        raise FormatError("empty distribution file")
    if alphabet is None:
        alphabet = Alphabet(names)
        ordered = probs
    else:
        if set(names) != set(alphabet.names):
            raise FormatError("distribution symbols do not match the alphabet")
        by_name = dict(zip(names, probs))
        ordered = [by_name[n] for n in alphabet.names]
    # Decimal entries are exact rationals already; only a written-out
    # rounding of a repeating expansion can miss, by the tolerance at most.
    try:
        return SourceDist.from_values(alphabet, ordered, inexact)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_dist(dist):
    out = []
    for sym in dist.alphabet:
        out.append("%s %s" % (dist.alphabet.name(sym), dist.probs[sym]))
    return "\n".join(out) + "\n"

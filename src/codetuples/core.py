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
                     UnknownSymbol)
from .prefix_sets import (_Sets, check_code, check_int, check_symbols,
                          check_table, check_type)

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
        for name in self.names:  # str first, since the index hashes them
            if not check_type("symbol name", name, str) or any(
                    ch.isspace() for ch in name):
                raise InvalidArgument("bad symbol name: %r" % (name,))
        object.__setattr__(self, "_index",
                           {name: i for i, name in enumerate(self.names)})
        if len(self._index) != len(self.names):
            raise InvalidArgument("duplicate symbol name")

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(range(len(self.names)))

    def index(self, name):
        try:
            return self._index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnknownSymbol("unknown symbol: %r" % (name,)) from None

    def name(self, sym):
        try:
            if type(sym) is int and sym >= 0:
                return self.names[sym]
        except IndexError:
            pass
        check_symbols((sym,), len(self.names))  # refuses every other sym

    def seq(self, text):
        """Parse a source sequence.

        Accepts an iterable of names, a whitespace-separated string of
        names, or (when every name is one character) a plain concatenation
        like "badb".
        """
        if isinstance(text, str):
            tokens = text.split()
            if len(tokens) == 1 and tokens[0] not in self._index and all(
                len(n) == 1 for n in self.names
            ):
                tokens = list(tokens[0])
        else:
            tokens = list(check_type("text", text, Iterable))
        return tuple(self.index(t) for t in tokens)

    def render(self, seq):
        """Render a source sequence as space-separated names."""
        seq = tuple(check_type("seq", seq, Iterable))
        check_symbols(seq, len(self.names))
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
            check_type("codeword", c, Bits)


@dataclass(frozen=True)
class CodeTuple:
    """A family of code tables over a common alphabet."""

    alphabet: Alphabet
    tables: tuple

    def __post_init__(self):
        check_type("alphabet", self.alphabet, Alphabet)
        _store_tuple(self, "tables")
        if not self.tables:
            raise InvalidArgument("a code tuple needs at least one table")
        m = len(self.tables)
        for i, t in enumerate(self.tables):
            check_type("table %d" % i, t, Table)
            if len(t.codes) != len(self.alphabet):
                raise InvalidArgument("table size does not match alphabet")
            for name, j in zip(self.alphabet.names, t.targets):
                check_int("table %d, symbol %s: next-table index", j, i, name)
                if not 0 <= j < m:
                    raise InvalidArgument("next-table index %r out of range" % (j,))

    @property
    def num_tables(self):
        return len(self.tables)

    @property
    def sigma(self):
        return len(self.alphabet)

    # code and target run in the transforms' loops: a type and a sign test
    def code(self, i, sym):
        try:
            if type(i) is type(sym) is int and i | sym >= 0:
                return self.tables[i].codes[sym]
        except IndexError:
            pass
        check_table(i, len(self.tables), "table")
        check_symbols((sym,), len(self.alphabet))

    def target(self, i, sym):
        try:
            if type(i) is type(sym) is int and i | sym >= 0:
                return self.tables[i].targets[sym]
        except IndexError:
            pass
        check_table(i, len(self.tables), "table")
        check_symbols((sym,), len(self.alphabet))

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
    for i, table_rows in enumerate(check_type("rows", rows, Iterable)):
        pairs = tuple(check_type("rows[%d]" % i, table_rows, Iterable))
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
        check_type("alphabet", self.alphabet, Alphabet)
        _store_tuple(self, "probs")
        if len(self.probs) != len(self.alphabet):
            raise InvalidArgument("distribution size does not match alphabet")
        for p in self.probs:
            if check_type("probability", p, Fraction).numerator <= 0:
                raise InvalidArgument("probabilities must be positive")
        object.__setattr__(self, "_weights", _scaled(self.probs))
        if sum(self._weights[1]) != self._weights[0]:
            raise _sum_error(*self._weights)

    def __getitem__(self, sym):
        try:
            if type(sym) is int and sym >= 0:
                return self.probs[sym]
        except IndexError:
            pass
        check_symbols((sym,), len(self.probs))  # refuses every other sym

    def integer_weights(self):
        """(lcm of the denominators, each probability times it as an int)."""
        return self._weights

    @classmethod
    def uniform(cls, alphabet):
        n = len(check_type("alphabet", alphabet, Alphabet))
        return cls(alphabet, tuple(Fraction(1, n) for _ in range(n)))

    @classmethod
    def from_values(cls, alphabet, values, inexact=False):
        """Build from ints, Fractions, strings, or floats.

        Floats snap to rationals with denominator at most 10**6.  When a
        value was a float, or ``inexact`` says the caller rounded, a defect
        up to 10**-12 goes into the largest entry so they sum to one exactly.
        """
        probs = []
        for v in check_type("values", values, Iterable):
            try:  # a float nan or inf raises ValueError or OverflowError
                p = v if type(v) is Fraction else _fraction(v)
            except (TypeError, ValueError, OverflowError, ZeroDivisionError):
                raise InvalidArgument("bad probability %r" % (v,)) from None
            if isinstance(v, float):
                p = p.limit_denominator(MAX_FLOAT_DENOMINATOR)
                inexact = True
            probs.append(p)
        scale, weights = _scaled(probs)
        if sum(weights) != scale:
            defect = 1 - Fraction(sum(weights), scale)
            if not inexact or abs(defect) > FLOAT_SUM_TOLERANCE:
                raise _sum_error(scale, weights)
            probs[weights.index(max(weights))] += defect
        return cls(alphabet, probs)


def _scaled(probs):
    """(lcm of the denominators, each probability times it as an int)."""
    scale = math.lcm(*(p.denominator for p in probs))
    return scale, tuple(p.numerator * (scale // p.denominator) for p in probs)


def _sum_error(scale, weights):
    try:
        total = str(Fraction(sum(weights), scale))
    except ValueError:  # past the interpreter's digit limit
        total = "a value too long to print"
    return InvalidArgument("probabilities sum to %s, not 1" % total)


def check_same_alphabet(code, dist):
    """Refuse a wrong-typed code or dist, or two different alphabets."""
    check_code(code)
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
    lines = _content_lines(check_type("text", text, str))

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
    out = ["alphabet " + " ".join(check_code(code).alphabet.names)]
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
    check_type("text", text, str)
    if alphabet is not None:
        check_type("alphabet", alphabet, Alphabet)
    probs = {}  # by name, in file order
    inexact = False
    for lineno, line in _content_lines(text):
        fields = line.split()
        if len(fields) != 2:
            raise FormatError("expected 'symbol probability'", lineno)
        name, token = fields
        if name in probs:
            raise FormatError("duplicate symbol %r" % name, lineno)
        try:
            probs[name] = _fraction(token)
        except (ValueError, ZeroDivisionError):
            raise FormatError("bad probability %r" % token, lineno) from None
        if "/" not in token and any(c in token for c in ".eE"):
            inexact = True
    if not probs:
        raise FormatError("empty distribution file")
    if alphabet is None:
        alphabet = Alphabet(tuple(probs))
    elif probs.keys() != set(alphabet.names):
        raise FormatError("distribution symbols do not match the alphabet")
    ordered = [probs[n] for n in alphabet.names]
    # Decimal entries are exact rationals already; only a written-out
    # rounding of a repeating expansion can miss, by the tolerance at most.
    try:
        return SourceDist.from_values(alphabet, ordered, inexact)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_dist(dist):
    out = []
    for sym in check_type("dist", dist, SourceDist).alphabet:
        out.append("%s %s" % (dist.alphabet.name(sym), dist.probs[sym]))
    return "\n".join(out) + "\n"

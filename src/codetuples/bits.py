"""Immutable binary strings with the prefix partial order.

The empty string is a first-class value here (written ``-`` in files and
shown as ``-`` by the CLI); codewords may be empty, so none of the
operations below assume nonempty input unless documented.
"""

from __future__ import annotations

from .errors import InvalidArgument


class Bits:
    """An immutable sequence over {0, 1}.

    Ordering is length-first, then lexicographic, which is the canonical
    order used everywhere codewords are enumerated or printed.
    """

    __slots__ = ("_s",)

    def __init__(self, bits=""):
        if isinstance(bits, Bits):
            s = bits._s
        elif isinstance(bits, str) and not bits.strip("01"):
            s = bits
        else:  # also an int whose digits are all 0s and 1s
            raise InvalidArgument("not a binary string: %r" % (bits,))
        object.__setattr__(self, "_s", s)

    def __setattr__(self, name, value):
        raise AttributeError("Bits is immutable")

    def __len__(self):
        return len(self._s)

    def __bool__(self):
        return bool(self._s)

    def __iter__(self):
        return (int(c) for c in self._s)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Bits(self._s[index])
        return int(self._s[index])

    def __add__(self, other):
        if isinstance(other, Bits):
            return Bits(self._s + other._s)
        if isinstance(other, str):
            return Bits(self._s + other)
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, Bits) and self._s == other._s

    def __hash__(self):
        return hash(("Bits", self._s))

    def __lt__(self, other):
        if not isinstance(other, Bits):
            return NotImplemented
        return (len(self._s), self._s) < (len(other._s), other._s)

    def __le__(self, other):
        return self == other or self < other

    def __repr__(self):
        return "Bits(%r)" % self._s

    def __str__(self):
        return self._s

    def is_prefix_of(self, other):
        """True iff self is a (not necessarily proper) prefix of other."""
        return other._s.startswith(self._s)

    def is_proper_prefix_of(self, other):
        return len(self._s) < len(other._s) and other._s.startswith(self._s)

    def head(self, k):
        """The first k bits (all bits if fewer than k)."""
        return Bits(self._s[:k])

    def tail_from(self, k):
        """Everything after the first k bits."""
        return Bits(self._s[k:])

    def drop_first(self):
        if not self._s:
            raise InvalidArgument("empty bit string has no first bit")
        return Bits(self._s[1:])

    def strip_prefix(self, prefix):
        """The remainder after removing ``prefix``; requires prefix <= self."""
        if not prefix.is_prefix_of(self):
            raise InvalidArgument("%r is not a prefix of %r" % (prefix, self))
        return Bits(self._s[len(prefix._s):])


EMPTY = Bits("")
ZERO = Bits("0")
ONE = Bits("1")


def bit(value):
    """A single-bit Bits from an int 0/1."""
    if value not in (0, 1):
        raise InvalidArgument("bit must be 0 or 1")
    return ONE if value else ZERO


def show(b):
    """Render bits for output; the empty string prints as '-'."""
    return str(b) if len(b) else "-"


def parse(token):
    """Parse a codeword token; '-' denotes the empty string."""
    if token == "-":
        return EMPTY
    return Bits(token)

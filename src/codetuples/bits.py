"""Immutable binary strings with the prefix partial order.

The empty string is a first-class value here (written ``-`` in files and
shown as ``-`` by the CLI); codewords may be empty, so none of the
operations below assume nonempty input unless documented.
"""

from __future__ import annotations

from .errors import InvalidArgument

_NOT_BITS = str.maketrans("", "", "01")  # deletes the bits, leaves the rest


class Bits:
    """An immutable sequence over {0, 1}.

    Ordering is length-first, then lexicographic, which is the canonical
    order used everywhere codewords are enumerated or printed.
    """

    __slots__ = ("_s",)

    def __init__(self, bits=""):
        if isinstance(bits, Bits):
            s = bits._s
        elif isinstance(bits, str) and not bits.translate(_NOT_BITS):
            s = bits
        else:  # also an int whose digits are all 0s and 1s
            raise InvalidArgument("not a binary string: %r" % (bits,))
        object.__setattr__(self, "_s", s)

    def __setattr__(self, name, value):
        raise AttributeError("Bits is immutable")

    def __reduce__(self):  # copy and pickle call Bits, not __setattr__
        return (Bits, (self._s,))

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


EMPTY = Bits("")


def show(b):
    """Render bits for output; the empty string prints as '-'."""
    return str(b) if len(b) else "-"


def parse(token):
    """Parse a codeword token; '-' denotes the empty string."""
    if token == "-":
        return EMPTY
    return Bits(token)

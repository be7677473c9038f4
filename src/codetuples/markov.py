"""Expected codeword length under the table-hopping chain.

Encoding a memoryless source walks a Markov chain on tables: from table i the
chain moves to j with the total probability of symbols sent there.  The cost
of a long message per symbol converges to the stationary average of the
per-table expected codeword lengths.  Everything is exact and runs on the
distribution's integer weights (``SourceDist.integer_weights``), with one
Fraction per returned value; rounding happens only in ``approx_decimal``.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from numbers import Rational
import math

from .core import MAX_DECIMAL_EXPONENT, _scaled, check_same_alphabet
from .errors import InvalidArgument, NotRegular
from .prefix_sets import check_indices, check_int, check_type


def _flows(code, weights):
    """Per table, the weight it sends to each table, as ints."""
    rows = [[0] * code.num_tables for _ in code.tables]
    for row, table in zip(rows, code.tables):
        for t, w in zip(table.targets, weights):
            row[t] += w
    return rows


def _weighted_length(table, weights):
    return sum(w * len(c) for w, c in zip(weights, table.codes))


def transition_matrix(code, dist):
    """Row-stochastic table-to-table matrix induced by the symbol weights."""
    check_same_alphabet(code, dist)
    scale, weights = dist.integer_weights()
    return tuple(tuple(Fraction(v, scale) for v in row)
                 for row in _flows(code, weights))


def stationary_distribution(code, dist):
    """The unique row vector fixed by the transition matrix, summing to one,
    by fraction-free Gauss-Jordan dividing each row by its gcd.

    Raises NotRegular when the fixed vector is not unique, which happens
    exactly when no table is reachable from every table.
    """
    check_same_alphabet(code, dist)
    scale, weights = dist.integer_weights()
    m = code.num_tables
    # row j: the weight flowing into table j minus scale times its own
    flows = _flows(code, weights)
    mat = [[flows[i][j] - scale * (i == j) for i in range(m)] + [0]
           for j in range(m)]
    mat.append([1] * (m + 1))
    for col in range(m):
        pivot = next((r for r in range(col, m + 1) if mat[r][col]), None)
        if pivot is None:  # a free column
            raise NotRegular("stationary distribution is not unique")
        mat[col], mat[pivot] = mat[pivot], mat[col]
        top = mat[col]
        for r, row in enumerate(mat):
            factor = row[col]
            if r != col and factor:
                row = [top[col] * a - factor * b for a, b in zip(row, top)]
                g = math.gcd(*row)  # 0 only for a row of zeros
                mat[r] = [v // g for v in row] if g else row
    # the balance rows sum to zero, so they never contradict the last row
    return tuple(Fraction(row[m], row[j]) for j, row in enumerate(mat[:m]))


def table_length(code, dist, i):
    """Expected codeword length of one table."""
    check_same_alphabet(code, dist)
    check_indices(code, i)
    scale, weights = dist.integer_weights()
    return Fraction(_weighted_length(code.tables[i], weights), scale)


def average_length(code, dist):
    """Stationary per-symbol expected codeword length, as an exact Fraction."""
    den, pi = _scaled(stationary_distribution(code, dist))
    scale, weights = dist.integer_weights()
    return Fraction(sum(p * _weighted_length(table, weights)
                        for p, table in zip(pi, code.tables)), den * scale)


def approx_decimal(x, places=4):
    """Round an exact rational for display, ties to even, in exact
    arithmetic: every digit is kept, however many.  ``places`` is bounded
    like a parsed decimal exponent, by MAX_DECIMAL_EXPONENT."""
    check_type("x", x, Rational)
    check_int("places", places)
    if abs(places) > MAX_DECIMAL_EXPONENT:
        raise InvalidArgument("places=%d outside -%d..%d" % (
            places, MAX_DECIMAL_EXPONENT, MAX_DECIMAL_EXPONENT))
    den = x.denominator * 10 ** max(-places, 0)
    n, rem = divmod(x.numerator * 10 ** max(places, 0), den)
    n += 2 * rem + (n & 1) > den  # past half, or at half from odd: to even
    digits = Decimal(abs(n)).as_tuple().digits
    return str(Decimal((int(x < 0), digits, -places)))

"""Expected codeword length under the table-hopping chain.

Encoding a memoryless source walks a Markov chain on tables: from table i the
chain moves to j with the total probability of symbols sent there.  The cost
of a long message per symbol converges to the stationary average of the
per-table expected codeword lengths.  Everything is exact rational
arithmetic, solved over the integers on probabilities scaled by the lcm of
their denominators; rounding happens only in display helpers.
"""

from __future__ import annotations

from decimal import Decimal, ROUND_HALF_EVEN
from fractions import Fraction
from numbers import Rational
import math

from .core import check_same_alphabet
from .errors import NotRegular
from .prefix_sets import check_indices, check_type


def transition_matrix(code, dist):
    """Row-stochastic table-to-table matrix induced by the symbol weights."""
    check_same_alphabet(code, dist)
    m = code.num_tables
    rows = []
    for i in code.table_indices():
        row = [Fraction(0)] * m
        for s in code.alphabet:
            row[code.target(i, s)] += dist[s]
        rows.append(tuple(row))
    return tuple(rows)


def stationary_distribution(code, dist):
    """The unique row vector fixed by the transition matrix, summing to one,
    by fraction-free Gauss-Jordan dividing each row by its gcd.

    Raises NotRegular when the fixed vector is not unique, which happens
    exactly when no table is reachable from every table.
    """
    check_same_alphabet(code, dist)
    scale, weight = dist.integer_weights()
    m = code.num_tables
    # row j: the weight flowing into table j minus scale times its own
    mat = [[-scale * (i == j) for i in range(m)] + [0] for j in range(m)]
    for i, table in enumerate(code.tables):
        for t, w in zip(table.targets, weight):
            mat[t][i] += w
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
    return sum((dist[s] * len(code.code(i, s)) for s in code.alphabet),
               Fraction(0))


def average_length(code, dist):
    """Stationary per-symbol expected codeword length, as an exact Fraction."""
    pi = stationary_distribution(code, dist)
    return sum((pi[i] * table_length(code, dist, i)
                for i in code.table_indices()), Fraction(0))


def approx_decimal(x, places=4):
    """Round an exact rational for display, ties to even."""
    check_type("x", x, Rational)
    check_type("places", places, int)
    value = Decimal(x.numerator) / Decimal(x.denominator)
    return str(value.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN))

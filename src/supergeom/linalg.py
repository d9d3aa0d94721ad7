"""Exact linear algebra over the rationals, computed over the integers.

Matrices are plain sequences of rows of exact values: ints, Fractions, or
anything poly._exact turns into a Fraction.  A float raises TypeError, since
Fraction(0.1) is the binary float 3602879701896397/36028797018963968, not
1/10.

Elimination is fraction-free, in Gauss-Jordan form.  Each row is scaled
once to ints by the lcm of its denominators, which leaves its row space
unchanged.  A step replaces a row by pv*row - f*prow, with pv the pivot
and f the row's entry in the pivot column, and divides the result by the
gcd of its entries (where Bareiss, Math. Comp. 22, 1968, divides by the
previous pivot), so the inner loop multiplies and subtracts ints only.
With exact arithmetic no pivoting strategy is needed; the first nonzero
entry in a column is as good a pivot as any.  rref builds Fractions only
at the end, one per output entry; pivot_columns and rank build none, and
neither does _eliminate_ints, the elimination on rows that are already
ints, which liealg calls to keep its constraints' echelon form in ints.
_inverse eliminates [B | I] and builds no Fraction either: it gives each
row of B^{-1} as ints over that row's pivot, and matrix._body_inverse
reduces each entry by one gcd.

This is the kernel's one elimination over Q: srank, Morphism.classify_at
and the Lie superalgebra forms take rank, tangent_space takes rref,
distribution._pivot_columns takes pivot_columns, and
matrix._body_inverse inverts every constant body by _inverse.
"""

from fractions import Fraction
from math import gcd, lcm

from .poly import _exact


def _int_row(row):
    """The row times the lcm of its denominators, as a list of ints."""
    nums, dens = [], []
    for x in row:
        if not isinstance(x, (int, Fraction)):
            x = _exact(x)
        nums.append(x.numerator)
        dens.append(x.denominator)
    d = lcm(*dens)
    return nums if d == 1 else [n * (d // e) for n, e in zip(nums, dens)]


def _eliminate(rows):
    """_eliminate_ints of the int rows of rows."""
    return _eliminate_ints([_int_row(row) for row in rows])


def _eliminate_ints(m):
    """(int rows, pivot columns) of a matrix whose row space is that of
    the int rows m, which it reduces in place, with each pivot column zero
    outside its pivot row: dividing each pivot row by its pivot gives the
    reduced echelon form.  Rows past the last pivot are zero."""
    if not m:
        return m, []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pr = r if m[r][c] else next((i for i in range(r + 1, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        pv = prow[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                new = [pv * a - f * b for a, b in zip(row, prow)]
                # g is 0 when the row became zero
                g = gcd(*new)
                m[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _inverse(rows):
    """B^{-1} as int rows over their pivots for a square grid B of exact
    values, or None when B is singular: _eliminate_ints on the int rows
    of [B | I].  Its pivots cover the first n columns exactly when B is
    invertible, and then row i of B^{-1} is the ints in columns n.. of
    row i over its pivot: one (ints, pivot) pair per row, each pivot made
    positive by negating its row, the ints not reduced against it."""
    n = len(rows)
    m, pivots = _eliminate_ints([_int_row([*row, *[0] * i, 1, *[0] * (n - 1 - i)])
                                 for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        return None
    return [(row[n:], p) if (p := row[i]) > 0 else ([-x for x in row[n:]], -p)
            for i, row in enumerate(m)]


def rref(rows):
    """Reduced row echelon form.

    Returns (echelon_rows, pivot_columns), every entry a Fraction; rows
    past the last pivot are zero.  The input is not modified.
    """
    m, pivots = _eliminate(rows)
    zero = Fraction(0)
    echelon = [[Fraction(x, row[c]) if x else zero for x in row]
               for row, c in zip(m, pivots)]
    echelon += [[zero] * len(row) for row in m[len(pivots):]]
    return echelon, pivots


def pivot_columns(rows) -> list:
    """The pivot columns of the reduced echelon form of rows."""
    return _eliminate(rows)[1]


def rank(rows) -> int:
    return len(pivot_columns(rows))


def right_nullspace(echelon, pivots, ncols):
    """Basis of {v : M v = 0} as tuples of Fraction, read from
    (echelon, pivots) = rref(M).

    ncols must be passed explicitly so an empty row list still describes
    a map out of a known space.
    """
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -echelon[r][fc]
        basis.append(tuple(v))
    return basis

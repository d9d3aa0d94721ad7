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
at the end, one per output entry; pivot_columns and rank build none.
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
    if d == 1:
        return nums
    return [n * (d // e) for n, e in zip(nums, dens)]


def _eliminate(rows):
    """(int rows, pivot columns) of a matrix whose row space is that of
    rows, with each pivot column zero outside its pivot row: dividing each
    pivot row by its pivot gives the reduced echelon form.  Rows past the
    last pivot are zero."""
    m = [_int_row(row) for row in rows]
    if not m:
        return m, []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
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

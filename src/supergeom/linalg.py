"""Exact linear algebra over the rationals.

Matrices are plain sequences of rows of Fraction-coercible values.  With
exact arithmetic no pivoting strategy is needed; the first nonzero entry
in a column is as good a pivot as any.
"""

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form.

    Returns (echelon_rows, pivot_columns).  The input is not modified.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


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

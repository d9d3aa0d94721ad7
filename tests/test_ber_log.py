"""The Berezinian against a third formula, through the logarithm.

Over the Grassmann algebra Lambda(theta1..theta6) an invertible even
supermatrix T splits as T = B (I + N'), where B = diag(B1, B4) is its
body (the constant parts of its diagonal blocks; the off-diagonal blocks
are odd and have none) and N' = B^-1 (T - B) has entries with no
constant term.  A product of seven such entries vanishes, so N'^7 = 0,
and with Ber(exp X) = exp(str X) and Ber multiplicative,

    Ber T = det B1 / det B4 * exp(str log(I + N')),

where log(I + N') = sum (-1)^(k+1) N'^k / k and the exponential of the
nilpotent even element str log(I + N') are both finite sums.

This uses only ring arithmetic of single polynomials and Fraction
elimination on the body; no Schur complement, grid inverse, _gmul or
_det of the package.  It is several times slower than berezinian(), so
it lives here as an oracle only.
"""

import random
from fractions import Fraction

import pytest

from helpers import random_invertible
from supergeom import Context

GR6 = Context(odd=[f"theta{i}" for i in range(1, 7)])
SIZES = [(p, q) for p in range(1, 5) for q in range(1, 5)]


def fraction_det(rows):
    """Determinant of a square Fraction matrix by Gaussian elimination."""
    rows = [list(r) for r in rows]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def fraction_inverse(rows):
    """Inverse of an invertible square Fraction matrix by Gauss-Jordan."""
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[pivot] = aug[pivot], aug[c]
        lead = aug[c][c]
        aug[c] = [x / lead for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [r[n:] for r in aug]


def grid_mul(x, y):
    """Plain matrix product of two grids of polynomials; for even
    supermatrices the block signs all cancel."""
    zero = GR6.zero()
    return [
        [sum((x[i][k] * y[k][j] for k in range(len(y))), zero)
         for j in range(len(y[0]))]
        for i in range(len(x))
    ]


def ber_by_log(t):
    p, n = t.source.even, t.source.total
    rows = [[t.entry(i, j) for j in range(n)] for i in range(n)]
    body = [[rows[i][j].constant_term() for j in range(n)] for i in range(n)]
    inv = fraction_inverse(body)
    nil = [[sum((inv[i][k] * (rows[k][j] - body[k][j]) for k in range(n)),
                GR6.zero())
            for j in range(n)]
           for i in range(n)]

    def supertrace(grid):
        return (sum((grid[i][i] for i in range(p)), GR6.zero())
                - sum((grid[i][i] for i in range(p, n)), GR6.zero()))

    log_str = GR6.zero()
    power, k = nil, 1
    while any(e for row in power for e in row):
        log_str += supertrace(power) * Fraction((-1) ** (k + 1), k)
        power, k = grid_mul(power, nil), k + 1

    exp, term, j = GR6.one(), GR6.one(), 1
    while True:
        term = term * log_str / j
        if not term:
            break
        exp, j = exp + term, j + 1

    b1 = [r[:p] for r in body[:p]]
    b4 = [r[p:] for r in body[p:]]
    return exp * (fraction_det(b1) / fraction_det(b4))


@pytest.mark.parametrize("dims", SIZES, ids=lambda d: f"{d[0]}|{d[1]}")
def test_berezinian_matches_the_log_formula(dims):
    rng = random.Random(900 + 10 * dims[0] + dims[1])
    for _ in range(2):
        t = random_invertible(rng, GR6, dims, n_terms=3)
        assert t.berezinian() == ber_by_log(t)

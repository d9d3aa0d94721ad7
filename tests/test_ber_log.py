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

This uses only ring arithmetic of single polynomials, a Gauss-Jordan
inverse of the body and Leibniz determinants of its blocks (both from
tests/oracles.py); no Schur complement, grid inverse, _gmul or _det of
the package.  It is several times slower than berezinian(), so
it lives here as an oracle only.
"""

import random
from fractions import Fraction

import pytest

from helpers import grid_mul, random_invertible
from oracles import gauss_jordan_inverse, leibniz
from supergeom import Context

GR6 = Context(odd=[f"theta{i}" for i in range(1, 7)])
SIZES = [(p, q) for p in range(1, 5) for q in range(1, 5)]


def ber_by_log(t):
    p, n = t.source.even, t.source.total
    rows = [[t.entry(i, j) for j in range(n)] for i in range(n)]
    body = [[rows[i][j].constant_term() for j in range(n)] for i in range(n)]
    inv = gauss_jordan_inverse(body, Fraction(1), Fraction(0))
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
        # nil is even, so the block signs of its powers all cancel
        power, k = grid_mul(GR6, power, nil), k + 1

    exp, term, j = GR6.one(), GR6.one(), 1
    while True:
        term = term * log_str / j
        if not term:
            break
        exp, j = exp + term, j + 1

    b1 = [r[:p] for r in body[:p]]
    b4 = [r[p:] for r in body[p:]]
    return exp * (leibniz(b1) / leibniz(b4))


@pytest.mark.parametrize("dims", SIZES, ids=lambda d: f"{d[0]}|{d[1]}")
def test_berezinian_matches_the_log_formula(dims):
    rng = random.Random(900 + 10 * dims[0] + dims[1])
    for _ in range(2):
        t = random_invertible(rng, GR6, dims, n_terms=3)
        assert t.berezinian() == ber_by_log(t)

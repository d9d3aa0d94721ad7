"""Derivations of the exterior algebra as matrices: an oracle that shares
no code with derivation.py.

Over Lambda(theta1..thetaq), q <= 3, the basis is the subsets S of
{0..q-1} (bit masks), theta_S the product of its generators in
increasing order.  Left multiplication by theta_i and the left partial
d/dtheta_i are 2^q x 2^q matrices with their own signs.  theta_i passes
every generator of S in front of it (j < i) to reach its place, and the
left partial moves theta_i to the front before it strikes it, so

    theta_i * theta_S      = (-1)^#{j in S : j < i} theta_(S + {i}),  i not in S,
    d/dtheta_i theta_S     = (-1)^#{j in S : j < i} theta_(S - {i}),  i in S,

and 0 otherwise.  The basis field theta_M d/dtheta_i is the matrix
L(theta_M) P_i, of parity |M| + 1, and a field is the sum of its
coefficients' matrices times the partials.  apply is linear in its
argument and bracket in each field, so checking every basis monomial
and every pair of basis fields proves them for that q: apply must be the
matrix times the vector, and bracket the graded commutator
A B - (-1)^{|A||B|} B A with the parity |A| + |B|.  A failure names its
basis tuple (M, i, S) or (M, i, N, j).
"""

from fractions import Fraction

import pytest

from supergeom import Context, Monomial, Parity, SuperDerivation, SuperPoly, bracket

QS = [1, 2, 3]


def grassmann(q):
    return Context(odd=[f"theta{i + 1}" for i in range(q)])


# -- sparse matrices: {(row, col): Fraction}, zeros never stored ---------------


def mat_add(x, y, scale=1):
    out = dict(x)
    for key, v in y.items():
        s = out.get(key, 0) + scale * v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def mat_mul(x, y):
    out = {}
    for (r, k), a in x.items():
        for (k2, c), b in y.items():
            if k == k2:
                out = mat_add(out, {(r, c): a * b})
    return out


def front_sign(s, i):
    """(-1) to the number of generators of s in front of theta_i."""
    return -1 if sum(1 for j in range(i) if s >> j & 1) % 2 else 1


def left_mul(q, i):
    return {(s | 1 << i, s): front_sign(s, i) for s in range(1 << q) if not s >> i & 1}


def left_partial(q, i):
    return {(s & ~(1 << i), s): front_sign(s, i) for s in range(1 << q) if s >> i & 1}


def monomial_matrix(q, mask):
    out = {(s, s): 1 for s in range(1 << q)}
    for i in range(q):
        if mask >> i & 1:
            out = mat_mul(out, left_mul(q, i))
    return out


def poly_matrix(q, p):
    out = {}
    for mono, c in p.terms.items():
        out = mat_add(out, monomial_matrix(q, mono.mask), c)
    return out


def field_matrix(q, d):
    out = {}
    for i, c in enumerate(d.odd_coeffs):
        out = mat_add(out, mat_mul(poly_matrix(q, c), left_partial(q, i)))
    return out


def vector(p):
    return {mono.mask: Fraction(c) for mono, c in p.terms.items()}


def column(x, s):
    return {r: v for (r, c), v in x.items() if c == s}


# -- the basis ----------------------------------------------------------------


def theta(ctx, mask):
    return SuperPoly(ctx, {Monomial((), mask): 1})


def basis_fields(q):
    """(M, i, field theta_M d/dtheta_i, its matrix) for every M and i."""
    ctx = grassmann(q)
    out = []
    for mask in range(1 << q):
        parity = Parity.ODD if mask.bit_count() % 2 == 0 else Parity.EVEN
        for i in range(q):
            odds = [theta(ctx, mask) if k == i else ctx.zero() for k in range(q)]
            d = SuperDerivation(ctx, parity, [], odds)
            matrix = mat_mul(monomial_matrix(q, mask), left_partial(q, i))
            out.append((mask, i, d, matrix))
    return out


@pytest.mark.parametrize("q", QS)
def test_apply_is_the_matrix_times_the_vector(q):
    ctx = grassmann(q)
    failures = []
    for mask, i, d, matrix in basis_fields(q):
        for s in range(1 << q):
            if vector(d.apply(theta(ctx, s))) != column(matrix, s):
                failures.append((mask, i, s))
    assert not failures, f"theta_M d/dtheta_i (theta_S) wrong at (M, i, S) in {failures}"


@pytest.mark.parametrize("q", QS)
def test_bracket_is_the_graded_commutator(q):
    basis = basis_fields(q)
    failures = []
    for m1, i, d1, a in basis:
        for m2, j, d2, b in basis:
            sign = -1 if d1.parity is d2.parity is Parity.ODD else 1
            want = mat_add(mat_mul(a, b), mat_mul(b, a), -sign)
            got = bracket(d1, d2)
            if field_matrix(q, got) != want or got.parity is not d1.parity + d2.parity:
                failures.append((m1, i, m2, j))
    assert not failures, (
        f"[theta_M d/dtheta_i, theta_N d/dtheta_j] wrong at (M, i, N, j) in {failures}")

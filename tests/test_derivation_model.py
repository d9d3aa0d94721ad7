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

The same model takes the even generator t over k[t | theta1..theta3]:
the basis monomials are t^a theta_S, t commutes with everything, and
d/dt t^a theta_S = a t^(a-1) theta_S.  The basis fields are
theta_M t^e d/dg for e <= 1 and g in t, theta1..theta3, 64 of them, and
each of their 4096 ordered pairs goes through bracket.  The operators
do not preserve a finite space, so each is a table on the monomials with
a <= 3, and the graded commutator is compared with the bracket's field
on every monomial with a <= 2.  A failure names its basis pair
((M, e, g), (N, f, h)).
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


# -- with an even generator: k[t | theta1..theta3] -----------------------------

KT = Context(even=["t"], odd=["theta1", "theta2", "theta3"])
TQ = len(KT.odd)
# the basis monomials t^a theta_S the operators are compared on, as (a, S);
# a basis field raises the degree in t by at most one, so its composites are
# read on a <= 3
INPUTS = [(a, s) for a in range(3) for s in range(1 << TQ)]
REACH = [(a, s) for a in range(4) for s in range(1 << TQ)]


def times_monomial(e, mask, mono):
    """(sign, monomial) of t^e theta_M times t^a theta_S, or None: the
    generators of M act from the last one, each by left_mul's sign, and t
    commutes with everything."""
    a, s = mono
    sign = 1
    for i in reversed(range(TQ)):
        if mask >> i & 1:
            if s >> i & 1:
                return None
            sign *= front_sign(s, i)
            s |= 1 << i
    return sign, (a + e, s)


def partial_monomial(g, mono):
    """(factor, monomial) of the left partial of t^a theta_S by generator g
    (0 for t, 1 + i for theta_i), or None: t^a goes to a t^(a-1), and
    theta_i is struck with left_partial's sign."""
    a, s = mono
    if g == 0:
        return (a, (a - 1, s)) if a else None
    i = g - 1
    return (front_sign(s, i), (a, s & ~(1 << i))) if s >> i & 1 else None


def apply_terms(terms, mono):
    """{monomial: coefficient} of the field sum_g c_g d/dg on one basis
    monomial, the field given as (g, c, e, M) terms: c t^e theta_M d/dg."""
    out = {}
    for g, c, e, mask in terms:
        hit = partial_monomial(g, mono)
        if hit and (prod := times_monomial(e, mask, hit[1])):
            key = prod[1]
            v = out.get(key, 0) + c * hit[0] * prod[0]
            if v:
                out[key] = v
            else:
                del out[key]
    return out


def composite(outer, inner, mono):
    """{monomial: coefficient} of outer(inner(mono)) for basis fields,
    each a {monomial: {monomial: coefficient}} table over REACH."""
    out = {}
    for mid, c in inner[mono].items():
        for key, v in outer[mid].items():
            out[key] = out.get(key, 0) + c * v
    return {k: v for k, v in out.items() if v}


def even_basis_fields():
    """(label, field theta_M t^e d/dg, its table over REACH) for every M,
    e <= 1 and g in t, theta1..theta3."""
    out = []
    for mask in range(1 << TQ):
        for e in range(2):
            for g, name in enumerate(KT.names):
                coeff = SuperPoly(KT, {Monomial([(0, e)] if e else [], mask): 1})
                coeffs = [coeff if k == g else KT.zero() for k in range(len(KT.names))]
                # theta_M d/dtheta_i has parity |M| + 1, theta_M d/dt parity |M|
                odd = (mask.bit_count() + (g > 0)) % 2
                d = SuperDerivation(KT, Parity.ODD if odd else Parity.EVEN, coeffs[:1], coeffs[1:])
                table = {mono: apply_terms([(g, 1, e, mask)], mono) for mono in REACH}
                out.append(((mask, e, name), d, table))
    return out


def test_bracket_with_an_even_generator_is_the_graded_commutator():
    """ROADMAP item 14: every ordered pair of basis fields theta_M t^e d/dg
    over k[t | theta1..theta3], 64 x 64, against the graded commutator of
    the model's operators on every t^a theta_S with a <= 2.  The bracket's
    coefficients reach t^2, where theta_M t d/dtheta_i meets a coefficient
    that holds t."""
    basis = even_basis_fields()
    failures = []
    for l1, d1, a in basis:
        for l2, d2, b in basis:
            sign = -1 if d1.parity is d2.parity is Parity.ODD else 1
            got = bracket(d1, d2)
            terms = [(g, c, dict(m.even).get(0, 0), m.mask)
                     for g, coeff in enumerate(got.coefficients())
                     for m, c in coeff.terms.items()]
            for mono in INPUTS:
                want = composite(a, b, mono)
                for key, v in composite(b, a, mono).items():
                    want[key] = want.get(key, 0) - sign * v
                if apply_terms(terms, mono) != {k: v for k, v in want.items() if v}:
                    failures.append((l1, l2))
                    break
            if got.parity is not d1.parity + d2.parity:
                failures.append((l1, l2))
    assert not failures, (
        f"[theta_M t^e d/dg, theta_N t^f d/dh] wrong at ((M, e, g), (N, f, h)) in "
        f"{failures[:8]} ({len(failures)} in all)")

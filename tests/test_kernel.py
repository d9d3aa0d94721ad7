"""The multiply-accumulate kernel poly.dot against an independent model.

Oracle: the left regular representation of the exterior algebra
Lambda(theta1..thetaq).  The basis is the subsets S of {0..q-1}, with
theta_S the product of its generators in increasing order.  Moving
theta_i to its place in theta_S passes every j in S with j < i, so

    theta_i * theta_S = (-1)^#{j in S : j < i} theta_(S + {i}),  i not in S,

and 0 when i is in S.  Each theta_i becomes a signed 2^q x 2^q matrix,
a polynomial becomes the matching sum of matrix products, and the map is
a faithful algebra homomorphism.  So a product, a sum of products, or a
supermatrix entry computed by the kernel must map to the matching
product or sum of matrices.  Nothing here uses normalize_odd_word or any
other sign code of the package.
"""

import random
from fractions import Fraction

import pytest

from helpers import random_poly
from supergeom import Context, ContextMismatch, SuperPoly
from supergeom.matrix import _gmul
from supergeom.poly import dot


def grassmann(q):
    return Context(odd=[f"theta{i + 1}" for i in range(q)])


# -- sparse rational matrices: {(row, col): Fraction}, zeros never stored --


def mat_add(x, y):
    out = dict(x)
    for key, v in y.items():
        s = out.get(key, 0) + v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def mat_mul(x, y):
    by_row = {}
    for (k, j), v in y.items():
        by_row.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), u in x.items():
        for j, v in by_row.get(k, ()):
            s = out.get((i, j), 0) + u * v
            if s:
                out[(i, j)] = s
            else:
                out.pop((i, j), None)
    return out


def identity(q):
    return {(s, s): Fraction(1) for s in range(1 << q)}


def theta(q, i):
    """Left multiplication by theta_i on the subset basis (bitmasks)."""
    out = {}
    for s in range(1 << q):
        if s >> i & 1:
            continue
        below = bin(s & ((1 << i) - 1)).count("1")
        out[(s | 1 << i, s)] = Fraction(-1 if below & 1 else 1)
    return out


def model(p, q):
    """The matrix of left multiplication by the polynomial p."""
    thetas = [theta(q, i) for i in range(q)]
    out = {}
    for mono, c in p.terms.items():
        assert not mono.even
        word = identity(q)
        for j in mono.odd:
            word = mat_mul(word, thetas[j])
        out = mat_add(out, {key: c * v for key, v in word.items()})
    return out


def test_model_is_faithful_on_basis_words():
    # theta_S applied to the empty word must give +theta_S: the model's
    # first column reads a polynomial's coefficients back unchanged
    q = 4
    ctx = grassmann(q)
    rng = random.Random(700)
    for _ in range(20):
        p = random_poly(rng, ctx, n_terms=4)
        column = {row: v for (row, col), v in model(p, q).items() if col == 0}
        assert column == {
            sum(1 << j for j in mono.odd): c for mono, c in p.terms.items()
        }


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_products_match_matrix_products(q):
    ctx = grassmann(q)
    rng = random.Random(710 + q)
    for _ in range(25):
        a = random_poly(rng, ctx, n_terms=rng.randint(0, 5))
        b = random_poly(rng, ctx, n_terms=rng.randint(0, 5))
        assert model(a * b, q) == mat_mul(model(a, q), model(b, q))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_dot_matches_sum_of_matrix_products(q):
    ctx = grassmann(q)
    rng = random.Random(720 + q)
    for _ in range(15):
        pairs = [
            (random_poly(rng, ctx, n_terms=rng.randint(0, 4)),
             random_poly(rng, ctx, n_terms=rng.randint(0, 4)))
            for _ in range(rng.randint(0, 5))
        ]
        expect = {}
        for a, b in pairs:
            expect = mat_add(expect, mat_mul(model(a, q), model(b, q)))
        assert model(dot(ctx, pairs), q) == expect


def check_gmul(q, shape, rng):
    ctx = grassmann(q)
    n, k, m = shape
    a = tuple(tuple(random_poly(rng, ctx, n_terms=2) for _ in range(k))
              for _ in range(n))
    b = tuple(tuple(random_poly(rng, ctx, n_terms=2) for _ in range(m))
              for _ in range(k))
    out = _gmul(ctx, a, b)
    assert len(out) == n and all(len(row) == m for row in out)
    for i in range(n):
        for j in range(m):
            expect = {}
            for t in range(k):
                expect = mat_add(expect, mat_mul(model(a[i][t], q), model(b[t][j], q)))
            assert model(out[i][j], q) == expect


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 2), (3, 2, 4)])
def test_gmul_entries_match_matrix_model(shape):
    check_gmul(4, shape, random.Random(730 + sum(shape)))


def test_gmul_entries_match_matrix_model_over_six_generators():
    # the size of the benchmark's supermatrices over Lambda(theta1..theta6)
    check_gmul(6, (2, 3, 2), random.Random(736))


class TestDotEdges:
    CTX = Context(even=["x"], odd=["theta1", "theta2"])

    def test_empty_pair_list_is_zero_of_the_context(self):
        z = dot(self.CTX, [])
        assert z.ctx == self.CTX
        assert z.terms == {}
        assert z == SuperPoly.zero(self.CTX)

    @pytest.mark.parametrize("side", [0, 1])
    def test_factor_over_another_context_rejected(self, side):
        other = Context(even=["x"], odd=["theta1"])
        pair = [self.CTX.var("x"), self.CTX.var("theta1")]
        pair[side] = other.var("theta1")
        with pytest.raises(ContextMismatch):
            dot(self.CTX, [(self.CTX.one(), self.CTX.one()), tuple(pair)])

    def test_cancellation_across_pairs_leaves_no_zero(self):
        x, t1, t2 = (self.CTX.var(n) for n in ("x", "theta1", "theta2"))
        # x*t1*t2 cancels between the first two pairs; x^2 between the
        # last two; only t1 survives
        p = dot(self.CTX, [(x * t1, t2), (x * t2, t1), (x, x), (t1, 1 + t1),
                           (-x, x)])
        assert p == t1
        assert p.terms == t1.terms
        assert all(c for c in p.terms.values())
        q = dot(self.CTX, [(t1, t2), (t2, t1)])
        assert q.terms == {}

    def test_product_is_the_kernel_on_one_pair(self):
        rng = random.Random(740)
        for _ in range(20):
            a = random_poly(rng, self.CTX)
            b = random_poly(rng, self.CTX)
            assert a * b == dot(self.CTX, [(a, b)])

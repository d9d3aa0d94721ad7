"""The multiply-accumulate kernel (products, matrix._gmul, the one grid
product, and poly._dot, the one-column sum, all through the one
term-pair loop in poly._packed_dot) against an independent model.

Oracle: the left regular representation of the exterior algebra
Lambda(theta1..thetaq), tests/model.py's poly_matrix.  The basis is the
subsets S of {0..q-1}, with theta_S the product of its generators in
increasing order.  Moving theta_i to its place in theta_S passes every j
in S with j < i, so

    theta_i * theta_S = (-1)^#{j in S : j < i} theta_(S + {i}),  i not in S,

and 0 when i is in S.  Each theta_i becomes a signed 2^q x 2^q matrix,
a polynomial becomes the matching sum of matrix products, and the map is
a faithful algebra homomorphism.  So a product, a sum of products, or a
supermatrix entry computed by the kernel must map to the matching
product or sum of matrices.  Nothing here uses _SWAP_PARITY or any
other sign code of the package.

Even generators enter through evaluation: sending them to rational
values is a ring homomorphism k[x, y | theta] -> Lambda(theta), so the
model of an evaluated product, sum of products, substitution or
determinant must be the matching product, sum or Leibniz expansion
(tests/oracles.py's leibniz) of the evaluated factors.  The inputs there
carry Fraction(n, d) coefficients with d up to 12, so the kernel's
common denominators, scale factors and final reductions all take part;
the model reads coefficients only through tests/model.py's terms_of.
"""

import random
from fractions import Fraction

import pytest

from helpers import one_column, random_poly, random_rational_poly
from model import (Monomial, from_terms, grassmann, mat_add, mat_mul, poly_matrix, terms_of,
                   unit_matrix)
from oracles import leibniz, reference_dot
from supergeom import Context, ContextMismatch, LimitExceeded, Parity, SuperPoly
from supergeom.matrix import _det, _gmul
from supergeom import poly
from supergeom.poly import MAX_FIELD_EXPONENT


def test_model_is_faithful_on_basis_words():
    # theta_S applied to the empty word must give +theta_S: the model's
    # first column reads a polynomial's coefficients back unchanged
    q = 4
    ctx = grassmann(q)
    rng = random.Random(700)
    for _ in range(20):
        p = random_poly(rng, ctx, n_terms=4)
        column = {row: v for (row, col), v in poly_matrix(q, p).items() if col == 0}
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
        assert poly_matrix(q, a * b) == mat_mul(poly_matrix(q, a), poly_matrix(q, b))


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
            expect = mat_add(expect, mat_mul(poly_matrix(q, a), poly_matrix(q, b)))
        got = one_column(ctx, pairs)
        assert [poly_matrix(q, p) for p in got] == ([expect] if pairs else [])
        assert poly_matrix(q, poly._dot(ctx, pairs)) == expect


def gmul_grid(rng, ctx, rows, cols):
    """A rows x cols grid of polynomials with Fraction coefficients,
    denominators up to 12, and about one entry in four zero."""
    return tuple(
        tuple(ctx.zero() if rng.random() < 0.25
              else random_rational_poly(rng, ctx, n_terms=2)
              for _ in range(cols))
        for _ in range(rows)
    )


def check_gmul(q, shape, rng):
    ctx = grassmann(q)
    n, k, m = shape
    a = gmul_grid(rng, ctx, n, k)
    b = gmul_grid(rng, ctx, k, m)
    out = _gmul(ctx, a, b)
    assert len(out) == n and all(len(row) == m for row in out)
    for i in range(n):
        for j in range(m):
            expect = {}
            for t in range(k):
                expect = mat_add(expect, mat_mul(poly_matrix(q, a[i][t]),
                                                 poly_matrix(q, b[t][j])))
            assert poly_matrix(q, out[i][j]) == expect


GMUL_SHAPES = [(1, 1, 1), (2, 3, 2), (3, 2, 4), (2, 3, 0), (3, 2, 1), (1, 3, 1),
               (3, 1, 4), (0, 2, 3)]


@pytest.mark.parametrize("shape", GMUL_SHAPES)
def test_gmul_entries_match_matrix_model(shape):
    # (n, k, m): widths 0 and 1, inner dimension 1 and no rows among them
    for seed in range(3):
        check_gmul(4, shape, random.Random(730 + 10 * seed + sum(shape)))


def test_gmul_entries_match_matrix_model_over_six_generators():
    # the size of the benchmark's supermatrices over Lambda(theta1..theta6)
    check_gmul(6, (2, 3, 2), random.Random(736))


class TestDotEdges:
    """The sum of a * b over (a, b) pairs by its two packed routes: a
    one-row grid product (helpers.one_column) and poly._dot, the column
    sum of matrix._laplace, which also gives the zero for no pairs."""

    CTX = Context(even=["x"], odd=["theta1", "theta2"])

    def test_empty_pair_list_is_zero_of_the_context(self):
        # no pairs give no column; a column of zero factors gives the zero
        assert one_column(self.CTX, []) == ()
        (z,) = one_column(self.CTX, [(self.CTX.zero(), self.CTX.one())])
        for z in (z, poly._dot(self.CTX, []),
                  poly._dot(self.CTX, [(self.CTX.one(), self.CTX.zero())])):
            assert z.ctx == self.CTX
            assert z.terms == {}
            assert z == SuperPoly.zero(self.CTX)

    @pytest.mark.parametrize("side", [0, 1])
    def test_factor_over_another_context_rejected(self, side):
        other = Context(even=["x"], odd=["theta1"])
        pair = [self.CTX.var("x"), self.CTX.var("theta1")]
        pair[side] = other.var("theta1")
        for dot in (one_column, poly._dot):
            with pytest.raises(ContextMismatch):
                dot(self.CTX, [(self.CTX.one(), self.CTX.one()), tuple(pair)])

    @pytest.mark.parametrize("side", [0, 1])
    def test_dot_checks_both_contexts_before_any_product(self, side):
        # the first pair alone raises LimitExceeded once multiplied
        x = self.CTX.var("x")
        full = from_terms(self.CTX, {Monomial(((0, MAX_FIELD_EXPONENT),), 0): 1})
        pair = [x, x]
        pair[side] = Context(even=["x"], odd=["theta1"]).var("x")
        with pytest.raises(ContextMismatch):
            poly._dot(self.CTX, [(full, x), tuple(pair)])
        with pytest.raises(LimitExceeded, match="exponent of x is above"):
            poly._dot(self.CTX, [(full, x), (x, x)])

    def test_cancellation_across_pairs_leaves_no_zero(self):
        x, t1, t2 = (self.CTX.var(n) for n in ("x", "theta1", "theta2"))
        # x*t1*t2 cancels between the first two pairs; x^2 between the
        # last two; only t1 survives
        (p,) = one_column(self.CTX, [(x * t1, t2), (x * t2, t1), (x, x),
                                     (t1, 1 + t1), (-x, x)])
        assert p == t1
        assert p.terms == t1.terms
        assert all(c for c in p.terms.values())
        (q,) = one_column(self.CTX, [(t1, t2), (t2, t1)])
        assert q.terms == {}
        assert poly._dot(self.CTX, [(x * t1, t2), (x * t2, t1), (x, x),
                                    (t1, 1 + t1), (-x, x)]).terms == t1.terms
        assert poly._dot(self.CTX, [(t1, t2), (t2, t1)]).terms == {}

    def test_product_is_the_kernel_on_one_pair(self):
        rng = random.Random(740)
        for _ in range(20):
            a = random_poly(rng, self.CTX)
            b = random_poly(rng, self.CTX)
            assert (a * b,) == one_column(self.CTX, [(a, b)])
            assert a * b == poly._dot(self.CTX, [(a, b)])


class TestDotRowEdges:
    """A one-row _gmul against the per-column sums it stands for: one
    context check per entry, one accumulator, denominator and term cap
    per column."""

    CTX = Context(even=["x"], odd=["theta1", "theta2"])
    OTHER = Context(even=["x"], odd=["theta1"])

    def gens(self):
        return [self.CTX.var(n) for n in ("x", "theta1", "theta2")]

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("left", ["zero", "nonzero"])
    def test_entry_over_another_context_rejected_in_any_column(self, column, left):
        x, t1, t2 = self.gens()
        grid = [[x, t1, 1 + x], [t2, x, t1 * t2]]
        grid[1][column] = self.OTHER.var("theta1")
        row = [x, self.CTX.zero() if left == "zero" else t1]
        with pytest.raises(ContextMismatch):
            _gmul(self.CTX, (row,), grid)[0]

    def test_left_factor_over_another_context_rejected_when_zero(self):
        x, t1, t2 = self.gens()
        with pytest.raises(ContextMismatch):
            _gmul(self.CTX, ([x, self.OTHER.zero()],), [[x, t1], [t2, x]])[0]

    def test_one_column_cancels_to_the_canonical_zero(self):
        x, t1, t2 = self.gens()
        one = self.CTX.one()
        row = [t1 / 2, t2 / 2]
        got = _gmul(self.CTX, (row,), [[x / 5, t2 / 3, one], [x / 7, t1 / 3, one]])[0]
        assert got[1] == self.CTX.zero()
        assert got[1].terms == {}
        assert got[0] == x * t1 / 10 + x * t2 / 14
        assert got[2] == (t1 + t2) / 2
        assert got == tuple(reference_dot(self.CTX, zip(row, col))
                            for col in ([x / 5, x / 7], [t2 / 3, t1 / 3], [one, one]))

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_exponent_past_the_cap_raises_from_any_column(self, column):
        x, t1, t2 = self.gens()
        full = from_terms(self.CTX, {Monomial(((0, MAX_FIELD_EXPONENT),), 0): 1})
        grid = [[t1, t2, t1 * t2]]
        grid[0][column] = x * t2
        with pytest.raises(LimitExceeded, match="exponent of x is above"):
            _gmul(self.CTX, ([full],), grid)[0]

    def test_contexts_are_checked_before_any_product(self):
        # the first row alone raises LimitExceeded once multiplied, so
        # only a check of every entry and every left factor ahead of the
        # products sees the last row's entry, or the last left factor,
        # over another context
        x, t1, t2 = self.gens()
        full = from_terms(self.CTX, {Monomial(((0, MAX_FIELD_EXPONENT),), 0): 1})
        grid = [[x * t2, t1, t1 * t2], [t2, x, self.OTHER.var("theta1")]]
        with pytest.raises(ContextMismatch):
            _gmul(self.CTX, ([full, t1],), grid)[0]
        grid[1][2] = t1
        with pytest.raises(ContextMismatch):
            _gmul(self.CTX, ([full, self.OTHER.var("theta1")],), grid)[0]
        with pytest.raises(LimitExceeded, match="exponent of x is above"):
            _gmul(self.CTX, ([full, t1],), grid)[0]

    def test_the_term_cap_applies_to_each_column(self, monkeypatch):
        x, t1, t2 = self.gens()
        monkeypatch.setattr(poly, "MAX_TERMS", 4)
        zero, one = self.CTX.zero(), self.CTX.one()
        row = [1 + x, x**2]
        # four terms in every column, twelve between them
        grid = [[t1 + t2, t1 + x**3 * t2, one], [zero, zero, 1 + t1]]
        got = _gmul(self.CTX, (row,), grid)[0]
        assert [len(p) for p in got] == [4, 4, 4]
        for column in range(3):
            wide = [list(r) for r in grid]
            wide[0][column] = wide[0][column] + t1 * t2
            with pytest.raises(LimitExceeded, match="more than 4 terms"):
                _gmul(self.CTX, (row,), wide)[0]


# -- even generators, through evaluation at rational points ----------------


def mixed(q, even=("x", "y")):
    return Context(even=list(even), odd=[f"theta{i + 1}" for i in range(q)])


def rational_values(rng, n):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(n)]


@pytest.mark.parametrize("q", [0, 1, 2, 3, 4])
def test_rational_products_match_at_points(q):
    ctx = mixed(q)
    rng = random.Random(750 + q)
    for _ in range(25):
        a = random_rational_poly(rng, ctx, n_terms=rng.randint(0, 5))
        b = random_rational_poly(rng, ctx, n_terms=rng.randint(0, 5))
        at = rational_values(rng, 2)
        assert poly_matrix(q, a * b, at) == mat_mul(poly_matrix(q, a, at),
                                                    poly_matrix(q, b, at))


@pytest.mark.parametrize("q", [0, 2, 4])
def test_rational_dot_matches_at_points(q):
    ctx = mixed(q)
    rng = random.Random(760 + q)
    for _ in range(15):
        pairs = [
            (random_rational_poly(rng, ctx, n_terms=rng.randint(0, 4)),
             random_rational_poly(rng, ctx, n_terms=rng.randint(0, 4)))
            for _ in range(rng.randint(0, 5))
        ]
        at = rational_values(rng, 2)
        expect = {}
        for a, b in pairs:
            expect = mat_add(expect, mat_mul(poly_matrix(q, a, at), poly_matrix(q, b, at)))
        got = one_column(ctx, pairs)
        assert [poly_matrix(q, p, at) for p in got] == ([expect] if pairs else [])
        assert poly_matrix(q, poly._dot(ctx, pairs), at) == expect


def test_rational_gmul_entries_match_at_points():
    q = 3
    ctx = mixed(q)
    rng = random.Random(770)
    for n, k, m in [(1, 1, 1), (2, 3, 2), (3, 2, 3)]:
        a = tuple(tuple(random_rational_poly(rng, ctx, n_terms=2) for _ in range(k))
                  for _ in range(n))
        b = tuple(tuple(random_rational_poly(rng, ctx, n_terms=2) for _ in range(m))
                  for _ in range(k))
        at = rational_values(rng, 2)
        out = _gmul(ctx, a, b)
        for i in range(n):
            for j in range(m):
                expect = {}
                for t in range(k):
                    expect = mat_add(expect, mat_mul(poly_matrix(q, a[i][t], at),
                                                     poly_matrix(q, b[t][j], at)))
                assert poly_matrix(q, out[i][j], at) == expect


@pytest.mark.parametrize("q_in, q_out", [(2, 2), (3, 2), (2, 3)])
def test_rational_substitute_matches_at_points(q_in, q_out):
    src = mixed(q_in)
    dst = mixed(q_out, even=("u", "v"))
    rng = random.Random(780 + 10 * q_in + q_out)
    for _ in range(15):
        p = random_rational_poly(rng, src, n_terms=rng.randint(0, 4))
        images = {name: random_rational_poly(rng, dst, parity=Parity.EVEN,
                                             max_even_deg=1, n_terms=2)
                  for name in src.even}
        images.update({name: random_rational_poly(rng, dst, parity=Parity.ODD,
                                                  max_even_deg=1, n_terms=2)
                       for name in src.odd})
        at = rational_values(rng, 2)
        img = {name: poly_matrix(q_out, f, at) for name, f in images.items()}
        expect = {}
        for mono, c in terms_of(p).items():
            word = unit_matrix(q_out)
            for i, e in mono.even:
                for _ in range(e):
                    word = mat_mul(word, img[src.even[i]])
            for j in mono.odd:
                word = mat_mul(word, img[src.odd[j]])
            expect = mat_add(expect, word, c)
        assert poly_matrix(q_out, p.substitute(dst, images), at) == expect


# -- _det at points, against a Leibniz expansion ----------------------------


def evaluate(p, values):
    """p at rational values of its even generators; odd-free p only."""
    total = Fraction(0)
    for mono, c in terms_of(p).items():
        assert not mono.mask
        for i, e in mono.even:
            c *= values[i] ** e
        total += c
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_of_rational_grids_matches_leibniz_at_points(n):
    ctx = Context(even=["x", "y"])
    rng = random.Random(800 + n)
    for _ in range(4):
        grid = tuple(
            tuple(random_rational_poly(rng, ctx, max_even_deg=1,
                                       n_terms=rng.randint(0, 3))
                  for _ in range(n))
            for _ in range(n)
        )
        det = _det(ctx, grid)
        for _ in range(3):
            at = rational_values(rng, 2)
            values = [[evaluate(e, at) for e in row] for row in grid]
            expect = leibniz(values)
            assert evaluate(det, at) == expect


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_with_nilpotent_entries_matches_leibniz_in_the_model(n):
    # entries body(x) + theta1*theta2 * tail(x): even, with nilpotent parts
    q = 2
    ctx = mixed(q, even=("x",))
    x, t12 = ctx.var("x"), ctx.var("theta1") * ctx.var("theta2")
    rng = random.Random(810 + n)

    def tail():
        return Fraction(rng.randint(1, 9), rng.randint(1, 12)) * x + Fraction(
            rng.randint(-9, 9), rng.randint(1, 12))

    for _ in range(3):
        grid = tuple(
            tuple(random_rational_poly(rng, ctx, parity=Parity.EVEN, max_even_deg=1,
                                       n_terms=rng.randint(0, 2))
                  + t12 * tail()
                  for _ in range(n))
            for _ in range(n)
        )
        assert all(e.body() != e for row in grid for e in row)
        det = _det(ctx, grid)
        at = rational_values(rng, 1)
        models = [[poly_matrix(q, e, at) for e in row] for row in grid]
        expect = leibniz(models, mat_mul, mat_add, lambda a: mat_add({}, a, -1),
                         unit_matrix(q), {})
        assert poly_matrix(q, det, at) == expect


# -- the two inner loops of the term-pair loop ------------------------------
#
# poly._packed_dot, under every product, runs each left term through one
# of two loops: an odd-free left term has no odd-mask skip and no sign
# test, a left term with odd generators has both.  The operands below
# hold both kinds of term in one polynomial, so one product runs both
# loops into one accumulator, and the last pair of split_pairs makes the
# two loops cancel each other.


def split_operand(rng, ctx, n_free=3, n_odd=3):
    """A polynomial with n_free odd-free and n_odd odd terms (fewer when
    two draws land on one monomial), built from Monomials."""
    q = len(ctx.odd)
    terms = {}
    for k in range(n_free + n_odd):
        even = tuple((i, d) for i in range(len(ctx.even))
                     if (d := rng.randint(0, 2)))
        mask = rng.randint(1, (1 << q) - 1) if k >= n_free else 0
        terms[Monomial(even, mask)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                               rng.randint(1, 12))
    return from_terms(ctx, terms)


def split_pairs(rng, ctx):
    """Random (split, any) pairs, then one pair (u + g, g*w - u*w) for an
    odd-free u and an odd g: its u*g*w terms come from the odd-free loop
    and cancel the g*u*w terms of the odd loop, since u is even."""
    pairs = [(split_operand(rng, ctx),
              random_rational_poly(rng, ctx, n_terms=rng.randint(1, 4)))
             for _ in range(rng.randint(1, 3))]
    a = split_operand(rng, ctx)
    u = from_terms(ctx, {m: c for m, c in terms_of(a).items() if not m.mask})
    g = a - u
    w = random_rational_poly(rng, ctx, n_terms=3)
    assert u and g
    pairs.append((a, g * w - u * w))
    return pairs


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_dot_over_split_operands_matches_the_model(q):
    ctx = grassmann(q)
    rng = random.Random(900 + q)
    for _ in range(15):
        pairs = split_pairs(rng, ctx)
        expect = {}
        for a, b in pairs:
            expect = mat_add(expect, mat_mul(poly_matrix(q, a), poly_matrix(q, b)))
        (got,) = one_column(ctx, pairs)
        assert all(got.nums.values())
        assert poly._dot(ctx, pairs) == got
        assert poly_matrix(q, got) == expect


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_dot_over_split_operands_matches_at_points(q):
    ctx = mixed(q)
    rng = random.Random(910 + q)
    for _ in range(15):
        pairs = split_pairs(rng, ctx)
        at = rational_values(rng, 2)
        expect = {}
        for a, b in pairs:
            expect = mat_add(expect, mat_mul(poly_matrix(q, a, at), poly_matrix(q, b, at)))
        (got,) = one_column(ctx, pairs)
        assert all(got.nums.values())
        assert poly._dot(ctx, pairs) == got
        assert poly_matrix(q, got, at) == expect


@pytest.mark.parametrize("q", [2, 4])
def test_gmul_over_split_entries_matches_the_model(q):
    for ctx in (grassmann(q), mixed(q)):
        rng = random.Random(920 + q + len(ctx.even))
        at = rational_values(rng, len(ctx.even))
        for n, k, m in [(1, 1, 1), (2, 3, 2), (3, 2, 3)]:
            a = tuple(tuple(split_operand(rng, ctx, 2, 2) for _ in range(k))
                      for _ in range(n))
            b = tuple(tuple(random_rational_poly(rng, ctx, n_terms=3) for _ in range(m))
                      for _ in range(k))
            out = _gmul(ctx, a, b)
            for i in range(n):
                for j in range(m):
                    expect = {}
                    for t in range(k):
                        expect = mat_add(expect, mat_mul(poly_matrix(q, a[i][t], at),
                                                         poly_matrix(q, b[t][j], at)))
                    assert poly_matrix(q, out[i][j], at) == expect


@pytest.mark.parametrize("left_mask", [0, 0b01], ids=["odd-free loop", "odd loop"])
def test_each_loop_refuses_an_exponent_past_the_cap(left_mask):
    ctx = mixed(2, even=("x",))
    full = from_terms(ctx, {Monomial(((0, MAX_FIELD_EXPONENT),), left_mask): 1})
    x, t2 = ctx.var("x"), ctx.var("theta2")
    for right in (x, x * t2, 3 + x * t2):
        with pytest.raises(LimitExceeded, match="exponent of x is above"):
            one_column(ctx, [(full, right)])
    # the pair is refused even where the two products would cancel
    with pytest.raises(LimitExceeded, match="exponent of x is above"):
        one_column(ctx, [(full, x), (-full, x)])
    assert one_column(ctx, [(full, t2), (-full, t2)]) == (ctx.zero(),)


# -- constant left terms and the one denominator of a sum ------------------
#
# _packed_dot runs a left term of code 0 through its own loop, which
# keys each product by the right key alone, with no code addition and no
# guard test, and into an empty map only stores them; the MAX_TERMS test
# still follows it.  It builds each sum at the lcm of its products'
# denominators, taken before any product.  The model checks the values;
# the stored keys are checked for guard bits.


def model_dot(q, pairs, at=()):
    """The model of sum a * b over (a, b) pairs, even generators at at."""
    out = {}
    for a, b in pairs:
        out = mat_add(out, mat_mul(poly_matrix(q, a, at), poly_matrix(q, b, at)))
    return out


class TestConstantLeftTerms:
    Q = 3
    CTX = mixed(3, even=("x",))
    UNIT = Monomial((), 0)

    def gens(self):
        return [self.CTX.var(n) for n in ("x", "theta1", "theta2", "theta3")]

    def test_a_constant_into_an_empty_map_scales_each_term(self):
        rng = random.Random(790)
        for _ in range(20):
            v = Fraction(rng.choice([-7, -1, 2, 5]), rng.randint(1, 9))
            c = self.CTX.scalar(v)
            b = random_rational_poly(rng, self.CTX, n_terms=rng.randint(1, 5))
            scaled = {mono: v * w for mono, w in terms_of(b).items()}
            at = rational_values(rng, 1)
            for got in (c * b, poly._dot(self.CTX, [(c, b)]), one_column(self.CTX, [(c, b)])[0]):
                assert terms_of(got) == scaled
                assert poly_matrix(self.Q, got, at) == model_dot(self.Q, [(c, b)], at)

    def test_a_constant_into_a_filled_map_matches_the_model(self):
        rng = random.Random(791)
        for _ in range(20):
            # the constant term comes last in the left factor, so its loop
            # meets the products of the terms before it
            terms = {m: w for m, w in terms_of(random_rational_poly(rng, self.CTX)).items()
                     if m != self.UNIT}
            terms[self.UNIT] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            a = from_terms(self.CTX, terms)
            assert len(terms) > 1 and list(terms_of(a))[-1] == self.UNIT
            pairs = [(random_rational_poly(rng, self.CTX, n_terms=3),
                      random_rational_poly(rng, self.CTX, n_terms=4)),
                     (a, random_rational_poly(rng, self.CTX, n_terms=4)),
                     (self.CTX.scalar(Fraction(-3, 4)), random_rational_poly(rng, self.CTX))]
            at = rational_values(rng, 1)
            expect = model_dot(self.Q, pairs, at)
            assert poly_matrix(self.Q, poly._dot(self.CTX, pairs), at) == expect
            assert poly_matrix(self.Q, one_column(self.CTX, pairs)[0], at) == expect
            assert poly_matrix(self.Q, a * pairs[1][1], at) == model_dot(self.Q, [pairs[1]], at)

    def test_products_that_cancel_every_key_read_zero(self):
        x, t1, t2, t3 = self.gens()
        one = self.CTX.one()
        # each constant's products cancel what the first pair put in
        pairs = [(x * t1 / 3, t2 + x / 5), (one / 3, x * t2 * t1 - x * x * t1 / 5)]
        assert model_dot(self.Q, pairs, [Fraction(2, 3)]) == {}
        total = poly._dot(self.CTX, pairs)
        assert total == self.CTX.zero()
        assert total.terms == {}
        assert poly._packed_dot(self.CTX, [(1, a, poly._pack(self.CTX, [b])) for a, b in pairs],
                                1) is None
        # the same through a packed row of width two
        got = _gmul(self.CTX, ([t1 * t2, -one],), [[t3, x], [t1 * t2 * t3, t1 * t2 * x]])[0]
        assert got == (self.CTX.zero(), self.CTX.zero())
        assert [p.terms for p in got] == [{}, {}]

    def test_a_packed_sum_reads_the_lcm_of_coprime_denominators(self):
        x, t1, t2, t3 = self.gens()
        one = self.CTX.one()
        # product denominators 6, 35 and 143, pairwise coprime; the
        # constant factors carry their own denominators
        pairs = [(x / 2, t1 / 3), (one / 5, x * t2 / 7), (t3 / 11 + one / 11, x / 13 + t2 / 13)]
        total = poly._packed_dot(self.CTX, [(1, a, poly._pack(self.CTX, [b])) for a, b in pairs],
                                 1)
        assert total[1] == 6 * 35 * 143
        got = poly._dot(self.CTX, pairs)
        for at in ([Fraction(1)], [Fraction(-5, 3)], [Fraction(7, 2)]):
            assert poly_matrix(self.Q, got, at) == model_dot(self.Q, pairs, at)
        assert got.den == 6 * 35 * 143
        # a row of two columns over the same denominators
        row = [a for a, _ in pairs]
        grid = [[b, b * t1 + one / 17] for _, b in pairs]
        got = _gmul(self.CTX, (row,), grid)[0]
        for k in range(2):
            column = [(a, r[k]) for a, r in zip(row, grid)]
            assert poly_matrix(self.Q, got[k], [Fraction(3, 4)]) == \
                model_dot(self.Q, column, [Fraction(3, 4)])

    def test_a_constant_times_a_row_past_the_cap_is_refused(self):
        ctx = Context(even=["t"])
        terms = {Monomial(((0, e),), 0) if e else self.UNIT: 1
                 for e in range(poly.MAX_TERMS + 1)}
        wide = from_terms(ctx, terms)
        c = ctx.scalar(3)
        with pytest.raises(LimitExceeded, match="product has more than 10000 terms"):
            c * wide
        with pytest.raises(LimitExceeded, match="product has more than 10000 terms"):
            poly._dot(ctx, [(c, wide)])
        del terms[self.UNIT]
        assert len(c * from_terms(ctx, terms)) == poly.MAX_TERMS

    def test_a_constant_times_a_term_at_the_exponent_cap_raises_nothing(self):
        x, t1, t2, t3 = self.gens()
        mono = Monomial(((0, MAX_FIELD_EXPONENT),), 0b101)
        full = from_terms(self.CTX, {mono: Fraction(5, 7)})
        # a stored key has no guard bit set, in a polynomial or a packed
        # row, so the constant loop can key a product by it unchecked
        guard = self.CTX._guard
        assert guard and not any(code & guard for code in full.nums)
        row, _ = poly._pack(self.CTX, [x, full, t2])
        assert not any(key & guard << 2 for key in row)
        c = self.CTX.scalar(Fraction(-2, 3))
        assert terms_of(c * full) == {mono: Fraction(-10, 21)}
        got = poly._dot(self.CTX, [(c + t2, full), (c, t1)])
        assert terms_of(got) == {mono: Fraction(-10, 21),
                                 Monomial(((0, MAX_FIELD_EXPONENT),), 0b111): Fraction(-5, 7),
                                 Monomial((), 0b001): Fraction(-2, 3)}
        with pytest.raises(LimitExceeded, match="exponent of x is above"):
            (c + x) * full

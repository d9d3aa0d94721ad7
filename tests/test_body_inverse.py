"""Body inverses against the adjugate of a top-down Laplace expansion.

_body_inverse inverts a constant body, a matrix over Q, by linalg's one
elimination (linalg._inverse on [B | I]).  Any other body's determinant
comes from matrix._det before any pass, and row i of its inverse is read
from one matrix._laplace pass over the body with column i struck out:
its minor on the rows other than j is the (j, i) minor.  The oracle here
is tests/oracles.py's adjugate_inverse, its n^2 cofactors and the
determinant read from one memo of reference_minors, the top-down Laplace
expansion, so it calls no code of matrix.py or linalg.py.  A cofactor
read from the wrong mask, a lost (-1)^(i+j) sign, a pass that keeps
column i, or an entry read over the wrong pivot disagrees with it.  The
product of the body, read entry by entry with SuperPoly.body, with its
inverse, taken one polynomial product at a time, must be the identity
on both sides.

The grids are dense constant bodies, bodies polynomial in t with a
constant determinant (triangular ones with a constant diagonal, and
products of a lower and an upper unipotent grid), and the T1 and T4
blocks of seeded supermatrices over Lambda(theta1..theta6), for n = 0..6.
Two tests count work: the polynomial products of a dense 4x4 body
polynomial in t, and, for a dense rational 4x4 and 12x12 constant body,
that no _laplace call and no polynomial product runs, with B B^-1 = I
checked on both sides in plain Fractions.  Constant bodies with
rational entries and odd parts are checked against the right half of
oracles.reference_rref([B | I]), Gauss-Jordan on Fractions, and a
singular, rank-deficient or oversized constant block against its
error.  A dense linear 7x7 body over k[x1, x2, x3] and the singular
[[t, t], [1, 1]] are refused, as not constant and as zero, before any
pass runs.
"""

import random
from fractions import Fraction

import pytest

from helpers import grid_mul, identity, linear_grid, random_invertible
from oracles import adjugate_inverse, reference_rref
from supergeom import Context, LimitExceeded, NotInvertible, SuperMatrix, linalg
from supergeom import matrix as M
from supergeom.poly import SuperPoly

KT = Context(even=["t"])
XYZ = Context(even=["x1", "x2", "x3"])
GR6 = Context(odd=[f"theta{i}" for i in range(1, 7)])
SIZES = range(7)


def check(ctx, grid):
    inv = M._body_inverse(ctx, grid, "T")
    body = [[e.body() for e in row] for row in grid]
    assert [list(r) for r in inv] == adjugate_inverse(ctx, body)
    assert grid_mul(ctx, body, inv) == identity(ctx, len(grid))
    assert grid_mul(ctx, inv, body) == identity(ctx, len(grid))


def dense_constant(rng, ctx, n):
    """Invertible grid of nonzero integer constants."""
    values = [v for v in range(-5, 6) if v]
    while True:
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
        if linalg.rank([[Fraction(v) for v in r] for r in rows]) == n:
            return tuple(tuple(ctx.scalar(v) for v in r) for r in rows)


def triangular(rng, n, diagonal):
    """Upper triangular over k[t], diagonal() on the diagonal and
    polynomials in t of degree up to 2 above it."""
    t = KT.var("t")

    def above():
        return sum((rng.randint(-2, 2) * t ** k for k in range(3)), KT.zero())

    return tuple(
        tuple(diagonal() if i == j else above() if i < j else KT.zero()
              for j in range(n))
        for i in range(n)
    )


def unipotent_product(rng, n):
    """L @ U with L lower and U upper unipotent over k[t]: entries dense
    and polynomial in t, determinant 1."""
    def one():
        return KT.scalar(1)

    lower = [list(col) for col in zip(*triangular(rng, n, one))]
    return tuple(map(tuple, grid_mul(KT, lower, triangular(rng, n, one))))


@pytest.mark.parametrize("n", SIZES)
def test_dense_constant_bodies_match_the_oracle(n):
    rng = random.Random(1200 + n)
    for _ in range(3):
        check(KT, dense_constant(rng, KT, n))


def test_the_textbook_unipotent_body():
    t = KT.var("t")
    one, zero = KT.scalar(1), KT.zero()
    inv = M._body_inverse(KT, ((one, t), (zero, one)), "T")
    assert inv == ((one, -t), (zero, one))
    check(KT, ((one, t), (zero, one)))


@pytest.mark.parametrize("n", SIZES)
def test_bodies_polynomial_in_t_match_the_oracle(n):
    rng = random.Random(1300 + n)
    for _ in range(2):
        check(KT, triangular(rng, n, lambda: KT.scalar(rng.choice([-2, -1, 1, 3]))))
        check(KT, unipotent_product(rng, n))


def test_a_body_with_a_sparse_second_column_matches_the_oracle():
    # column 1 is zero but in row 2, so pass 0 (column 0 struck out)
    # never reaches the minor of row 2 alone on the last column, which
    # pass 1 (column 1 struck out) reads: a pass that took pass 0's small
    # minors in place of its own would read the unit there, not the 2
    t, one, zero = KT.var("t"), KT.scalar(1), KT.zero()
    check(KT, ((one, zero, t), (zero, zero, one), (t, one, KT.scalar(2))))


@pytest.mark.parametrize("n", SIZES)
def test_diagonal_blocks_of_grassmann_matrices_match_the_oracle(n):
    rng = random.Random(1400 + n)
    for _ in range(2):
        m = random_invertible(rng, GR6, (n, 6 - n), n_terms=3)
        t1, _, _, t4 = m.blocks()
        check(GR6, t1)
        check(GR6, t4)


def test_a_dense_4x4_inverse_takes_one_pass_per_row(monkeypatch):
    # a body polynomial in t expands over polynomials: n^2 separate
    # expansions of the 3x3 cofactors take 16 * 12 products on top of the
    # 32 of the determinant, 224 in all.  Each of the 4 passes takes
    # 6 * 2 + 4 * 3 = 24 on the minors of 2 and 3 rows, the one-row minors
    # being the entries themselves, and _det reads the determinant from
    # the Kronecker image with no polynomial product: 96
    calls = []
    real = SuperPoly.__mul__

    def counted(self, other):
        if isinstance(other, SuperPoly):
            calls.append(1)
        return real(self, other)

    grid = unipotent_product(random.Random(1500), 4)
    monkeypatch.setattr(SuperPoly, "__mul__", counted)
    M._body_inverse(KT, grid, "T")
    monkeypatch.undo()
    assert 0 < len(calls) <= 112
    check(KT, grid)


@pytest.mark.parametrize("n", [4, 12])
def test_a_dense_rational_constant_inverse_takes_no_pass_and_no_product(monkeypatch, n):
    # a constant body is one elimination over Q: no _laplace pass and no
    # polynomial product, and B B^-1 = I on both sides in plain Fractions
    passes, products = [], []
    laplace, mul = M._laplace, SuperPoly.__mul__

    def counted_laplace(ctx, grid):
        passes.append(len(grid))
        return laplace(ctx, grid)

    def counted_mul(self, other):
        products.append(1)
        return mul(self, other)

    grid, body = rational_constant(random.Random(1500 + n), GR6, n)
    monkeypatch.setattr(M, "_laplace", counted_laplace)
    monkeypatch.setattr(SuperPoly, "__mul__", counted_mul)
    inv = M._body_inverse(GR6, grid, "T")
    monkeypatch.undo()
    assert passes == [] and products == []
    inv = [[e.constant_term() for e in row] for row in inv]
    unit = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for a, b in ((body, inv), (inv, body)):
        assert [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == unit


def rational_constant(rng, ctx, n):
    """Invertible grid of rational constants plus even odd-degree parts,
    with the rational body as Fraction rows."""
    tail = ctx.var("theta1") * ctx.var("theta2") + 2 * ctx.var("theta3") * ctx.var("theta5")
    while True:
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
                for _ in range(n)]
        if linalg.rank(rows) == n:
            grid = tuple(tuple(ctx.scalar(v) + rng.randint(-2, 2) * tail for v in r)
                         for r in rows)
            return grid, rows


@pytest.mark.parametrize("n", SIZES)
def test_rational_constant_bodies_match_elimination(n):
    # the right half of reference_rref([B | I]) is B^{-1}: Gauss-Jordan on
    # Fractions, which shares no code with linalg
    rng = random.Random(1600 + n)
    for _ in range(3):
        grid, body = rational_constant(rng, GR6, n)
        echelon, _ = reference_rref([row + [Fraction(int(i == j)) for j in range(n)]
                                     for i, row in enumerate(body)])
        inv = M._body_inverse(GR6, grid, "T")
        assert [[e.constant_term() for e in row] for row in inv] == [
            row[n:] for row in echelon]
        assert all(e.is_constant() for row in inv for e in row)


def test_a_singular_constant_block_is_not_inverted():
    m = SuperMatrix.from_blocks(
        GR6,
        [[GR6.scalar(Fraction(1, 2)), GR6.scalar(3)], [GR6.scalar(1), GR6.scalar(6)]],
        [[GR6.var("theta1")], [GR6.zero()]],
        [[GR6.var("theta2"), GR6.zero()]],
        [[GR6.scalar(1)]],
    )
    with pytest.raises(NotInvertible, match="body determinant of T1 is zero"):
        m.invert()


@pytest.mark.parametrize("n", range(1, 6))
def test_rank_deficient_constant_bodies_are_refused(n):
    # B = C D with C of n x r and D of r x n: every rank r below n, the
    # zero body included, leaves a pivot outside the first n columns
    rng = random.Random(1700 + n)
    tail = GR6.var("theta1") * GR6.var("theta2")
    for r in range(n):
        c = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        d = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(r)]
        grid = tuple(tuple(GR6.scalar(sum(c[i][k] * d[k][j] for k in range(r))) + tail
                           for j in range(n)) for i in range(n))
        with pytest.raises(NotInvertible, match="^body determinant of T is zero$"):
            M._body_inverse(GR6, grid, "T")


def test_a_body_that_is_not_constant_or_zero_is_refused_before_any_pass(monkeypatch):
    # its determinant comes from _det first, so no _laplace pass with a
    # column struck out runs before the refusal
    passes = []
    laplace = M._laplace

    def counted(ctx, grid):
        if grid and len(grid[0]) < len(grid):
            passes.append(len(grid))
        return laplace(ctx, grid)

    monkeypatch.setattr(M, "_laplace", counted)
    dense = SuperMatrix(XYZ, (7, 0), (7, 0), linear_grid(random.Random(5), XYZ, 7))
    with pytest.raises(NotInvertible, match="^body determinant of T1 is not constant$"):
        dense.invert()
    t, one = KT.var("t"), KT.scalar(1)
    singular = SuperMatrix(KT, (2, 0), (2, 0), [[t, t], [one, one]])
    with pytest.raises(NotInvertible, match="^body determinant of T1 is zero$"):
        singular.invert()
    assert passes == []


def test_a_13x13_constant_body_is_above_the_cap():
    m = SuperMatrix.identity(GR6, (M.MAX_DET_SIZE + 1, 0))
    with pytest.raises(LimitExceeded, match=f"13x13 block is above the cap of {M.MAX_DET_SIZE}"):
        m.invert()

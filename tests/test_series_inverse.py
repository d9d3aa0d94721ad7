"""The Neumann-series inverse against the association it replaced.

An even grid T splits as T = B + N with B its body (the terms without odd
generators) and N nilpotent, so

    T^-1 = (I + N')^-1 B^-1 = sum_k (-N')^k B^-1,   N' = B^-1 N,

a finite sum.  The package builds it as z_0 = B^-1, z_{k+1} = B^-1 (-N z_k)
in _series_inverse.  The oracle here is the other association: the powers
of N' summed with alternating signs, then multiplied by B^-1 on the right.
It uses only products and sums of single polynomials and a Gauss-Jordan
body inverse whose pivots are nonzero constants; no _gmul, _minors,
_det or _body_inverse of the package.  Its products pair mostly terms
whose odd words overlap, which is why it lives here.

The oracle is compared with invert() and _grid_inverse on seeded 1|1..4|4
matrices over Lambda(theta1..theta6) and on matrices over
k[t | theta1..theta4] whose bodies are polynomial in t and unipotent up
to a constant diagonal, such as [[1, t], [0, 1]].  The second half counts
the grid products one _series_inverse call makes, also when a series
that does not end is stopped.
"""

import random
from fractions import Fraction

import pytest

from helpers import grid_mul, identity, random_invertible, random_supermatrix
from supergeom import Context, SuperMatrix, SuperPoly
from supergeom import matrix as M

GR6 = Context(odd=[f"theta{i}" for i in range(1, 7)])
KT4 = Context(even=["t"], odd=[f"theta{i}" for i in range(1, 5)])
SIZES = [(p, q) for p in range(1, 5) for q in range(1, 5)]


def body_inverse(ctx, rows):
    """Gauss-Jordan inverse of a body grid whose pivots, taken down the
    diagonal after row swaps, are nonzero constants: any invertible
    constant grid, or an upper triangular one with a constant diagonal."""
    n = len(rows)
    aug = [list(r) + e for r, e in zip(rows, identity(ctx, n))]
    for c in range(n):
        pivot = next(r for r in range(c, n)
                     if aug[r][c].is_constant() and aug[r][c].constant_term())
        aug[c], aug[pivot] = aug[pivot], aug[c]
        lead = aug[c][c].constant_term()
        aug[c] = [x / lead for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [r[n:] for r in aug]


def oracle_inverse(ctx, rows):
    """sum_k (-N')^k, then times B^-1 on the right."""
    n = len(rows)
    body = [[e.body() for e in row] for row in rows]
    binv = body_inverse(ctx, body)
    nilpotent = [[e - b for e, b in zip(r, rb)] for r, rb in zip(rows, body)]
    nprime = grid_mul(ctx, binv, nilpotent)
    out = identity(ctx, n)
    power = nprime
    for k in range(1, len(ctx.odd) + 2):
        sign = -1 if k % 2 else 1
        out = [[o + sign * p for o, p in zip(ro, rp)]
               for ro, rp in zip(out, power)]
        power = grid_mul(ctx, power, nprime)
    assert all(not e for row in power for e in row), "N' is not nilpotent"
    return grid_mul(ctx, out, binv)


def as_lists(grid):
    return [list(row) for row in grid]


def unipotent_matrix(rng, dim):
    """Even supermatrix over KT4 whose diagonal body blocks are upper
    triangular with constant nonzero diagonals and polynomials in t
    above it; the rest is random nilpotent noise."""
    p, q = dim
    noise = random_supermatrix(rng, KT4, dim, dim, n_terms=2, max_even_deg=1)
    t = KT4.var("t")

    def body(i, j):
        if i == j:
            return KT4.scalar(rng.choice([-2, -1, 1, 3]))
        if i < j:
            return rng.randint(-2, 2) * t ** rng.randint(0, 2) + rng.randint(-1, 1)
        return KT4.zero()

    rows = []
    for i in range(p + q):
        row = []
        for j in range(p + q):
            e = noise.entry(i, j)
            if (i < p) == (j < p):
                bi, bj = (i, j) if i < p else (i - p, j - p)
                e = e - e.body() + body(bi, bj)
            row.append(e)
        rows.append(row)
    return SuperMatrix(KT4, dim, dim, rows)


@pytest.mark.parametrize("dim", SIZES, ids=[f"{p}|{q}" for p, q in SIZES])
def test_invert_matches_the_oracle_over_grassmann(dim):
    rng = random.Random(900 + 10 * dim[0] + dim[1])
    for _ in range(2):
        m = random_invertible(rng, GR6, dim, n_terms=3)
        want = oracle_inverse(GR6, m.rows)
        assert as_lists(m.invert().rows) == want
        assert as_lists(M._grid_inverse(GR6, m.rows, "T")) == want


@pytest.mark.parametrize("dim", SIZES, ids=[f"{p}|{q}" for p, q in SIZES])
def test_grid_inverse_of_diagonal_blocks_matches_the_oracle(dim):
    # the blocks _schur and the 1x1 inverse determinant of berezinian invert
    rng = random.Random(950 + 10 * dim[0] + dim[1])
    m = random_invertible(rng, GR6, dim, n_terms=3)
    t1, _, _, t4 = m.blocks()
    for block in (t1, t4, ((M._det(GR6, t4),),)):
        assert as_lists(M._grid_inverse(GR6, block, "T4")) == oracle_inverse(GR6, block)


@pytest.mark.parametrize("dim", [(1, 1), (2, 1), (2, 2), (3, 2)],
                         ids=["1|1", "2|1", "2|2", "3|2"])
def test_invert_matches_the_oracle_with_unipotent_bodies(dim):
    rng = random.Random(980 + 10 * dim[0] + dim[1])
    for _ in range(3):
        m = unipotent_matrix(rng, dim)
        want = oracle_inverse(KT4, m.rows)
        assert as_lists(m.invert().rows) == want
        assert as_lists(M._grid_inverse(KT4, m.rows, "T")) == want


def test_the_textbook_unipotent_block_with_odd_corners():
    t = KT4.var("t")
    a, b, c, d = (KT4.var(f"theta{i}") for i in range(1, 5))
    m = SuperMatrix(KT4, (2, 1), (2, 1), [
        [1, t, a],
        [0, 1 + a * b, c],
        [d, b, 1 + t * c * d],
    ])
    want = oracle_inverse(KT4, m.rows)
    assert as_lists(m.invert().rows) == want
    assert m @ m.invert() == SuperMatrix.identity(KT4, (2, 1))


# -- how many steps -----------------------------------------------------------


@pytest.fixture
def gmul_calls(monkeypatch):
    calls = []
    real = M._gmul

    def counted(ctx, a, b):
        calls.append(1)
        return real(ctx, a, b)

    monkeypatch.setattr(M, "_gmul", counted)
    return calls


def series_inverse(ctx, rows):
    body, binv = M._body_inverse(ctx, tuple(map(tuple, rows)), "T")
    return M._series_inverse(ctx, tuple(map(tuple, rows)), body, binv)


@pytest.mark.parametrize("ctx, dim", [(GR6, (4, 4)), (GR6, (1, 3)), (KT4, (2, 2))],
                         ids=["gr6-4|4", "gr6-1|3", "kt4-2|2"])
def test_at_most_two_grid_products_per_odd_generator_and_one(gmul_calls, ctx, dim):
    rng = random.Random(1000 + dim[0])
    for _ in range(3):
        if ctx is GR6:
            m = random_invertible(rng, ctx, dim, n_terms=3)
        else:
            m = unipotent_matrix(rng, dim)
        gmul_calls.clear()
        series_inverse(ctx, m.rows)
        assert 0 < len(gmul_calls) <= 2 * (len(ctx.odd) + 1)


def test_the_bound_is_reached_by_a_chain_of_odd_generators(gmul_calls):
    # N with theta_{i+1} just above the diagonal of a 7x7 grid: N^6 holds
    # theta1..theta6 in its corner and N^7 = 0, so z_1..z_6 are nonzero
    # and the seventh step finds zero
    n = len(GR6.odd) + 1
    rows = [[GR6.scalar(int(i == j)) + (GR6.var(f"theta{j}") if j == i + 1 else 0)
             for j in range(n)] for i in range(n)]
    got = series_inverse(GR6, rows)
    assert len(gmul_calls) == 2 * (len(GR6.odd) + 1)
    assert as_lists(got) == oracle_inverse(GR6, rows)


def test_a_series_that_does_not_end_raises_instead_of_hanging(gmul_calls, monkeypatch):
    # with the step left equal to the body every z_k equals z_0, as a
    # broken dot or body split could make it; the loop used to run forever
    monkeypatch.setattr(M, "_gsub", lambda a, b: a)
    m = random_invertible(random.Random(1100), GR6, (2, 2), n_terms=3)
    with pytest.raises(RuntimeError, match="grid - body is not nilpotent"):
        series_inverse(GR6, m.rows)
    assert len(gmul_calls) <= 2 * (len(GR6.odd) + 1)


def test_a_grid_without_odd_part_returns_after_one_step(gmul_calls):
    t = KT4.var("t")
    rows = [[KT4.scalar(1), t], [KT4.zero(), KT4.scalar(2)]]
    got = series_inverse(KT4, rows)
    assert len(gmul_calls) == 2
    assert as_lists(got) == [[1, -t / 2], [0, Fraction(1, 2)]]


def test_the_series_is_summed_without_adding_polynomials(monkeypatch):
    # the z_k are summed once, a row at a time, through the term-pair
    # loop; the step body - grid is the series' input and is made first
    m = random_invertible(random.Random(1200), GR6, (3, 3), n_terms=3)
    body, binv = M._body_inverse(GR6, m.rows, "T")
    step = M._gsub(body, m.rows)
    monkeypatch.setattr(M, "_gsub", lambda a, b: step)
    adds = []
    real_add = SuperPoly.__add__

    def counted(self, other):
        adds.append(1)
        return real_add(self, other)

    monkeypatch.setattr(SuperPoly, "__add__", counted)
    monkeypatch.setattr(SuperPoly, "__radd__", counted)
    got = M._series_inverse(GR6, m.rows, body, binv)
    assert adds == []
    monkeypatch.undo()
    assert as_lists(got) == oracle_inverse(GR6, m.rows)

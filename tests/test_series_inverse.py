"""The inverse by odd degree against the association it replaced.

An even grid T splits as T = B + N with B its body (the terms without odd
generators) and N nilpotent, so

    T^-1 = (I + N')^-1 B^-1 = sum_k (-N')^k B^-1,   N' = B^-1 N,

a finite sum.  The package builds T^-1 one odd degree at a time in
_series_inverse: with N split into its parts N_e of odd degree e >= 1,
the degree-d part is Y_0 = B^-1, Y_d = -B^-1 sum_e N_e Y_{d-e}.
The oracle here is the power series instead, tests/oracles.py's
oracle_inverse: the powers of N' summed with alternating signs, then
multiplied by B^-1 on the right.  It uses only products and sums of
single polynomials and the body's adjugate over its constant
determinant (oracles.adjugate_inverse); no _gmul, _laplace, _det,
_body_inverse or linalg of the package.  Its products pair mostly terms whose odd words overlap, which
is why it is an oracle only.

The oracle is compared with invert() and _grid_inverse on seeded 1|1..4|4
matrices over Lambda(theta1..theta6), a 2|2 matrix over eight odd
generators, a matrix whose nilpotent part has only degree-1 and degree-2
terms, and matrices over k[t | theta1..theta4] whose bodies are
polynomial in t and unipotent up to a constant diagonal, such as
[[1, t], [0, 1]].  The second half counts the products by -B^-1: one per
odd degree the inverse holds, all by the same grid, and none without an
odd part.
"""

import random
from fractions import Fraction

import pytest

from helpers import random_invertible, random_supermatrix
from oracles import oracle_inverse
from supergeom import Context, LimitExceeded, SuperMatrix, SuperPoly
from supergeom import matrix as M
from supergeom import poly

GR6 = Context(odd=[f"theta{i}" for i in range(1, 7)])
KT4 = Context(even=["t"], odd=[f"theta{i}" for i in range(1, 5)])
SIZES = [(p, q) for p in range(1, 5) for q in range(1, 5)]


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


# -- how many products --------------------------------------------------------


@pytest.fixture
def gmul_calls(monkeypatch):
    """The left factor of every grid product over packed rows, the form
    the series keeps each Y_d in."""
    calls = []
    real = M._gmul_packed

    def counted(ctx, a, rows, width):
        calls.append(a)
        return real(ctx, a, rows, width)

    monkeypatch.setattr(M, "_gmul_packed", counted)
    return calls


def series_inverse(ctx, rows):
    binv = M._body_inverse(ctx, tuple(map(tuple, rows)), "T")
    return M._series_inverse(ctx, tuple(map(tuple, rows)), binv), binv


def by_negated(calls, binv):
    """Every left factor in calls is one grid, -binv."""
    return (all(a is calls[0] for a in calls)
            and as_lists(calls[0]) == [[-e for e in row] for row in binv])


def odd_degrees(grid):
    """The odd degrees >= 1 of the terms of a grid."""
    return {len(mono.odd) for row in grid for e in row for mono in e.terms} - {0}


@pytest.mark.parametrize("ctx, dim", [(GR6, (4, 4)), (GR6, (1, 3)), (KT4, (2, 2))],
                         ids=["gr6-4|4", "gr6-1|3", "kt4-2|2"])
def test_one_body_inverse_product_per_odd_degree_of_the_inverse(gmul_calls, ctx, dim):
    # Y_d = -B^-1 (sum_e N_e Y_{d-e}) is one product by -B^-1 for each
    # degree d the inverse holds, so at most len(ctx.odd) in all, and
    # -B^-1 is negated once
    rng = random.Random(1000 + dim[0])
    for _ in range(3):
        if ctx is GR6:
            m = random_invertible(rng, ctx, dim, n_terms=3)
        else:
            m = unipotent_matrix(rng, dim)
        gmul_calls.clear()
        got, binv = series_inverse(ctx, m.rows)
        assert by_negated(gmul_calls, binv)
        assert len(gmul_calls) == len(odd_degrees(got)) <= len(ctx.odd)
        assert as_lists(got) == oracle_inverse(ctx, m.rows)


def test_the_bound_is_reached_by_a_chain_of_odd_generators(gmul_calls):
    # N with theta_{i+1} just above the diagonal of a 7x7 grid: N^d holds
    # d of theta1..theta6 on its d-th superdiagonal, so every degree
    # 1..6 occurs and each takes one product by -B^-1
    n = len(GR6.odd) + 1
    rows = [[GR6.scalar(int(i == j)) + (GR6.var(f"theta{j}") if j == i + 1 else 0)
             for j in range(n)] for i in range(n)]
    got, binv = series_inverse(GR6, rows)
    assert len(gmul_calls) == len(GR6.odd)
    assert by_negated(gmul_calls, binv)
    assert as_lists(got) == oracle_inverse(GR6, rows)


def test_a_grid_without_odd_part_returns_the_body_inverse(gmul_calls):
    t = KT4.var("t")
    rows = [[KT4.scalar(1), t], [KT4.zero(), KT4.scalar(2)]]
    got, binv = series_inverse(KT4, rows)
    assert gmul_calls == []
    assert got is binv
    assert as_lists(got) == [[1, -t / 2], [0, Fraction(1, 2)]]


GR8 = Context(odd=[f"theta{i}" for i in range(1, 9)])


def test_a_2_2_matrix_over_eight_odd_generators_matches_the_oracle():
    rng = random.Random(1160)
    for _ in range(2):
        m = random_invertible(rng, GR8, (2, 2), n_terms=3)
        want = oracle_inverse(GR8, m.rows)
        assert as_lists(m.invert().rows) == want
        assert m @ m.invert() == SuperMatrix.identity(GR8, (2, 2))


def test_a_nilpotent_part_of_degrees_one_and_two_matches_the_oracle(gmul_calls):
    # S_1 and S_2 only: every Y_d with d >= 3 is built from both parts
    # through Y_{d-1} and Y_{d-2}
    rng = random.Random(1170)
    th = [GR6.var(name) for name in GR6.odd]
    for _ in range(3):
        m = random_invertible(rng, GR6, (2, 2), n_terms=1)
        rows = []
        for i, row in enumerate(m.rows):
            out = []
            for j, e in enumerate(row):
                if (i < 2) == (j < 2):
                    e = e.body() + sum(rng.randint(-3, 3) * a * b
                                       for a, b in rng.sample(list(zip(th, th[1:])), 2))
                else:
                    e = sum(rng.randint(-3, 3) * a for a in rng.sample(th, 3))
                out.append(e)
            rows.append(out)
        m = SuperMatrix(GR6, (2, 2), (2, 2), rows)
        gmul_calls.clear()
        got, binv = series_inverse(GR6, m.rows)
        assert odd_degrees(got) == set(range(1, 7))
        assert len(gmul_calls) == 6
        assert by_negated(gmul_calls, binv)
        assert as_lists(got) == oracle_inverse(GR6, m.rows)
        assert as_lists(m.invert().rows) == as_lists(got)


def test_the_series_is_summed_without_adding_polynomials(monkeypatch):
    # the parts of N are summed a row at a time by _packed_dot, and the Y_d,
    # which share no monomial, are joined entry by entry with no product;
    # B^-1 is the series' input and is made first
    m = random_invertible(random.Random(1200), GR6, (3, 3), n_terms=3)
    binv = M._body_inverse(GR6, m.rows, "T")
    adds = []
    real_add = SuperPoly.__add__

    def counted(self, other):
        adds.append(1)
        return real_add(self, other)

    monkeypatch.setattr(SuperPoly, "__add__", counted)
    monkeypatch.setattr(SuperPoly, "__radd__", counted)
    got = M._series_inverse(GR6, m.rows, binv)
    assert adds == []
    monkeypatch.undo()
    assert as_lists(got) == oracle_inverse(GR6, m.rows)


def test_the_joined_inverse_keeps_the_term_cap(monkeypatch, gmul_calls):
    # under a cap between the largest odd-degree part of the inverse and
    # its largest entry, every Y_d is built and the join of the parts
    # raises the product's error
    m = random_invertible(random.Random(1202), GR6, (2, 2), n_terms=3)
    inverse = m.invert().rows
    part = max(len(p) for row in inverse for e in row
               for p in e.odd_degree_parts().values())
    entry = max(len(e) for row in inverse for e in row)
    assert (part, entry) == (17, 27)
    for cap in range(part, entry):
        monkeypatch.setattr(poly, "MAX_TERMS", cap)
        gmul_calls.clear()
        with pytest.raises(LimitExceeded, match=f"^product has more than {cap} terms, the cap$"):
            m.invert()
        assert len(gmul_calls) == len(odd_degrees(inverse))
    monkeypatch.setattr(poly, "MAX_TERMS", entry)
    assert m.invert().rows == inverse

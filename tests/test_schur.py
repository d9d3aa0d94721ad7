"""Schur complements against the plain product and difference.

_schur(ctx, a, b, c, d, label) returns (d^-1, b d^-1, a - b d^-1 c) for
the block grid [[a, b], [c, d]], the complement one grid product
[1 | b d^-1] [a; -c] whose right grid is packed once.  The oracle here
takes b d^-1 c one polynomial product at a time (helpers.grid_mul) and
subtracts it from a with plain -.  Both orientations are checked, the
primary complement of T4 and the alternate complement of T1, on seeded
2|2..4|4 matrices over Lambda(theta1..theta6) and k[t | theta1..theta4].
"""

import random

import pytest

from helpers import grid_mul, random_invertible
from supergeom import Context, SuperPoly
from supergeom import matrix as M

GR6 = Context(odd=[f"theta{i}" for i in range(1, 7)])
KT4 = Context(even=["t"], odd=[f"theta{i}" for i in range(1, 5)])
SIZES = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]
CASES = [(ctx, dim) for ctx in (GR6, KT4) for dim in SIZES]


def oracle(ctx, a, b, c, dinv):
    bdc = grid_mul(ctx, grid_mul(ctx, b, dinv), c)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, bdc)]


@pytest.mark.parametrize(
    "ctx, dim", CASES,
    ids=[f"{'gr6' if ctx is GR6 else 'kt4'}-{p}|{q}" for ctx, (p, q) in CASES])
def test_complements_match_the_plain_difference(ctx, dim):
    rng = random.Random(2100 + 10 * dim[0] + dim[1] + 100 * (ctx is KT4))
    for _ in range(2):
        t1, t2, t3, t4 = random_invertible(rng, ctx, dim, n_terms=3).blocks()
        for a, b, c, d in ((t1, t2, t3, t4), (t4, t3, t2, t1)):
            dinv, bdinv, got = M._schur(ctx, a, b, c, d, "T")
            assert dinv == M._grid_inverse(ctx, d, "T")
            assert [list(r) for r in bdinv] == grid_mul(ctx, b, dinv)
            assert [list(r) for r in got] == oracle(ctx, a, b, c, dinv)


def test_an_empty_d_returns_a_unchanged():
    t1, t2, t3, t4 = random_invertible(random.Random(2200), GR6, (3, 0)).blocks()
    assert t3 == t4 == ()
    dinv, bdinv, got = M._schur(GR6, t1, t2, t3, t4, "T4")
    assert dinv == () and bdinv is t2 and got is t1


def test_the_complement_is_summed_without_adding_polynomials(monkeypatch):
    # once d^-1 is built, the complement goes through the term-pair loop
    # only: no SuperPoly + or - on the way
    t1, t2, t3, t4 = random_invertible(random.Random(2300), GR6, (3, 3), n_terms=3).blocks()
    armed = []
    sums = []
    real_inverse = M._grid_inverse

    def inverse(*args):
        out = real_inverse(*args)
        armed.append(1)
        return out

    def counting(real):
        def counted(self, other):
            if armed:
                sums.append(1)
            return real(self, other)
        return counted

    monkeypatch.setattr(M, "_grid_inverse", inverse)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(SuperPoly, name, counting(getattr(SuperPoly, name)))
    dinv, _, got = M._schur(GR6, t1, t2, t3, t4, "T4")
    assert armed and sums == []
    monkeypatch.undo()
    assert [list(r) for r in got] == oracle(GR6, t1, t2, t3, dinv)

"""Coordinate invariance: verdicts and ranks a change of coordinates keeps.

A verdict or a rank prints the same bytes every time it is consistently
wrong, so no identity pin can prove it.  The objects are coordinate-free,
though, and this file checks two computations against that theorem,
through the public API only.

M = k[x, y | a, b, c], and each seed draws an automorphism phi of M
(random.Random(seed)).  Its even images are a linear body p x + q y + s,
r y, unipotent in y^2 on odd seeds, plus nilpotent terms; its odd images
are an invertible int map L of a, b, c, unipotent in x and y on odd
seeds, plus a cubic.  The Jacobian J, J_{i,k} = d_i phi*(y_k) with rows
on source coordinates as morphism.py lays them out, has the constant body
determinant p r det L, so SuperMatrix.invert takes it.  A field X and
Y = phi*(X(y)) J^-1 (the row of its coefficients' images times the
inverse) satisfy Y phi* = phi* X: Y is X in the coordinates of phi, and
each test checks that identity on the generators first.

- involutive: the bracket of phi-related fields is phi-related, so the
  span of the Y is involutive exactly when that of the X is.  The
  coordinate distributions {d/dx, d/da}, {d/da, d/db} and
  {d/dx, d/dy, d/dc} stay INTEGRABLE.  Pairs of random fields whose
  coefficients have constant bodies give definite verdicts on the X side,
  NOT_INTEGRABLE among them, and the verdicts on the two sides never swap
  between INTEGRABLE and NOT_INTEGRABLE.  INDETERMINATE belongs to the
  pivot search, not to the geometry, so it may stand on either side;
  where phi's body is linear the Y have constant bodies too, and their
  verdict equals that of the X.
- srank: srank(P X Q) = srank(X) for invertible even P and Q, X a 3|2 x
  2|3 matrix of constant bodies whose blocks have every body rank.

Each failure names its seed and phi.  Each of these sign mutants turns
the coordinate distributions NOT_INTEGRABLE after phi at 8 of the 12
seeds, and swaps a verdict of the random pairs: SuperPoly.partial without
its odd sign, and derivation.bracket taking its second side with both_odd
in place of not both_odd.  srank reads bodies only, so no sign mutant
shows there: it is a cheap check, not a sign oracle.
"""

import random

import pytest

from supergeom import (
    Context,
    Involutivity,
    Morphism,
    Parity,
    SuperDerivation,
    SuperDim,
    SuperMatrix,
    involutive,
)

M = Context(even=["x", "y"], odd=["a", "b", "c"])
X, Y = M.var("x"), M.var("y")
A, B, C = M.var("a"), M.var("b"), M.var("c")
ODD = (A, B, C)
SEEDS = range(12)
DEFINITE = {Involutivity.INTEGRABLE, Involutivity.NOT_INTEGRABLE}


def small(rng):
    return rng.choice([-3, -2, -1, 1, 2, 3])


def invertible_body(rng, n):
    """L U, L unit lower and U upper triangular with a nonzero diagonal."""
    low = [[1 if i == j else rng.randint(-2, 2) if i > j else 0 for j in range(n)]
           for i in range(n)]
    up = [[small(rng) if i == j else rng.randint(-2, 2) if i < j else 0 for j in range(n)]
          for i in range(n)]
    return [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def draw_phi(seed):
    """(phi, linear): the automorphism of seed, and whether its body is
    linear (even seeds)."""
    rng = random.Random(seed)
    linear = seed % 2 == 0
    odd = [sum((g * k for g, k in zip(ODD, row)), M.zero()) for row in invertible_body(rng, 3)]
    if not linear:
        odd[1] = odd[1] + X * odd[0] * small(rng)
        odd[2] = odd[2] + Y * odd[1] * small(rng)
    odd[2] = odd[2] + A * B * C * small(rng)
    px = X * small(rng) + Y * rng.randint(-2, 2) + rng.randint(-2, 2) + A * B * small(rng)
    py = Y * small(rng) + Y * B * C * small(rng) + X * A * C * rng.randint(-1, 1)
    if not linear:
        px = px + Y * Y * small(rng)
    return Morphism(M, M, [px, py, *odd]), linear


def jacobian_inverse(phi):
    """J^-1, J_{i,k} the left partial of image k by source coordinate i."""
    rows = [[img.partial(name) for img in phi.images] for name in M.names]
    dim = SuperDim(*M.dims)
    return SuperMatrix(M, dim, dim, rows).invert()


def related(phi, jinv, field):
    """The field phi-related to field: phi*(field(y)) J^-1."""
    v = [phi.pullback(c) for c in field.coefficients()]
    n = len(v)
    coeffs = [sum((v[k] * jinv.entry(k, i) for k in range(n)), M.zero()) for i in range(n)]
    out = SuperDerivation(M, field.parity, coeffs[:len(M.even)], coeffs[len(M.even):])
    for name, img in zip(M.names, phi.images):
        assert out.apply(img) == phi.pullback(field.apply(M.var(name)))
    return out


def nilpotent(rng, parity):
    """A random polynomial of parity whose body is 0: a few terms of one
    or three odd generators, or of two, times 1, x or y."""
    words = [(A,), (B,), (C,), (A, B, C)] if parity is Parity.ODD else [(A, B), (A, C), (B, C)]
    out = M.zero()
    for _ in range(rng.randint(0, 2)):
        term = M.scalar(small(rng))
        for g in rng.choice(words):
            term = term * g
        out = out + term * rng.choice([M.one(), X, Y])
    return out


def constant_body_fields(rng):
    """Two random homogeneous fields whose coefficients have constant
    bodies, an even coefficient an int plus a nilpotent part and an odd
    one without a body, and the two fields of their bodies alone, which
    commute."""
    fields, bodies = [], []
    for _ in range(2):
        parity = rng.choice([Parity.EVEN, Parity.ODD])
        slots = [parity] * len(M.even) + [parity.flipped()] * len(M.odd)
        ints = [rng.randint(-2, 2) if slot is Parity.EVEN else 0 for slot in slots]
        coeffs = [nilpotent(rng, slot) + k for slot, k in zip(slots, ints)]
        p = len(M.even)
        fields.append(SuperDerivation(M, parity, coeffs[:p], coeffs[p:]))
        bodies.append(SuperDerivation(M, parity, ints[:p], ints[p:]))
    return fields, bodies


@pytest.mark.parametrize("seed", SEEDS)
def test_coordinate_distributions_stay_integrable(seed):
    phi, _ = draw_phi(seed)
    jinv = jacobian_inverse(phi)
    for names in (("x", "a"), ("a", "b"), ("x", "y", "c")):
        fields = [SuperDerivation.coordinate(M, n) for n in names]
        assert involutive(fields) is Involutivity.INTEGRABLE
        moved = involutive([related(phi, jinv, f) for f in fields])
        assert moved is not Involutivity.NOT_INTEGRABLE, (
            f"seed {seed}: {names} NOT_INTEGRABLE after phi = {[str(p) for p in phi.images]}")


def test_verdicts_never_swap():
    seen = {v: 0 for v in Involutivity}
    for seed in SEEDS:
        phi, linear = draw_phi(seed)
        jinv = jacobian_inverse(phi)
        rng = random.Random(1000 + seed)
        for fields in constant_body_fields(rng):
            before = involutive(fields)
            after = involutive([related(phi, jinv, f) for f in fields])
            where = (f"seed {seed}: {[str(f) for f in fields]} is {before}, after "
                     f"phi = {[str(p) for p in phi.images]} {after}")
            assert {before, after} != DEFINITE, where
            if linear:
                assert after is before, where
            seen[before] += 1
    # the trials reach both definite verdicts, so the check is not vacuous
    assert seen[Involutivity.INTEGRABLE] and seen[Involutivity.NOT_INTEGRABLE], seen


def of_rank(rng, rows, cols, rank):
    """An int rows x cols matrix, the product of rows x rank and rank x cols
    ones: of rank at most rank."""
    left = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rank)]
    return [[sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(cols)]
            for i in range(rows)]


def even_matrix(rng, source, target, t1, t4):
    """The even matrix whose blocks T1 and T4 are the int grids t1 and t4
    plus nilpotent parts, and whose T2 and T3 are odd."""
    p, q = source

    def even(row):
        return [nilpotent(rng, Parity.EVEN) + k for k in row]

    def odd(n):
        return [nilpotent(rng, Parity.ODD) for _ in range(n)]

    rows = [even(row) + odd(q) for row in t1] + [odd(p) + even(row) for row in t4]
    return SuperMatrix(M, source, target, rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_srank_is_invariant_under_invertible_even_factors(seed):
    rng = random.Random(2000 + seed)
    source, target = SuperDim(2, 3), SuperDim(3, 2)
    x = even_matrix(rng, source, target, of_rank(rng, 3, 2, seed % 3),
                    of_rank(rng, 2, 3, seed // 3 % 3))
    p = even_matrix(rng, target, target, invertible_body(rng, 3), invertible_body(rng, 2))
    q = even_matrix(rng, source, source, invertible_body(rng, 2), invertible_body(rng, 3))
    assert (p @ x @ q).srank() == x.srank(), f"seed {seed}: X = {x}"

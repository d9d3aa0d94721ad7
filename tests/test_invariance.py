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
- tangent: where phi's body is linear, phi^-1(x) is rational, and the
  pulled-back variety (phi*I, phi^-1(x)) has the dimensions of (I, x).
  The generators are homogeneous, vanish at x, and have linear parts of
  random rank.
- classify: for a morphism f: M -> N into 1|1, 2|3 and 3|4 targets and an
  automorphism psi of N with an invertible linear body, psi f phi at
  phi^-1(m) falls in the class of f at m.  The trials reach every class
  and None.

Each failure names its seed and phi.  Each of these sign mutants turns
the coordinate distributions NOT_INTEGRABLE after phi at 8 of the 12
seeds, and swaps a verdict of the random pairs: SuperPoly.partial without
its odd sign, and derivation.bracket taking its second side with both_odd
in place of not both_odd.  srank, tangent and classify read bodies and
linear parts only, so no sign mutant shows there: they are cheap checks,
not sign oracles.
"""

import random
from fractions import Fraction

import pytest

from supergeom import (
    Context,
    Involutivity,
    MapClass,
    Morphism,
    Parity,
    PointedVariety,
    SuperDerivation,
    SuperDim,
    SuperMatrix,
    compose,
    involutive,
    tangent_space,
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


LINEAR = [seed for seed in SEEDS if seed % 2 == 0]


def random_point(rng):
    return M.point([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in M.even])


def preimage(phi, point):
    """phi^-1(point) for phi with an affine body: the body's offset and
    columns read from image_point at 0 and at the unit points, and the
    2 x 2 system solved by Cramer's rule."""
    base = phi.image_point(M.point([0, 0])).even_values
    (a, c), (b, d) = [[u - v for u, v in zip(phi.image_point(M.point(e)).even_values, base)]
                      for e in ([1, 0], [0, 1])]
    r, s = [u - v for u, v in zip(point.even_values, base)]
    det = a * d - b * c
    m = M.point([(r * d - b * s) / det, (a * s - r * c) / det])
    assert phi.image_point(m) == point
    return m


def vanishing(rng, point):
    """Homogeneous generators that vanish at point: even ones int
    combinations of x - x0 and y - y0 of a random rank, plus a product of
    the two and a nilpotent part; odd ones int combinations of a, b, c of a
    random rank, plus a times x and a nilpotent part."""
    x0, y0 = point.even_values
    dx, dy = X - x0, Y - y0
    gens = [dx * i + dy * j + dx * dy * rng.randint(-2, 2) + nilpotent(rng, Parity.EVEN)
            for i, j in of_rank(rng, rng.randint(0, 2), 2, rng.randint(0, 2))]
    gens += [sum((g * k for g, k in zip(ODD, row)), A * X * rng.randint(-1, 1))
             + nilpotent(rng, Parity.ODD)
             for row in of_rank(rng, rng.randint(0, 3), 3, rng.randint(0, 3))]
    return gens


def test_tangent_spaces_keep_their_dimensions():
    seen = set()
    for seed in LINEAR:
        phi, _ = draw_phi(seed)
        rng = random.Random(3000 + seed)
        for _ in range(4):
            point = random_point(rng)
            gens = vanishing(rng, point)
            before = tangent_space(PointedVariety(M, gens, point)).dimension
            moved = PointedVariety(M, [phi.pullback(g) for g in gens], preimage(phi, point))
            after = tangent_space(moved).dimension
            assert after == before, (
                f"seed {seed}: I = {[str(g) for g in gens]} at {point} is {before}, after "
                f"phi = {[str(p) for p in phi.images]} {after}")
            seen.add(before)
    # the trials reach several dimensions, so the check is not vacuous
    assert len(seen) >= 4, seen


TARGETS = [Context(even=["u"], odd=["d"]),
           Context(even=["u", "v"], odd=["d", "e", "g"]),
           Context(even=["u", "v", "w"], odd=["d", "e", "g", "h"])]


def linear_automorphism(rng, ctx):
    """An automorphism of ctx whose even images are an invertible int map
    of the even generators plus a constant and a nilpotent product of two
    odd ones, and whose odd images are an invertible int map of the odd
    generators, the last plus a cubic: its differential at every point is
    the two int maps."""
    evens, odds = [ctx.var(n) for n in ctx.even], [ctx.var(n) for n in ctx.odd]
    pair = odds[0] * odds[1] if len(odds) > 1 else ctx.zero()
    images = [sum((g * k for g, k in zip(evens, row)), pair * rng.randint(-1, 1))
              + rng.randint(-2, 2)
              for row in invertible_body(rng, len(evens))]
    odd = [sum((g * k for g, k in zip(odds, row)), ctx.zero())
           for row in invertible_body(rng, len(odds))]
    if len(odds) > 2:
        odd[-1] = odd[-1] + odds[0] * odds[1] * odds[2] * small(rng)
    return Morphism(ctx, ctx, images + odd)


def linear_part(rng, rows, cols, full):
    """An int rows x cols matrix: of full rank when full (a corner of an
    invertible one), else of a random rank at most min(rows, cols)."""
    if full:
        return [row[:cols] for row in invertible_body(rng, max(rows, cols))[:rows]]
    return of_rank(rng, rows, cols, rng.randint(0, min(rows, cols)))


def morphism_into(rng, target, point, full):
    """A morphism M -> target whose differential at point has blocks of a
    random rank, both full when full: even images int combinations of
    x - x0 and y - y0 plus a constant, a square and a nilpotent part, odd
    images int combinations of a, b, c plus a cubic."""
    x0, y0 = point.even_values
    dx, dy = X - x0, Y - y0
    k, q = target.dims
    even = [dx * i + dy * j + rng.randint(-2, 2) + dx * dx * small(rng)
            + nilpotent(rng, Parity.EVEN)
            for i, j in linear_part(rng, k, 2, full)]
    odd = [sum((g * c for g, c in zip(ODD, row)), A * B * C * rng.randint(-1, 1))
           for row in linear_part(rng, q, 3, full)]
    return Morphism(M, target, even + odd)


def test_classes_are_invariant_under_automorphisms():
    seen = set()
    for seed in LINEAR:
        phi, _ = draw_phi(seed)
        rng = random.Random(4000 + seed)
        for target in TARGETS:
            psi = linear_automorphism(rng, target)
            for full in (True, False):
                m = random_point(rng)
                f = morphism_into(rng, target, m, full)
                before = f.classify_at(m)
                after = compose(psi, compose(f, phi)).classify_at(preimage(phi, m))
                assert after is before, (
                    f"seed {seed}: f = {f} at {m} is {before}, psi f phi at phi^-1(m) is "
                    f"{after}; phi = {[str(p) for p in phi.images]}, psi = {psi}")
                seen.add(before)
    # the trials reach every class and None, so the check is not vacuous
    assert seen == {*MapClass, None}, seen

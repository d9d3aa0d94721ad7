"""Time both determinant expansions of matrix._det on seeded odd-free
grids, and refit the constant K of poly._kronecker_image's rule.

For each grid it prints p (even generators), n (rows), a (the mean term
count of the nonzero entries), the span of the image's slots (the slot
form of poly._slot_units, which the rule reads), C(D + p, p) (the
monomials of total degree <= D), the milliseconds of _det's polynomial
path (matrix._laplace) and of its image path (matrix._image_det, with
the packing and unpacking), and the path the rule takes.  Each time is
the least of ROUNDS rounds over the whole grid list; a round times the
two paths of every grid back to back, in alternating order, so a drift
of the host between rounds moves both and the minima stay comparable.
The grids are dense (every monomial up to a degree) and sparse (half
the entries zero, the rest one or two monomials of degree <= 3), with
Fraction coefficients, and dense linear with small int coefficients,
over p = 1..6 and n = 3..10; sizes whose polynomial expansion would
take seconds are left out, and "-" marks an image left untimed because
its span is too wide.  Both values are compared.

It then totals the time of the path each K in CANDIDATES would choose,
asking poly._kronecker_image itself with its K set to each candidate,
with the slowest grid against its faster path (all grids, and those
whose faster path takes 1 ms or more, where the fixed cost of packing
no longer decides), and prints the K of least total.  pytest does not
collect this file; test_det_image.py compares both values on its
small grids.  Run it as:

    PYTHONPATH=src python tests/det_sweep.py
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb

from model import Monomial, from_terms, terms_of
from supergeom import Context, poly
from supergeom.matrix import _det

# the largest n per p of each kind, so the polynomial expansion stays
# under about a second per grid
DENSE_N = {1: 10, 2: 10, 3: 9, 4: 7, 5: 6, 6: 6}
SPARSE_N = {1: 10, 2: 10, 3: 10, 4: 9, 5: 8, 6: 8}
# grids of each kind and size
SEEDS = 2
# widest span whose image is timed
MAX_SPAN = 40_000
# rounds over the grid list; each time is the least of its rounds
ROUNDS = 5
CANDIDATES = (25, 50, 75, 100, 125, 150, 175, 200, 250, 300, 400, 600, 1000)


def coefficient(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def monomial(exps):
    return Monomial([(i, e) for i, e in enumerate(exps) if e], 0)


def integer(rng):
    return rng.randint(-3, 3)


def dense_grid(rng, ctx, n, degree, coefficient=coefficient):
    p = len(ctx.even)
    monos = [monomial(e) for e in product(range(degree + 1), repeat=p) if sum(e) <= degree]
    return [[from_terms(ctx, {m: coefficient(rng) for m in monos}) for _ in range(n)]
            for _ in range(n)]


def sparse_grid(rng, ctx, n):
    p = len(ctx.even)

    def entry():
        if rng.random() < 0.5:
            return ctx.zero()
        return from_terms(ctx, {monomial([rng.randint(0, 3) if rng.random() < 0.5 else 0
                                          for _ in range(p)]): coefficient(rng)
                                for _ in range(rng.randint(1, 2))})

    return [[entry() for _ in range(n)] for _ in range(n)]


def grids(ps=range(1, 7), ns=range(3, 11)):
    """(kind, ctx, grid), SEEDS grids of each kind and size, over p even
    generators for p in ps and of n rows for n in ns: dense1 and dense2
    fill every monomial up to degree 1 and 2 with Fractions, and ints1
    every monomial up to degree 1 with ints in -3..3, some of them 0, as
    the even_det benchmark does."""
    for p in ps:
        ctx = Context(even=[f"t{i}" for i in range(1, p + 1)])
        for n in ns:
            for seed in range(SEEDS):
                if n <= DENSE_N[p]:
                    rng = random.Random(f"d1-{p}-{n}-{seed}")
                    yield "dense1", ctx, dense_grid(rng, ctx, n, 1)
                    rng = random.Random(f"i1-{p}-{n}-{seed}")
                    yield "ints1", ctx, dense_grid(rng, ctx, n, 1, integer)
                if p <= 2 and n <= 8 or p == 3 and n <= 6:
                    rng = random.Random(f"d2-{p}-{n}-{seed}")
                    yield "dense2", ctx, dense_grid(rng, ctx, n, 2)
                if n <= SPARSE_N[p]:
                    yield "sparse", ctx, sparse_grid(random.Random(f"s-{p}-{n}-{seed}"), ctx, n)


def bounds(grid):
    """(d, D) of a grid, from its terms: d_i the sum of each row's largest
    exponent of t_i and D the sum of each row's largest total degree."""
    p = len(grid[0][0].ctx.even)
    box = [0] * p
    total = 0
    for row in grid:
        tops = [0] * p
        top = 0
        for e in row:
            for mono in terms_of(e):
                for i, x in mono.even:
                    tops[i] = max(tops[i], x)
                top = max(top, mono.even_degree)
        box = [b + t for b, t in zip(box, tops)]
        total += top
    return box, total


def shape(grid):
    """(a, span, C(D + p, p)) of a grid, from its terms."""
    entries = [e for row in grid for e in row if e]
    a = sum(len(e) for e in entries) / max(len(entries), 1)
    box, total = bounds(grid)
    return a, poly._slot_units(box, total)[1], comb(total + len(box), len(box))


@contextmanager
def rule(k, rows):
    """poly._kronecker_image's rule with its K and row count set to k and
    rows."""
    saved = poly._KRONECKER_K, poly._KRONECKER_ROWS
    poly._KRONECKER_K, poly._KRONECKER_ROWS = k, rows
    try:
        yield
    finally:
        poly._KRONECKER_K, poly._KRONECKER_ROWS = saved


def forced_image_det(ctx, grid):
    """_det with the rule's K and row count set aside: the image of every
    grid that fits the caps."""
    with rule(float("inf"), 0):
        return _det(ctx, grid)


def polynomial_det(ctx, grid):
    """_det with the rule's row count set past every grid: the
    polynomial expansion, _det's path for the grids the rule refuses."""
    with rule(poly._KRONECKER_K, float("inf")):
        return _det(ctx, grid)


def taken_at(ctx, grid):
    """The K in CANDIDATES for which poly._kronecker_image takes grid."""
    taken = set()
    for k in CANDIDATES:
        with rule(k, poly._KRONECKER_ROWS):
            if poly._kronecker_image(ctx, grid) is not None:
                taken.add(k)
    return taken


def main():
    sweep = []
    for kind, ctx, grid in grids():
        a, span, c = shape(grid)
        paths = [partial(polynomial_det, ctx, grid)]
        if span <= MAX_SPAN and c <= poly.MAX_TERMS:
            paths.append(partial(forced_image_det, ctx, grid))
        sweep.append((kind, ctx, grid, a, span, c, paths, [float("inf")] * len(paths)))
    for r in range(ROUNDS):
        for kind, ctx, grid, *_, paths, best in sweep:
            values = [None] * len(paths)
            for k in sorted(range(len(paths)), reverse=r % 2):
                t = time.perf_counter()
                values[k] = paths[k]()
                best[k] = min(best[k], (time.perf_counter() - t) * 1e3)
            if values[0] != values[-1]:
                sys.exit(f"values differ: {kind} p={len(ctx.even)} n={len(grid)}")
        print(f"round {r + 1} of {ROUNDS}", file=sys.stderr, flush=True)
    rows = []
    print(f"{'kind':7} {'p':>2} {'n':>3} {'a':>6} {'span':>7} {'C(D+p,p)':>9} "
          f"{'poly ms':>9} {'image ms':>9}  rule")
    for kind, ctx, grid, a, span, c, _, (poly_ms, *image) in sweep:
        image_ms = image[0] if image else None
        choice = "image" if poly._kronecker_image(ctx, grid) else "poly"
        rows.append((taken_at(ctx, grid), poly_ms, image_ms))
        shown = f"{image_ms:9.2f}" if image_ms is not None else f"{'-':>9}"
        print(f"{kind:7} {len(ctx.even):2} {len(grid):3} {a:6.2f} {span:7} {c:9} "
              f"{poly_ms:9.2f} {shown}  {choice}")

    def faster(r):
        return min(r[1], r[2]) if r[2] is not None else r[1]

    def taken(r, k):
        ks, poly_ms, image_ms = r
        return image_ms if k in ks and image_ms is not None else poly_ms

    print(f"\n{len(rows)} grids: {sum(r[1] for r in rows):.0f} ms on the polynomial "
          f"path alone, {sum(map(faster, rows)):.0f} ms on the faster path of each")
    totals = {}
    for k in CANDIDATES:
        totals[k] = sum(taken(r, k) for r in rows)
        worst = max(taken(r, k) / faster(r) for r in rows)
        worst_ms = max(taken(r, k) / faster(r) for r in rows if faster(r) >= 1)
        print(f"K = {k:5}: {totals[k]:8.0f} ms; slowest grid x{worst:.2f} its faster "
              f"path, x{worst_ms:.2f} among those of 1 ms or more")
    print(f"least total: K = {min(totals, key=totals.get)}; "
          f"the rule uses K = {poly._KRONECKER_K}")


if __name__ == "__main__":
    main()

"""Shared builders for the test suite: deterministic random values over
small contexts.  Every generator takes an explicit random.Random so each
test controls its own seed."""

from fractions import Fraction

from supergeom import Parity, SuperPoly


def poly(ctx, triples):
    """Build a polynomial from (coeff, [(even name, exp), ...], [odd names])."""
    out = SuperPoly.zero(ctx)
    for coeff, evens, odds in triples:
        term = SuperPoly.scalar(ctx, coeff)
        for name, e in evens:
            term = term * SuperPoly.var(ctx, name) ** e
        for name in odds:
            term = term * SuperPoly.var(ctx, name)
        out = out + term
    return out


def random_poly(rng, ctx, parity=None, max_even_deg=2, n_terms=3, lo=-5, hi=5):
    """Random polynomial with coefficients in [lo, hi].

    parity EVEN/ODD restricts every term's odd word length mod 2, so the
    result is homogeneous (or zero).  parity None mixes freely.
    """
    q = len(ctx.odd)
    if parity is Parity.EVEN:
        lengths = [k for k in range(q + 1) if k % 2 == 0]
    elif parity is Parity.ODD:
        lengths = [k for k in range(q + 1) if k % 2 == 1]
        if not lengths:
            raise ValueError("context has no odd generators")
    else:
        lengths = list(range(q + 1))
    out = SuperPoly.zero(ctx)
    for _ in range(n_terms):
        term = SuperPoly.scalar(ctx, rng.randint(lo, hi))
        for name in ctx.even:
            deg = rng.randint(0, max_even_deg)
            if deg:
                term = term * SuperPoly.var(ctx, name) ** deg
        for name in rng.sample(list(ctx.odd), rng.choice(lengths)):
            term = term * SuperPoly.var(ctx, name)
        out = out + term
    return out


def random_rational_poly(rng, ctx, parity=None, max_even_deg=2, n_terms=3,
                         max_den=12):
    """Random polynomial with Fraction(n, d) coefficients, d in 1..max_den.

    Built from Monomials through the public constructor, not by ring
    arithmetic, so a test that checks + or * does not also build its
    inputs with them.  parity restricts the odd word lengths as in
    random_poly.
    """
    from supergeom import Monomial

    q = len(ctx.odd)
    lengths = [k for k in range(q + 1)
               if parity is None or k % 2 == parity.value]
    if not lengths:
        raise ValueError("context has no odd generators")
    terms = {}
    for _ in range(n_terms):
        even = tuple((i, d) for i in range(len(ctx.even))
                     if (d := rng.randint(0, max_even_deg)))
        mask = sum(1 << j for j in rng.sample(range(q), rng.choice(lengths)))
        terms[Monomial(even, mask)] = Fraction(rng.randint(-9, 9),
                                               rng.randint(1, max_den))
    return SuperPoly(ctx, terms)


def random_homogeneous(rng, ctx, **kw):
    """Random homogeneous polynomial of a random parity."""
    parity = Parity.EVEN if rng.random() < 0.5 else Parity.ODD
    return random_poly(rng, ctx, parity=parity, **kw), parity


def random_point(rng, ctx, lo=-4, hi=4):
    from supergeom import RationalPoint

    return RationalPoint(ctx, [Fraction(rng.randint(lo, hi)) for _ in ctx.even])


def random_supermatrix(rng, ctx, source, target, parity=Parity.EVEN, **kw):
    """Random homogeneous supermatrix; entry parities follow the block grid."""
    from supergeom import SuperDim, SuperMatrix

    source = SuperDim(*source)
    target = SuperDim(*target)
    kw.setdefault("n_terms", 2)
    rows = []
    for i in range(target.total):
        rp = 0 if i < target.even else 1
        row = []
        for j in range(source.total):
            cp = 0 if j < source.even else 1
            need = Parity((rp + cp + parity.value) & 1)
            row.append(random_poly(rng, ctx, parity=need, **kw))
        rows.append(row)
    return SuperMatrix(ctx, source, target, rows, parity)


def random_invertible(rng, ctx, dim, n_terms=2, lo=-5, hi=5):
    """Random even square supermatrix with invertible body blocks.

    Integer diagonal-block bodies are resampled until they have full
    rank; the nilpotent remainder is a random matrix with the body
    stripped from the even blocks.
    """
    from supergeom import SuperDim, SuperMatrix
    from supergeom import linalg

    dim = SuperDim(*dim)

    def body_block(n):
        while True:
            rows = [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
            if linalg.rank(rows) == n:
                return rows

    b1 = body_block(dim.even)
    b4 = body_block(dim.odd)
    noise = random_supermatrix(rng, ctx, dim, dim, n_terms=n_terms, lo=lo, hi=hi)
    rows = []
    for i in range(dim.total):
        row = []
        for j in range(dim.total):
            e = noise.entry(i, j)
            if i < dim.even and j < dim.even:
                e = e - e.body() + b1[i][j]
            elif i >= dim.even and j >= dim.even:
                e = e - e.body() + b4[i - dim.even][j - dim.even]
            row.append(e)
        rows.append(row)
    return SuperMatrix(ctx, dim, dim, rows)


def brute_srank(mat):
    """Oracle for srank: sizes of the largest invertible square
    submatrices of the constant bodies of T1 and T4, found by subset
    search.  Only valid for matrices with constant-body entries."""
    from itertools import combinations

    from supergeom import SuperDim, linalg

    def best(grid):
        rows = [[e.body().constant_term() for e in row] for row in grid]
        m = len(rows)
        n = len(rows[0]) if m else 0
        for k in range(min(m, n), 0, -1):
            for ri in combinations(range(m), k):
                for ci in combinations(range(n), k):
                    sub = [[rows[i][j] for j in ci] for i in ri]
                    if linalg.rank(sub) == k:
                        return k
        return 0

    t1, _, _, t4 = mat.blocks()
    return SuperDim(best(t1), best(t4))


def grid_mul(ctx, x, y):
    """Plain product of two grids, one polynomial product at a time."""
    zero = ctx.zero()
    return [
        [sum((x[i][k] * y[k][j] for k in range(len(y))), zero)
         for j in range(len(y[0]))]
        for i in range(len(x))
    ]


def identity(ctx, n):
    return [[ctx.scalar(int(i == j)) for j in range(n)] for i in range(n)]

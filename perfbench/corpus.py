"""Seeded input builders for the benchmark workloads.

Modelled on ``tests/helpers.py`` but kept apart from it, so that an edit to
the test helpers cannot change a benchmark corpus.  Every builder takes an
explicit ``random.Random``; the same seed always gives the same inputs.
"""

from __future__ import annotations

from fractions import Fraction

from supergeom import Parity, SuperDim, SuperMatrix, SuperPoly


def frac_det(rows) -> Fraction:
    """Determinant of a rational matrix by Gaussian elimination.

    Written here rather than taken from the kernel, so that it shares no
    code path with ``_det`` and can serve as its oracle.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        pv = m[c][c]
        det *= pv
        for r in range(c + 1, n):
            f = m[r][c] / pv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def odd_terms(p) -> dict:
    """A polynomial over odd generators only as {odd word: coefficient}."""
    assert all(not mono.even for mono in p.terms), "even generator in entry"
    return {mono.odd: c for mono, c in p.terms.items()}


def grassmann_product(a, b):
    """Entries of the product of two even square supermatrices over odd
    generators only, as rows of {odd word: Fraction}.

    Written here rather than taken from the kernel, so that it shares no
    code path with ``SuperMatrix.__matmul__`` and can serve as its oracle:
    a product of words is zero when they share a generator, else their
    merge, signed by the number of transpositions that sorting it takes.
    """
    n = a.source.total
    left = [[odd_terms(a.entry(i, k)) for k in range(n)] for i in range(n)]
    right = [[odd_terms(b.entry(k, j)) for j in range(n)] for k in range(n)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = {}
            for k in range(n):
                for u, cu in left[i][k].items():
                    for v, cv in right[k][j].items():
                        if set(u) & set(v):
                            continue
                        swaps = sum(x > y for x in u for y in v)
                        word = tuple(sorted(u + v))
                        acc[word] = acc.get(word, 0) + (-cu if swaps & 1 else cu) * cv
            row.append({w: c for w, c in acc.items() if c})
        rows.append(row)
    return rows


def random_poly(rng, ctx, parity=None, max_even_deg=2, n_terms=3, lo=-5, hi=5):
    """Random polynomial; parity EVEN/ODD makes every term's odd word
    length even/odd, so the result is homogeneous (or zero)."""
    q = len(ctx.odd)
    lengths = list(range(q + 1))
    if parity is not None:
        lengths = [k for k in lengths if k % 2 == parity.value]
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


def random_supermatrix(rng, ctx, dim, parity=Parity.EVEN, **kw):
    """Random homogeneous square supermatrix; entry parities follow the
    block grid."""
    dim = SuperDim(*dim)
    kw.setdefault("n_terms", 2)
    rows = []
    for i in range(dim.total):
        row = []
        for j in range(dim.total):
            need = Parity(((i >= dim.even) + (j >= dim.even) + parity.value) & 1)
            row.append(random_poly(rng, ctx, parity=need, **kw))
        rows.append(row)
    return SuperMatrix(ctx, dim, dim, rows, parity)


def invertible_block(rng, n, lo=-5, hi=5):
    """Random integer n x n matrix with nonzero determinant."""
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if frac_det(rows):
            return rows


def random_invertible(rng, ctx, dim, n_terms=2, lo=-5, hi=5):
    """Random even square supermatrix over the odd generators of ctx whose
    diagonal blocks have invertible integer bodies.

    Every entry gets n_terms nilpotent terms with nonzero coefficients.
    The odd-word lengths a block allows (even blocks 2, 4, ...; odd blocks
    1, 3, ...) come in equal shares, shuffled over the entries, so every
    matrix of one size carries the same mix of words and costs about the
    same to multiply and invert: the seed changes values, not sizes.
    """
    dim = SuperDim(*dim)
    b1 = invertible_block(rng, dim.even, lo, hi)
    b4 = invertible_block(rng, dim.odd, lo, hi)
    cells = [(i, j) for i in range(dim.total) for j in range(dim.total)]

    def odd_block(i, j):
        return (i >= dim.even) != (j >= dim.even)

    pools = {}
    for odd in (False, True):
        lengths = [k for k in range(1, len(ctx.odd) + 1) if k % 2 == odd]
        size = n_terms * sum(odd_block(i, j) == odd for i, j in cells)
        pool = [lengths[k % len(lengths)] for k in range(size)]
        rng.shuffle(pool)
        pools[odd] = pool
    coeffs = [c for c in range(lo, hi + 1) if c]
    rows = [[None] * dim.total for _ in range(dim.total)]
    for i, j in cells:
        if i < dim.even and j < dim.even:
            body = b1[i][j]
        elif i >= dim.even and j >= dim.even:
            body = b4[i - dim.even][j - dim.even]
        else:
            body = 0
        e = SuperPoly.scalar(ctx, body)
        for _ in range(n_terms):
            term = SuperPoly.scalar(ctx, rng.choice(coeffs))
            for name in rng.sample(list(ctx.odd), pools[odd_block(i, j)].pop()):
                term = term * SuperPoly.var(ctx, name)
            e = e + term
        rows[i][j] = e
    return SuperMatrix(ctx, dim, dim, rows)


def linear_matrix(rng, ctx, n, lo=-3, hi=3):
    """n|0 matrix of affine-linear entries c0 + c1*x1 + ... over the even
    generators of ctx.  Returns (matrix, coefficient rows) so an oracle
    can evaluate the entries without going through the kernel."""
    coeffs = [
        [[rng.randint(lo, hi) for _ in range(len(ctx.even) + 1)] for _ in range(n)]
        for _ in range(n)
    ]
    gens = [SuperPoly.var(ctx, name) for name in ctx.even]
    rows = []
    for crow in coeffs:
        row = []
        for c in crow:
            e = SuperPoly.scalar(ctx, c[0])
            for k, g in enumerate(gens):
                e = e + g * c[k + 1]
            row.append(e)
        rows.append(row)
    dim = SuperDim(n, 0)
    return SuperMatrix(ctx, dim, dim, rows), coeffs


def rational_point(rng, n, lo=-4, hi=4):
    return [Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(n)]


# -- script text ------------------------------------------------------------


def poly_text(rng, evens, odds, parity=None, n_terms=3, max_deg=2, lo=-5, hi=5,
              min_odd=0):
    """Script text of a random polynomial.  parity EVEN/ODD fixes the odd
    word length mod 2 of every term, min_odd=1 makes it nilpotent; the
    empty sum prints as 0."""
    lengths = list(range(min_odd, len(odds) + 1))
    if parity is not None:
        lengths = [k for k in lengths if k % 2 == parity.value]
    if not lengths:
        return "0"
    terms = []
    for _ in range(n_terms):
        c = rng.randint(lo, hi)
        if not c:
            continue
        factors = [str(abs(c))]
        for name in evens:
            deg = rng.randint(0, max_deg)
            if deg == 1:
                factors.append(name)
            elif deg:
                factors.append(f"{name}^{deg}")
        factors += sorted(rng.sample(odds, rng.choice(lengths)))
        sign = "-" if c < 0 else "+"
        terms.append((sign, "*".join(factors)))
    if not terms:
        return "0"
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


def shifted(name, value):
    """Text of (name - value) for an integer value."""
    if value == 0:
        return name
    return f"({name} - {value})" if value > 0 else f"({name} + {-value})"


def _signed(twist, prime):
    """Text of the sum of c*a*b<prime> over the nonzero coefficients."""
    return "".join(
        f" {'-' if c < 0 else '+'} {abs(c)}*{a}*{b}{prime}" for c, a, b in twist if c
    )


def _names(prefix, n):
    return [f"{prefix}{i + 1}" for i in range(n)]


def geometry_script(rng):
    """One seeded session script over the geometry commands.

    Every statement is valid by construction: morphism images have the
    right parities, variety generators vanish at the point, group laws
    are additive laws twisted by an odd bilinear form (associative, with
    the stated unit and inverse, so ``axioms`` must pass), and matrices
    have invertible constant bodies.
    """
    EVEN, ODD = Parity.EVEN, Parity.ODD
    m, n = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
    xs, ths = _names("x", m), _names("theta", n)
    lines = [f"context M even=[{', '.join(xs)}] odd=[{', '.join(ths)}]"]

    def images():
        out = [f"{x} + " + poly_text(rng, xs, ths, EVEN, n_terms=2) for x in xs]
        out += [f"{th} + " + poly_text(rng, xs, ths, ODD, n_terms=2) for th in ths]
        return ", ".join(out)

    lines.append(f"morphism phi : M -> M [{images()}]")
    for _ in range(3):
        lines.append("pullback phi " + poly_text(rng, xs, ths, n_terms=4))
    for _ in range(2):
        point = ", ".join(str(rng.randint(-3, 3)) for _ in xs)
        lines.append(f"jacobian phi ({point})")
        lines.append(f"classify phi ({point})")
    lines.append("let f = " + poly_text(rng, xs, ths, n_terms=3))
    lines.append("eval f * f + " + poly_text(rng, xs, ths, n_terms=2))

    def field(parity):
        coeffs = [poly_text(rng, xs, ths, parity, n_terms=2) for _ in xs]
        coeffs += [poly_text(rng, xs, ths, parity.flipped(), n_terms=2) for _ in ths]
        return ", ".join(coeffs)

    lines.append(f"field X = [{field(EVEN)}]")
    lines.append(f"field Y = [{field(rng.choice([EVEN, ODD]))}]")
    lines.append("bracket X Y")
    lines.append("bracket Y X")
    lines.append("involutive X Y")

    # matrix with invertible integer bodies and a nilpotent remainder
    p, q = rng.choice([(1, 1), (2, 1), (1, 2)])
    b1, b4 = invertible_block(rng, p, -3, 3), invertible_block(rng, q, -3, 3)
    rows = []
    for i in range(p + q):
        row = []
        for j in range(p + q):
            need = EVEN if (i >= p) == (j >= p) else ODD
            nil = poly_text(rng, [], ths, need, n_terms=2, lo=-2, hi=2,
                            min_odd=1)
            if need is EVEN:
                body = b1[i][j] if i < p else b4[i - p][j - p]
                nil = str(body) if nil == "0" else f"{body} + {nil}"
            row.append(nil)
        rows.append(", ".join(row))
    lines.append(f"matrix A dims {p}|{q} -> {p}|{q} rows [{'; '.join(rows)}]")
    lines += ["ber A", "inv A", "srank A"]

    # additive group twisted by an odd bilinear form
    gm, gn = rng.choice([(1, 1), (1, 2), (2, 2)])
    ts, eta = _names("t", gm), _names("eta", gn)
    lines.append(f"context G even=[{', '.join(ts)}] odd=[{', '.join(eta)}]")
    mu, inv = [], []
    for t in ts:
        twist = [(rng.randint(-3, 3), a, b) for a in eta for b in eta]
        mu.append(f"{t} + {t}p" + _signed(twist, "p"))
        inv.append(f"-{t}" + _signed(twist, ""))
    mu += [f"{e} + {e}p" for e in eta]
    inv += [f"-{e}" for e in eta]
    unit = ", ".join("0" for _ in ts)
    lines.append(f"group g context=G mu=[{', '.join(mu)}] unit=({unit}) "
                 f"inv=[{', '.join(inv)}]")
    lines.append("axioms g")
    lines.append(f"livf d/d{rng.choice(ts)}")
    lines.append(f"livf d/d{rng.choice(eta)}")

    # pointed variety: even generators vanish at the point by construction
    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
    lines.append("context P even=[x, y] odd=[xi, eta]")
    gens = []
    for _ in range(2):
        c1, c2, c3 = (rng.choice([-2, -1, 1, 2]) for _ in range(3))
        gens.append(f"{c1}*{shifted('x', a)} + {c2}*{shifted('y', b)}^2 "
                    f"+ {c3}*xi*eta")
    gens.append(poly_text(rng, ["x", "y"], ["xi", "eta"], ODD, n_terms=2))
    lines.append(f"variety W ideal=[{', '.join(gens)}] point=({a}, {b})")
    lines.append("tangent W")

    kind, dims = rng.choice([
        ("GL", "1|1"), ("SL", "1|1"), ("SL", "2|1"), ("SL", "1|2"),
        ("SL", "2|2"), ("OSp", "1|2"), ("OSp", "2|2"), ("GL", "2|2"),
    ])
    lines.append(f"lie {kind} {dims}")
    lines += ["export phi", "export A", "export X", "export g", "export W",
              "export M"]
    return "\n".join(lines) + "\n"

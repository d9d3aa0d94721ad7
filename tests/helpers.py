"""Shared builders for the test suite: deterministic random values over
small contexts.  Every generator takes an explicit random.Random so each
test controls its own seed."""

import itertools
from fractions import Fraction

from model import Monomial, from_terms
from supergeom import Parity, SuperPoly
from supergeom.matrix import _gmul


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


def one_column(ctx, pairs):
    """The one-row grid product over a one-column grid: the sum of a*b
    over (a, b) pairs, as a one-entry tuple, or () for no pairs."""
    pairs = list(pairs)
    return _gmul(ctx, ([a for a, _ in pairs],), [[b] for _, b in pairs])[0]


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

    Built from Monomials through the model's constructor, not by ring
    arithmetic, so a test that checks + or * does not also build its
    inputs with them.  parity restricts the odd word lengths as in
    random_poly.
    """
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
    return from_terms(ctx, terms)


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


# -- session scripts ---------------------------------------------------------


def poly_text(rng, evens, odds, parity=None, n_terms=2, max_deg=2, dens=(1,)):
    """Script text of a random polynomial with coefficients n/d, d drawn
    from dens; parity EVEN/ODD fixes each term's odd word length mod 2,
    and is 0 when no length has that parity."""
    lengths = [k for k in range(len(odds) + 1)
               if parity is None or k % 2 == parity.value]
    terms = []
    for _ in range(n_terms if lengths else 0):
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice(dens))
        factors = [str(abs(c))]
        for name in evens:
            deg = rng.randint(0, max_deg)
            if deg:
                factors.append(name if deg == 1 else f"{name}^{deg}")
        factors += sorted(rng.sample(odds, rng.choice(lengths)))
        terms.append(("-" if c < 0 else "+") + " " + "*".join(factors))
    text = " ".join(terms)
    if text.startswith("+ "):
        text = text[2:]
    elif text.startswith("- "):
        text = "-" + text[2:]
    return text or "0"


# statements that fail on purpose, one per script: an unknown generator, an
# image of the wrong parity, a point with no coordinates and an unbound name
_FAULTS = (
    "pullback phi z + x1",
    "morphism bad : M -> M [theta1, {odd}]",
    "jacobian phi ()",
    "export nothing",
)


def session_script(rng):
    """One seeded session script for the byte-identity surface.

    A morphism with rational images is pulled back, and a dilation pulls
    back a stored power above the script's exponent cap; a group law,
    twisted by an odd form and in one draw of three broken by a term that
    is not associative, has its axioms and two invariant fields printed;
    one statement fails on purpose; and the morphism, the group and the
    context are exported.
    """
    EVEN, ODD = Parity.EVEN, Parity.ODD
    m, n = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
    xs = [f"x{i + 1}" for i in range(m)]
    ths = [f"theta{j + 1}" for j in range(n)]
    lines = [f"context M even=[{', '.join(xs)}] odd=[{', '.join(ths)}]"]
    images = [f"{x} + " + poly_text(rng, xs, ths, EVEN, dens=(1, 2, 3)) for x in xs]
    images += [f"{th} + " + poly_text(rng, xs, ths, ODD, dens=(1, 5)) for th in ths]
    lines.append(f"morphism phi : M -> M [{', '.join(images)}]")
    for _ in range(3):
        lines.append("pullback phi " + poly_text(rng, xs, ths, n_terms=3, max_deg=3,
                                                 dens=(1, 4)))
    scale = rng.choice(["-1", "1/2", "-2/3"])
    dilation = [f"{scale}*{x}" for x in xs] + ths
    lines.append(f"morphism dil : M -> M [{', '.join(dilation)}]")
    lines.append(f"let big = {xs[0]}^600 * {xs[0]}^600")
    lines.append(f"pullback dil big - {xs[-1]}^2 * big")
    odd_image = poly_text(rng, xs, ths, ODD, dens=(1, 2))
    lines.append(rng.choice(_FAULTS).format(odd=", ".join([odd_image] * (len(images) - 1))))

    gm, gn = rng.choice([(1, 1), (1, 2), (2, 2)])
    ts = [f"t{i + 1}" for i in range(gm)]
    eta = [f"eta{j + 1}" for j in range(gn)]
    lines.append(f"context G even=[{', '.join(ts)}] odd=[{', '.join(eta)}]")
    mu, inv = [], []
    for t in ts:
        # t + t' + sum c*a*b' over the odd pairs, with inverse -t + sum c*a*b
        law, inverse = f"{t} + {t}p", f"-{t}"
        for a in eta:
            for b in eta:
                c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                if c:
                    term = f" {'-' if c < 0 else '+'} {abs(c)}*{a}*{b}"
                    law += term + "p"
                    inverse += term
        mu.append(law)
        inv.append(inverse)
    mu += [f"{e} + {e}p" for e in eta]
    inv += [f"-{e}" for e in eta]
    if rng.randrange(3) == 0:
        mu[-1] += f" + {ts[0]}*{eta[-1]}p"
    lines.append(f"group g context=G mu=[{', '.join(mu)}] unit=({', '.join('0' for _ in ts)}) "
                 f"inv=[{', '.join(inv)}]")
    lines += ["axioms g", f"livf d/d{rng.choice(ts)} g", f"livf d/d{rng.choice(eta)} g"]
    lines += ["export phi", "export g", "export M"]
    return "\n".join(lines) + "\n"


def fields_script(rng):
    """One seeded script over vector fields for the byte-identity surface.

    Over a context of 1|1 to 2|2, fields X and Y with rational
    coefficients, each even or odd (both odd in one draw of four), and
    the zero field Z; X and Y are exported with their parities, then
    bracketed with each other in both orders, with themselves and with
    Z, and their spans are tested for involutivity.
    """
    EVEN, ODD = Parity.EVEN, Parity.ODD
    m, n = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
    xs = [f"x{i + 1}" for i in range(m)]
    ths = [f"theta{j + 1}" for j in range(n)]

    def field(parity):
        coeffs = [poly_text(rng, xs, ths, parity, dens=(1, 2, 3)) for _ in xs]
        coeffs += [poly_text(rng, xs, ths, parity.flipped(), dens=(1, 2, 3))
                   for _ in ths]
        return ", ".join(coeffs)

    px, py = rng.choice([(EVEN, EVEN), (EVEN, ODD), (ODD, EVEN), (ODD, ODD)])
    lines = [f"context M even=[{', '.join(xs)}] odd=[{', '.join(ths)}]",
             f"field X = [{field(px)}]",
             f"field Y = [{field(py)}]",
             f"field Z = [{', '.join('0' for _ in xs + ths)}]",
             "export X", "export Y",
             "bracket X Y", "bracket Y X", "bracket X X", "bracket Y Y",
             "bracket X Z", "bracket Z Z",
             "involutive X Y", "involutive X", "involutive Y", "involutive Z"]
    return "\n".join(lines) + "\n"


def distributions_script(rng):
    """One seeded script over distributions for the byte-identity surface.

    Over a context of 1|1 to 2|2, three or four fields, each even or odd,
    whose coefficients are zero, free of the even generators (a constant
    body, so pivot columns can exist), or general, in proportions drawn
    per script; every nonempty subset of the fields is then tested for
    involutivity, in combinations order.
    """
    EVEN, ODD = Parity.EVEN, Parity.ODD
    m, n = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)])
    xs = [f"x{i + 1}" for i in range(m)]
    ths = [f"theta{j + 1}" for j in range(n)]
    p_zero, p_const = rng.choice([(0.5, 0.5), (0.3, 0.6), (0.2, 0.4), (0.1, 0.1)])

    def coeff(parity):
        r = rng.random()
        if r < p_zero:
            return "0"
        evens = xs if r >= p_zero + p_const else []
        return poly_text(rng, evens, ths, parity, n_terms=rng.randint(1, 2),
                         dens=(1, 2))

    names = "ABCD"[:rng.randint(3, 4)]
    lines = [f"context M even=[{', '.join(xs)}] odd=[{', '.join(ths)}]"]
    for name in names:
        parity = rng.choice([EVEN, ODD])
        coeffs = [coeff(parity) for _ in xs] + [coeff(parity.flipped()) for _ in ths]
        lines.append(f"field {name} = [{', '.join(coeffs)}]")
    lines += [f"involutive {' '.join(subset)}"
              for k in range(1, len(names) + 1)
              for subset in itertools.combinations(names, k)]
    return "\n".join(lines) + "\n"


def _matrix_statement(name, dims, rows):
    """The statement binding name to the square even matrix over dims
    m|n whose rows are lists of entry texts."""
    m, n = dims
    text = "; ".join(", ".join(row) for row in rows)
    return f"matrix {name} dims {m}|{n} -> {m}|{n} rows [{text}]"


def _int_coefficient(rng):
    return rng.randint(-3, 3)


def _fraction_coefficient(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(2, 5))


def _linear_entry(rng, xs, coefficient):
    """Script text of c0 + c1 x1 + c2 x2 + c3 x3 with some c zero: in one
    draw of six with no constant term, and in one of six with x1^2 in
    place of x1, a gap in the exponent of x1."""
    cs = [coefficient(rng) if rng.random() < 0.8 else 0 for _ in range(len(xs) + 1)]
    kind = rng.randrange(6)
    if kind == 0:
        cs[0] = 0
    factors = ["1"] + list(xs)
    if kind == 1:
        factors[1] = f"{xs[0]}^2"
    return " + ".join(f"({c})*{f}" for c, f in zip(cs, factors) if c) or "0"


def linear_grid(rng, ctx, n, coefficient=_int_coefficient):
    """n x n affine-linear entries c0 + c1 t1 + ... over the even
    generators of ctx, as the even_det benchmark builds them."""
    gens = [ctx.var(name) for name in ctx.even]
    return [[sum((g * coefficient(rng) for g in gens), ctx.scalar(coefficient(rng)))
             for _ in range(n)] for _ in range(n)]


def matrix_script(rng):
    """One seeded script over supermatrices for the byte-identity surface.

    - An even m|n matrix, m and n in 1..3, over Lambda(theta1..theta4):
      diagonally dominant int bodies (+-3 on the diagonal, -1..1 off it)
      plus nilpotent even parts, and odd entries in the off-diagonal
      blocks.
    - An even m|n matrix over k[t | theta1..theta3] whose body is
      unipotent up to a diagonal of +-1, +-2, with polynomials in t above
      the diagonal.
    - A p|0 block of 4 to 7 rows over k[x1, x2, x3] whose determinant
      takes the Kronecker image: linear entries, each row all ints or all
      Fractions, some entries zero, some with no constant term and some
      with x1^2 and no x1 term.
    - A 1|1 matrix whose blocks have nilpotent bodies
      (NeitherBlockInvertible under ber), and srank of the polynomial
      bodies (NonConstantBody).

    Each matrix goes through ber, inv, srank, strace and export, but the
    p|0 block, whose polynomial body inv only refuses, skips inv; and
    one eval per context.
    """
    EVEN, ODD = Parity.EVEN, Parity.ODD
    lines = []

    def entries(dims, evens, odds, body):
        # an even entry is its body plus an odd polynomial times an odd
        # generator, which has no body
        m, n = dims
        return [[(f"{body(i, j)} + ({poly_text(rng, evens, odds, ODD, max_deg=1)})"
                  f"*{rng.choice(odds)}"
                  if (i < m) == (j < m) else poly_text(rng, evens, odds, ODD, max_deg=1))
                 for j in range(m + n)] for i in range(m + n)]

    def commands(name, kinds=("ber", "inv", "srank", "strace", "export")):
        return [f"{c} {name}" for c in kinds]

    ths = [f"theta{j + 1}" for j in range(4)]
    dims = (rng.randint(1, 3), rng.randint(1, 3))
    lines.append(f"context G even=[] odd=[{', '.join(ths)}]")
    lines.append(_matrix_statement("A", dims, entries(
        dims, [], ths, lambda i, j: rng.choice([-3, 3]) if i == j else rng.randint(-1, 1))))
    lines += commands("A")
    lines += ["matrix N dims 1|1 -> 1|1 rows [theta1*theta2, theta3; theta4, -theta2*theta4]",
              "ber N", f"eval ({poly_text(rng, [], ths, EVEN)}) * theta1"]

    ths = ths[:3]
    dims = (rng.randint(1, 3), rng.randint(1, 3))
    m = dims[0]

    def unipotent(i, j):
        if i == j:
            return rng.choice([-2, -1, 1, 2])
        if j > i and (i < m) == (j < m):
            return f"({poly_text(rng, ['t'], [], n_terms=2, dens=(1, 2))})"
        return 0

    lines.append(f"context P even=[t] odd=[{', '.join(ths)}]")
    lines.append(_matrix_statement("B", dims, entries(dims, ["t"], ths, unipotent)))
    lines += commands("B")
    lines.append(f"eval 1/3*({poly_text(rng, ['t'], ths)})^2")

    xs = ["x1", "x2", "x3"]
    n = rng.randint(4, 7)
    rows = []
    for _ in range(n):
        coefficient = _int_coefficient if rng.random() < 0.5 else _fraction_coefficient
        rows.append([_linear_entry(rng, xs, coefficient) if rng.random() < 0.85 else "0"
                     for _ in range(n)])
    lines.append(f"context K even=[{', '.join(xs)}] odd=[]")
    lines.append(_matrix_statement("C", (n, 0), rows))
    lines += commands("C", ("ber", "srank", "strace", "export"))
    lines.append(f"eval ({_linear_entry(rng, xs, _int_coefficient)})^2")
    return "\n".join(lines) + "\n"


# -- group laws and morphisms ------------------------------------------------


def broken_law(rng):
    """A seeded law on G = m|n, rational and in one draw of four without an
    inversion, with some of its axioms broken.

    The base law is t_i + t_i' + sum c a b' over the odd pairs and
    eta + eta', with inversion -t_i + sum c a b and -eta: associative,
    unit 0.  Each fault is added in about one draw of three: c t1 t1'^2
    on t1 and t1 eta_n' on eta_n (associativity), c t1'^2 (the left
    unit, mu(e, g') = g'), c t1^2 and t1 eta_n (the right unit,
    mu(g, e) = g), a unit point moved off 0 (both sides) and a constant
    added to the inversion of t1.
    """
    from supergeom import Context, GroupLaw, Morphism, product_context

    m, n = rng.choice([(1, 0), (1, 1), (1, 2), (2, 1), (2, 2)])
    g = Context(even=[f"t{i + 1}" for i in range(m)],
                odd=[f"eta{j + 1}" for j in range(n)])
    gg = product_context(g)
    v, w = gg.var, g.var
    mu, inv = [], []
    for t in g.even:
        law, inverse = v(t) + v(t + "p"), -w(t)
        for a in g.odd:
            for b in g.odd:
                c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                law = law + c * v(a) * v(b + "p")
                inverse = inverse + c * w(a) * w(b)
        mu.append(law)
        inv.append(inverse)
    mu += [v(e) + v(e + "p") for e in g.odd]
    inv += [-w(e) for e in g.odd]

    def c():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice((1, 2, 5)))

    t1 = g.even[0]
    faults = [rng.randrange(3) == 0 for _ in range(6)]
    if faults[0]:
        mu[0] = mu[0] + c() * v(t1) * v(t1 + "p") ** 2
    if faults[1]:
        mu[0] = mu[0] + c() * v(t1 + "p") ** 2
    if faults[2]:
        mu[0] = mu[0] + c() * v(t1) ** 2
    if n and faults[3]:
        mu[-1] = mu[-1] + v(t1) * v(g.odd[-1] + "p")
    if n and faults[4]:
        mu[-1] = mu[-1] + v(t1) * v(g.odd[-1])
    if faults[5]:
        inv[0] = inv[0] + c()
    unit = [c() if rng.randrange(3) == 0 else 0 for _ in g.even]
    inverse = Morphism(g, g, inv) if rng.randrange(4) else None
    return GroupLaw(g, Morphism(gg, g, mu), g.point(unit), inverse)


def random_morphism(rng, source, target):
    """A morphism source -> target whose images are random_rational_poly
    of the right parities, two terms each with denominators up to 4;
    source needs an odd generator when target has one."""
    from supergeom import Morphism

    return Morphism(source, target, [
        random_rational_poly(rng, source, Parity.ODD if name in target.odd else Parity.EVEN,
                             n_terms=2, max_den=4)
        for name in target.names])


# M -> N -> P dimensions for random_chain: M and N need an odd generator
# for the odd images
CHAINS = [((1, 1), (1, 1), (1, 0)), ((2, 1), (1, 2), (1, 1)),
          ((1, 2), (2, 1), (2, 2)), ((2, 2), (2, 2), (1, 2))]


def random_chain(rng):
    """(psi, phi), random morphisms M -> N -> P over x/theta, y/phi and
    z/psi names, psi drawn first."""
    from supergeom import Context

    m, n, p = (Context(even=[f"{x}{i + 1}" for i in range(e)],
                       odd=[f"{th}{j + 1}" for j in range(o)])
               for (e, o), (x, th) in zip(rng.choice(CHAINS),
                                          [("x", "theta"), ("y", "phi"), ("z", "psi")]))
    return random_morphism(rng, n, p), random_morphism(rng, m, n)

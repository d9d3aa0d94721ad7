"""Odd-free determinants through their Kronecker image in Z.

matrix._det expands a grid that poly._kronecker_image takes over its int
image and reads the determinant back; every other grid over its
polynomials.  The values here are compared with
oracles.reference_minors, the top-down memo, over the polynomials
themselves, on seeded grids: Fraction entries, a zero row, a
zero determinant, constants (one slot), univariate entries of
degree 10, Hadamard matrices times one common monomial, where the
coefficient bound holds with equality, and diagonal grids whose one
coefficient is the largest digit the slot width allows, of either sign.
A slot width one bit short, or a radix of d_i in place of d_i + 1, fails
the last two.

The image's slot index is the linear form of poly._slot_units.  Where
three generators hold terms and their box is wider than it, they share
one digit under the units (1, a, m), m = C(D + 2, 2) + D mod 2 and
a = m - D - D mod 2.  The digit is proved by
enumeration: distinct on every exponent vector of total degree <= D,
for every D the term bound admits over three generators, and no wider
than the box.  The units of the form, over each grid's d_i and D, are
pinned on dense linear grids over x, y, z at n = 4..8, on a Hadamard
grid whose coefficient meets the bound, on a four-generator context
holding three of them and one holding all four, on a grid whose box is
narrower than the digit, which keeps the mixed radix, and on one whose
first generator holds no term; the image's entries are checked to sit
at those units (below).  Each mutant of the form
collides on the simplex and fails the enumeration, the dense linear
grids, the four-generator grids and the even_det and Fraction grids at
the sizes where it collides: the odd term dropped from m and a at odd
D >= 3 (n = 5, 7), a + 1 at D = 2 and D >= 4, and m - 1 at D >= 2 (every
n here, and the Hadamard grid too).  The slot width one bit short fails
the Hadamard grid over x, y, z at +16, besides the XY grids above; the
radix d_i fails the narrower box and the four-generator grids, whose w
is a digit above the simplex one.

Each nonzero image entry is a plain tuple of (int, shift) pairs, one
per run: the terms that differ only in the exponent of the generator of
unit 1 that holds terms make one run, whose int holds their adjacent
slots.  A zero entry, and an entry whose runs all cancel, is the int 0.
Every test that expands an image pins that form against expected_image,
computed here from the terms, with distinct shifts in each entry and
the sum of int << shift equal to the entry's image term by term, since
another packing of the same sum changes no value, only the time; the
even_det grids hold at most three runs an entry.  A zero row makes the
width b = 1, where the run of 2 - x cancels to 0; entries with no
constant term and with a gap in the exponent of x are compared with the
oracle.  matrix._image_det, the image's expansion, is
compared with oracles.reference_minors over those ints on hand-made
image grids, every minor on trailing columns included, so both its pass
over every mask (grids with no zero entry) and its pass over the masks
reached through nonzero entries are compared; one grid has a zero entry
above nonzero ones in the first column it expands, so a sign that
advanced only past nonzero entries fails it.  matrix._laplace, the
polynomial form of that pass, is compared with the oracle on the same
grids, the ints lifted to constant polynomials: on every mask it takes
over the whole grid, and with each
column struck out, on every mask that lacks one row, the cofactors of
an inverse.  Those are reached from every such mask, not through
column 0, which holds a zero on the 4x4 grid.  Grids that mix constants,
zeros and entries over one slot or many are compared with the polynomial
expansion too, and triangular grids whose determinant is one term at the
total-degree bound, in a single variable: unpack reads only the slots
within that bound, and this term sits on its edge.
The value comparison of tests/det_sweep.py runs on its small grids, so
the sweep's forced image stays in working order.

Then both sides of the rule are pinned on named grids, and the order of
its checks: the odd-part test stops at the first entry with an odd code,
and the rule is decided before any entry is packed.  The rule reads the
span of the slot form, not the box W = prod(d_i + 1): the sweep's dense
linear grids over five variables, 6 x 6 Fraction and 5 x 5 int ones, and
the 8 x 8 Hadamard grid over x, y, z take the image by their span, where
their box is past K a^(3/2), so a rule reading W again fails them.
"""

import random
from fractions import Fraction
from math import comb, lcm, prod

import pytest

import det_sweep
from helpers import linear_grid
from model import Monomial, from_terms, terms_of
from oracles import reference_minors
from supergeom import Context, SuperPoly
from supergeom import poly
from supergeom.matrix import _det, _image_det, _laplace, _masks
from supergeom.poly import MAX_FIELD_EXPONENT, MAX_TERMS, _kronecker_image

XYZ = Context(even=["x", "y", "z"])
XY = Context(even=["x", "y"])
T = Context(even=["t"])


def polynomial_det(ctx, grid):
    full = (1 << 2 * len(grid)) - 1
    return reference_minors(grid, ctx.one(), ctx.zero())(full)


def layout(ctx, grid):
    """(b, units, box, scales) of the image of grid, read off its terms as
    poly._kronecker_image states them: the units of poly._slot_units over
    the grid's d_i and D (det_sweep.bounds), L_r the lcm of row r's
    denominators, and b the smallest width with B^2 < 4^(b - 1), B^2 the
    product over the rows of sum_j |a_rj|_1^2 over L_r."""
    norm = 1
    scales = []
    for row in grid:
        terms = [terms_of(e) for e in row]
        scale = lcm(*[c.denominator for t in terms for c in t.values()])
        scales.append(scale)
        norm *= sum(sum(abs(c) * scale for c in t.values()) ** 2 for t in terms)
    b = 1
    while norm >= 4 ** (b - 1):
        b += 1
    box, degree = det_sweep.bounds(grid)
    return b, poly._slot_units(box, degree)[0], box, scales


def expected_image(ctx, grid):
    """The image entries of grid as the run form gives them, each
    nonzero one a map {shift: int}: the terms that differ only in the
    exponent of g, the generator of unit 1 that holds terms, make one
    run, whose int is sum c L_r << (e_g b) over those terms, at the
    shift b pos of their other exponents; a run whose int is 0 is
    dropped, and an entry left with no run is the int 0."""
    b, units, box, scales = layout(ctx, grid)
    g = next((i for i, d in enumerate(box) if d and units[i] == 1), None)
    out = []
    for row, scale in zip(grid, scales):
        out_row = []
        for e in row:
            runs = {}
            for mono, c in terms_of(e).items():
                exps = dict(mono.even)
                power = exps.pop(g, 0)
                s = b * sum(units[i] * x for i, x in exps.items())
                runs[s] = runs.get(s, 0) + (int(c * scale) << power * b)
            out_row.append({s: v for s, v in runs.items() if v} or 0)
        out.append(out_row)
    return out


def imaged_det(ctx, grid):
    """_det of a grid the rule sends to the image, whose entries are
    pinned to the run form: each nonzero entry a plain tuple of
    (int, shift) pairs at distinct shifts, those of expected_image, whose
    sum int << shift is the entry's image sum c L_r 2^(b pos(e)) term by
    term, and each entry whose image is 0 the int 0."""
    image = _kronecker_image(ctx, grid)
    assert image is not None
    b, units, _, scales = layout(ctx, grid)
    for row, image_row, expected_row, scale in zip(grid, image[0], expected_image(ctx, grid),
                                                   scales):
        for p, e, expected in zip(row, image_row, expected_row):
            value = sum(int(c * scale) << b * sum(units[i] * x for i, x in mono.even)
                        for mono, c in terms_of(p).items())
            if expected == 0:
                assert type(e) is int and e == 0 == value
                continue
            assert type(e) is tuple and all(type(pair) is tuple and len(pair) == 2 for pair in e)
            assert len({s for _, s in e}) == len(e)
            assert {s: c for c, s in e} == expected
            assert sum(c << s for c, s in e) == value
    return _det(ctx, grid)


def small_int(rng):
    return rng.randint(-3, 3)


def small_fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 6))


def hadamard(n):
    """Sylvester's +-1 Hadamard matrix of order n, a power of 2."""
    h = [[1]]
    while len(h) < n:
        h = [row + row for row in h] + [row + [-c for c in row] for row in h]
    return h


# -- values ---------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_fraction_grids_match_the_polynomial_expansion(n):
    rng = random.Random(3100 + n)
    for _ in range(3):
        grid = linear_grid(rng, XYZ, n, small_fraction)
        assert imaged_det(XYZ, grid) == polynomial_det(XYZ, grid)


def test_a_zero_row_gives_zero():
    grid = linear_grid(random.Random(3110), XYZ, 5, small_fraction)
    grid[2] = [XYZ.zero()] * 5
    assert imaged_det(XYZ, grid) == XYZ.zero() == polynomial_det(XYZ, grid)


def test_a_dependent_row_gives_zero():
    rng = random.Random(3111)
    grid = linear_grid(rng, XYZ, 5, small_fraction)
    # row 4 is row 0 over 3 minus x times row 1, a dependent row whose
    # entries are not those of any other row
    grid[4] = [a / 3 - XYZ.var("x") * b for a, b in zip(grid[0], grid[1])]
    assert imaged_det(XYZ, grid) == XYZ.zero()


@pytest.mark.parametrize("ctx", [XYZ, Context(even=[], odd=["a", "b"])],
                         ids=["three-even", "no-even"])
def test_constant_grids_take_one_slot(ctx):
    rng = random.Random(3120)
    for n in (4, 5, 6):
        grid = [[ctx.scalar(small_fraction(rng)) for _ in range(n)] for _ in range(n)]
        det = imaged_det(ctx, grid)
        assert det == polynomial_det(ctx, grid) and det.is_constant()


@pytest.mark.parametrize("n", [4, 5])
def test_univariate_entries_of_degree_10(n):
    t = T.var("t")
    rng = random.Random(3130 + n)
    for _ in range(2):
        grid = [[sum((small_fraction(rng) * t ** e for e in range(11)), T.zero())
                 for _ in range(n)] for _ in range(n)]
        assert imaged_det(T, grid) == polynomial_det(T, grid)


@pytest.mark.parametrize("n", [4, 8])
def test_hadamard_times_a_monomial_meets_the_bound(n):
    # every entry is +-xy, so |a_rj|_1 = 1, each row's bound is n^(1/2) and
    # B = n^(n/2) = |det H|: the determinant's one coefficient is the bound
    xy = XY.var("x") * XY.var("y")
    h = hadamard(n)
    det_h = reference_minors(h, 1, 0)((1 << 2 * n) - 1)
    assert det_h * det_h == n ** n
    grid = [[xy * c for c in row] for row in h]
    assert imaged_det(XY, grid) == det_h * xy ** n


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("diagonal", [(1, 1, 1, 1), (1, 1, 3, 5), (1, 3, 5, 17),
                                      (3, 5, 17, 257)])
def test_a_digit_of_the_largest_magnitude_reads_back(diagonal, sign):
    # a diagonal grid of one-term entries meets the bound with equality:
    # its determinant's one coefficient is B = prod |c_r| = 2^k - 1, so the
    # smallest width with B < 2^(b-1) is b = k + 1, and B = 2^(b-1) - 1 is
    # the largest digit that width reads back, here at x^2 y^2
    x, y = XY.var("x"), XY.var("y")
    cs = (sign * diagonal[0],) + diagonal[1:]
    grid = [[(c * (x if r < 2 else y) if r == j else XY.zero()) for j in range(4)]
            for r, c in enumerate(cs)]
    value = sign * diagonal[0] * diagonal[1] * diagonal[2] * diagonal[3]
    assert (abs(value) + 1) & abs(value) == 0
    assert imaged_det(XY, grid) == value * x ** 2 * y ** 2


# -- the slot form ---------------------------------------------------------------


def simplex_units(d):
    """The units (1, a, m) of the three-generator digit at total-degree
    bound d, as the form is stated: m = C(d + 2, 2) + d mod 2 and
    a = m - d - d mod 2."""
    m = comb(d + 2, 2) + d % 2
    return 1, m - d - d % 2, m


def image_units(ctx, grid):
    """The slot unit of each even generator that holds terms in grid,
    from poly._slot_units over the grid's d_i and D; imaged_det checks
    that the image's entries sit at those units."""
    _, units, box, _ = layout(ctx, grid)
    return {g: u for g, u, d in zip(ctx.even, units, box) if d}


def test_the_slot_form_is_injective_on_every_simplex_the_rule_admits():
    # the rule admits three generators up to the largest D with
    # C(D + 3, 3) <= MAX_TERMS; a box of d_i = D for all three is the
    # widest, and every smaller box holds a subset of the same simplex
    top = max(d for d in range(MAX_TERMS) if comb(d + 3, 3) <= MAX_TERMS)
    assert comb(top + 4, 3) > MAX_TERMS
    for d in range(top + 1):
        units, span = poly._slot_units([d, d, d], d)
        slots = {i * units[0] + j * units[1] + k * units[2]
                 for k in range(d + 1) for j in range(d + 1 - k) for i in range(d + 1 - k - j)}
        assert len(slots) == comb(d + 3, 3)
        assert max(slots) < span <= (d + 1) ** 3
        if d:
            assert (tuple(units), span) == (simplex_units(d), d * simplex_units(d)[2] + 1)
    # 111, 169 and 260 slots against boxes of 216, 343 and 512
    assert [poly._slot_units([d] * 3, d)[1] for d in (5, 6, 7)] == [111, 169, 260]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_dense_linear_xyz_grids_take_the_simplex_digit(n):
    # linear entries in x, y and z: d_i = D = n, odd and even, and the
    # determinant holds every monomial of total degree <= n
    grid = linear_grid(random.Random(3300 + n), XYZ, n, small_int)
    assert image_units(XYZ, grid) == dict(zip("xyz", simplex_units(n)))
    det = imaged_det(XYZ, grid)
    assert det == polynomial_det(XYZ, grid) and len(det.nums) == comb(n + 3, 3)


@pytest.mark.parametrize("sign", [1, -1])
def test_hadamard_columns_of_x_y_z_meet_the_bound_on_the_simplex_digit(sign):
    # column j of an n x n Hadamard matrix times x, y, z, x, ...: every row
    # holds each generator to degree 1, so d_i = D = n and the image takes
    # the simplex digit, and each row's bound is n^(1/2), so the one
    # coefficient det H = +-n^(n/2), +-16 at n = 4 and +-4096 at n = 8, is
    # the bound B itself, a power of 2
    gens = [XYZ.var(g) for g in "xyz"]
    for n in (4, 8):
        h = hadamard(n)
        h[0] = [sign * c for c in h[0]]
        det_h = reference_minors(h, 1, 0)((1 << 2 * n) - 1)
        assert det_h * det_h == n ** n
        grid = [[gens[j % 3] * c for j, c in enumerate(row)] for row in h]
        assert image_units(XYZ, grid) == dict(zip("xyz", simplex_units(n)))
        assert imaged_det(XYZ, grid) == det_h * prod(gens[j % 3] for j in range(n))


@pytest.mark.parametrize("n", [4, 6, 7])
def test_a_four_generator_context_holding_three(n):
    # w holds no term: its unit lies above the digit, over a radix of 1
    ctx = Context(even=["w", "x", "y", "z"])
    x, y, z = (ctx.var(g) for g in "xyz")
    rng = random.Random(3310 + n)
    grid = [[x * small_int(rng) + y * small_int(rng) + z * small_int(rng) + small_int(rng)
             for _ in range(n)] for _ in range(n)]
    digit = n * simplex_units(n)[2] + 1
    assert poly._slot_units([0, n, n, n], n) == ([digit, *simplex_units(n)], digit)
    assert image_units(ctx, grid) == dict(zip("xyz", simplex_units(n)))
    assert imaged_det(ctx, grid) == polynomial_det(ctx, grid)


def test_a_fourth_generator_is_a_digit_above_the_simplex():
    # w in one row only: d = (1, 5, 5, 5), the three largest share the
    # digit of 111 slots and w is a digit of radix 2 above it
    ctx = Context(even=["w", "x", "y", "z"])
    x, y, z = (ctx.var(g) for g in "xyz")
    rng = random.Random(3320)
    grid = [[x * small_int(rng) + y * small_int(rng) + z * small_int(rng) + small_int(rng)
             for _ in range(5)] for _ in range(5)]
    grid[2][3] = grid[2][3] + ctx.var("w") * 2 + x
    assert image_units(ctx, grid) == {"w": 111, "x": 1, "y": 16, "z": 22}
    assert poly._slot_units([1, 5, 5, 5], 5)[1] == 222
    assert imaged_det(ctx, grid) == polynomial_det(ctx, grid)


def test_a_box_narrower_than_the_digit_keeps_the_mixed_radix():
    # x in every row, y and z in one row each: d = (5, 1, 1) and D = 5,
    # a box of 24 slots against the digit's 111
    rng = random.Random(3330)
    x, y, z = (XYZ.var(g) for g in "xyz")
    grid = [[x * small_int(rng) + small_int(rng) for _ in range(5)] for _ in range(5)]
    grid[0][1] = grid[0][1] + y
    grid[3][4] = grid[3][4] - z * 3
    assert poly._slot_units([5, 1, 1], 5) == ([1, 6, 12], 24)
    assert image_units(XYZ, grid) == {"x": 1, "y": 6, "z": 12}
    assert imaged_det(XYZ, grid) == polynomial_det(XYZ, grid)


def test_a_leading_generator_with_no_term_leaves_the_runs_to_the_next():
    # w holds no term and x is a digit of radix d_x + 1 = 6 below y:
    # w and x both take the unit 1 in the mixed radix, and only x, which
    # holds terms, steps through adjacent slots, so its terms and the
    # constant make one run
    ctx = Context(even=["w", "x", "y"])
    x, y = ctx.var("x"), ctx.var("y")
    rng = random.Random(3340)
    grid = [[x * nonzero(rng) + nonzero(rng) for _ in range(5)] for _ in range(5)]
    grid[1][2] = grid[1][2] + y
    assert poly._slot_units([0, 5, 1], 5) == ([1, 1, 6], 12)
    assert image_units(ctx, grid) == {"x": 1, "y": 6}
    assert imaged_det(ctx, grid) == polynomial_det(ctx, grid)
    ints, _ = _kronecker_image(ctx, grid)
    assert [len(e) for row in ints for e in row] == [1] * 7 + [2] + [1] * 17


# -- the image entries ---------------------------------------------------------


def nonzero(rng):
    return rng.choice([-3, -2, -1, 1, 2, 3])


# hand-made image entries, each the (c, s) pairs of its int sum c << s
A = ((5, 0), (-3, 70), (2, 200))  # shifts 0 and 70 repeat below
B = ((7, 70), (-1, 0))
C = ((4, 0), (-6, 70), (9, 333))  # 333 in this entry alone
D = ((-2, 200),)
E = ((11, 40),)
IMAGE_GRIDS = [
    # the first column expanded has its zero above three nonzero entries
    [[0, A, B, D],
     [A, 0, C, B],
     [C, D, 0, A],
     [B, E, A, 0]],
    # the last column is zero on rows 0 and 2, and rows 1 and 3 agree on
    # the last two columns: minors of one and of two rows that are zero
    [[A, B, C, D, 0],
     [D, A, E, B, C],
     [E, 0, A, C, 0],
     [B, C, D, B, C],
     [C, E, B, A, D]],
    # rows 1 and 4 are equal: the determinant is zero
    [[B, A, 0, C, E, D],
     [A, C, D, 0, B, E],
     [0, E, A, B, C, A],
     [D, 0, B, E, A, C],
     [A, C, D, 0, B, E],
     [E, B, C, A, 0, B]],
    # no zero entry, so every mask is taken, and 333 in one row of each
    # column
    [[C, A, B, A, D, B],
     [A, B, A, D, C, A],
     [B, D, C, B, A, D],
     [D, C, D, C, B, E],
     [E, A, E, E, E, C],
     [A, E, A, B, D, A]],
]


@pytest.mark.parametrize("grid", IMAGE_GRIDS, ids=["4x4", "5x5", "6x6-singular", "6x6-dense"])
def test_the_image_det_expands_as_the_entry_ints(grid):
    # each entry is the int sum c << s of its pairs: _image_det of the
    # rows of every row mask on the last columns, the empty grid and the
    # one-entry grids included, is the oracle's minor there
    n = len(grid)
    minor = reference_minors([[sum(c << s for c, s in e) if e else 0 for e in row]
                              for row in grid], 1, 0)
    for rows in range(1 << n):
        k = rows.bit_count()
        sub = [row[n - k:] for i, row in enumerate(grid) if rows >> i & 1]
        assert _image_det(sub) == minor(rows | (1 << k) - 1 << 2 * n - k)
    det = _image_det(grid)
    assert det == minor((1 << 2 * n) - 1)
    assert (det == 0) == (len(set(map(tuple, grid))) < n)  # zero for a repeated row


@pytest.mark.parametrize("grid", IMAGE_GRIDS, ids=["4x4", "5x5", "6x6-singular", "6x6-dense"])
def test_laplace_takes_the_oracle_minors_on_the_entry_ints(grid):
    # _laplace over the ints c << s, each lifted to a constant polynomial
    # (at most 528 digits, under MAX_DIGITS): the determinant of the rows
    # of every row mask on the last columns, every minor of the whole
    # grid's pass, and with each column i struck out, the minor without
    # each row j, the (j, i) minor, however many zeros column i or any
    # other holds
    n = len(grid)
    full = (1 << n) - 1
    ints = [[sum(c << s for c, s in e) if e else 0 for e in row] for row in grid]
    lifted = [[T.scalar(x) for x in row] for row in ints]
    minor = reference_minors(ints, 1, 0)
    for rows in range(1 << n):
        k = rows.bit_count()
        sub = [row[n - k:] for i, row in enumerate(lifted) if rows >> i & 1]
        assert _laplace(T, sub)[-1] == minor(rows | (1 << k) - 1 << 2 * n - k)
    minors = _laplace(T, lifted)
    for mask in _masks(n, list(zip(*lifted))):
        k = mask.bit_count()
        assert minors[mask] == minor(mask | (1 << k) - 1 << 2 * n - k)
    for i in range(n):
        minors = _laplace(T, [row[:i] + row[i + 1:] for row in lifted])
        for j in range(n):
            assert minors[full ^ 1 << j] == minor(full ^ 1 << j | (full ^ 1 << i) << n)


@pytest.mark.parametrize("var", ["x", "z"])
@pytest.mark.parametrize("powers", [(1, 1, 1, 1), (2, 3, 1, 4), (5, 0, 2, 3)])
def test_a_term_at_the_degree_bound_reads_back(powers, var):
    # a triangular grid whose diagonal holds powers of one variable and
    # whose upper entries are of no higher total degree: D is the sum of
    # the powers, and the determinant is the one term c t^D, at the slot
    # of total degree D where t alone reaches its largest exponent
    rng = random.Random(3160 + sum(powers))
    t = XYZ.var(var)
    gens = [XYZ.var(g) for g in XYZ.even]

    def upper(k):
        return XYZ.scalar(small_fraction(rng)) + sum(
            (g * small_fraction(rng) for g in gens), XYZ.zero()) * min(k, 1)

    cs = [small_fraction(rng) or 1 for _ in powers]
    grid = [[(c * t ** k if r == j else upper(k) if r < j else XYZ.zero())
             for j in range(4)] for r, (c, k) in enumerate(zip(cs, powers))]
    assert imaged_det(XYZ, grid) == prod(cs) * t ** sum(powers) == polynomial_det(XYZ, grid)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_grids_of_mixed_entries_match_the_polynomial_expansion(n):
    # constants (one pair at shift 0), entries in x alone, entries with
    # z^3, a slot past the whole box of x, and zeros; every row carries a
    # Fraction scale, and coefficients of either sign
    rng = random.Random(3150 + n)
    x, z = XYZ.var("x"), XYZ.var("z")
    kinds = [lambda: XYZ.scalar(small_fraction(rng) or 1),
             lambda: x * small_fraction(rng) + small_fraction(rng),
             lambda: z ** 3 * small_fraction(rng) - x * nonzero(rng),
             lambda: XYZ.zero()]
    for _ in range(3):
        grid = [[rng.choice(kinds)() for _ in range(n)] for _ in range(n)]
        grid[0][0] = z ** 3 * Fraction(-2, 3) + x + 1
        grid[0][1] = XYZ.scalar(Fraction(-5, 7))
        assert imaged_det(XYZ, grid) == polynomial_det(XYZ, grid)


def test_a_run_that_cancels_leaves_the_int_zero():
    # a zero row makes B = 0, so b = 1, and the run of 2 - x is
    # 2 + (-1 << 1) = 0: dropped, it leaves the entry the int 0, and the
    # entry 2 - x + 3y only the run of 3y
    x, y = XYZ.var("x"), XYZ.var("y")
    grid = linear_grid(random.Random(3400), XYZ, 4, small_int)
    grid[1] = [XYZ.zero()] * 4
    grid[2][3] = 2 - x
    grid[3][0] = 2 - x + 3 * y
    assert layout(XYZ, grid)[0] == 1
    ints, _ = _kronecker_image(XYZ, grid)
    assert type(ints[2][3]) is int and ints[2][3] == 0
    assert len(ints[3][0]) == 1
    assert imaged_det(XYZ, grid) == XYZ.zero() == polynomial_det(XYZ, grid)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_entries_with_no_constant_or_a_gap_in_x_match_the_oracle(n):
    # runs that start past x^0 (x + y, 2x - z) and runs with an empty
    # slot (c - x^2, x^2 + y): the run's int holds the empty digits, in
    # int rows and Fraction rows
    x, y, z = (XYZ.var(g) for g in "xyz")
    rng = random.Random(3410 + n)
    coefficient = [small_int, small_fraction]
    kinds = [lambda c: x * c(rng) + y * nonzero(rng),
             lambda c: x * nonzero(rng) - z * c(rng),
             lambda c: x ** 2 * nonzero(rng) + c(rng),
             lambda c: x ** 2 * c(rng) + y * nonzero(rng) + 1,
             lambda c: x * c(rng) + y * c(rng) + z * c(rng) + c(rng)]
    for _ in range(3):
        grid = []
        for _ in range(n):
            c = rng.choice(coefficient)
            grid.append([rng.choice(kinds)(c) for _ in range(n)])
        assert imaged_det(XYZ, grid) == polynomial_det(XYZ, grid)


def test_the_sweep_values_agree_on_its_small_grids():
    for _, ctx, grid in det_sweep.grids(ps=range(1, 3), ns=range(3, 6)):
        assert det_sweep.forced_image_det(ctx, grid) == det_sweep.polynomial_det(ctx, grid)


# -- the rule -------------------------------------------------------------------


@pytest.mark.parametrize("n", [5, 6, 7])
def test_even_det_grids_take_the_image(n):
    # c0 + c1 x + c2 y + c3 z is at most three runs: c0 + c1 x, y and z
    rng = random.Random(3200 + n)
    for _ in range(3):
        grid = linear_grid(rng, XYZ, n, small_int)
        assert imaged_det(XYZ, grid) == polynomial_det(XYZ, grid)
        ints, _ = _kronecker_image(XYZ, grid)
        assert max(len(e) for row in ints for e in row if e) <= 3


@pytest.mark.parametrize("kind, n", [("dense1", 6), ("ints1", 5)])
def test_five_variable_sweep_grids_take_the_image_by_their_span(kind, n):
    # dense linear grids over five variables: d_i = D = n, so three of them
    # share the simplex digit and the span, 8281 slots at n = 6 and 3996 at
    # n = 5, is about half the box of (n + 1)^5, 16807 and 7776.  With at
    # most six terms an entry only the span is within K a^(3/2)
    grids = [(ctx, g) for k, ctx, g in det_sweep.grids(ps=[5], ns=[n]) if k == kind]
    assert len(grids) == det_sweep.SEEDS
    for ctx, grid in grids:
        a, span, _ = det_sweep.shape(grid)
        assert span * span <= poly._KRONECKER_K ** 2 * a ** 3 < (n + 1) ** 10
        assert poly._KRONECKER_K in det_sweep.taken_at(ctx, grid)
        assert imaged_det(ctx, grid) == polynomial_det(ctx, grid)


def test_three_row_grids_stay_polynomial():
    grid = linear_grid(random.Random(3210), XYZ, 3, small_int)
    assert _kronecker_image(XYZ, grid) is None


def test_seven_by_seven_over_six_variables_stays_polynomial():
    ctx = Context(even=[f"x{i}" for i in range(1, 7)])
    grid = linear_grid(random.Random(3220), ctx, 7, small_int)
    assert _kronecker_image(ctx, grid) is None


def test_one_term_cubic_entries_stay_polynomial():
    # few terms over many slots: D = 21 and a span of 5335 slots for a = 1
    rng = random.Random(3230)

    def cubic():
        a = rng.randint(0, 3)
        b = rng.randint(0, 3 - a)
        exps = [(0, a), (1, b), (2, 3 - a - b)]
        return from_terms(XYZ, {Monomial([(i, e) for i, e in exps if e], 0): small_int(rng) or 1})

    grid = [[cubic() for _ in range(7)] for _ in range(7)]
    assert _kronecker_image(XYZ, grid) is None


def test_the_term_bound_keeps_every_exponent_in_its_field():
    # C(D + p, p) <= MAX_TERMS gives d_i <= D < MAX_TERMS for p >= 1, so
    # the rule needs no test of its own against the field cap
    assert MAX_TERMS <= MAX_FIELD_EXPONENT


def test_a_grid_past_the_term_bound_stays_polynomial():
    # two rows of dense degree-36 entries in x and two in y: the span, over
    # two generators the box, has 73^2 slots, well within K a^(3/2) for
    # a = 37 terms an entry, but
    # D = 144 and C(D + 2, 2) = 10585 is above MAX_TERMS
    rng = random.Random(3240)
    x, y = XY.var("x"), XY.var("y")

    def dense(g):
        return sum(((small_fraction(rng) or 1) * g ** e for e in range(37)), XY.zero())

    grid = [[dense(x) for _ in range(4)] for _ in range(2)]
    grid += [[dense(y) for _ in range(4)] for _ in range(2)]
    assert all(len(e) == 37 for row in grid for e in row)
    assert 73 ** 2 <= poly._KRONECKER_K * 37 ** 1.5
    assert comb(144 + 2, 2) > MAX_TERMS
    assert _kronecker_image(XY, grid) is None


class _CountedNums(dict):
    """A numerator map that counts the calls of items(), which only the
    packing of an entry makes."""

    def __init__(self, nums):
        super().__init__(nums)
        self.items_calls = 0

    def items(self):
        self.items_calls += 1
        return super().items()


def _counted(grid):
    return [[SuperPoly._raw(e.ctx, _CountedNums(e.nums), e.den) for e in row]
            for row in grid]


def test_the_rule_is_decided_before_any_entry_is_packed():
    rng = random.Random(3250)
    taken = _counted(linear_grid(rng, XYZ, 5, small_int))
    assert _kronecker_image(XYZ, taken) is not None
    assert {e.nums.items_calls for row in taken for e in row} == {1}
    # refused by the span alone: 7 x 7 linear entries over six variables
    ctx = Context(even=[f"x{i}" for i in range(1, 7)])
    refused = _counted(linear_grid(rng, ctx, 7, small_int))
    assert _kronecker_image(ctx, refused) is None
    assert {e.nums.items_calls for row in refused for e in row} == {0}


class _Unread(dict):
    """A nonempty numerator map that fails the test when it is read."""

    def __iter__(self):
        raise AssertionError("an entry after the first odd code was read")

    items = keys = values = __iter__


def test_the_odd_part_scan_stops_at_the_first_odd_code():
    ctx = Context(even=["t"], odd=["a", "b"])
    first = ctx.var("a") * ctx.var("b") + ctx.var("t")
    unread = SuperPoly._raw(ctx, _Unread({0: 1}), 1)
    grid = [[first] + [unread] * 4] + [[unread] * 5 for _ in range(4)]
    assert _kronecker_image(ctx, grid) is None

"""Proof by enumeration for the grid product: a one-row _gmul on every
ordered pair of basis monomials of Lambda(theta1..theta6).

_gmul is bilinear, and a bilinear map is fixed by its values on pairs
of basis elements.  So checking all 64 x 64 products theta_K * theta_L
against an independent model proves the product signs of the term-pair
loop for six odd generators, where seeded random inputs reach a given
pair only by chance.

Model: theta_K is the product of the generators of K in increasing
order.  theta_K * theta_L is zero when K and L share a generator;
otherwise sorting the concatenated word into increasing order takes one
transposition per inversion, so the product is (-1)^inversions
theta_(K + L) (tests/model.py's theta_product).  Nothing here uses
_SWAP_PARITY, _odd_word or any other sign code of the package.  The left
factors carry 1/2 and the grid 1/3, so every column also runs _gmul's
common denominator.

A sum of products packs each row of its grid into one map, keyed by
code << w | k for column k and w = (width - 1).bit_length().  The second
half sends _gmul over grids of width 1, 2, 3, 5, 8 and 9
(w = 0 to 4; 3, 5 and 9 are one past a power of two, where a w one bit
short would let the last column bleed into the code) and over a context
with even generators too, against the same model, with exponents added
generator by generator.

A derivation applied to a tuple packs it the same way and takes the left
partial of the whole packed row, so the third part applies random fields
to tuples of the same widths and checks each entry against a model of
the left partial: theta_i is struck with the sign (-1)^(number of odd
generators before it), and t^e becomes e t^(e-1).  The odd sign's mask
and the exponent field must both be read w bits up; over Lambda(theta1..
theta6) a mask read without w counts the column index's bits as odd
generators.
"""

import random
from fractions import Fraction

import pytest

from model import Monomial, from_terms, front_sign, terms_of, theta_product, word
from supergeom import Context, Parity, SuperDerivation, SuperPoly
from supergeom.matrix import _gmul

Q = 6
GR6 = Context(odd=[f"theta{i}" for i in range(1, Q + 1)])
MASKS = range(1 << Q)


def basis(mask, c):
    return from_terms(GR6, {Monomial((), mask): c})


def test_every_basis_pair_matches_the_inversion_count():
    half, third = Fraction(1, 2), Fraction(1, 3)
    grid = [[basis(l, third) for l in MASKS]]
    wrong = []
    for k in MASKS:
        got = _gmul(GR6, ([basis(k, half)],), grid)[0]
        for l, p in zip(MASKS, got):
            want = {mask: c * half * third for mask, c in theta_product(k, l).items()}
            if {mono.mask: c for mono, c in terms_of(p).items()} != want:
                wrong.append((word(k), word(l)))
    assert not wrong, f"{len(wrong)} wrong products theta_K * theta_L, (K, L) first: {wrong[:5]}"


MIXED = Context(even=["x", "y"], odd=[f"theta{i}" for i in range(1, 5)])
WIDTHS = [1, 2, 3, 5, 8, 9]


def model_dot(row, col):
    """{Monomial: coefficient} of sum_j row[j] * col[j], term by term, for
    row and col of term maps {Monomial: coefficient}."""
    out = {}
    for a, b in zip(row, col):
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                for mask, sign in theta_product(m1.mask, m2.mask).items():
                    even = dict(m1.even)
                    for i, e in m2.even:
                        even[i] = even.get(i, 0) + e
                    mono = Monomial(sorted(even.items()), mask)
                    out[mono] = out.get(mono, 0) + sign * c1 * c2
    return {mono: c for mono, c in out.items() if c}


def random_entry(rng, ctx):
    """Zero one time in five, else up to four terms drawn from a few
    monomials, so the sums meet and cancel, over denominators 1..5."""
    if not rng.randrange(5):
        return SuperPoly.zero(ctx)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        even = [(i, e) for i in range(len(ctx.even)) if (e := rng.randint(0, 2))]
        mono = Monomial(even, rng.randrange(1 << len(ctx.odd)))
        terms[mono] = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 5))
    return from_terms(ctx, terms)


@pytest.mark.parametrize("width", WIDTHS)
def test_packed_rows_keep_their_columns_apart(width):
    rng = random.Random(1900 + width)
    for ctx in (GR6, MIXED):
        for _ in range(4):
            a = [[random_entry(rng, ctx) for _ in range(3)] for _ in range(2)]
            b = [[random_entry(rng, ctx) for _ in range(width)] for _ in range(3)]
            got = _gmul(ctx, a, b)
            assert [len(row) for row in got] == [width, width]
            for row, out in zip(a, got):
                for k, p in enumerate(out):
                    assert terms_of(p) == model_dot([terms_of(e) for e in row],
                                                    [terms_of(r[k]) for r in b])


def model_partial(p, ctx, name):
    """{Monomial: coefficient} of the left partial of p by generator name.
    theta_i is moved to the front past the odd generators before it, one
    sign each, and struck; t^e is multiplied by e and lowered to t^(e-1)."""
    out = {}
    if name in ctx.odd:
        i = ctx.odd.index(name)
        for mono, c in terms_of(p).items():
            if mono.mask >> i & 1:
                out[Monomial(mono.even, mono.mask & ~(1 << i))] = front_sign(mono.mask, i) * c
    else:
        i = ctx.even.index(name)
        for mono, c in terms_of(p).items():
            even = dict(mono.even)
            if e := even.pop(i, 0):
                if e > 1:
                    even[i] = e - 1
                out[Monomial(sorted(even.items()), mono.mask)] = e * c
    return out


def random_field(rng, ctx):
    """A random homogeneous field: each coefficient random_entry's terms
    of the parity its slot needs."""
    parity = rng.choice([Parity.EVEN, Parity.ODD])
    slots = [parity] * len(ctx.even) + [parity.flipped()] * len(ctx.odd)
    coeffs = [from_terms(ctx, {m: c for m, c in terms_of(random_entry(rng, ctx)).items()
                               if m.mask.bit_count() % 2 == (slot is Parity.ODD)})
              for slot in slots]
    p = len(ctx.even)
    return SuperDerivation(ctx, parity, coeffs[:p], coeffs[p:])


@pytest.mark.parametrize("width", WIDTHS)
def test_derivations_differentiate_each_column_of_a_packed_row(width):
    """A field applied to a tuple packs it as one row of width entries and
    takes the left partial of the whole row per generator, keys
    code << w | k: the odd mask and the exponent fields sit w bits up.
    Each entry must be the sum of the coefficients times the model's
    partials of its own polynomial."""
    rng = random.Random(2900 + width)
    for ctx in (GR6, MIXED):
        for trial in range(4):
            field = random_field(rng, ctx)
            polys = [random_entry(rng, ctx) for _ in range(width)]
            got = field._apply_each(polys)
            assert len(got) == width
            coeffs = [terms_of(c) for c in field.coefficients()]
            for k, (p, out) in enumerate(zip(polys, got)):
                want = model_dot(coeffs, [model_partial(p, ctx, n) for n in ctx.names])
                assert terms_of(out) == want, (
                    f"{ctx}, trial {trial}: column {k} of {width}, ({field})({p})")
            assert field.apply(polys[-1]) == got[-1]

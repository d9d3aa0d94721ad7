"""The parity of every field the kernel derives without the checking
constructor: sums, differences, scalar multiples, brackets, coordinate
fields and the fields of a group law.

Each result must be one the public constructor accepts from its own
halves, and equal to what it builds; __eq__ ignores the declared parity,
so the parity is compared on its own.  The contexts run over 1|1..2|2,
with fields of both parities and zero fields of both parities.
"""

import random
from fractions import Fraction

import pytest

from helpers import random_poly
from supergeom import (
    Context,
    GroupLaw,
    Morphism,
    Parity,
    SuperDerivation,
    TangentVector,
    bracket,
    infinitesimal_action,
    is_left_invariant,
    left_invariant_field,
    product_context,
)

CONTEXTS = [
    Context(even=[f"t{i}" for i in range(m)], odd=[f"theta{j}" for j in range(n)])
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2))
]
EVEN, ODD = Parity.EVEN, Parity.ODD


def dims(ctx):
    return f"{len(ctx.even)}|{len(ctx.odd)}"


def checked(field, parity):
    """field, after asserting that it carries parity and that the public
    constructor rebuilds it from its halves."""
    assert field.parity is parity
    rebuilt = SuperDerivation(field.ctx, field.parity, field.even_coeffs, field.odd_coeffs)
    assert rebuilt == field
    assert field.coefficients() == rebuilt.coefficients()
    return field


def nonzero_field(rng, ctx, parity):
    # positive coefficients, so no coefficient cancels to zero
    return SuperDerivation(
        ctx, parity,
        [random_poly(rng, ctx, parity=parity, n_terms=2, lo=1) for _ in ctx.even],
        [random_poly(rng, ctx, parity=parity.flipped(), n_terms=2, lo=1) for _ in ctx.odd],
    )


def fields(ctx, seed=0):
    """Two nonzero fields and the zero field of each parity, with the
    parity each declares."""
    rng = random.Random(seed)
    out = []
    for parity in (EVEN, ODD):
        out += [nonzero_field(rng, ctx, parity) for _ in range(2)]
        out.append(SuperDerivation(ctx, parity))
    return out


@pytest.mark.parametrize("ctx", CONTEXTS, ids=dims)
def test_sum_and_difference_take_the_parity_of_a_nonzero_side(ctx):
    for a in fields(ctx, 1):
        for b in fields(ctx, 2):
            if a.parity is not b.parity and not a.is_zero() and not b.is_zero():
                continue
            parity = b.parity if a.is_zero() else a.parity
            checked(a + b, parity)
            checked(a - b, parity)
        checked(-a, a.parity)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=dims)
def test_zero_plus_a_field_of_the_other_parity(ctx):
    rng = random.Random(3)
    for parity in (EVEN, ODD):
        zero = SuperDerivation(ctx, parity.flipped())
        d = nonzero_field(rng, ctx, parity)
        assert checked(zero + d, parity) == d
        assert checked(d + zero, parity) == d
        assert checked(zero - d, parity) == -d


@pytest.mark.parametrize("ctx", CONTEXTS, ids=dims)
def test_scalar_multiple_flips_parity_only_for_an_odd_scalar(ctx):
    rng = random.Random(4)
    evens = [3, Fraction(-1, 2), ctx.var(ctx.even[0]) + 1,
             random_poly(rng, ctx, parity=EVEN, lo=1)]
    odds = [ctx.var(ctx.odd[-1]), random_poly(rng, ctx, parity=ODD, lo=1)]
    zeros = [0, ctx.zero()]
    for d in fields(ctx, 5):
        for s in evens + zeros:
            checked(s * d, d.parity)
        for s in odds:
            checked(s * d, d.parity.flipped())


@pytest.mark.parametrize("ctx", CONTEXTS, ids=dims)
def test_bracket_parity_with_zero_sides(ctx):
    for a in fields(ctx, 6):
        for b in fields(ctx, 7):
            got = checked(bracket(a, b), a.parity + b.parity)
            if a.is_zero() or b.is_zero():
                assert got.is_zero()


@pytest.mark.parametrize("ctx", CONTEXTS, ids=dims)
def test_coordinate_fields(ctx):
    for name in ctx.names:
        d = checked(SuperDerivation.coordinate(ctx, name), ODD if name in ctx.odd else EVEN)
        assert [n for n in ctx.names if d.coefficient(n)] == [name]
        assert d.coefficient(name) == ctx.one()


def twisted_law(g):
    """The additive law on g with mu(t0) twisted by sum_j theta_j theta_j'."""
    gg = product_context(g)
    twist = sum((gg.var(n) * gg.var(n + "p") for n in g.odd), gg.zero())
    images = [gg.var(n) + gg.var(n + "p") for n in g.names]
    images[0] = images[0] + twist
    return GroupLaw(g, Morphism(gg, g, images), g.point([0] * len(g.even)))


def tangent_vectors(g):
    k = len(g.even)
    yield TangentVector(g), EVEN
    for i, name in enumerate(g.names):
        yield TangentVector.coordinate(g, name), ODD if i >= k else EVEN
    yield TangentVector(g, [2] + [-1] * (k - 1), None), EVEN
    yield TangentVector(g, None, [1] + [Fraction(1, 3)] * (len(g.odd) - 1)), ODD


@pytest.mark.parametrize("g", CONTEXTS, ids=dims)
def test_group_fields_carry_the_parity_of_their_tangent_vector(g):
    law = twisted_law(g)
    for v, parity in tangent_vectors(g):
        field = checked(left_invariant_field(law, v), parity)
        assert is_left_invariant(field, law)
        checked(infinitesimal_action(law, law.mu, v), parity)

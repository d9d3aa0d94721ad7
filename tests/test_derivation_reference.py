"""Derivations against the form they replaced: oracles.reference_apply,
reference_bracket, reference_infinitesimal_action and
reference_is_left_invariant; left_invariant_field against the
infinitesimal action of the anti-law oracles.reference_iota.

apply, bracket, infinitesimal_action and is_left_invariant each sum
through one poly._derive; the reference applied a field to one polynomial at
a time through a pair list and, for a bracket, subtracted the two sides
generator by generator.  Fields are compared by their coefficients and
by their parity, since SuperDerivation.__eq__ reads no parity.  The
inputs are seeded over contexts with only even, only odd and both kinds
of generators, with rational coefficients: both parities, odd with odd,
one side zero, and zero with zero of either parity.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import random_rational_poly
from oracles import (reference_apply, reference_bracket, reference_infinitesimal_action,
                     reference_iota, reference_is_left_invariant)
from supergeom import (Context, ContextMismatch, GroupLaw, Morphism, Parity,
                       SuperDerivation, TangentVector, bracket, infinitesimal_action,
                       is_left_invariant, left_invariant_field, product_context)

EVEN, ODD = Parity.EVEN, Parity.ODD
CONTEXTS = [
    Context(even=["x"], odd=["theta"]),
    Context(even=["x", "y"], odd=["a", "b"]),
    Context(odd=["a", "b", "c"]),
    Context(even=["x", "y"]),
]
PARITY_PAIRS = list(product((EVEN, ODD), repeat=2))


def dims(ctx):
    return f"{len(ctx.even)}|{len(ctx.odd)}"


def coeff(rng, ctx, parity):
    if parity is ODD and not ctx.odd:
        return ctx.zero()
    return random_rational_poly(rng, ctx, parity, n_terms=rng.randint(0, 3), max_den=6)


def random_field(rng, ctx, parity):
    """A field of the parity; about one in five is the zero field."""
    if rng.random() < 0.2:
        return SuperDerivation(ctx, parity)
    return SuperDerivation(ctx, parity,
                           [coeff(rng, ctx, parity) for _ in ctx.even],
                           [coeff(rng, ctx, parity.flipped()) for _ in ctx.odd])


def assert_same_field(got, want):
    assert got.parity is want.parity
    assert got.even_coeffs == want.even_coeffs
    assert got.odd_coeffs == want.odd_coeffs


@pytest.mark.parametrize("ctx", CONTEXTS, ids=dims)
def test_apply_matches_the_reference(ctx):
    rng = random.Random(1100 + len(ctx.even) + 3 * len(ctx.odd))
    for _ in range(40):
        field = random_field(rng, ctx, rng.choice((EVEN, ODD)))
        a = random_rational_poly(rng, ctx, n_terms=rng.randint(0, 4), max_den=6)
        assert field.apply(a) == reference_apply(field, a)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=dims)
@pytest.mark.parametrize("parities", PARITY_PAIRS, ids=lambda p: f"{p[0]}-{p[1]}")
def test_bracket_matches_the_reference(ctx, parities):
    rng = random.Random(1200 + len(ctx.even) + 3 * len(ctx.odd)
                        + 10 * PARITY_PAIRS.index(parities))
    for _ in range(15):
        d1, d2 = (random_field(rng, ctx, p) for p in parities)
        assert_same_field(bracket(d1, d2), reference_bracket(d1, d2))
        assert_same_field(bracket(d1, d1), reference_bracket(d1, d1))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=dims)
@pytest.mark.parametrize("parities", PARITY_PAIRS, ids=lambda p: f"{p[0]}-{p[1]}")
def test_bracket_with_a_zero_side_matches_the_reference(ctx, parities):
    rng = random.Random(1300 + len(ctx.even) + 3 * len(ctx.odd))
    zero = SuperDerivation(ctx, parities[1])
    for _ in range(5):
        d = random_field(rng, ctx, parities[0])
        assert_same_field(bracket(d, zero), reference_bracket(d, zero))
        assert_same_field(bracket(zero, d), reference_bracket(zero, d))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=dims)
@pytest.mark.parametrize("parities", PARITY_PAIRS, ids=lambda p: f"{p[0]}-{p[1]}")
def test_bracket_of_zero_fields_keeps_the_summed_parity(ctx, parities):
    d1, d2 = (SuperDerivation(ctx, p) for p in parities)
    got = bracket(d1, d2)
    assert_same_field(got, reference_bracket(d1, d2))
    assert got.parity is parities[0] + parities[1]
    assert len(got.coefficients()) == len(ctx.names)
    assert got.is_zero()


def test_bracket_of_fields_over_two_contexts_is_refused():
    d1 = SuperDerivation.coordinate(CONTEXTS[0], "x")
    d2 = SuperDerivation.coordinate(CONTEXTS[1], "x")
    with pytest.raises(ContextMismatch):
        bracket(d1, d2)
    with pytest.raises(ContextMismatch):
        d1.apply(CONTEXTS[1].var("x"))


# -- group laws: the action of a law on itself and its anti-law ---------------


def twisted_law(rng, m, n):
    """t_i + t_i' + t_i t_i' + sum c a b' over odd pairs, eta + eta' + t1 eta':
    a law whose partials are not constant, so each image's partials by
    the first factor vary from generator to generator."""
    g = Context(even=[f"t{i + 1}" for i in range(m)],
                odd=[f"eta{j + 1}" for j in range(n)])
    gg = product_context(g)
    v = gg.var
    mu = []
    for t in g.even:
        img = v(t) + v(t + "p") + v(t) * v(t + "p")
        for a in g.odd:
            for b in g.odd:
                c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                img = img + c * v(a) * v(b + "p")
        mu.append(img)
    mu += [v(e) + v(e + "p") + v(g.even[0]) * v(e + "p") for e in g.odd]
    return GroupLaw(g, Morphism(gg, g, mu), g.point([0] * m))


def heisenberg_law(rng, m, n):
    """t_i + t_i' + sum c a b' over odd pairs, eta + eta': associative for
    any coefficients, and not commutative once one is nonzero, so its
    left-invariant fields need not be right-invariant."""
    g = Context(even=[f"t{i + 1}" for i in range(m)],
                odd=[f"eta{j + 1}" for j in range(n)])
    gg = product_context(g)
    v = gg.var
    mu = []
    for t in g.even:
        img = v(t) + v(t + "p")
        for a in g.odd:
            for b in g.odd:
                img = img + Fraction(rng.randint(-3, 3), rng.choice((1, 2))) * v(a) * v(b + "p")
        mu.append(img)
    mu += [v(e) + v(e + "p") for e in g.odd]
    return GroupLaw(g, Morphism(gg, g, mu), g.point([0] * m))


LAW_SHAPES = [(1, 1), (1, 2), (2, 2), (1, 0)]


def random_vector(rng, g):
    """A homogeneous tangent vector at the unit, zero in about one draw of five."""
    if rng.random() < 0.2:
        return TangentVector(g)
    if g.odd and rng.random() < 0.5:
        return TangentVector(g, odd=[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                     for _ in g.odd])
    return TangentVector(g, even=[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                  for _ in g.even])


@pytest.mark.parametrize("shape", LAW_SHAPES, ids=str)
def test_infinitesimal_action_matches_the_reference(shape):
    rng = random.Random(1400 + 10 * shape[0] + shape[1])
    for _ in range(4):
        law = twisted_law(rng, *shape)
        for sigma in (law.mu, reference_iota(law)):
            v = random_vector(rng, law.coords)
            assert_same_field(infinitesimal_action(law, sigma, v),
                              reference_infinitesimal_action(law, sigma, v))


@pytest.mark.parametrize("shape", LAW_SHAPES, ids=str)
def test_left_invariant_field_matches_the_anti_law_action(shape):
    # left_invariant_field differentiates mu in its second factor; the
    # reference differentiates the first factor of iota, mu with its
    # factors swapped
    rng = random.Random(1450 + 10 * shape[0] + shape[1])
    parities = set()
    for _ in range(4):
        law = twisted_law(rng, *shape)
        g = law.coords
        iota = reference_iota(law)
        for v in [TangentVector(g)] + [random_vector(rng, g) for _ in range(6)]:
            assert_same_field(left_invariant_field(law, v),
                              reference_infinitesimal_action(law, iota, v))
            parities.add(v.parity())
    assert parities == ({EVEN, ODD} if shape[1] else {EVEN})


@pytest.mark.parametrize("shape", LAW_SHAPES, ids=str)
def test_is_left_invariant_matches_the_reference(shape):
    rng = random.Random(1500 + 10 * shape[0] + shape[1])
    verdicts = set()
    for _ in range(4):
        law = twisted_law(rng, *shape)
        g = law.coords
        fields = [left_invariant_field(law, random_vector(rng, g))]
        fields += [random_field(rng, g, rng.choice((EVEN, ODD))) for _ in range(3)]
        fields += [SuperDerivation.coordinate(g, n) for n in g.names]
        for field in fields:
            got = is_left_invariant(field, law)
            assert got == reference_is_left_invariant(field, law)
            verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("shape", LAW_SHAPES, ids=str)
def test_is_left_invariant_matches_the_reference_on_associative_laws(shape):
    # on twisted_law, which is not associative, only zero fields are
    # invariant; here the left-invariant fields are, and the coordinate
    # fields of a noncommutative law are not
    rng = random.Random(1550 + 10 * shape[0] + shape[1])
    verdicts = set()
    for _ in range(4):
        law = heisenberg_law(rng, *shape)
        g = law.coords
        fields = [left_invariant_field(law, TangentVector.coordinate(g, n)) for n in g.names]
        fields += [random_field(rng, g, rng.choice((EVEN, ODD))) for _ in range(3)]
        fields += [SuperDerivation.coordinate(g, n) for n in g.names]
        for field in fields:
            got = is_left_invariant(field, law)
            assert got == reference_is_left_invariant(field, law)
            verdicts.add(got)
        assert all(is_left_invariant(f, law) for f in fields[:len(g.names)])
    assert verdicts == {True, False}

"""SuperPoly.substitute against the form it replaced
(oracles.reference_substitute), and the context check of every image.

substitute runs every term through _mac into one numerator map; the
reference built a head polynomial per term and summed the pairs with dot.
The inputs are seeded: rational denominators in the polynomial and in the
images, constant terms, zero images, nilpotent images whose powers or
products vanish in the middle of a term, stored exponents above
MAX_EXPONENT, and sources with only even, only odd and both kinds of
generators.  Values are compared, and so are the type and text of the
error of an input with one fault: a missing image, an image of the wrong
parity or an image over another context.

Each context keeps the substitution plan of every code it substituted
(poly._substitution_plan): one int code names different monomials in two
contexts, a cached plan still stops at a vanished head, and cold and warm
plans give the same pullbacks.
"""

import random
from fractions import Fraction

import pytest

from helpers import random_rational_poly
from model import Monomial, from_terms
from oracles import reference_substitute
from supergeom import (Context, ContextMismatch, KernelError, Morphism,
                       Parity, SuperPoly)
from supergeom.poly import MAX_EXPONENT

SOURCES = [
    Context(even=["t"]),
    Context(odd=["a", "b", "c"]),
    Context(even=["x", "y"], odd=["a", "b"]),
]
OUT = Context(even=["s", "u"], odd=["c", "e"])
OTHER = Context(even=["w"], odd=["f"])


def one_term(rng, parity):
    """c * a monomial of OUT of the parity; c*e is even and squares to 0."""
    c = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
    if parity is Parity.EVEN:
        mono = rng.choice((Monomial([(0, 1)], 0), Monomial([(1, 1)], 0),
                           Monomial([(0, 1), (1, 1)], 0), Monomial((), 0b11)))
    else:
        mono = rng.choice((Monomial((), 0b01), Monomial((), 0b10),
                           Monomial([(0, 1)], 0b10)))
    return from_terms(OUT, {mono: c})


def image(rng, parity, big):
    """An image over OUT: one term when the source holds exponents above
    MAX_EXPONENT, else zero, one term or a seeded rational polynomial."""
    if big:
        return one_term(rng, parity)
    kind = rng.randrange(4)
    if kind == 0:
        return OUT.zero()
    if kind == 1:
        return one_term(rng, parity)
    return random_rational_poly(rng, OUT, parity, n_terms=rng.randint(1, 3), max_den=6)


def source(rng, ctx, big):
    """Up to five terms with rational coefficients and, half the time, a
    constant term; exponents up to 3, or above MAX_EXPONENT when big."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        even = [(i, rng.randint(MAX_EXPONENT + 1, 1500) if big else rng.randint(1, 3))
                for i in range(len(ctx.even)) if rng.random() < 0.7]
        mask = rng.getrandbits(len(ctx.odd)) if ctx.odd else 0
        terms[Monomial(even, mask)] = Fraction(rng.randint(-9, 9), rng.randint(1, 8))
    if rng.random() < 0.5:
        terms[Monomial((), 0)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return from_terms(ctx, terms)


def with_one_fault(rng, ctx, images):
    """images with at most one fault on a random generator: none, a
    missing image, one of the other parity, or a nonzero image over
    another context whose powers never vanish."""
    name = rng.choice(ctx.names)
    odd = name in ctx.odd
    fault = rng.randrange(4)
    if fault == 1:
        del images[name]
    elif fault == 2:
        images[name] = OUT.var("s") if odd else OUT.var("c")
    elif fault == 3:
        images[name] = OTHER.var("f") if odd else 2 * OTHER.var("w")
    return images


def outcome(f, ctx_out, images, route):
    try:
        return route(f, ctx_out, images)
    except (KernelError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("ctx", SOURCES, ids=lambda c: "{}|{}".format(*c.dims))
@pytest.mark.parametrize("big", [False, True], ids=["small", "above-cap"])
def test_substitute_matches_the_reference(ctx, big):
    rng = random.Random(2701 + 7 * len(ctx.even) + len(ctx.odd) + big)
    for _ in range(150):
        f = source(rng, ctx, big)
        images = {n: image(rng, Parity.ODD if n in ctx.odd else Parity.EVEN, big)
                  for n in ctx.names}
        images = with_one_fault(rng, ctx, images)
        got = outcome(f, OUT, images, SuperPoly.substitute)
        want = outcome(f, OUT, images, reference_substitute)
        assert got == want, (str(f), {n: str(p) for n, p in images.items()})


# -- an image over another context ---------------------------------------------

T = Context(even=["t"], odd=["a", "b"])
D = Context(even=["s"], odd=["c"])
E = Context(even=["u"], odd=["d"])

# one factor, two factors with the stray image first and last, three
# factors, and a constant plus an image
SHAPES = {
    "one-factor": 2 * T.var("t"),
    "two-terms": 2 * T.var("t") + 3 * T.var("a"),
    "stray-first": T.var("t") * T.var("a"),
    "stray-last": T.var("a") * T.var("t"),
    "three-factors": T.var("t") ** 2 * T.var("a") * T.var("b"),
    "constant-plus-image": 5 + T.var("t") / 3,
}
GOOD = {"t": D.var("s") + 1, "a": D.var("c"), "b": D.var("s") * D.var("c")}


@pytest.mark.parametrize("f", SHAPES.values(), ids=SHAPES)
def test_an_image_over_another_context_raises(f):
    images = dict(GOOD, t=E.var("u"))
    for route in (SuperPoly.substitute, reference_substitute):
        with pytest.raises(ContextMismatch, match="^operands live in different contexts$"):
            route(f, D, images)
    assert f.substitute(D, GOOD) == reference_substitute(f, D, GOOD)


@pytest.mark.parametrize("f", SHAPES.values(), ids=SHAPES)
def test_pullback_refuses_another_context(f):
    phi = Morphism(D, T, [GOOD[n] for n in T.names])
    assert phi.pullback(f) == reference_substitute(f, D, GOOD)
    with pytest.raises(ContextMismatch,
                       match="^polynomial is not over the morphism's target$"):
        phi.pullback(f.rename(Context(even=["t"], odd=["a", "b", "z"])))
    # an image swapped in after the constructor checked it still meets
    # the check in substitute
    phi.images = (E.var("u"),) + phi.images[1:]
    with pytest.raises(ContextMismatch, match="^operands live in different contexts$"):
        phi.pullback(f)


def test_an_image_is_checked_when_first_read():
    # every image read is checked, also one whose product then vanishes:
    # the reference never checked a head that was zero
    f = T.var("t") * T.var("a")
    images = {"t": E.zero(), "a": D.var("c")}
    with pytest.raises(ContextMismatch):
        f.substitute(D, images)
    assert reference_substitute(f, D, images) == D.zero()
    # with two faults the first image read decides: t's context before a's
    # missing image, where the reference read every image before it
    # checked a context
    images = {"t": E.var("u")}
    with pytest.raises(ContextMismatch, match="^operands live in different contexts$"):
        (T.var("t") + T.var("a")).substitute(D, images)
    with pytest.raises(ValueError, match="no image for generator 'a'"):
        reference_substitute(T.var("t") + T.var("a"), D, images)


# -- substitution plans, one memo per context ---------------------------------

# code 1 is theta1 over LAMBDA, whose odd mask starts at bit 0, and t over
# TAU, whose odd mask starts above t's field
LAMBDA = Context(odd=["theta1", "theta2"])
TAU = Context(even=["t"], odd=["theta1"])


def test_one_code_is_planned_per_context():
    assert LAMBDA.var("theta1").nums == TAU.var("t").nums == {1: 1}
    rng = random.Random(5701)
    # the contexts take turns, so each reads codes the other has planned
    for _ in range(40):
        for ctx in (LAMBDA, TAU):
            f = random_rational_poly(rng, ctx, n_terms=rng.randint(1, 4), max_den=4)
            f = f + rng.choice((1, -2, Fraction(1, 3))) * ctx.var(ctx.names[0])
            images = {n: image(rng, Parity.ODD if n in ctx.odd else Parity.EVEN, False)
                      for n in ctx.names}
            assert f.substitute(OUT, images) == reference_substitute(f, OUT, images)
    assert LAMBDA._plans[1] == (None, (), (1, 0, 1))
    assert TAU._plans[1] == (None, (), (0, 0, 1))


def test_a_cached_plan_still_stops_at_a_vanished_head():
    # (t*a*b).substitute(D, {t: s, a: 0}) is 0 with no image for b, also
    # once the plan of t*a*b is cached
    f = T.var("t") * T.var("a") * T.var("b")
    assert f.substitute(D, GOOD) == reference_substitute(f, D, GOOD)
    (code,) = f.nums
    assert T._plans[code] == ((0, 0, 1), ((1, 0, 1),), (1, 1, 1))
    s = D.var("s")
    assert f.substitute(D, {"t": s, "a": D.zero()}) == D.zero()
    # b's image is not read: one over another context does not raise
    assert f.substitute(D, {"t": s, "a": D.zero(), "b": E.var("d")}) == D.zero()


@pytest.mark.parametrize("ctx", SOURCES, ids=lambda c: "{}|{}".format(*c.dims))
def test_cold_and_warm_plans_give_the_same_pullbacks(ctx):
    rng = random.Random(5801 + 7 * len(ctx.even) + len(ctx.odd))
    cases = []
    for _ in range(60):
        images = {n: image(rng, Parity.ODD if n in ctx.odd else Parity.EVEN, False)
                  for n in ctx.names}
        cases.append((source(rng, ctx, False), images))
    cold = []
    for f, images in cases:
        ctx._plans.clear()
        cold.append(f.substitute(OUT, images))
    warm = [f.substitute(OUT, images) for f, images in cases]
    assert cold == warm == [reference_substitute(f, OUT, images) for f, images in cases]

"""SuperPoly.at against the term-by-term Fraction evaluation it replaced
(tests/oracles.py).

at sums in ints over one common denominator, den * prod q_i^E_i, with
E_i the largest exponent of t_i in the body, so every term must carry
q_i^(E_i - e_i) for each generator, including the ones it lacks.  The
polynomials are seeded over 0-4 even generators, with and without odd
terms, with and without a common denominator, with terms that lack a
generator and with exponents up to MAX_EXPONENT; the points have
denominators, negative and zero coordinates.
"""

import random
from fractions import Fraction

import pytest

from oracles import reference_at
from supergeom import Context, Monomial, SuperPoly
from supergeom.poly import MAX_EXPONENT


def _poly(rng, ctx, odd_terms, max_exp):
    p, q = len(ctx.even), len(ctx.odd)
    terms = {}
    for _ in range(rng.randint(1, 7)):
        # each generator present with probability one half, so most terms
        # lack one
        even = tuple((i, rng.randint(1, max_exp)) for i in range(p) if rng.random() < 0.5)
        mask = rng.randrange(1, 1 << q) if q and odd_terms and rng.random() < 0.4 else 0
        c = rng.randint(-20, 20)
        terms[Monomial(even, mask)] = Fraction(c, rng.choice([1, 1, 2, 3, 7, 12]))
    return SuperPoly(ctx, terms)


def _value(rng):
    return rng.choice([
        0, 1, -1, rng.randint(-9, 9),
        Fraction(rng.randint(-9, 9), rng.randint(2, 9)),
        Fraction(-1, rng.randint(2, 30)),
    ])


def _cases():
    rng = random.Random(4242)
    out = []
    for p in range(5):
        for q in (0, 2):
            ctx = Context(even=[f"t{i}" for i in range(p)], odd=[f"th{j}" for j in range(q)])
            for k in range(6):
                max_exp = MAX_EXPONENT if k == 0 else rng.choice([1, 3, 8])
                poly = _poly(rng, ctx, odd_terms=k % 2 == 1, max_exp=max_exp)
                points = [ctx.point([_value(rng) for _ in range(p)]) for _ in range(3)]
                out.append((poly, points))
    return out


CASES = _cases()


@pytest.mark.parametrize("poly, points", CASES,
                         ids=[f"{i}-{len(c[0].ctx.even)}|{len(c[0].ctx.odd)}"
                              for i, c in enumerate(CASES)])
def test_at_matches_the_term_by_term_oracle(poly, points):
    for point in points:
        got = poly.at(point)
        assert type(got) is Fraction
        assert got == reference_at(poly, point)


def test_the_cases_cover_what_the_sum_must_scale():
    polys = [poly for poly, _ in CASES]
    assert any(p.parity().name != "EVEN" for p in polys)
    assert any(Fraction(c).denominator > 1 for p in polys for c in p.terms.values())
    # a term lacks a generator another term of the body holds
    assert any(
        len({i for m in p.terms if not m.odd for i, _ in m.even}) >
        min(len(m.even) for m in p.terms if not m.odd)
        for p in polys if any(not m.odd for m in p.terms)
    )
    assert any(e == MAX_EXPONENT or e > 100 for p in polys for m in p.terms for _, e in m.even)
    values = [v for _, pts in CASES for pt in pts for v in pt.even_values]
    assert 0 in values and any(v < 0 for v in values)
    assert any(v.denominator > 1 for v in values)


def test_a_term_without_a_generator_is_scaled_by_its_denominator():
    ctx = Context(even=["x", "y"])
    x, y = ctx.var("x"), ctx.var("y")
    # 1 + x^2 at x = 1/2 is 5/4; the constant term carries 2^2 over 2^2
    assert (1 + x**2).at(ctx.point([Fraction(1, 2), 0])) == Fraction(5, 4)
    assert (y + x**2 - 3).at(ctx.point([Fraction(-1, 3), Fraction(2, 5)])) == (
        Fraction(2, 5) + Fraction(1, 9) - 3
    )


def test_odd_terms_and_zero_have_value_zero():
    ctx = Context(even=["x"], odd=["a", "b"])
    x, a, b = ctx.var("x"), ctx.var("a"), ctx.var("b")
    pt = ctx.point([Fraction(3, 2)])
    assert (x * a * b + a).at(pt) == 0
    assert ctx.zero().at(pt) == 0
    assert (x * a * b + Fraction(1, 3) * x).at(pt) == Fraction(1, 2)
    assert Context().scalar(Fraction(-2, 3)).at(Context().point([])) == Fraction(-2, 3)

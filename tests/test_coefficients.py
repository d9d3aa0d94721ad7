"""The stored form of a polynomial: int numerators over one denominator.

A SuperPoly keeps nums (monomial code -> nonzero int) and one positive den with
gcd(den, *nums) == 1, and den == 1 for zero.  Equality and hashing compare
that form directly, so every operation must hand back a reduced result;
these tests run seeded chains of operations on rational-coefficient
polynomials and check the form after every step, and check that one value
reached by two routes is one stored form.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from helpers import random_rational_poly
from supergeom import Context, Parity, SuperPoly
from supergeom.poly import decode, encode

CTX = Context(even=["x", "y"], odd=["theta1", "theta2", "theta3"])


def assert_canonical(p):
    assert p.den > 0
    assert all(type(v) is int and v for v in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    if not p.nums:
        assert p.den == 1


def rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 12))


def self_map_images(rng):
    images = {n: random_rational_poly(rng, CTX, parity=Parity.EVEN, max_even_deg=1,
                                      n_terms=2) for n in CTX.even}
    images.update({n: random_rational_poly(rng, CTX, parity=Parity.ODD,
                                           max_even_deg=0, n_terms=2)
                   for n in CTX.odd})
    return images


def step(rng, p):
    """One random operation on p."""
    q = random_rational_poly(rng, CTX, n_terms=rng.randint(0, 3))
    op = rng.choice(["add", "sub", "neg", "mul", "scale", "div", "partial",
                     "body", "substitute", "cancel"])
    if op == "add":
        return p + q
    if op == "sub":
        return p - q
    if op == "neg":
        return -p
    if op == "mul":
        return p * q
    if op == "scale":
        return p * rational(rng)
    if op == "div":
        return p / rational(rng)
    if op == "partial":
        return p.partial(rng.choice(CTX.even + CTX.odd))
    if op == "body":
        return p.body()
    if op == "substitute":
        return p.substitute(CTX, self_map_images(rng))
    return p - p * Fraction(1)


@pytest.mark.parametrize("seed", range(6))
def test_every_step_of_a_chain_is_canonical(seed):
    rng = random.Random(900 + seed)
    p = random_rational_poly(rng, CTX, n_terms=4)
    assert_canonical(p)
    for _ in range(40):
        p = step(rng, p)
        assert_canonical(p)
        if len(p.nums) > 40 or not p.nums:
            p = random_rational_poly(rng, CTX, n_terms=4)


def test_dropping_terms_reduces():
    # each of these keeps a part of p whose coefficients share a factor
    # that the dropped part did not
    th1, th2 = CTX.var("theta1"), CTX.var("theta2")
    x = CTX.var("x")
    p = th1 + th2 / 2                     # nums {th1: 2, th2: 1}, den 2
    assert p.partial("theta1") == 1
    assert p.partial("theta1").den == 1
    e = x**2 / 3 + x / 6                  # d/dx: 2x/3 + 1/6
    assert e.partial("x") == x * Fraction(2, 3) + Fraction(1, 6)
    b = th1 * th2 / 4 + Fraction(1, 2)
    assert b.body() == Fraction(1, 2)
    for r in (p.partial("theta1"), e.partial("x"), b.body()):
        assert_canonical(r)


@pytest.mark.parametrize("seed", range(4))
def test_two_routes_give_one_stored_form(seed):
    rng = random.Random(920 + seed)
    for _ in range(20):
        p = random_rational_poly(rng, CTX, n_terms=rng.randint(1, 5))
        routes = [
            (p / 2 + p / 3, p * Fraction(5, 6)),
            ((p / 6) * 6, p),
            (p * Fraction(3, 4) - p / 4, p / 2),
            (p + p, 2 * p),
            (-(-p), p),
        ]
        for left, right in routes:
            assert left == right
            assert (left.den, left.nums) == (right.den, right.nums)
            assert hash(left) == hash(right)


def test_zero_from_cancellation_is_the_zero():
    rng = random.Random(940)
    p = random_rational_poly(rng, CTX, n_terms=4)
    z = p / 7 - p * Fraction(1, 7)
    assert z.nums == {} and z.den == 1
    assert z == SuperPoly.zero(CTX)
    assert hash(z) == hash(SuperPoly.zero(CTX)) == hash(Fraction(0))


def test_constants_with_denominators_hash_like_their_fraction():
    for value in (Fraction(1, 2), Fraction(-7, 12), Fraction(5)):
        c = (CTX.scalar(value) * 6 + CTX.var("x") - CTX.var("x")) / 6
        assert c == value
        assert hash(c) == hash(value)


def test_terms_round_trip_through_the_public_constructor():
    rng = random.Random(950)
    for _ in range(30):
        p = random_rational_poly(rng, CTX, n_terms=rng.randint(0, 5))
        view = p.terms
        assert len(view) == len(p.nums)
        assert {encode(CTX, mono) for mono in view} == set(p.nums)
        assert all(decode(CTX, code) in view for code in p.nums)
        assert all(type(c) is Fraction and c for c in view.values())
        assert SuperPoly(CTX, dict(view)) == p
        assert SuperPoly(CTX, view) == p
        back = SuperPoly(CTX, dict(view))
        assert (back.den, back.nums) == (p.den, p.nums)


def test_terms_view_is_read_only():
    p = CTX.var("x") / 2
    with pytest.raises(TypeError):
        p.terms[next(iter(p.nums))] = Fraction(1)

"""Derivation tests: graded Leibniz, bracket examples, super Jacobi.

The bracket examples ([d/dt, t d/dt] = d/dt and [theta1 d/dt, d/dtheta1] =
d/dt) were expanded by hand on the coordinate generators first, and the
property loops check the same identities through direct operator
composition on random polynomials.
"""

import random

import pytest

from helpers import random_poly
from supergeom import (
    Context,
    Parity,
    ParityError,
    SuperDerivation,
    SuperPoly,
    TangentVector,
    bracket,
)

CTX = Context(even=["t"], odd=["theta1", "theta2"])


def derivation(ctx, parity, coeffs):
    """coeffs: mapping generator name -> SuperPoly/int."""
    evens = [coeffs.get(n, 0) for n in ctx.even]
    odds = [coeffs.get(n, 0) for n in ctx.odd]
    evens = [c if isinstance(c, SuperPoly) else SuperPoly.scalar(ctx, c) for c in evens]
    odds = [c if isinstance(c, SuperPoly) else SuperPoly.scalar(ctx, c) for c in odds]
    return SuperDerivation(ctx, parity, evens, odds)


def random_derivation(rng, ctx, parity=None, max_even_deg=2):
    if parity is None:
        parity = Parity.EVEN if rng.random() < 0.5 else Parity.ODD
    evens = [
        random_poly(rng, ctx, parity=parity, max_even_deg=max_even_deg, n_terms=2)
        for _ in ctx.even
    ]
    odds = [
        random_poly(rng, ctx, parity=parity.flipped(), max_even_deg=max_even_deg, n_terms=2)
        for _ in ctx.odd
    ]
    return SuperDerivation(ctx, parity, evens, odds)


class TestApply:
    def test_coordinate_field(self):
        d = SuperDerivation.coordinate(CTX, "t")
        f = CTX.var("t") * CTX.var("theta1")
        assert d.apply(f) == CTX.var("theta1")

    def test_left_coefficient(self):
        d = derivation(CTX, Parity.ODD, {"t": CTX.var("theta1")})
        f = CTX.var("t") ** 2
        assert d.apply(f) == 2 * CTX.var("t") * CTX.var("theta1")

    def test_odd_coordinate_field(self):
        d = SuperDerivation.coordinate(CTX, "theta1")
        f = CTX.var("theta1") * CTX.var("theta2")
        assert d.apply(f) == CTX.var("theta2")

    def test_graded_leibniz(self):
        rng = random.Random(23)
        for _ in range(60):
            d = random_derivation(rng, CTX)
            pa = Parity.EVEN if rng.random() < 0.5 else Parity.ODD
            a = random_poly(rng, CTX, parity=pa)
            b = random_poly(rng, CTX)
            sign = -1 if (d.parity is Parity.ODD and pa is Parity.ODD) else 1
            assert d.apply(a * b) == d.apply(a) * b + (a * d.apply(b)) * sign

    def test_homogeneity_enforced(self):
        with pytest.raises(ParityError):
            derivation(CTX, Parity.EVEN, {"t": CTX.var("theta1")})


class TestBracket:
    def test_odd_self_bracket_of_coordinate_is_zero(self):
        d = SuperDerivation.coordinate(CTX, "theta1")
        assert bracket(d, d).is_zero()

    def test_weyl_relation(self):
        d = SuperDerivation.coordinate(CTX, "t")
        e = derivation(CTX, Parity.EVEN, {"t": CTX.var("t")})
        assert bracket(d, e) == d

    def test_mixed_parity_example(self):
        d1 = derivation(CTX, Parity.ODD, {"t": CTX.var("theta1")})
        d2 = SuperDerivation.coordinate(CTX, "theta1")
        assert bracket(d1, d2) == SuperDerivation.coordinate(CTX, "t")

    def test_bracket_acts_as_graded_commutator(self):
        rng = random.Random(29)
        for _ in range(40):
            d1 = random_derivation(rng, CTX)
            d2 = random_derivation(rng, CTX)
            f = random_poly(rng, CTX)
            sign = -1 if (d1.parity is Parity.ODD and d2.parity is Parity.ODD) else 1
            direct = d1.apply(d2.apply(f)) - d2.apply(d1.apply(f)) * sign
            assert bracket(d1, d2).apply(f) == direct

    def test_super_antisymmetry(self):
        rng = random.Random(31)
        for _ in range(40):
            d1 = random_derivation(rng, CTX)
            d2 = random_derivation(rng, CTX)
            sign = -1 if (d1.parity is Parity.ODD and d2.parity is Parity.ODD) else 1
            lhs = bracket(d1, d2)
            rhs = bracket(d2, d1)
            total = lhs + sign * rhs
            assert total.is_zero()

    def test_super_jacobi(self):
        rng = random.Random(37)
        for _ in range(25):
            x = random_derivation(rng, CTX, max_even_deg=1)
            y = random_derivation(rng, CTX, max_even_deg=1)
            z = random_derivation(rng, CTX, max_even_deg=1)
            px, py, pz = x.parity.value, y.parity.value, z.parity.value
            a = bracket(x, bracket(y, z))
            b = bracket(y, bracket(z, x))
            c = bracket(z, bracket(x, y))
            s_a = 1
            s_b = -1 if (px * py + px * pz) % 2 else 1
            s_c = -1 if (py * pz + px * pz) % 2 else 1
            total = s_a * a + s_b * b + s_c * c
            assert total.is_zero()


class TestRendering:
    def test_field_with_signed_coefficient(self):
        d = derivation(
            CTX,
            Parity.ODD,
            {"t": -CTX.var("theta1"), "theta1": 1},
        )
        assert str(d) == "-theta1*d/dt + d/dtheta1"

    def test_zero(self):
        d = derivation(CTX, Parity.EVEN, {})
        assert str(d) == "0"


class TestTangentVector:
    def test_floats_rejected(self):
        # Fraction(0.1) would store the binary float, not 1/10
        with pytest.raises(TypeError, match="inexact float"):
            TangentVector(CTX, [0.1])
        with pytest.raises(TypeError, match="inexact float"):
            TangentVector(CTX, odd=[0, 0.5])

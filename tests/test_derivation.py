"""Derivation tests: graded Leibniz, bracket examples, super Jacobi.

The bracket examples ([d/dt, t d/dt] = d/dt and [theta1 d/dt, d/dtheta1] =
d/dt) were expanded by hand on the coordinate generators first, and the
property loops check the same identities through direct operator
composition on random polynomials.
"""

import random
from fractions import Fraction

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
from supergeom.script import run_script

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


class TestZeroField:
    """A field with no nonzero coefficient sums an empty row: it still
    gives one zero per argument, or per generator for a bracket."""

    def test_apply_gives_the_zero_of_the_context(self):
        zero = SuperDerivation(CTX, Parity.ODD)
        got = zero.apply(CTX.var("t") * CTX.var("theta1") + 3)
        assert got == CTX.zero()
        assert got.ctx is CTX

    @pytest.mark.parametrize("p1", [Parity.EVEN, Parity.ODD])
    @pytest.mark.parametrize("p2", [Parity.EVEN, Parity.ODD])
    def test_bracket_of_zero_fields_has_every_coefficient(self, p1, p2):
        got = bracket(SuperDerivation(CTX, p1), SuperDerivation(CTX, p2))
        assert len(got.even_coeffs) == 1 and len(got.odd_coeffs) == 2
        assert got.is_zero()
        assert got.parity is (Parity.ODD if p1 is not p2 else Parity.EVEN)

    def test_bracket_with_a_zero_side(self):
        d = derivation(CTX, Parity.ODD, {"t": CTX.var("theta1"), "theta2": 1})
        for zero in (SuperDerivation(CTX, Parity.EVEN), SuperDerivation(CTX, Parity.ODD)):
            for got in (bracket(d, zero), bracket(zero, d)):
                assert got.is_zero()
                assert got.parity is d.parity + zero.parity

    def test_only_none_means_a_zero_half(self):
        # an empty list is a half with no coefficients, not the zero half
        ctx = Context(even=["t", "s"], odd=["th"])
        for even, odd in (([], [0]), ([0, 0], []), ([], [])):
            with pytest.raises(ValueError, match="one coefficient per generator"):
                SuperDerivation(ctx, Parity.EVEN, even, odd)
        assert SuperDerivation(ctx, Parity.EVEN, None, [0]).is_zero()
        assert SuperDerivation(ctx, Parity.ODD, [0, 0]).is_zero()
        # a half with no generators takes the empty list
        assert SuperDerivation(Context(odd=["th"]), Parity.ODD, [], [1]).odd_coeffs == (1,)

    def test_zero_field_in_a_script(self):
        result = run_script("context M even=[x] odd=[theta]\n"
                            "field X = [0, 0]\n"
                            "bracket X X\n"
                            "involutive X\n")
        assert result.errors == ()
        assert result.output == "0\nIntegrable\n"


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

    def test_only_none_means_a_zero_half(self):
        ctx = Context(even=["t", "s"], odd=["th"])
        for even, odd in (([], [1]), ([1, 0], []), ([], [])):
            with pytest.raises(ValueError, match="one coordinate per generator"):
                TangentVector(ctx, even, odd)
        assert TangentVector(ctx, None, [1]) == TangentVector.coordinate(ctx, "th")
        assert TangentVector(Context(odd=["th"]), [], [1]).coords() == (1,)

    def test_str_writes_negative_coordinates_as_differences(self):
        ctx = Context(even=["x", "y"], odd=["xi"])
        v = TangentVector(ctx, [1, -2], [-1])
        assert str(v) == "d/dx|_x - 2*d/dy|_x - d/dxi|_x"
        w = TangentVector(ctx, [Fraction(-3, 2), 0], [Fraction(1, 2)])
        assert str(w) == "-3/2*d/dx|_x + 1/2*d/dxi|_x"
        assert str(TangentVector(ctx, odd=[-1])) == "-d/dxi|_x"
        assert str(TangentVector(ctx)) == "0"

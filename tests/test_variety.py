"""Pointed varieties and their tangent spaces.

The two worked tangent spaces were reduced by hand: d(x*xi + y*eta) at
(1,1) has coefficient vector (0,0,1,1) giving the single odd relation
Xi + Eta = 0, and the odd sphere at (1,0,0) gives the pair X1 = 0,
Xi1 = 0.  Relations come out of reduced row echelon form, so equal row
spaces print identically.
"""

import random
from fractions import Fraction

import pytest

from helpers import random_point, random_poly
from supergeom import (
    Context,
    LinearForm,
    Parity,
    ParityError,
    PointNotOnVariety,
    PointedVariety,
    SuperDim,
    TangentVector,
    differential_of_function,
    tangent_space,
    value_at,
)

PLANE = Context(even=["x", "y"], odd=["xi", "eta"])
SPHERE = Context(even=["x1", "x2", "x3"], odd=["xi1", "xi2", "xi3"])


def cross_term():
    return PLANE.var("x") * PLANE.var("xi") + PLANE.var("y") * PLANE.var("eta")


class TestValueAt:
    def test_odd_terms_die(self):
        assert value_at(cross_term(), PLANE.point([1, 1])) == 0

    def test_even_evaluation(self):
        line = Context(even=["x"], odd=[])
        f = line.var("x") ** 2 + 3
        assert value_at(f, line.point([2])) == 7


class TestDifferentialOfFunction:
    def test_worked_example(self):
        d = differential_of_function(cross_term(), PLANE.point([1, 1]))
        assert d.coefficients() == (0, 0, 1, 1)
        assert str(d) == "Xi + Eta"

    def test_constant_has_zero_differential(self):
        d = differential_of_function(PLANE.scalar(5), PLANE.point([0, 0]))
        assert d.is_zero()
        assert str(d) == "0"

    def test_sphere_gradient(self):
        f = sum(
            (SPHERE.var(n) ** 2 for n in ("x1", "x2", "x3")), SPHERE.zero()
        ) - 1
        d = differential_of_function(f, SPHERE.point([1, 0, 0]))
        assert d == LinearForm(SPHERE, even=[2, 0, 0])
        assert str(d) == "2*X1"

    def test_linear_in_f(self):
        rng = random.Random(50)
        for _ in range(10):
            f = random_poly(rng, PLANE)
            g = random_poly(rng, PLANE)
            x = random_point(rng, PLANE)
            df = differential_of_function(f, x)
            dg = differential_of_function(g, x)
            dsum = differential_of_function(f + g, x)
            assert dsum.coefficients() == tuple(
                a + b for a, b in zip(df.coefficients(), dg.coefficients())
            )

    def test_leibniz_at_the_point(self):
        rng = random.Random(51)
        for _ in range(10):
            f = random_poly(rng, PLANE)
            g = random_poly(rng, PLANE)
            x = random_point(rng, PLANE)
            dfg = differential_of_function(f * g, x)
            df = differential_of_function(f, x)
            dg = differential_of_function(g, x)
            fx, gx = f.at(x), g.at(x)
            assert dfg.coefficients() == tuple(
                fx * b + gx * a for a, b in zip(df.coefficients(), dg.coefficients())
            )

    def test_kills_squared_maximal_ideal(self):
        line = Context(even=["x"], odd=[])
        f = (line.var("x") - 1) ** 2
        assert differential_of_function(f, line.point([1])).is_zero()


class TestPointedVariety:
    def test_point_must_lie_on_variety(self):
        f = PLANE.var("x") ** 2 + PLANE.var("y") ** 2 - 1
        with pytest.raises(PointNotOnVariety):
            PointedVariety(PLANE, [f], PLANE.point([1, 1]))

    def test_mixed_generator_rejected(self):
        g = PLANE.var("x") + PLANE.var("xi")
        with pytest.raises(ParityError):
            PointedVariety(PLANE, [g], PLANE.point([0, 0]))

    def test_odd_generators_always_vanish(self):
        v = PointedVariety(PLANE, [cross_term()], PLANE.point([1, 1]))
        assert len(v.generators) == 1


class TestTangentSpace:
    def test_worked_odd_relation(self):
        v = PointedVariety(PLANE, [cross_term()], PLANE.point([1, 1]))
        result = tangent_space(v)
        assert result.dimension == SuperDim(2, 1)
        assert [str(r) for r in result.relations] == ["Xi + Eta"]

    def test_zero_ideal_gives_full_space(self):
        v = PointedVariety(PLANE, [], PLANE.point([0, 0]))
        result = tangent_space(v)
        assert result.dimension == SuperDim(2, 2)
        assert result.relations == []
        assert len(result.basis) == 4

    def test_sphere(self):
        even = sum(
            (SPHERE.var(n) ** 2 for n in ("x1", "x2", "x3")), SPHERE.zero()
        ) - 1
        odd = sum(
            (SPHERE.var(x) * SPHERE.var(s)
             for x, s in zip(("x1", "x2", "x3"), ("xi1", "xi2", "xi3"))),
            SPHERE.zero(),
        )
        v = PointedVariety(SPHERE, [even, odd], SPHERE.point([1, 0, 0]))
        result = tangent_space(v)
        assert result.dimension == SuperDim(2, 2)
        assert [str(r) for r in result.relations] == ["X1", "Xi1"]

    def test_basis_annihilates_generator_differentials(self):
        even = sum(
            (SPHERE.var(n) ** 2 for n in ("x1", "x2", "x3")), SPHERE.zero()
        ) - 1
        odd = sum(
            (SPHERE.var(x) * SPHERE.var(s)
             for x, s in zip(("x1", "x2", "x3"), ("xi1", "xi2", "xi3"))),
            SPHERE.zero(),
        )
        v = PointedVariety(SPHERE, [even, odd], SPHERE.point([1, 0, 0]))
        result = tangent_space(v)
        for g in v.generators:
            d = differential_of_function(g, v.point)
            for vec in result.basis:
                assert d.pairing(vec) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_basis_annihilates_differentials_not_in_echelon_form(self, seed):
        # dense integer differentials of both parities: the basis is read
        # from their reduced echelon form, not from the rows as given
        ctx = Context(even=["x", "y", "z"], odd=["xi", "eta", "zeta"])
        rng = random.Random(2400 + seed)
        point = random_point(rng, ctx)
        gens = []
        for parity in (Parity.EVEN, Parity.ODD):
            for _ in range(2):
                g = random_poly(rng, ctx, parity=parity, max_even_deg=2, n_terms=5)
                gens.append(g - g.at(point))
        v = PointedVariety(ctx, gens, point)
        result = tangent_space(v)
        assert len(result.basis) == sum(result.dimension)
        for g in v.generators:
            d = differential_of_function(g, v.point)
            for vec in result.basis:
                assert d.pairing(vec) == 0

    def test_row_space_invariance(self):
        a = PLANE.var("x") - 1
        b = PLANE.var("y")
        point = PLANE.point([1, 0])
        direct = tangent_space(PointedVariety(PLANE, [a, b], point))
        mixed = tangent_space(PointedVariety(PLANE, [a + 2 * b, 3 * b], point))
        assert direct.dimension == mixed.dimension
        assert direct.relations == mixed.relations


class TestLinearFormRendering:
    def test_signs_and_coefficients(self):
        form = LinearForm(PLANE, even=[Fraction(1, 2), -1], odd=[0, 3])
        assert str(form) == "1/2*X - Y + 3*Eta"

    def test_leading_minus(self):
        form = LinearForm(PLANE, even=[-1, 0])
        assert str(form) == "-X"


def test_linear_form_reads_only_none_as_a_zero_half():
    for even, odd in (([], [0, 1]), ([1, 0], []), ([], [])):
        with pytest.raises(ValueError, match="one coefficient per coordinate"):
            LinearForm(PLANE, even, odd)
    assert LinearForm(PLANE, None, [0, 1]).coefficients() == (0, 0, 0, 1)
    assert LinearForm(Context(odd=["xi"]), [], [1]).coefficients() == (1,)


def test_linear_form_floats_rejected():
    # Fraction(0.1) would store the binary float, not 1/10
    with pytest.raises(TypeError, match="inexact float"):
        LinearForm(PLANE, even=[0.1, 0])
    with pytest.raises(TypeError, match="inexact float"):
        LinearForm(PLANE, odd=[0, 0.5])


def test_a_form_and_a_vector_with_the_same_weights_differ():
    form = LinearForm(PLANE, even=[1, 0], odd=[0, Fraction(1, 2)])
    v = TangentVector(PLANE, even=[1, 0], odd=[0, Fraction(1, 2)])
    assert form != v and v != form
    assert form == LinearForm(PLANE, [1, 0], [0, Fraction(1, 2)])
    assert repr(form) == "LinearForm(X + 1/2*Eta)"
    assert repr(v) == "TangentVector(d/dx|_x + 1/2*d/deta|_x)"
    assert (form.even, form.odd) == ((1, 0), (0, Fraction(1, 2)))
    assert (v.even_coords, v.odd_coords) == ((1, 0), (0, Fraction(1, 2)))
    with pytest.raises(AttributeError):
        form.even = (0, 0)
    with pytest.raises(AttributeError):
        v.odd_coords = (0, 0)

"""Morphism tests: pullback substitution, composition, Jacobians.

The canonical chart example t -> t + theta1*theta2 was expanded by hand
(f + theta1*theta2*f' for f = t^3), and the Jacobian layout is pinned by
the worked example whose differential is the identity: rows follow the
SOURCE coordinates, so the chain rule multiplies d(phi) @ d(psi).
"""

import random
from fractions import Fraction

import pytest

from helpers import random_poly, random_point
from model import Monomial, from_terms
from supergeom import (
    Context,
    ContextMismatch,
    MapClass,
    Morphism,
    Parity,
    ParityError,
    RationalPoint,
    SuperDim,
    SuperMatrix,
    compose,
    differential_at,
    pullback,
)

LINE = Context(even=["t"], odd=[])
CHART = Context(even=["t"], odd=["theta1", "theta2"])


def chart_morphism():
    t = CHART.var("t")
    th1 = CHART.var("theta1")
    th2 = CHART.var("theta2")
    return Morphism(CHART, CHART, [t + th1 * th2, th1, th2])


def thick_point():
    t = CHART.var("t")
    th1 = CHART.var("theta1")
    th2 = CHART.var("theta2")
    return Morphism(CHART, LINE, [t + th1 * th2])


# chains of contexts A -> B -> C with different dimensions at each step
D12 = Context(even=["t"], odd=["theta1", "theta2"])
D21 = Context(even=["u1", "u2"], odd=["eta"])
D11 = Context(even=["s"], odd=["zeta"])
CHAINS = [(D12, D21, D11), (D11, D21, D12), (D21, D11, D12)]


def chain_id(chain):
    return "->".join("{}|{}".format(*ctx.dims) for ctx in chain)


class TestPullback:
    def test_taylor_shift(self):
        phi = thick_point()
        f = LINE.var("t") ** 3
        t = CHART.var("t")
        expect = t ** 3 + 3 * t ** 2 * CHART.var("theta1") * CHART.var("theta2")
        assert phi.pullback(f) == expect

    def test_identity_fixes_everything(self):
        rng = random.Random(40)
        ident = Morphism.identity(CHART)
        for _ in range(10):
            f = random_poly(rng, CHART)
            assert ident.pullback(f) == f

    def test_identity_fixes_exponents_above_the_power_cap(self):
        # t^2000 is a legal stored value though ^ in scripts stops at 1000
        ctx = Context(even=["t"], odd=["a"])
        f = from_terms(ctx, {Monomial(((0, 2000),), 1): 3, Monomial(((0, 1001),), 0): 1})
        assert Morphism.identity(ctx).pullback(f) == f

    def test_multiplicative_on_the_chart_example(self):
        phi = thick_point()
        g = LINE.var("t")
        h = LINE.var("t") ** 2
        assert phi.pullback(g * h) == phi.pullback(g) * phi.pullback(h)

    def test_algebra_homomorphism(self):
        rng = random.Random(41)
        phi = chart_morphism()
        for _ in range(15):
            f = random_poly(rng, CHART)
            g = random_poly(rng, CHART)
            assert phi.pullback(f + g) == phi.pullback(f) + phi.pullback(g)
            assert phi.pullback(f * g) == phi.pullback(f) * phi.pullback(g)
        assert phi.pullback(CHART.one()) == 1

    def test_preserves_parity(self):
        rng = random.Random(42)
        phi = chart_morphism()
        for parity in (Parity.EVEN, Parity.ODD):
            f = random_poly(rng, CHART, parity=parity)
            assert phi.pullback(f).has_parity(parity)

    def test_wrong_context_rejected(self):
        phi = thick_point()
        with pytest.raises(ContextMismatch):
            phi.pullback(CHART.var("t"))

    def test_module_function_matches_method(self):
        phi = thick_point()
        f = LINE.var("t") ** 2
        assert pullback(phi, f) == phi.pullback(f)


class TestValidation:
    def test_image_parity_checked(self):
        with pytest.raises(ParityError):
            Morphism(CHART, LINE, [CHART.var("theta1")])

    def test_image_count_checked(self):
        with pytest.raises(ValueError):
            Morphism(CHART, CHART, [CHART.var("t")])

    def test_image_context_checked(self):
        with pytest.raises(ContextMismatch):
            Morphism(CHART, LINE, [LINE.var("t")])

    def test_image_by_name(self):
        phi = chart_morphism()
        assert [phi.image(n) for n in CHART.names] == list(phi.images)
        with pytest.raises(ValueError, match="unknown generator 'zz'"):
            phi.image("zz")


class TestCompose:
    def test_identity_neutral(self):
        phi = chart_morphism()
        assert compose(Morphism.identity(CHART), phi) == phi
        assert compose(phi, Morphism.identity(CHART)) == phi

    def test_contravariant(self):
        rng = random.Random(43)
        phi = chart_morphism()
        psi = thick_point()
        for _ in range(10):
            f = random_poly(rng, LINE)
            assert compose(psi, phi).pullback(f) == phi.pullback(psi.pullback(f))

    def test_plug_mismatch(self):
        with pytest.raises(ContextMismatch):
            compose(chart_morphism(), thick_point())

    @pytest.mark.parametrize("chain", CHAINS, ids=chain_id)
    def test_contravariant_across_dimensions(self, chain):
        rng = random.Random(45)
        a, b, c = chain
        for _ in range(5):
            phi = random_morphism(rng, a, b)
            psi = random_morphism(rng, b, c)
            both = compose(psi, phi)
            assert (both.source, both.target) == (a, c)
            for _ in range(3):
                f = random_poly(rng, c)
                assert both.pullback(f) == phi.pullback(psi.pullback(f))


class TestDifferential:
    def test_chart_example_is_identity(self):
        phi = chart_morphism()
        for t0 in (0, 1, -3, Fraction(1, 2)):
            d = phi.differential_at(CHART.point([t0]))
            assert d == SuperMatrix.identity(CHART, (1, 2))

    def test_identity_morphism(self):
        ident = Morphism.identity(CHART)
        d = ident.differential_at(CHART.point([7]))
        assert d == SuperMatrix.identity(CHART, (1, 2))

    def test_linear_map_returns_its_matrix(self):
        src = Context(even=["t1", "t2"], odd=[])
        dst = Context(even=["s1", "s2"], odd=[])
        a = [[2, 3], [5, 7]]
        images = [
            a[0][0] * src.var("t1") + a[1][0] * src.var("t2"),
            a[0][1] * src.var("t1") + a[1][1] * src.var("t2"),
        ]
        phi = Morphism(src, dst, images)
        d = phi.differential_at(src.point([0, 0]))
        assert [[e.constant_term() for e in row] for row in d.rows] == [
            [Fraction(2), Fraction(3)],
            [Fraction(5), Fraction(7)],
        ]

    def test_shape_follows_row_layout(self):
        phi = thick_point()
        d = phi.differential_at(CHART.point([1]))
        assert d.target == SuperDim(1, 2)
        assert d.source == SuperDim(1, 0)

    def test_chain_rule(self):
        rng = random.Random(44)
        for _ in range(10):
            phi = random_morphism(rng, CHART, CHART)
            psi = random_morphism(rng, CHART, CHART)
            m = random_point(rng, CHART)
            lhs = compose(psi, phi).differential_at(m)
            rhs = phi.differential_at(m) @ psi.differential_at(phi.image_point(m))
            assert lhs == rhs

    @pytest.mark.parametrize("chain", CHAINS, ids=chain_id)
    def test_chain_rule_across_dimensions(self, chain):
        rng = random.Random(46)
        a, b, c = chain
        for _ in range(5):
            phi = random_morphism(rng, a, b)
            psi = random_morphism(rng, b, c)
            m = random_point(rng, a)
            lhs = compose(psi, phi).differential_at(m)
            # d(psi) lives over B; its entries are rationals, so carry it to A
            dpsi = psi.differential_at(phi.image_point(m))
            dpsi = SuperMatrix(a, dpsi.source, dpsi.target, [
                [a.scalar(e.constant_term()) for e in row] for row in dpsi.rows
            ])
            rhs = phi.differential_at(m) @ dpsi
            assert lhs.source == SuperDim(*c.dims)
            assert lhs.target == SuperDim(*a.dims)
            assert lhs == rhs

    def test_chain_rule_through_a_point(self):
        # CHART -> 0|0 -> 1|1: d(psi . phi) = d(phi) @ d(psi) = 0, full shape
        point = Context()
        target = Context(even=["s"], odd=["zeta"])
        phi = Morphism(CHART, point, [])
        psi = Morphism(point, target, [point.scalar(3), point.zero()])
        m = CHART.point([2])
        lhs = compose(psi, phi).differential_at(m)
        dpsi = psi.differential_at(phi.image_point(m))
        dpsi = SuperMatrix(CHART, dpsi.source, dpsi.target, [])
        assert lhs == phi.differential_at(m) @ dpsi
        assert lhs == SuperMatrix.zeros(CHART, (1, 1), (1, 2))

    def test_image_point(self):
        phi = thick_point()
        assert phi.image_point(CHART.point([4])) == LINE.point([4])


def random_morphism(rng, src, dst):
    images = []
    for _ in dst.even:
        images.append(random_poly(rng, src, parity=Parity.EVEN, max_even_deg=2))
    for _ in dst.odd:
        images.append(random_poly(rng, src, parity=Parity.ODD, max_even_deg=2))
    return Morphism(src, dst, images)


class TestClassify:
    def test_chart_example_diffeo(self):
        phi = chart_morphism()
        for t0 in (0, 2, -1):
            assert phi.classify_at(CHART.point([t0])) is MapClass.DIFFEO

    def test_inclusion_is_immersion(self):
        ambient = Context(even=["t"], odd=["theta1", "theta2"])
        line = Context(even=["t"], odd=[])
        phi = Morphism(line, ambient, [line.var("t"), line.zero(), line.zero()])
        assert phi.classify_at(line.point([3])) is MapClass.IMMERSION

    def test_projection_is_submersion(self):
        src = Context(even=["t", "s"], odd=["theta"])
        line = Context(even=["t"], odd=[])
        phi = Morphism(src, line, [src.var("t")])
        assert phi.classify_at(src.point([1, 2])) is MapClass.SUBMERSION

    def test_degenerate_point_is_none(self):
        line = Context(even=["t"], odd=[])
        phi = Morphism(line, line, [line.var("t") ** 2])
        assert phi.classify_at(line.point([0])) is None
        assert phi.classify_at(line.point([1])) is MapClass.DIFFEO

    def test_class_is_read_off_the_srank_of_the_differential(self):
        # classify_at ranks the two rational blocks without building the
        # SuperMatrix; it must agree with differential_at(m).srank()
        rng = random.Random(2202)
        dims = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)]
        seen = set()
        for (p, q), (r, s) in ((a, b) for a in dims for b in dims):
            src = Context(even=[f"s{i}" for i in range(p)],
                          odd=[f"sigma{j}" for j in range(q)])
            dst = Context(even=[f"t{i}" for i in range(r)],
                          odd=[f"tau{j}" for j in range(s)])

            def image(parity):
                if parity is Parity.ODD and not q:
                    return src.zero()
                return random_poly(rng, src, parity, max_even_deg=1,
                                   n_terms=rng.randint(0, 3), lo=-2, hi=2)

            for _ in range(4):
                phi = Morphism(src, dst, [image(Parity.EVEN) for _ in range(r)]
                               + [image(Parity.ODD) for _ in range(s)])
                m = random_point(rng, src, -2, 2)
                rank = phi.differential_at(m).srank()
                inj, surj = rank == SuperDim(p, q), rank == SuperDim(r, s)
                expect = (MapClass.DIFFEO if inj and surj else MapClass.IMMERSION
                          if inj else MapClass.SUBMERSION if surj else None)
                assert phi.classify_at(m) is expect, (phi, m)
                seen.add(expect)
        assert seen == {None, *MapClass}

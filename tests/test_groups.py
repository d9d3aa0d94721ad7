"""Group laws, their axioms, and left-invariant fields.

The running example is R^{1|1} with (t,theta)*(t',theta') =
(t+t'+theta*theta', theta+theta'); its left-invariant fields are
V1 = d/dt and V2 = -theta*d/dt + d/dtheta, with [V2,V2] = -2 d/dt.
A 1|2 variant (t+t'+theta1*theta1'+theta2*theta2', ...) exercises the
same machinery with two odd directions.
"""

import random

import pytest

from oracles import reference_infinitesimal_action, reference_iota
from supergeom import (
    Context,
    ContextMismatch,
    GroupLaw,
    Morphism,
    Parity,
    ParityError,
    SuperDerivation,
    TangentVector,
    bracket,
    check_group_axioms,
    infinitesimal_action,
    is_left_invariant,
    left_invariant_field,
    product_context,
)

G11 = Context(even=["t"], odd=["theta"])
G10 = Context(even=["t"], odd=[])
G12 = Context(even=["t"], odd=["theta1", "theta2"])
G20 = Context(even=["a", "b"])


def r11_law(with_inverse=True):
    gg = product_context(G11)
    t, th = gg.var("t"), gg.var("theta")
    tp, thp = gg.var("tp"), gg.var("thetap")
    mu = Morphism(gg, G11, [t + tp + th * thp, th + thp])
    inv = None
    if with_inverse:
        inv = Morphism(G11, G11, [-G11.var("t"), -G11.var("theta")])
    return GroupLaw(G11, mu, G11.point([0]), inv)


def additive_law():
    gg = product_context(G10)
    mu = Morphism(gg, G10, [gg.var("t") + gg.var("tp")])
    inv = Morphism(G10, G10, [-G10.var("t")])
    return GroupLaw(G10, mu, G10.point([0]), inv)


def r12_law():
    gg = product_context(G12)
    t, tp = gg.var("t"), gg.var("tp")
    th1, th1p = gg.var("theta1"), gg.var("theta1p")
    th2, th2p = gg.var("theta2"), gg.var("theta2p")
    mu = Morphism(
        gg, G12, [t + tp + th1 * th1p + th2 * th2p, th1 + th1p, th2 + th2p]
    )
    inv = Morphism(
        G12, G12,
        [-G12.var("t"), -G12.var("theta1"), -G12.var("theta2")],
    )
    return GroupLaw(G12, mu, G12.point([0]), inv)


def corrupted_law():
    # drops theta' from the odd coordinate: still has a left unit on t
    # but fails the left unit law on theta
    gg = product_context(G11)
    t, th = gg.var("t"), gg.var("theta")
    tp, thp = gg.var("tp"), gg.var("thetap")
    mu = Morphism(gg, G11, [t + tp + th * thp, th])
    return GroupLaw(G11, mu, G11.point([0]))


def affine_law():
    # the affine group (a, b)(a', b') = (aa', ab' + b) in the coordinates
    # (a, b - a^2): mu is quadratic in each factor's a and the unit is
    # (1, -1), so a field read off mu at the unit reads the unit's values
    gg = product_context(G20)
    a, b, ap, bp = (gg.var(n) for n in ("a", "b", "ap", "bp"))
    mu = Morphism(gg, G20, [a * ap, a * bp + a * ap ** 2 + b + a ** 2 - a ** 2 * ap ** 2])
    return GroupLaw(G20, mu, G20.point([1, -1]))


ALL_LAWS = [r11_law, additive_law, r12_law]


# -- contexts and construction ----------------------------------------------


def test_product_context_names():
    gg = product_context(G11)
    assert gg.even == ("t", "tp")
    assert gg.odd == ("theta", "thetap")
    triple = product_context(G11, copies=3)
    assert triple.even == ("t", "tp", "tpp")
    assert triple.odd == ("theta", "thetap", "thetapp")


def test_product_context_collision():
    bad = Context(even=["t", "tp"], odd=[])
    with pytest.raises(ValueError, match="collides"):
        product_context(bad)


def test_law_validation():
    gg = product_context(G11)
    mu = Morphism(gg, G11, [gg.var("t"), gg.var("theta")])
    with pytest.raises(ContextMismatch, match="unit"):
        GroupLaw(G11, mu, G10.point([0]))
    with pytest.raises(ContextMismatch, match="doubled"):
        GroupLaw(G11, Morphism.identity(G11), G11.point([0]))
    with pytest.raises(ContextMismatch, match="endomorphism"):
        GroupLaw(G11, mu, G11.point([0]),
                 inverse=Morphism(G10, G10, [G10.var("t")]))


# -- axioms ------------------------------------------------------------------


@pytest.mark.parametrize("make", ALL_LAWS)
def test_axioms_pass(make):
    reports = check_group_axioms(make())
    assert [r.axiom for r in reports] == ["associativity", "unit", "inverse"]
    assert all(r.passed for r in reports)
    assert all(r.residuals == () for r in reports)


def test_axioms_without_inverse():
    reports = check_group_axioms(r11_law(with_inverse=False))
    assert [r.axiom for r in reports] == ["associativity", "unit"]
    assert all(r.passed for r in reports)


def test_corrupted_law_fails_unit():
    reports = {r.axiom: r for r in check_group_axioms(corrupted_law())}
    unit = reports["unit"]
    assert not unit.passed
    residuals = dict(unit.residuals)
    # left unit: mu(e, g) should return theta but returns 0
    assert str(residuals["left at theta"]) == "-thetap"
    assert "left at t" not in residuals


def test_corrupted_law_fails_associativity():
    # the residual mu(mu(g, g'), g'') - mu(g, mu(g', g'')) reads both lifts
    # of the law into the tripled context
    reports = {r.axiom: r for r in check_group_axioms(corrupted_law())}
    assert not reports["associativity"].passed
    assert str(reports["associativity"]) == (
        "associativity: FAIL (t: theta*thetapp - thetap*thetapp)"
    )


def test_wrong_inverse_reported():
    gg = product_context(G10)
    mu = Morphism(gg, G10, [gg.var("t") + gg.var("tp")])
    inv = Morphism(G10, G10, [G10.var("t")])  # not an inversion
    law = GroupLaw(G10, mu, G10.point([0]), inv)
    reports = {r.axiom: r for r in check_group_axioms(law)}
    assert not reports["inverse"].passed
    assert str(dict(reports["inverse"].residuals)["t"]) == "2*t"


def test_report_rendering():
    reports = check_group_axioms(additive_law())
    assert str(reports[0]) == "associativity: pass"
    bad = {r.axiom: r for r in check_group_axioms(corrupted_law())}
    assert str(bad["unit"]).startswith("unit: FAIL (")
    assert "left at theta: -thetap" in str(bad["unit"])


# -- left-invariant fields ----------------------------------------------------


def test_livf_r11_even_direction():
    law = r11_law()
    v = TangentVector.coordinate(G11, "t")
    assert str(left_invariant_field(law, v)) == "d/dt"


def test_livf_r11_odd_direction():
    law = r11_law()
    v = TangentVector.coordinate(G11, "theta")
    field = left_invariant_field(law, v)
    assert str(field) == "-theta*d/dt + d/dtheta"
    assert field.parity is Parity.ODD


def test_livf_additive():
    law = additive_law()
    v = TangentVector.coordinate(G10, "t")
    assert str(left_invariant_field(law, v)) == "d/dt"


def test_livf_requires_homogeneous():
    law = r11_law()
    with pytest.raises(ParityError):
        left_invariant_field(law, TangentVector(G11, [1], [1]))


def test_livf_wrong_context():
    with pytest.raises(ContextMismatch):
        left_invariant_field(r11_law(), TangentVector.coordinate(G10, "t"))


@pytest.mark.parametrize("make", ALL_LAWS)
def test_livf_value_at_unit_recovers_v(make):
    # the field built from v must restrict back to v at e
    law = make()
    g = law.coords
    for name in g.even + g.odd:
        v = TangentVector.coordinate(g, name)
        field = left_invariant_field(law, v)
        values = [c.at(law.unit) for c in field.coefficients()]
        m = len(g.even)
        assert TangentVector(g, values[:m], values[m:]) == v


@pytest.mark.parametrize("make", ALL_LAWS)
def test_livf_is_left_invariant(make):
    law = make()
    g = law.coords
    for name in g.even + g.odd:
        field = left_invariant_field(law, TangentVector.coordinate(g, name))
        assert is_left_invariant(field, law)


def test_coordinate_field_not_invariant():
    law = r11_law()
    assert not is_left_invariant(SuperDerivation.coordinate(G11, "theta"), law)


def test_constant_fields_invariant_on_additive_group():
    law = additive_law()
    assert is_left_invariant(SuperDerivation.coordinate(G10, "t"), law)
    tripled = SuperDerivation(G10, Parity.EVEN, [G10.scalar(3)], [])
    assert is_left_invariant(tripled, law)


@pytest.mark.parametrize("make", ALL_LAWS)
def test_bracket_of_invariant_fields_is_invariant(make):
    law = make()
    g = law.coords
    fields = [
        left_invariant_field(law, TangentVector.coordinate(g, n))
        for n in g.even + g.odd
    ]
    for a in fields:
        for b in fields:
            assert is_left_invariant(bracket(a, b), law)


def test_r11_structure_constants():
    # [V2,V2] = -2 d/dt, [V1,V2] = 0
    law = r11_law()
    v1 = left_invariant_field(law, TangentVector.coordinate(G11, "t"))
    v2 = left_invariant_field(law, TangentVector.coordinate(G11, "theta"))
    assert str(bracket(v2, v2)) == "-2*d/dt"
    assert bracket(v1, v2).is_zero()


def test_random_tangent_vectors_stay_invariant():
    rng = random.Random(7)
    law = r12_law()
    for _ in range(10):
        if rng.random() < 0.5:
            v = TangentVector(G12, [rng.randint(-4, 4)], [0, 0])
        else:
            v = TangentVector(
                G12, [0], [rng.randint(-4, 4), rng.randint(-4, 4)]
            )
        field = left_invariant_field(law, v)
        assert is_left_invariant(field, law)


def test_fields_read_the_unit_where_mu_is_not_linear_in_a_factor():
    law = affine_law()
    assert all(r.passed for r in check_group_axioms(law))
    a, b = G20.var("a"), G20.var("b")
    da, db = (TangentVector.coordinate(G20, n) for n in G20.names)
    x = left_invariant_field(law, da)
    y = left_invariant_field(law, db)
    assert x.coefficients() == (a, 2 * a - 2 * a ** 2)
    assert y.coefficients() == (G20.zero(), a)
    for v, field in ((da, x), (db, y)):
        assert field == reference_infinitesimal_action(law, reference_iota(law), v)
        assert is_left_invariant(field, law)
    assert not is_left_invariant(SuperDerivation.coordinate(G20, "a"), law)
    assert bracket(x, y) == y
    # the right-invariant field differentiates mu's first factor at the unit
    assert infinitesimal_action(law, law.mu, da).coefficients() == (a, b - a ** 2 + 2)


# -- infinitesimal actions -----------------------------------------------------


def test_action_of_group_on_itself_even():
    law = r11_law()
    rho = infinitesimal_action(law, law.mu, TangentVector.coordinate(G11, "t"))
    assert str(rho) == "d/dt"


def test_action_of_group_on_itself_odd():
    # right-invariant counterpart of V2: opposite sign on the theta term
    law = r11_law()
    rho = infinitesimal_action(
        law, law.mu, TangentVector.coordinate(G11, "theta")
    )
    assert str(rho) == "theta*d/dt + d/dtheta"
    assert rho.parity is Parity.ODD


def test_trivial_action_gives_zero_field():
    law = r11_law()
    gg = law.mu.source
    proj = Morphism(gg, G11, [gg.var("tp"), gg.var("thetap")])
    for name in ("t", "theta"):
        rho = infinitesimal_action(law, proj, TangentVector.coordinate(G11, name))
        assert rho.is_zero()


@pytest.mark.parametrize("make", ALL_LAWS)
def test_zero_vector_gives_the_zero_field(make):
    law = make()
    g = law.coords
    for sigma in (law.mu, reference_iota(law)):
        rho = infinitesimal_action(law, sigma, TangentVector(g))
        assert rho.is_zero()
        assert rho.parity is Parity.EVEN
        assert len(rho.coefficients()) == len(g.names)
    assert is_left_invariant(left_invariant_field(law, TangentVector(g)), law)


def test_action_source_split_validated():
    law = r11_law()
    scrambled = Context(even=["s", "t"], odd=["theta", "thetap"])
    sigma = Morphism(scrambled, G11,
                     [scrambled.var("t"), scrambled.var("theta")])
    with pytest.raises(ValueError, match="start with the group coordinates"):
        infinitesimal_action(law, sigma, TangentVector.coordinate(G11, "t"))

    too_small = Context(even=["t"], odd=["theta"])
    sigma2 = Morphism(too_small, G11,
                      [too_small.var("t"), too_small.var("theta")])
    with pytest.raises(ValueError, match="copy of its target"):
        infinitesimal_action(law, sigma2, TangentVector.coordinate(G11, "t"))


def test_action_anti_morphism_on_r11():
    # rho([v,w]) = -[rho(v), rho(w)] with [v,w] read off the invariant fields
    law = r11_law()

    def rho(v):
        return infinitesimal_action(law, law.mu, v)

    def at_unit(field):
        values = [c.at(law.unit) for c in field.coefficients()]
        return TangentVector(G11, values[:1], values[1:])

    basis = [TangentVector.coordinate(G11, n) for n in ("t", "theta")]
    for v in basis:
        for w in basis:
            lie_vw = at_unit(
                bracket(
                    left_invariant_field(law, v), left_invariant_field(law, w)
                )
            )
            lhs = rho(lie_vw)
            rhs = bracket(rho(v), rho(w))
            assert [str(c) for c in lhs.coefficients()] == [
                str(-c) for c in rhs.coefficients()
            ]

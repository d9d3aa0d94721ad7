"""check_group_axioms and compose against the form they replaced.

check_group_axioms substitutes mu's images as one tuple per side of an
axiom, through one memo of image powers; oracles.reference_check_group_axioms
runs one reference_substitute per polynomial and side, and builds the
unit's left and right residuals coordinate by coordinate.  The reports
must agree in names, verdicts, residual labels and polynomials in order,
and in their text, on every test law, on laws that fail the unit on the
left, on the right and at the inversion, and on seeded broken laws.
compose pulls psi's images back as one tuple; each must be
reference_substitute of that image.
"""

import random

import pytest

from helpers import broken_law, random_chain
from oracles import reference_check_group_axioms, reference_substitute
from supergeom import (Context, GroupLaw, Morphism, check_group_axioms, compose,
                       product_context)
from test_derivation_reference import LAW_SHAPES, heisenberg_law, twisted_law
from test_groups import (G11, G20, additive_law, affine_law, corrupted_law, r11_law,
                         r12_law)


def additive_2d(unit=(0, 0), left=0, right=0):
    # (a + a' + left*a'^2 + right*a^2, b + b') on G20: left breaks
    # mu(e, g') = g' at a, right breaks mu(g, e) = g, a unit off 0 both
    gg = product_context(G20)
    a, b, ap, bp = (gg.var(n) for n in ("a", "b", "ap", "bp"))
    mu = Morphism(gg, G20, [a + ap + left * ap ** 2 + right * a ** 2, b + bp])
    inv = Morphism(G20, G20, [-G20.var("a"), -G20.var("b")])
    return GroupLaw(G20, mu, G20.point(list(unit)), inv)


def wrong_inverse_law():
    law = r11_law()
    return GroupLaw(G11, law.mu, law.unit, Morphism(G11, G11, [G11.var("t"), -G11.var("theta")]))


LAWS = {
    "r11": r11_law,
    "r11 without inverse": lambda: r11_law(with_inverse=False),
    "additive": additive_law,
    "r12": r12_law,
    "affine": affine_law,
    "corrupted": corrupted_law,
    "left unit broken": lambda: additive_2d(left=2),
    "right unit broken": lambda: additive_2d(right=-1),
    "unit off 0": lambda: additive_2d(unit=(1, 1)),
    "inverse broken": wrong_inverse_law,
}
for shape in LAW_SHAPES:
    LAWS[f"heisenberg {shape}"] = (
        lambda shape=shape: heisenberg_law(random.Random(3000 + 10 * shape[0] + shape[1]), *shape))
    LAWS[f"twisted {shape}"] = (
        lambda shape=shape: twisted_law(random.Random(3100 + 10 * shape[0] + shape[1]), *shape))


def assert_same_reports(law):
    got = check_group_axioms(law)
    want = reference_check_group_axioms(law)
    assert got == want
    for g, w in zip(got, want):
        for (_, p), (_, q) in zip(g.residuals, w.residuals):
            assert p.ctx is q.ctx
    assert [str(r) for r in got] == [str(r) for r in want]
    return got


@pytest.mark.parametrize("name", LAWS)
def test_axioms_match_the_reference(name):
    assert_same_reports(LAWS[name]())


@pytest.mark.parametrize("seed", range(40))
def test_axioms_of_broken_laws_match_the_reference(seed):
    assert_same_reports(broken_law(random.Random(seed)))


def test_each_side_of_the_unit_fails_alone():
    rows = {name: {r.axiom: [label for label, _ in r.residuals]
                   for r in assert_same_reports(LAWS[name]())}
            for name in ("left unit broken", "right unit broken", "inverse broken")}
    assert rows["left unit broken"]["unit"] == ["left at a"]
    assert rows["right unit broken"]["unit"] == ["right at a"]
    assert rows["inverse broken"] == {"associativity": [], "unit": [], "inverse": ["t"]}


def test_unit_rows_alternate_left_and_right():
    unit = assert_same_reports(additive_2d(unit=(1, 1)))[1]
    assert [label for label, _ in unit.residuals] == [
        "left at a", "right at a", "left at b", "right at b"]
    assert str(unit) == "unit: FAIL (left at a: 1; right at a: 1; left at b: 1; right at b: 1)"


@pytest.mark.parametrize("seed", range(30))
def test_compose_matches_the_reference(seed):
    psi, phi = random_chain(random.Random(seed))
    got = compose(psi, phi)
    assert got.source is phi.source and got.target is psi.target
    assert got.images == tuple(reference_substitute(img, phi.source, phi.image_map())
                               for img in psi.images)


def test_compose_into_an_empty_target():
    m = Context(even=["x"], odd=["theta"])
    empty = Context()
    phi = Morphism(m, m, [m.var("x") ** 2, m.var("theta")])
    assert compose(Morphism(m, empty, []), phi).images == ()

"""JSON round-trips.

The encoding writes coefficients as exact-rational strings and matrix
entries, morphism images, and field coefficients as canonical renderings,
so from_json(to_json(v)) == v must hold for every supported value.  The
frozen shapes: theta1*theta2 is a single term with coeff "1" and odd
indices [1, 2]; the 1|1 identity matrix has dims "1|1->1|1" and entries
["1", "0", "0", "1"].
"""

import json
import random

import pytest

from helpers import random_poly, random_supermatrix
from supergeom import (
    Context,
    GroupLaw,
    Morphism,
    Parity,
    PointedVariety,
    SuperDerivation,
    SuperDim,
    SuperMatrix,
    product_context,
)
from supergeom.serialize import from_json, to_json

CTX = Context(even=["t", "x"], odd=["theta1", "theta2"])


def roundtrip(value):
    # through actual JSON text, not just the dict
    return from_json(json.loads(json.dumps(to_json(value))))


def test_poly_term_shape():
    data = to_json(CTX.var("theta1") * CTX.var("theta2"))
    assert data["type"] == "poly"
    assert data["terms"] == [{"coeff": "1", "even": [], "odd": [1, 2]}]


def test_poly_even_exponents_are_sparse_pairs():
    p = CTX.var("x") ** 3 * CTX.var("t") * -2
    data = to_json(p)
    assert data["terms"] == [{"coeff": "-2", "even": [[1, 1], [2, 3]], "odd": []}]


def test_identity_matrix_shape():
    data = to_json(SuperMatrix.identity(CTX, SuperDim(1, 1)))
    assert data["dims"] == "1|1->1|1"
    assert data["parity"] == "even"
    assert data["entries"] == ["1", "0", "0", "1"]


def test_context_roundtrip():
    assert roundtrip(CTX) == CTX
    empty = Context()
    assert roundtrip(empty) == empty


def test_poly_roundtrip_random():
    rng = random.Random(11)
    for _ in range(100):
        p = random_poly(rng, CTX, max_even_deg=3, n_terms=4)
        assert roundtrip(p) == p


def test_matrix_roundtrip_random():
    rng = random.Random(12)
    for _ in range(100):
        dims = (
            SuperDim(rng.randint(0, 2), rng.randint(0, 2)),
            SuperDim(rng.randint(1, 2), rng.randint(1, 2)),
        )
        parity = rng.choice([Parity.EVEN, Parity.ODD])
        m = random_supermatrix(rng, CTX, dims[0], dims[1], parity=parity)
        back = roundtrip(m)
        assert back == m
        assert back.parity is m.parity


def test_morphism_roundtrip():
    src = Context(even=["t"], odd=["theta1", "theta2"])
    chart = Morphism(
        src, src,
        [src.var("t") + src.var("theta1") * src.var("theta2"),
         src.var("theta1"), src.var("theta2")],
    )
    assert roundtrip(chart) == chart


def test_field_roundtrip():
    g = Context(even=["t"], odd=["theta"])
    v2 = SuperDerivation(g, Parity.ODD, [-g.var("theta")], [g.one()])
    back = roundtrip(v2)
    assert back.parity is v2.parity
    assert back.coefficients() == v2.coefficients()


def _r11_law(with_inverse):
    g = Context(even=["t"], odd=["theta"])
    gg = product_context(g)
    mu = Morphism(
        gg, g,
        [gg.var("t") + gg.var("tp") + gg.var("theta") * gg.var("thetap"),
         gg.var("theta") + gg.var("thetap")],
    )
    inv = None
    if with_inverse:
        inv = Morphism(g, g, [-g.var("t"), -g.var("theta")])
    return GroupLaw(g, mu, g.point([0]), inv)


@pytest.mark.parametrize("with_inverse", [True, False])
def test_group_roundtrip(with_inverse):
    law = _r11_law(with_inverse)
    back = roundtrip(law)
    assert back.coords == law.coords
    assert back.mu == law.mu
    assert back.unit == law.unit
    if with_inverse:
        assert back.inverse == law.inverse
    else:
        assert back.inverse is None


def test_variety_roundtrip():
    ctx = Context(even=["x", "y"], odd=["xi", "eta"])
    v = PointedVariety(
        ctx,
        [ctx.var("x") * ctx.var("xi") + ctx.var("y") * ctx.var("eta")],
        ctx.point([1, 1]),
    )
    back = roundtrip(v)
    assert back.ambient == v.ambient
    assert back.generators == v.generators
    assert back.point == v.point


def test_fractional_coefficients_survive():
    p = CTX.var("t") / 3 - CTX.scalar(7) / 2
    data = to_json(p)
    assert {t["coeff"] for t in data["terms"]} == {"1/3", "-7/2"}
    assert roundtrip(p) == p


def test_unsupported_values_rejected():
    with pytest.raises(TypeError, match="cannot serialize"):
        to_json(object())
    with pytest.raises(ValueError, match="cannot deserialize"):
        from_json({"type": "nonsense"})
    with pytest.raises(ValueError, match="bad dims header"):
        from_json({
            "type": "matrix",
            "context": {"even": [], "odd": []},
            "dims": "1x1",
            "parity": "even",
            "entries": [],
        })


def _tamper(value, mutate):
    data = json.loads(json.dumps(to_json(value)))
    mutate(data)
    return data


def test_float_coefficient_rejected():
    def mutate(data):
        data["terms"][0]["coeff"] = 0.1
    data = _tamper(CTX.var("t") / 10, mutate)
    with pytest.raises(ValueError, match="as a string"):
        from_json(data)


def test_float_unit_rejected():
    data = _tamper(_r11_law(False), lambda d: d.__setitem__("unit", [0.0]))
    with pytest.raises(ValueError, match="as a string"):
        from_json(data)


def test_float_point_rejected():
    ctx = Context(even=["x"], odd=["xi"])
    v = PointedVariety(ctx, [ctx.var("x") - 1], ctx.point([1]))
    data = _tamper(v, lambda d: d.__setitem__("point", [1.0]))
    with pytest.raises(ValueError, match="as a string"):
        from_json(data)


@pytest.mark.parametrize("parity", ["bogus", "ODD", None, 1])
def test_matrix_bad_parity_rejected(parity):
    m = SuperMatrix.identity(CTX, SuperDim(1, 1))
    data = _tamper(m, lambda d: d.__setitem__("parity", parity))
    with pytest.raises(ValueError, match="bad parity"):
        from_json(data)


@pytest.mark.parametrize("parity", ["bogus", "Even", None])
def test_field_bad_parity_rejected(parity):
    g = Context(even=["t"], odd=["theta"])
    v = SuperDerivation(g, Parity.EVEN, [g.one()], [g.zero()])
    data = _tamper(v, lambda d: d.__setitem__("parity", parity))
    with pytest.raises(ValueError, match="bad parity"):
        from_json(data)


@pytest.mark.parametrize("slot, index", [
    ("even", 0), ("even", -1), ("even", 3), ("odd", 0), ("odd", 3),
])
def test_generator_index_out_of_range_rejected(slot, index):
    data = to_json(CTX.var("x") * CTX.var("theta2"))
    term = data["terms"][0]
    if slot == "even":
        term["even"] = [[index, 1]]
    else:
        term["odd"] = [index]
    with pytest.raises(ValueError, match="generator index"):
        from_json(data)

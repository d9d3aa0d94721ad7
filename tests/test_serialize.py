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
from model import Monomial, from_terms
from supergeom import (
    Context,
    GroupLaw,
    Morphism,
    Parity,
    PointedVariety,
    SuperDerivation,
    SuperDim,
    SuperMatrix,
    ScriptError,
    product_context,
)
from supergeom.poly import MAX_FIELD_EXPONENT
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


def test_poly_roundtrip_keeps_exponents_past_the_power_cap():
    # a product reaches exponents that ** refuses; the reader must not
    # go through ** to rebuild them
    t = CTX.var("t")
    top = from_terms(CTX, {Monomial([(0, MAX_FIELD_EXPONENT), (1, 1)], 0): -3})
    p = (t**1000) ** 2 * CTX.var("theta2") + top
    assert to_json(p)["terms"][0]["even"] == [[1, MAX_FIELD_EXPONENT], [2, 1]]
    assert to_json(p)["terms"][1]["even"] == [[1, 2000]]
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
    ("even", True), ("odd", True), ("odd", "1"),
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


def _number_in(field):
    """A valid encoding whose first text under `field` is a JSON number."""
    g = Context(even=["t"], odd=["theta"])
    values = {
        "entries": SuperMatrix.identity(CTX, SuperDim(1, 1)),
        "images": Morphism(g, g, [g.var("t"), g.var("theta")]),
        "coefficients": SuperDerivation(g, Parity.EVEN, [g.one()], [g.zero()]),
        "mu": _r11_law(True),
        "inverse": _r11_law(True),
        "generators": PointedVariety(g, [g.var("t") - 1], g.point([1])),
    }

    def mutate(data):
        data[field][0] = 0.5

    return _tamper(values[field], mutate)


@pytest.mark.parametrize("field", [
    "entries", "images", "coefficients", "mu", "inverse", "generators",
])
def test_number_for_polynomial_text_rejected(field):
    with pytest.raises(ValueError, match="polynomial written as a string"):
        from_json(_number_in(field))


def _poly_with(mutate):
    return _tamper(CTX.var("t") ** 2 * CTX.var("theta1") + 1, mutate)


def _term(key, value):
    return _poly_with(lambda d: d["terms"][0].__setitem__(key, value))


_MATRIX = SuperMatrix.identity(CTX, SuperDim(1, 1))
_FIELD = SuperDerivation(CTX, Parity.EVEN, [CTX.one(), CTX.zero()],
                         [CTX.zero(), CTX.zero()])


@pytest.mark.parametrize("data, message", [
    ("abc", "value: expected an object, got str"),
    ([], "value: expected an object, got list"),
    (None, "value: expected an object, got NoneType"),
    ({}, "missing key 'type'"),
    ({"type": 3}, "key 'type': expected a string, got int"),
    ({"type": "poly"}, "missing key 'context'"),
    ({"type": "context", "even": ["t"]}, "missing key 'odd'"),
    ({"type": "context", "even": "tx", "odd": []}, "key 'even': expected an array"),
    ({"type": "context", "even": [1], "odd": []}, "key 'even': expected a string, got int"),
    (_poly_with(lambda d: d.__setitem__("context", [])),
     "key 'context': expected an object, got list"),
    (_poly_with(lambda d: d.__setitem__("terms", {})), "key 'terms': expected an array"),
    (_poly_with(lambda d: d["terms"].__setitem__(0, "t")), "term: expected an object, got str"),
    (_poly_with(lambda d: d["terms"][0].pop("odd")), "missing key 'odd'"),
    (_term("even", [[1]]), r"expected \[index, exponent\] pairs"),
    (_term("even", [1, 2]), r"expected \[index, exponent\] pairs"),
    (_term("even", [[1, "2"]]), "exponent: expected an integer, got str"),
    (_term("even", [[1, True]]), "exponent: expected an integer, got bool"),
    (_term("odd", 1), "key 'odd': expected an array, got int"),
    (_tamper(_MATRIX, lambda d: d.__setitem__("dims", 11)), "key 'dims': expected a string"),
    (_tamper(_MATRIX, lambda d: d.__setitem__("entries", "1001")),
     "key 'entries': expected an array, got str"),
    (_tamper(_MATRIX, lambda d: d["entries"].append("0")),
     "key 'entries': expected 4 polynomials, got 5"),
    (_tamper(_FIELD, lambda d: d.__setitem__("coefficients", [])),
     "key 'coefficients': expected 4 polynomials, got 0"),
    (_tamper(_r11_law(False), lambda d: d.__setitem__("unit", "0")),
     "key 'unit': expected an array, got str"),
    (_tamper(_r11_law(True), lambda d: d.__setitem__("inverse", None)),
     "key 'inverse': expected an array, got NoneType"),
    (_tamper(PointedVariety(CTX, [CTX.var("t")], CTX.point([0, 1])),
             lambda d: d.pop("point")), "missing key 'point'"),
    # term lists to_json never writes
    (_term("odd", [1, 1]), "key 'odd': generator indices are not strictly increasing"),
    (_term("odd", [2, 1]), "key 'odd': generator indices are not strictly increasing"),
    (_term("even", [[1, 1], [1, 2]]),
     "key 'even': generator indices are not strictly increasing"),
    (_term("even", [[2, 1], [1, 1]]),
     "key 'even': generator indices are not strictly increasing"),
    (_term("even", [[1, 0]]), "key 'even': exponent 0 outside 1..8388607"),
    (_term("even", [[1, 2**23]]), "key 'even': exponent 8388608 outside 1..8388607"),
    (_term("coeff", "0"), "key 'coeff': zero coefficient"),
    (_term("coeff", "-0/3"), "key 'coeff': zero coefficient"),
    (_poly_with(lambda d: d["terms"].append(dict(d["terms"][1], coeff="-1"))),
     "key 'terms': a monomial repeats"),
    (_poly_with(lambda d: d["terms"].append(dict(d["terms"][0]))),
     "key 'terms': a monomial repeats"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_malformed_structure_raises_value_error_naming_the_fault(data, message):
    with pytest.raises(ValueError, match=message):
        from_json(data)


@pytest.mark.parametrize("data", [
    _term("coeff", "1/"),
    _tamper(_MATRIX, lambda d: d["entries"].__setitem__(0, "1 +")),
    _tamper(_r11_law(False), lambda d: d.__setitem__("unit", ["x"])),
])
def test_bad_text_keeps_its_kernel_error(data):
    with pytest.raises(ScriptError):
        from_json(data)

"""Lossless JSON encoding of every value a script can bind.

Coefficients and point coordinates are strings ("-3/2") so nothing ever
passes through floats.  Generator indices are 1-based to match the way
the values are written: theta1*theta2 carries odd indices [1, 2].
Matrix entries, morphism images, and field coefficients are stored as
canonical renderings and re-read with the expression parser, which is
exact because printing and parsing are mutually inverse.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .expr import parse_poly, parse_rational
from .groups import GroupLaw, product_context
from .matrix import SuperDim, SuperMatrix
from .morphism import Morphism
from .derivation import SuperDerivation
from .poly import MAX_FIELD_EXPONENT, Context, Parity, RationalPoint, SuperPoly
from .variety import PointedVariety

_DIMS = re.compile(r"^(\d+)\|(\d+)->(\d+)\|(\d+)$")
_PARITIES = {"even": Parity.EVEN, "odd": Parity.ODD}


_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _expect(value, kind, where):
    # bool is an int subclass, but true is no index or exponent
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{where}: expected {_KINDS[kind]}, got {type(value).__name__}")
    return value


def _get(data, key, kind=None):
    """data[key], checked to be of kind when kind is given; ValueError
    naming the key when it is missing or of another kind."""
    if key not in data:
        raise ValueError(f"missing key {key!r}")
    value = data[key]
    return value if kind is None else _expect(value, kind, f"key {key!r}")


def _rational(text) -> Fraction:
    # a JSON number may be a float; only the string form is exact
    if not isinstance(text, str):
        raise ValueError(f"expected a rational written as a string, got {text!r}")
    return parse_rational(text)


def _rationals(data, key) -> list[Fraction]:
    return [_rational(text) for text in _get(data, key, list)]


def _polys(data, key, ctx: Context, count=None) -> list[SuperPoly]:
    """The polynomials written as text under data[key], count of them
    when count is given."""
    texts = _get(data, key, list)
    if count is not None and len(texts) != count:
        raise ValueError(f"key {key!r}: expected {count} polynomials, got {len(texts)}")
    # parse_poly takes text only; a JSON number would fail inside it
    for text in texts:
        if not isinstance(text, str):
            raise ValueError(f"expected a polynomial written as a string, got {text!r}")
    return [parse_poly(text, ctx) for text in texts]


def _index(names, index) -> int:
    """The 0-based position of a 1-based generator index into names."""
    # 0 or a negative index would wrap around silently
    if type(index) is not int or not 1 <= index <= len(names):
        raise ValueError(f"generator index {index!r} outside 1..{len(names)}")
    return index - 1


def _parity(text) -> Parity:
    parity = _PARITIES.get(text) if isinstance(text, str) else None
    if parity is None:
        raise ValueError(f"bad parity {text!r}; expected 'even' or 'odd'")
    return parity


def _ctx_json(ctx: Context):
    return {"even": list(ctx.even), "odd": list(ctx.odd)}


def _ctx_load(data) -> Context:
    even, odd = (
        [_expect(name, str, f"key {slot!r}") for name in _get(data, slot, list)]
        for slot in ("even", "odd")
    )
    return Context(even=even, odd=odd)


def _poly_terms(p: SuperPoly):
    out = []
    for mono, coeff in p.terms.items():
        out.append({
            "coeff": str(coeff),
            "even": [[i + 1, e] for i, e in mono.even],
            "odd": [j + 1 for j in mono.odd],
        })
    return out


def _even_pair(ctx: Context, pair) -> tuple[int, int]:
    """(0-based index, exponent) from an [index, exponent] pair."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValueError(f"key 'even': expected [index, exponent] pairs, got {pair!r}")
    i, e = pair
    i = _index(ctx.even, i)
    if not 1 <= _expect(e, int, "exponent") <= MAX_FIELD_EXPONENT:
        raise ValueError(f"key 'even': exponent {e} outside 1..{MAX_FIELD_EXPONENT}")
    return i, e


def _poly_load(ctx: Context, terms) -> SuperPoly:
    """The polynomial of a term list as _poly_terms writes it: nonzero
    coefficients, generator indices strictly increasing within each
    term, and no monomial twice."""
    coeffs = {}
    for t in terms:
        _expect(t, dict, "term")
        coeff = _rational(_get(t, "coeff"))
        if not coeff:
            raise ValueError("key 'coeff': zero coefficient")
        even = [_even_pair(ctx, pair) for pair in _get(t, "even", list)]
        odd = [_index(ctx.odd, j) for j in _get(t, "odd", list)]
        for key, indices in (("even", [i for i, _ in even]), ("odd", odd)):
            if any(a >= b for a, b in zip(indices, indices[1:])):
                raise ValueError(
                    f"key {key!r}: generator indices are not strictly increasing"
                )
        mono = tuple(even), tuple(odd)
        if mono in coeffs:
            raise ValueError("key 'terms': a monomial repeats")
        coeffs[mono] = coeff
    return SuperPoly._from_terms(ctx, [(*mono, c) for mono, c in coeffs.items()])


def to_json(value):
    """Encode a context, polynomial, matrix, morphism, field, group law,
    or pointed variety as JSON-ready data."""
    if isinstance(value, Context):
        return {"type": "context", **_ctx_json(value)}
    if isinstance(value, SuperPoly):
        return {
            "type": "poly",
            "context": _ctx_json(value.ctx),
            "terms": _poly_terms(value),
        }
    if isinstance(value, SuperMatrix):
        return {
            "type": "matrix",
            "context": _ctx_json(value.ctx),
            "dims": f"{value.source}->{value.target}",
            "parity": str(value.parity),
            "entries": [str(e) for row in value.rows for e in row],
        }
    if isinstance(value, Morphism):
        return {
            "type": "morphism",
            "source": _ctx_json(value.source),
            "target": _ctx_json(value.target),
            "images": [str(img) for img in value.images],
        }
    if isinstance(value, SuperDerivation):
        return {
            "type": "field",
            "context": _ctx_json(value.ctx),
            "parity": str(value.parity),
            "coefficients": [str(c) for c in value.coefficients()],
        }
    if isinstance(value, GroupLaw):
        data = {
            "type": "group",
            "coords": _ctx_json(value.coords),
            "mu": [str(img) for img in value.mu.images],
            "unit": [str(v) for v in value.unit.even_values],
        }
        if value.inverse is not None:
            data["inverse"] = [str(img) for img in value.inverse.images]
        return data
    if isinstance(value, PointedVariety):
        return {
            "type": "variety",
            "ambient": _ctx_json(value.ambient),
            "generators": [str(g) for g in value.generators],
            "point": [str(v) for v in value.point.even_values],
        }
    raise TypeError(f"cannot serialize {type(value).__name__}")


def from_json(data):
    """Rebuild the value encoded by to_json.

    Malformed structure (a value that is not an object, a missing key, a
    key or array item of the wrong JSON kind, or the wrong number of
    entries) raises ValueError naming the key or the expected kind, and
    so does a term list to_json never writes (see _poly_load); bad
    polynomial or rational text raises ScriptError, a KernelError.
    """
    _expect(data, dict, "value")
    kind = _get(data, "type", str)
    if kind == "context":
        return _ctx_load(data)
    if kind == "poly":
        ctx = _ctx_load(_get(data, "context", dict))
        return _poly_load(ctx, _get(data, "terms", list))
    if kind == "matrix":
        ctx = _ctx_load(_get(data, "context", dict))
        dims = _get(data, "dims", str)
        m = _DIMS.match(dims)
        if not m:
            raise ValueError(f"bad dims header {dims!r}")
        p, q, r, s = (int(g) for g in m.groups())
        source, target = SuperDim(p, q), SuperDim(r, s)
        parity = _parity(_get(data, "parity"))
        n = source.total
        entries = _polys(data, "entries", ctx, n * target.total)
        rows = [entries[i * n:(i + 1) * n] for i in range(target.total)]
        return SuperMatrix(ctx, source, target, rows, parity)
    if kind == "morphism":
        source = _ctx_load(_get(data, "source", dict))
        target = _ctx_load(_get(data, "target", dict))
        images = _polys(data, "images", source)
        return Morphism(source, target, images)
    if kind == "field":
        ctx = _ctx_load(_get(data, "context", dict))
        parity = _parity(_get(data, "parity"))
        coeffs = _polys(data, "coefficients", ctx, sum(ctx.dims))
        m = len(ctx.even)
        return SuperDerivation(ctx, parity, coeffs[:m], coeffs[m:])
    if kind == "group":
        coords = _ctx_load(_get(data, "coords", dict))
        double = product_context(coords)
        mu = Morphism(double, coords, _polys(data, "mu", double))
        unit = RationalPoint(coords, _rationals(data, "unit"))
        inverse = None
        if "inverse" in data:
            inverse = Morphism(coords, coords, _polys(data, "inverse", coords))
        return GroupLaw(coords, mu, unit, inverse)
    if kind == "variety":
        ambient = _ctx_load(_get(data, "ambient", dict))
        gens = _polys(data, "generators", ambient)
        point = RationalPoint(ambient, _rationals(data, "point"))
        return PointedVariety(ambient, gens, point)
    raise ValueError(f"cannot deserialize type {kind!r}")

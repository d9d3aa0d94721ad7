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

from .expr import parse_poly
from .groups import GroupLaw, product_context
from .matrix import SuperDim, SuperMatrix
from .morphism import Morphism
from .derivation import SuperDerivation
from .poly import Context, Parity, RationalPoint, SuperPoly
from .variety import PointedVariety

_DIMS = re.compile(r"^(\d+)\|(\d+)->(\d+)\|(\d+)$")
_PARITIES = {"even": Parity.EVEN, "odd": Parity.ODD}


def _rational(text) -> Fraction:
    # a JSON number may be a float; only the string form is exact
    if not isinstance(text, str):
        raise ValueError(f"expected a rational written as a string, got {text!r}")
    return Fraction(text)


def _generator(names, index) -> str:
    # indices are 1-based; 0 or a negative index would wrap around silently
    if not isinstance(index, int) or not 1 <= index <= len(names):
        raise ValueError(f"generator index {index!r} outside 1..{len(names)}")
    return names[index - 1]


def _parity(text) -> Parity:
    parity = _PARITIES.get(text) if isinstance(text, str) else None
    if parity is None:
        raise ValueError(f"bad parity {text!r}; expected 'even' or 'odd'")
    return parity


def _ctx_json(ctx: Context):
    return {"even": list(ctx.even), "odd": list(ctx.odd)}


def _ctx_load(data) -> Context:
    return Context(even=data["even"], odd=data["odd"])


def _poly_terms(p: SuperPoly):
    out = []
    for mono, coeff in p.sorted_terms():
        out.append({
            "coeff": str(coeff),
            "even": [[i + 1, e] for i, e in mono.even],
            "odd": [j + 1 for j in mono.odd],
        })
    return out


def _poly_load(ctx: Context, terms) -> SuperPoly:
    p = ctx.zero()
    for t in terms:
        part = ctx.scalar(_rational(t["coeff"]))
        for i, e in t["even"]:
            part = part * ctx.var(_generator(ctx.even, i)) ** e
        for j in t["odd"]:
            part = part * ctx.var(_generator(ctx.odd, j))
        p = p + part
    return p


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
    """Rebuild the value encoded by to_json."""
    kind = data.get("type")
    if kind == "context":
        return _ctx_load(data)
    if kind == "poly":
        return _poly_load(_ctx_load(data["context"]), data["terms"])
    if kind == "matrix":
        ctx = _ctx_load(data["context"])
        m = _DIMS.match(data["dims"])
        if not m:
            raise ValueError(f"bad dims header {data['dims']!r}")
        p, q, r, s = (int(g) for g in m.groups())
        source, target = SuperDim(p, q), SuperDim(r, s)
        parity = _parity(data["parity"])
        n = source.total
        entries = [parse_poly(text, ctx) for text in data["entries"]]
        rows = [entries[i * n:(i + 1) * n] for i in range(target.total)]
        return SuperMatrix(ctx, source, target, rows, parity)
    if kind == "morphism":
        source = _ctx_load(data["source"])
        target = _ctx_load(data["target"])
        images = [parse_poly(text, source) for text in data["images"]]
        return Morphism(source, target, images)
    if kind == "field":
        ctx = _ctx_load(data["context"])
        parity = _parity(data["parity"])
        coeffs = [parse_poly(text, ctx) for text in data["coefficients"]]
        m = len(ctx.even)
        return SuperDerivation(ctx, parity, coeffs[:m], coeffs[m:])
    if kind == "group":
        coords = _ctx_load(data["coords"])
        double = product_context(coords)
        mu = Morphism(double, coords,
                      [parse_poly(text, double) for text in data["mu"]])
        unit = RationalPoint(coords, [_rational(v) for v in data["unit"]])
        inverse = None
        if "inverse" in data:
            inverse = Morphism(
                coords, coords,
                [parse_poly(text, coords) for text in data["inverse"]],
            )
        return GroupLaw(coords, mu, unit, inverse)
    if kind == "variety":
        ambient = _ctx_load(data["ambient"])
        gens = [parse_poly(text, ambient) for text in data["generators"]]
        point = RationalPoint(ambient, [_rational(v) for v in data["point"]])
        return PointedVariety(ambient, gens, point)
    raise ValueError(f"cannot deserialize type {kind!r}")

"""Group laws on coordinate superdomains.

A law is the multiplication morphism mu from the doubled context to G,
with the primed-copy convention: unprimed names are the first factor,
names with a "p" suffix the second.  All axiom checks are symbolic
identities between pullbacks, so a failed axiom comes with the exact
residual polynomial as evidence.  Each side of an axiom pulls all of
mu's images back along one image map in one poly._substitute_each, and
one helper, _axiom, turns the two sides into the report's residual row.

Left-invariant fields are read from mu alone: V = (id x v) mu*.  v
differentiates mu in its second factor (the primed names), that factor
is set to the unit, and what survives on the first factor is the field.
On R^{1|1} this yields -theta d/dt + d/dtheta for v = d/dtheta at e,
matching the group's sign conventions.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .derivation import SuperDerivation, TangentVector
from .errors import ContextMismatch, ParityError
from .morphism import Morphism
from .poly import Context, Parity, RationalPoint, SuperPoly, _substitute_each

PRIME = "p"


def primed(name: str, copies: int = 1) -> str:
    return name + PRIME * copies


def product_context(ctx: Context, copies: int = 2) -> Context:
    """G x G (or G x G x G) with primed coordinate copies."""
    even = []
    odd = []
    for k in range(copies):
        even += [primed(n, k) for n in ctx.even]
        odd += [primed(n, k) for n in ctx.odd]
    if len(set(even + odd)) != len(even + odd):
        raise ValueError("priming collides with existing coordinate names")
    return Context(even=even, odd=odd)


class AxiomResult(NamedTuple):
    axiom: str
    passed: bool
    residuals: tuple  # (label, SuperPoly) pairs, nonzero ones only

    def __str__(self):
        if self.passed:
            return f"{self.axiom}: pass"
        parts = "; ".join(f"{label}: {poly}" for label, poly in self.residuals)
        return f"{self.axiom}: FAIL ({parts})"


class GroupLaw:
    """Multiplication morphism, unit point, optional inversion morphism."""

    __slots__ = ("coords", "mu", "unit", "inverse")

    def __init__(self, coords: Context, mu: Morphism, unit: RationalPoint,
                 inverse: Morphism | None = None):
        if mu.target != coords:
            raise ContextMismatch("mu must land in the group context")
        if mu.source != product_context(coords):
            raise ContextMismatch("mu must start from the doubled context")
        if unit.ctx != coords:
            raise ContextMismatch("unit point must live in the group context")
        if inverse is not None and not (
            inverse.source == coords and inverse.target == coords
        ):
            raise ContextMismatch("inversion must be an endomorphism of G")
        self.coords = coords
        self.mu = mu
        self.unit = unit
        self.inverse = inverse

    def _unit_value(self, name: str, ctx: Context) -> SuperPoly:
        """The unit's coordinate name as a constant over ctx."""
        coords = self.coords
        if name in coords.odd:
            return ctx.zero()
        return ctx.scalar(self.unit.even_values[coords.even.index(name)])


def check_group_axioms(law: GroupLaw):
    """Symbolic associativity, two-sided unit, and (when an inversion is
    attached) mu(g, i(g)) = e.  Failures are returned, not raised: each
    report row carries the nonzero residual polynomials.

    Each side is one _substitute_each of mu's images: associativity
    compares mu(mu(g, g'), g'') with mu(g, mu(g', g'')) over the triple
    context, the unit mu(e, g') with g' and mu(g, e) with g (all left
    sides are built before the right ones, and the rows alternate left
    and right per coordinate), and the inversion mu(g, i(g)) with e.
    """
    g, mu = law.coords, law.mu
    double = mu.source
    triple = product_context(g, copies=3)
    names = g.names
    primes = tuple(primed(n) for n in names)

    def side(ctx, first, second):
        # mu(first, second): first put for G's names, second for the primed ones
        return _substitute_each(mu.images, ctx, dict(zip(names + primes, (*first, *second))))

    # a doubled-context polynomial on factors (0, 1) keeps its names, and
    # the doubled context starts the triple one; on factors (1, 2) each
    # name gains one prime
    later = {s: primed(s) for s in names + primes}
    reports = [_axiom("associativity", names,
                      side(triple, [img.rename(triple) for img in mu.images],
                           [triple.var(primed(p)) for p in primes]),
                      side(triple, [triple.var(n) for n in names],
                           [img.rename(triple, later) for img in mu.images]))]
    xs, xps = [double.var(n) for n in names], [double.var(p) for p in primes]
    units = [law._unit_value(n, double) for n in names]
    left, right = side(double, units, xps), side(double, xs, units)
    reports.append(_axiom("unit", [f"{s} at {n}" for n in names for s in ("left", "right")],
                          [*chain(*zip(left, right))], [*chain(*zip(xps, xs))]))
    if law.inverse is not None:
        reports.append(_axiom("inverse", names,
                              side(g, [g.var(n) for n in names], law.inverse.images),
                              [law._unit_value(n, g) for n in names]))
    return reports


def _axiom(name, labels, actual, expected):
    # the row of one axiom: a residual actual - expected per label where they differ
    residuals = tuple((label, a - e) for label, a, e in zip(labels, actual, expected) if a != e)
    return AxiomResult(name, not residuals, residuals)


def left_invariant_field(law: GroupLaw, v: TangentVector) -> SuperDerivation:
    """The left-invariant field V = (id x v) mu* with value v at the unit:
    v differentiates mu's second factor, which is then set to the unit,
    and mu's first factor becomes G's coordinates."""
    names = law.coords.names
    return _at_unit(law, law.mu, v, _vector_parity(law, v), [primed(n) for n in names], names)


def is_left_invariant(field: SuperDerivation, law: GroupLaw) -> bool:
    """Does (id x field) mu* = mu* field hold on every coordinate?  field
    acts on mu's second factor, the primed slots of the doubled context."""
    if field.ctx != law.coords:
        raise ContextMismatch("field must live in the group context")
    double = law.mu.source
    to_primed = {n: primed(n) for n in law.coords.names}
    lifted = _placed(double, field.parity, to_primed.values(),
                     [c.rename(double, to_primed) for c in field.coefficients()])
    # the right side on x_n is mu* of field(x_n), field's coefficient on x_n
    return (lifted._apply_each(law.mu.images)
            == _substitute_each(field.coefficients(), double, law.mu.image_map()))


def infinitesimal_action(law: GroupLaw, sigma: Morphism,
                         v: TangentVector) -> SuperDerivation:
    """The vector field rho(v) = (v x id) sigma* on M induced by an action
    sigma: G x M -> M: v differentiates sigma's group factor, which is
    then set to the unit.

    sigma's source must list the group coordinates first, then the
    M coordinates, which are matched positionally with sigma's target.
    """
    g = law.coords
    parity = _vector_parity(law, v)
    src = sigma.source
    m, n = g.dims
    if src.even[:m] != g.even or src.odd[:n] != g.odd:
        raise ValueError("sigma's source must start with the group coordinates")
    if (len(src.even) - m, len(src.odd) - n) != sigma.target.dims:
        raise ValueError("sigma's source must end with a copy of its target")
    return _at_unit(law, sigma, v, parity, g.names, src.even[m:] + src.odd[n:])


def _vector_parity(law, v):
    if v.ctx != law.coords:
        raise ContextMismatch("tangent vector must live in the group context")
    parity = v.parity()
    if parity is Parity.MIXED:
        raise ParityError("tangent vector must be parity homogeneous")
    return parity


def _at_unit(law, sigma, v, parity, group, rest):
    """v, weighted onto the source names group (G's names in order), is
    applied to all of sigma's images packed as one row; each result, with
    the unit put for group and the target's generators for rest, is the
    field's coefficient on its target generator."""
    src = sigma.source
    target = sigma.target
    along = _placed(src, parity, group, [src.scalar(w) for w in v.coords()])
    images = {s: law._unit_value(n, target) for s, n in zip(group, law.coords.names)}
    images.update(zip(rest, map(target.var, target.names)))
    return SuperDerivation._wrap(target, parity,
                                 _substitute_each(along._apply_each(sigma.images), target, images))


def _placed(ctx, parity, names, coeffs):
    # the field over ctx with coeffs on names and zero on every other slot
    on = dict(zip(names, coeffs))
    return SuperDerivation._wrap(ctx, parity, tuple(on.get(n, ctx.zero()) for n in ctx.names))

"""Group laws on coordinate superdomains.

A law is the multiplication morphism mu from the doubled context to G,
with the primed-copy convention: unprimed names are the first factor,
names with a "p" suffix the second.  All axiom checks are symbolic
identities between pullbacks, so a failed axiom comes with the exact
residual polynomial as evidence.

Left-invariant fields follow the anti-law route: V = (v_G) iota* where
iota(g, g') = g'g is mu with its factors swapped.  Differentiate the
first factor, evaluate it at the unit, and what survives on the second
copy is the field.  On R^{1|1} this yields -theta d/dt + d/dtheta for
v = d/dtheta at e, matching the group's sign conventions.
"""

from __future__ import annotations

from typing import NamedTuple

from .derivation import SuperDerivation, TangentVector
from .errors import ContextMismatch, ParityError
from .morphism import Morphism
from .poly import Context, Parity, RationalPoint, SuperPoly

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

    # iota(g, g') = g' g: swap the two factors of mu
    def iota(self) -> Morphism:
        src = self.mu.source
        swap = {}
        for n in self.coords.names:
            swap[n] = primed(n)
            swap[primed(n)] = n
        images = [img.rename(src, swap) for img in self.mu.images]
        return Morphism(src, self.coords, images)

    def _unit_value(self, name: str, ctx: Context) -> SuperPoly:
        """The unit's coordinate name as a constant over ctx."""
        coords = self.coords
        if name in coords.odd:
            return ctx.zero()
        return ctx.scalar(self.unit.even_values[coords.even.index(name)])


def check_group_axioms(law: GroupLaw):
    """Symbolic associativity, two-sided unit, and (when an inversion is
    attached) mu(g, i(g)) = e.  Failures are returned, not raised: each
    report row carries the nonzero residual polynomials."""
    return [
        _associativity(law),
        _unit_axiom(law),
    ] + ([_inverse_axiom(law)] if law.inverse is not None else [])


def _associativity(law: GroupLaw) -> AxiomResult:
    g = law.coords
    triple = product_context(g, copies=3)

    # a doubled-context polynomial on factors (0, 1) keeps its names, and
    # the doubled context starts the triple one; on factors (1, 2) each
    # name gains one prime
    later = {}
    for n in g.names:
        later[n] = primed(n)
        later[primed(n)] = primed(n, 2)

    first_two = {}
    last_two = {}
    for n in g.names:
        first_two[n] = law.mu.image(n).rename(triple)
        first_two[primed(n)] = triple.var(primed(n, 2))
        last_two[n] = triple.var(n)
        last_two[primed(n)] = law.mu.image(n).rename(triple, later)

    residuals = []
    for n in g.names:
        lhs = law.mu.image(n).substitute(triple, first_two)
        rhs = law.mu.image(n).substitute(triple, last_two)
        if lhs != rhs:
            residuals.append((n, lhs - rhs))
    return AxiomResult("associativity", not residuals, tuple(residuals))


def _unit_axiom(law: GroupLaw) -> AxiomResult:
    g = law.coords
    double = law.mu.source
    images_left = {}
    images_right = {}
    for c in g.names:
        images_left[c] = law._unit_value(c, double)
        images_left[primed(c)] = double.var(primed(c))
        images_right[c] = double.var(c)
        images_right[primed(c)] = law._unit_value(c, double)
    residuals = []
    for n in g.names:
        expected_left = double.var(primed(n))
        expected_right = double.var(n)
        actual_left = law.mu.image(n).substitute(double, images_left)
        actual_right = law.mu.image(n).substitute(double, images_right)
        if actual_left != expected_left:
            residuals.append((f"left at {n}", actual_left - expected_left))
        if actual_right != expected_right:
            residuals.append((f"right at {n}", actual_right - expected_right))
    return AxiomResult("unit", not residuals, tuple(residuals))


def _inverse_axiom(law: GroupLaw) -> AxiomResult:
    g = law.coords
    residuals = []
    images = {}
    for c in g.names:
        images[c] = g.var(c)
        images[primed(c)] = law.inverse.image(c)
    for n in g.names:
        actual = law.mu.image(n).substitute(g, images)
        residual = actual - law._unit_value(n, g)
        if residual:
            residuals.append((n, residual))
    return AxiomResult("inverse", not residuals, tuple(residuals))


def left_invariant_field(law: GroupLaw, v: TangentVector) -> SuperDerivation:
    """The left-invariant field with value v at the unit: the
    infinitesimal action of the anti-law iota on G itself."""
    return infinitesimal_action(law, law.iota(), v)


def is_left_invariant(field: SuperDerivation, law: GroupLaw) -> bool:
    """Does (field x id) iota* = iota* field hold on every coordinate?"""
    if field.ctx != law.coords:
        raise ContextMismatch("field must live in the group context")
    g = law.coords
    double = law.mu.source
    iota = law.iota()
    lifted = SuperDerivation(
        double,
        field.parity,
        [c.rename(double) for c in field.even_coeffs]
        + [double.zero()] * len(g.even),
        [c.rename(double) for c in field.odd_coeffs]
        + [double.zero()] * len(g.odd),
    )
    # the right side on x_n is iota* of field(x_n), field's coefficient on x_n
    return all(lhs == iota.pullback(c) for lhs, c
               in zip(lifted._apply_each(iota.images), field.coefficients()))


def infinitesimal_action(law: GroupLaw, sigma: Morphism,
                         v: TangentVector) -> SuperDerivation:
    """The vector field rho(v) on M induced by an action sigma: G x M -> M.

    sigma's source must list the group coordinates first, then the
    M coordinates, which are matched positionally with sigma's target.
    v, weighted onto the group coordinates of sigma's source, is applied
    to all of sigma's images in one dot_row; each result, evaluated at the
    unit on the group coordinates, is rho(v)'s coefficient on its
    target generator.
    """
    g = law.coords
    if v.ctx != g:
        raise ContextMismatch("tangent vector must live in the group context")
    parity = v.parity()
    if parity is Parity.MIXED:
        raise ParityError("tangent vector must be parity homogeneous")
    src = sigma.source
    m, n = len(g.even), len(g.odd)
    if src.even[:m] != g.even or src.odd[:n] != g.odd:
        raise ValueError("sigma's source must start with the group coordinates")
    rest_even = src.even[m:]
    rest_odd = src.odd[n:]
    target = sigma.target
    if len(rest_even) != len(target.even) or len(rest_odd) != len(target.odd):
        raise ValueError("sigma's source must end with a copy of its target")

    images = {}
    for c in g.names:
        images[c] = law._unit_value(c, target)
    for old, new in zip(rest_even + rest_odd, target.names):
        images[old] = target.var(new)

    # v's weights on the group coordinates, zeros on the M coordinates
    along = SuperDerivation(src, parity, v.even_coords + (0,) * len(rest_even),
                            v.odd_coords + (0,) * len(rest_odd))
    coeffs = [w.substitute(target, images) for w in along._apply_each(sigma.images)]
    k = len(target.even)
    return SuperDerivation(target, parity, coeffs[:k], coeffs[k:])

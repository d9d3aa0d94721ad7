"""Tangent spaces of pointed affine supervarieties.

Everything happens at a rational point x: value_at kills the odd part,
differential_of_function reads off the degree-1 coefficients of f at x,
and a tangent space is the exact rational null space of the stacked
differentials of the ideal generators.  Homogeneous generators split the
computation by parity: an even generator only constrains the even
differentials (dt_i)_x, an odd one only the (dtheta_j)_x.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .derivation import TangentVector, _Weights
from .errors import ContextMismatch, ParityError, PointNotOnVariety
from .matrix import SuperDim
from .poly import Context, Parity, RationalPoint, SuperPoly


def value_at(f: SuperPoly, x: RationalPoint) -> Fraction:
    """Evaluate at a rational point; odd generators go to zero."""
    return f.at(x)


class LinearForm(_Weights):
    """Rational linear form in the point differentials (dt_i)_x, (dtheta_j)_x."""

    __slots__ = ()
    _LENGTH_ERROR = "one coefficient per coordinate expected"

    @staticmethod
    def _symbol(name):
        # dt_i at x is written by capitalising the coordinate: xi -> Xi, x1 -> X1
        return name[0].upper() + name[1:]

    @property
    def even(self):
        return self._weights[:len(self.ctx.even)]

    @property
    def odd(self):
        return self._weights[len(self.ctx.even):]

    def is_zero(self) -> bool:
        return not any(self._weights)

    def coefficients(self):
        return self._weights

    def pairing(self, v: TangentVector) -> Fraction:
        """Evaluate the form on a tangent vector."""
        if v.ctx != self.ctx:
            raise ContextMismatch("tangent vector lives in a different context")
        return sum(
            (c * w for c, w in zip(self._weights, v.coords())), Fraction(0)
        )


def differential_of_function(f: SuperPoly, x: RationalPoint) -> LinearForm:
    """(df)_x: partials evaluated at the point, odd ones as left derivatives."""
    if x.ctx != f.ctx:
        raise ContextMismatch("point context differs from polynomial context")
    even = [f.partial(n).at(x) for n in f.ctx.even]
    odd = [f.partial(n).at(x) for n in f.ctx.odd]
    return LinearForm(f.ctx, even, odd)


class PointedVariety:
    """Ideal generators plus a rational point where they all vanish."""

    __slots__ = ("ambient", "generators", "point")

    def __init__(self, ambient: Context, generators, point: RationalPoint):
        if point.ctx != ambient:
            raise ContextMismatch("point is not in the ambient context")
        gens = []
        for g in generators:
            if not isinstance(g, SuperPoly):
                g = SuperPoly.scalar(ambient, g)
            if g.ctx != ambient:
                raise ContextMismatch("generator is not over the ambient context")
            if g.parity() is Parity.MIXED:
                raise ParityError(
                    f"generator {g} is not parity homogeneous"
                )
            if g.at(point):
                raise PointNotOnVariety(
                    f"generator {g} does not vanish at {point}"
                )
            gens.append(g)
        self.ambient = ambient
        self.generators = tuple(gens)
        self.point = point


class TangentSpaceResult(NamedTuple):
    dimension: SuperDim
    basis: list
    relations: list


def tangent_space(v: PointedVariety) -> TangentSpaceResult:
    """Null space of the generator differentials at the point.

    Relations are returned in reduced echelon form, even ones first, so
    any generator list with the same rational row space prints the same
    relations.
    """
    ctx = v.ambient
    m, n = ctx.dims
    even_rows = []
    odd_rows = []
    for g in v.generators:
        d = differential_of_function(g, v.point)
        if g.has_parity(Parity.EVEN):
            even_rows.append(list(d.even))
        else:
            odd_rows.append(list(d.odd))

    even_ech, even_piv = linalg.rref(even_rows)
    odd_ech, odd_piv = linalg.rref(odd_rows)
    relations = [LinearForm(ctx, even=row) for row in even_ech if any(row)]
    relations += [LinearForm(ctx, odd=row) for row in odd_ech if any(row)]

    basis = [TangentVector(ctx, even=w)
             for w in linalg.right_nullspace(even_ech, even_piv, m)]
    basis += [TangentVector(ctx, odd=w)
              for w in linalg.right_nullspace(odd_ech, odd_piv, n)]

    dim = SuperDim(m - len(even_piv), n - len(odd_piv))
    return TangentSpaceResult(dim, basis, relations)

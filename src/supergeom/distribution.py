"""Involutivity of distributions spanned by homogeneous vector fields.

The verdict is three-valued on purpose.  Membership of a bracket in the
module span is decidable here only after normalising the coefficient
matrix: when some square submatrix with constant-body entries is
invertible, left-multiplying by its inverse rewrites the spanning set so
that the chosen columns carry the identity.  Any candidate combination
is then forced by reading the bracket's coefficients off those columns,
and the leftover either vanishes (bracket is in the span) or is provably
outside.  Without such a pivot structure the question needs module
machinery over the full polynomial ring, so we refuse to guess.
"""

from __future__ import annotations

import enum

from . import linalg
from .derivation import SuperDerivation, bracket
from .errors import ContextMismatch
from .matrix import _grid_inverse, _gmul
from .poly import SuperPoly, dot_row


class Involutivity(enum.Enum):
    INTEGRABLE = "Integrable"
    NOT_INTEGRABLE = "NotIntegrable"
    INDETERMINATE = "Indeterminate"

    def __str__(self):
        return self.value


class Distribution:
    """Nonempty list of homogeneous vector fields over one context."""

    __slots__ = ("ctx", "fields")

    def __init__(self, fields):
        fields = tuple(fields)
        if not fields:
            raise ValueError("a distribution needs at least one field")
        ctx = fields[0].ctx
        for f in fields:
            if not isinstance(f, SuperDerivation):
                raise TypeError("distribution fields must be derivations")
            if f.ctx != ctx:
                raise ContextMismatch("fields live in different contexts")
        self.ctx = ctx
        self.fields = fields


def _pivot_columns(grid):
    """Lexicographically first set of one column per row whose entries
    all have constant bodies and whose body submatrix is invertible, or
    None.  Pivot columns of the reduced echelon form are that first set."""
    cols = [c for c in range(len(grid[0]))
            if all(row[c].body().is_constant() for row in grid)]
    body = [[row[c].body().constant_term() for c in cols] for row in grid]
    pivots = linalg.pivot_columns(body)
    if len(pivots) < len(grid):
        return None
    return [cols[p] for p in pivots]


def involutive(dist) -> Involutivity:
    """Is the span closed under the super bracket?

    INTEGRABLE when every pairwise bracket (self-brackets included; they
    matter for odd fields) lies in the span, NOT_INTEGRABLE when some
    bracket provably does not, INDETERMINATE when no invertible pivot
    submatrix exists to decide membership.
    """
    if not isinstance(dist, Distribution):
        dist = Distribution(dist)
    fields = dist.fields
    ctx = dist.ctx

    pairs = [
        bracket(fields[i], fields[j])
        for i in range(len(fields))
        for j in range(i, len(fields))
    ]
    if all(w.is_zero() for w in pairs):
        return Involutivity.INTEGRABLE

    grid = tuple(f.coefficients() for f in fields)
    chosen = _pivot_columns(grid)
    if chosen is None:
        return Involutivity.INDETERMINATE

    t0 = tuple(tuple(row[c] for c in chosen) for row in grid)
    normalized = _gmul(ctx, _grid_inverse(ctx, t0, "pivot submatrix"), grid)

    # the residual of w, its coefficients minus lam_k times row k of the
    # normalized grid with lam_k its coefficient in pivot column k, is
    # one dot_row of (1, -lam_1, ...) against (coeffs, *normalized)
    one = SuperPoly.scalar(ctx, 1)
    for w in pairs:
        coeffs = w.coefficients()
        neg_lams = tuple(-coeffs[c] for c in chosen)
        if any(dot_row(ctx, (one, *neg_lams), (coeffs, *normalized))):
            return Involutivity.NOT_INTEGRABLE
    return Involutivity.INTEGRABLE

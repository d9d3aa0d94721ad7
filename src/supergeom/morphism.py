"""Morphisms of coordinate superdomains.

A morphism M -> N is the algebra map it induces backwards: one even
polynomial over M per even coordinate of N, one odd polynomial per odd
coordinate.  Pulling back substitutes those images; nilpotency of the
odd part makes every Taylor expansion finite, so the substitution is
exact polynomial arithmetic.

Jacobians follow the displayed block layout with rows indexed by SOURCE
coordinates and columns by target coordinates: entry (i, j) is the
partial of the j-th image with respect to the i-th source coordinate,
evaluated at the point.  A differential therefore has matrix dims
(target of phi) -> (source of phi), and the chain rule composes as
d(psi . phi) = d(phi) @ d(psi), mirror order to the layout.
"""

from __future__ import annotations

import enum

from . import linalg
from .errors import ContextMismatch, ParityError
from .matrix import SuperDim, SuperMatrix
from .poly import Context, Parity, RationalPoint, SuperPoly
from .variety import differential_of_function


class MapClass(enum.Enum):
    IMMERSION = "immersion"
    SUBMERSION = "submersion"
    DIFFEO = "diffeo"

    def __str__(self):
        return self.value


class Morphism:
    """Polynomial map between superdomains, stored via its coordinate images."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: Context, target: Context, images):
        names = target.names
        images = tuple(images)
        if len(images) != len(names):
            raise ValueError(
                f"expected {len(names)} coordinate images, got {len(images)}"
            )
        checked = []
        for name, img in zip(names, images):
            if not isinstance(img, SuperPoly):
                img = SuperPoly.scalar(source, img)
            if img.ctx != source:
                raise ContextMismatch(f"image of {name} is not over the source context")
            need = Parity.ODD if name in target.odd else Parity.EVEN
            if not img.has_parity(need):
                raise ParityError(f"image of {name} must be {need}")
            checked.append(img)
        self.source = source
        self.target = target
        self.images = tuple(checked)

    @classmethod
    def identity(cls, ctx: Context) -> "Morphism":
        return cls(ctx, ctx, [ctx.var(n) for n in ctx.names])

    def image(self, name: str) -> SuperPoly:
        return self.images[self.target.names.index(name)]

    def image_map(self):
        return dict(zip(self.target.names, self.images))

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.source, self.target, self.images))

    def pullback(self, f: SuperPoly) -> SuperPoly:
        """Substitute the coordinate images into f; an exact algebra map."""
        if f.ctx != self.target:
            raise ContextMismatch("polynomial is not over the morphism's target")
        return f.substitute(self.source, self.image_map())

    def image_point(self, m: RationalPoint) -> RationalPoint:
        """The reduced image: even images evaluated at m, odd part zero."""
        if m.ctx != self.source:
            raise ContextMismatch("point is not in the morphism's source")
        vals = [self.image(n).at(m) for n in self.target.even]
        return RationalPoint(self.target, vals)

    def _jacobian(self, m: RationalPoint) -> list:
        """Column j of the Jacobian at m: the rationals of d(image j)."""
        if m.ctx != self.source:
            raise ContextMismatch("point is not in the morphism's source")
        return [differential_of_function(img, m).coefficients()
                for img in self.images]

    def differential_at(self, m: RationalPoint) -> SuperMatrix:
        """Block Jacobian at a rational point, rows indexed by source
        coordinates.  Cross-parity partials die at the point, so the
        result is block-diagonal with rational entries."""
        src = SuperDim(*self.source.dims)
        # column j is d(image j); a 0|0 target still has src.total rows
        cols = self._jacobian(m)
        rows = [[SuperPoly.scalar(self.source, col[i]) for col in cols]
                for i in range(src.total)]
        return SuperMatrix(self.source, SuperDim(*self.target.dims), src, rows)

    def classify_at(self, m: RationalPoint):
        """immersion / submersion / diffeo at m, or None.

        The differential is injective on a parity block exactly when that
        block has rank equal to the source dimension, surjective when the
        rank matches the target; with the row layout above those are the
        row and column counts respectively.  The ranks are those of
        differential_at(m).srank(), taken on the columns of the two
        rational blocks, that is on their transposes.
        """
        cols = self._jacobian(m)
        p, k = len(self.source.even), len(self.target.even)
        r = (linalg.rank([col[:p] for col in cols[:k]]),
             linalg.rank([col[p:] for col in cols[k:]]))
        inj = r == self.source.dims
        surj = r == self.target.dims
        if inj and surj:
            return MapClass.DIFFEO
        if inj:
            return MapClass.IMMERSION
        if surj:
            return MapClass.SUBMERSION
        return None

    def __str__(self):
        pieces = ", ".join(
            f"{n} -> {img}" for n, img in zip(self.target.names, self.images)
        )
        return f"({pieces})"

    def __repr__(self):
        return f"Morphism({self})"


def pullback(phi: Morphism, f: SuperPoly) -> SuperPoly:
    return phi.pullback(f)


def compose(psi: Morphism, phi: Morphism) -> Morphism:
    """psi after phi; pullbacks compose the other way around."""
    if phi.target != psi.source:
        raise ContextMismatch("inner morphism's target must be outer's source")
    return Morphism(phi.source, psi.target, [phi.pullback(g) for g in psi.images])


def differential_at(phi: Morphism, m: RationalPoint) -> SuperMatrix:
    return phi.differential_at(m)


def classify_at(phi: Morphism, m: RationalPoint):
    return phi.classify_at(m)

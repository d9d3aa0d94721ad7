"""Graded derivations of a Grassmann-polynomial ring and their super bracket."""

from __future__ import annotations

from .errors import ContextMismatch, ParityError
from .poly import Context, Parity, Scalar, SuperPoly, _exact, _signed_sum


def _check_coeff(ctx, poly, required, slot):
    if not isinstance(poly, SuperPoly):
        poly = SuperPoly.scalar(ctx, poly)
    if poly.ctx != ctx:
        raise ContextMismatch(f"coefficient on {slot} lives in a different context")
    if not poly.has_parity(required):
        raise ParityError(
            f"coefficient on {slot} must be homogeneous {required}, got {poly.parity()}"
        )
    return poly


class SuperDerivation:
    """sum f_i d/dt_i + sum g_j d/dtheta_j with a declared homogeneous parity.

    For parity pi the even coefficients f_i must be homogeneous of parity pi
    and the odd coefficients g_j of parity pi+1, so applying the operator
    shifts parity by pi.
    """

    __slots__ = ("ctx", "parity", "even_coeffs", "odd_coeffs")

    def __init__(self, ctx, parity, even_coeffs=None, odd_coeffs=None):
        if parity not in (Parity.EVEN, Parity.ODD):
            raise ParityError("a derivation's parity must be EVEN or ODD")
        even_coeffs = list(even_coeffs or [SuperPoly.zero(ctx)] * len(ctx.even))
        odd_coeffs = list(odd_coeffs or [SuperPoly.zero(ctx)] * len(ctx.odd))
        if len(even_coeffs) != len(ctx.even) or len(odd_coeffs) != len(ctx.odd):
            raise ValueError("one coefficient per generator expected")
        self.ctx = ctx
        self.parity = parity
        self.even_coeffs = tuple(
            _check_coeff(ctx, c, parity, f"d/d{ctx.even[i]}")
            for i, c in enumerate(even_coeffs)
        )
        self.odd_coeffs = tuple(
            _check_coeff(ctx, c, parity.flipped(), f"d/d{ctx.odd[j]}")
            for j, c in enumerate(odd_coeffs)
        )

    @classmethod
    def coordinate(cls, ctx, name) -> "SuperDerivation":
        """The basis field d/d<name>."""
        is_odd, idx = ctx.lookup(name)
        one = SuperPoly.scalar(ctx, 1)
        evens = [SuperPoly.zero(ctx)] * len(ctx.even)
        odds = [SuperPoly.zero(ctx)] * len(ctx.odd)
        if is_odd:
            odds[idx] = one
            return cls(ctx, Parity.ODD, evens, odds)
        evens[idx] = one
        return cls(ctx, Parity.EVEN, evens, odds)

    def coefficient(self, name) -> SuperPoly:
        is_odd, idx = self.ctx.lookup(name)
        return self.odd_coeffs[idx] if is_odd else self.even_coeffs[idx]

    def coefficients(self):
        """All coefficients, even slots first."""
        return self.even_coeffs + self.odd_coeffs

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coefficients())

    def apply(self, a: SuperPoly) -> SuperPoly:
        """Evaluate the derivation on a polynomial.

        Coefficients multiply the left partials from the left; this makes
        the operator satisfy the graded Leibniz rule
        D(ab) = D(a) b + (-1)^{|D||a|} a D(b).
        """
        if a.ctx != self.ctx:
            raise ContextMismatch("argument lives in a different context")
        out = SuperPoly.zero(self.ctx)
        for i, c in enumerate(self.even_coeffs):
            if c:
                out = out + c * a.partial(self.ctx.even[i])
        for j, c in enumerate(self.odd_coeffs):
            if c:
                out = out + c * a.partial(self.ctx.odd[j])
        return out

    def __call__(self, a):
        return self.apply(a)

    def __eq__(self, other):
        return (
            isinstance(other, SuperDerivation)
            and self.ctx == other.ctx
            and self.even_coeffs == other.even_coeffs
            and self.odd_coeffs == other.odd_coeffs
        )

    def __hash__(self):
        return hash((self.ctx, self.even_coeffs, self.odd_coeffs))

    def __add__(self, other):
        if not isinstance(other, SuperDerivation):
            return NotImplemented
        if other.ctx != self.ctx:
            raise ContextMismatch("derivations live in different contexts")
        if not self.is_zero() and not other.is_zero() and self.parity != other.parity:
            raise ParityError("cannot add derivations of different parities")
        parity = other.parity if self.is_zero() else self.parity
        return SuperDerivation(
            self.ctx,
            parity,
            [a + b for a, b in zip(self.even_coeffs, other.even_coeffs)],
            [a + b for a, b in zip(self.odd_coeffs, other.odd_coeffs)],
        )

    def __neg__(self):
        return SuperDerivation(
            self.ctx,
            self.parity,
            [-c for c in self.even_coeffs],
            [-c for c in self.odd_coeffs],
        )

    def __sub__(self, other):
        if not isinstance(other, SuperDerivation):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar):
        """Left multiplication by a homogeneous polynomial or a rational."""
        if isinstance(scalar, Scalar):
            scalar = SuperPoly.scalar(self.ctx, scalar)
        if not isinstance(scalar, SuperPoly):
            return NotImplemented
        if scalar.parity() is Parity.MIXED:
            raise ParityError("scalar must be homogeneous")
        parity = self.parity if scalar.is_zero() or scalar.parity() is Parity.EVEN else self.parity.flipped()
        return SuperDerivation(
            self.ctx,
            parity,
            [scalar * c for c in self.even_coeffs],
            [scalar * c for c in self.odd_coeffs],
        )

    def __str__(self):
        bits = []
        for name, coeff in zip(
            self.ctx.even + self.ctx.odd, self.coefficients()
        ):
            if coeff.is_zero():
                continue
            body = str(coeff)
            neg = False
            if len(coeff.terms) > 1:
                body = f"({body})"
            elif body.startswith("-"):
                neg = True
                body = body[1:]
            text = f"d/d{name}" if body == "1" else f"{body}*d/d{name}"
            bits.append((neg, text))
        return _signed_sum(bits)

    def __repr__(self):
        return f"SuperDerivation({self})"


def bracket(d1: SuperDerivation, d2: SuperDerivation) -> SuperDerivation:
    """Super Lie bracket [d1, d2] = d1 d2 - (-1)^{|d1||d2|} d2 d1.

    The composite is again a derivation, so its coefficients are read off by
    applying it to each coordinate generator.
    """
    if d1.ctx != d2.ctx:
        raise ContextMismatch("derivations live in different contexts")
    ctx = d1.ctx
    swap_sign = -1 if (d1.parity is Parity.ODD and d2.parity is Parity.ODD) else 1

    def on(name):
        x = SuperPoly.var(ctx, name)
        term = d1.apply(d2.apply(x)) - d2.apply(d1.apply(x)) * swap_sign
        return term

    return SuperDerivation(
        ctx,
        d1.parity + d2.parity,
        [on(n) for n in ctx.even],
        [on(n) for n in ctx.odd],
    )


class TangentVector:
    """Point derivation at a rational point: rational weights on the
    coordinate directions d/dt_i|_x and d/dtheta_j|_x."""

    __slots__ = ("ctx", "even_coords", "odd_coords")

    def __init__(self, ctx: Context, even=None, odd=None):
        even = tuple(_exact(v) for v in (even or [0] * len(ctx.even)))
        odd = tuple(_exact(v) for v in (odd or [0] * len(ctx.odd)))
        if len(even) != len(ctx.even) or len(odd) != len(ctx.odd):
            raise ValueError("one coordinate per generator expected")
        self.ctx = ctx
        self.even_coords = even
        self.odd_coords = odd

    @classmethod
    def coordinate(cls, ctx, name) -> "TangentVector":
        is_odd, idx = ctx.lookup(name)
        even = [0] * len(ctx.even)
        odd = [0] * len(ctx.odd)
        (odd if is_odd else even)[idx] = 1
        return cls(ctx, even, odd)

    def parity(self) -> Parity:
        has_even = any(self.even_coords)
        has_odd = any(self.odd_coords)
        if has_even and has_odd:
            return Parity.MIXED
        if has_odd:
            return Parity.ODD
        return Parity.EVEN

    def coords(self):
        return self.even_coords + self.odd_coords

    def __eq__(self, other):
        return (
            isinstance(other, TangentVector)
            and self.ctx == other.ctx
            and self.even_coords == other.even_coords
            and self.odd_coords == other.odd_coords
        )

    def __hash__(self):
        return hash((self.ctx, self.even_coords, self.odd_coords))

    def __str__(self):
        bits = []
        for name, c in zip(self.ctx.even + self.ctx.odd, self.coords()):
            if not c:
                continue
            head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            bits.append(f"{head}d/d{name}|_x")
        return " + ".join(bits) if bits else "0"

    def __repr__(self):
        return f"TangentVector({self})"

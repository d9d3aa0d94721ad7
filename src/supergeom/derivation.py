"""Graded derivations of a Grassmann-polynomial ring and their super bracket."""

from __future__ import annotations

from .errors import ContextMismatch, ParityError
from .poly import Context, Parity, Scalar, SuperPoly, _derive, _exact, _pack, _signed_sum


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
    shifts parity by pi.  The coefficients are held as one tuple in
    Context order (ctx.names: even generators, then odd); even_coeffs and
    odd_coeffs are read-only slices of it.

    The public constructor takes the two halves and checks, in order: the
    parity is EVEN or ODD, there is one coefficient per generator, and
    each coefficient (a rational is made a constant) lives in ctx and is
    homogeneous of its slot's parity, even slots first.  Fields the
    kernel derives from checked fields are built by _wrap, which checks
    nothing.
    """

    __slots__ = ("ctx", "parity", "_coeffs")

    def __init__(self, ctx, parity, even_coeffs=None, odd_coeffs=None):
        if parity not in (Parity.EVEN, Parity.ODD):
            raise ParityError("a derivation's parity must be EVEN or ODD")
        zero = SuperPoly.zero(ctx)
        even_coeffs = [zero] * len(ctx.even) if even_coeffs is None else list(even_coeffs)
        odd_coeffs = [zero] * len(ctx.odd) if odd_coeffs is None else list(odd_coeffs)
        if len(even_coeffs) != len(ctx.even) or len(odd_coeffs) != len(ctx.odd):
            raise ValueError("one coefficient per generator expected")
        k = len(ctx.even)
        self.ctx = ctx
        self.parity = parity
        self._coeffs = tuple(
            _check_coeff(ctx, c, parity if i < k else parity.flipped(), f"d/d{n}")
            for i, (c, n) in enumerate(zip(even_coeffs + odd_coeffs, ctx.names))
        )

    @classmethod
    def _wrap(cls, ctx, parity, coeffs):
        # internal: coeffs a tuple over ctx in ctx.names order, each
        # homogeneous of the parity its slot needs
        d = object.__new__(cls)
        d.ctx = ctx
        d.parity = parity
        d._coeffs = coeffs
        return d

    @classmethod
    def coordinate(cls, ctx, name) -> "SuperDerivation":
        """The basis field d/d<name>."""
        is_odd, idx = ctx.lookup(name)
        coeffs = [SuperPoly.zero(ctx)] * len(ctx.names)
        coeffs[len(ctx.even) * is_odd + idx] = SuperPoly.scalar(ctx, 1)
        return cls._wrap(ctx, Parity.ODD if is_odd else Parity.EVEN, tuple(coeffs))

    @property
    def even_coeffs(self):
        return self._coeffs[:len(self.ctx.even)]

    @property
    def odd_coeffs(self):
        return self._coeffs[len(self.ctx.even):]

    def coefficient(self, name) -> SuperPoly:
        is_odd, idx = self.ctx.lookup(name)
        return self._coeffs[len(self.ctx.even) * is_odd + idx]

    def coefficients(self):
        """All coefficients, in ctx.names order (even slots first)."""
        return self._coeffs

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def apply(self, a: SuperPoly) -> SuperPoly:
        """Evaluate the derivation on a polynomial: the sum of each
        nonzero coefficient times the left partial of a by its generator,
        the one-polynomial case of _apply_each.

        Coefficients multiply the left partials from the left; this makes
        the operator satisfy the graded Leibniz rule
        D(ab) = D(a) b + (-1)^{|D||a|} a D(b).
        """
        return self._apply_each((a,))[0]

    def _apply_each(self, polys):
        """The derivation applied to each of polys: polys packed once as
        one row, and one _derive that sums each nonzero coefficient times
        the row's left partial by its generator.  The zero field gives one
        zero per polynomial."""
        ctx = self.ctx
        if any(a.ctx != ctx for a in polys):
            raise ContextMismatch("argument lives in a different context")
        packed = _pack(ctx, polys)
        return _derive(ctx, [(c, n, packed) for c, n in zip(self._coeffs, ctx.names) if c],
                       len(polys))

    def __call__(self, a):
        return self.apply(a)

    def __eq__(self, other):
        return (
            isinstance(other, SuperDerivation)
            and self.ctx == other.ctx
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.ctx, self._coeffs))

    def __add__(self, other):
        if not isinstance(other, SuperDerivation):
            return NotImplemented
        if other.ctx != self.ctx:
            raise ContextMismatch("derivations live in different contexts")
        if not self.is_zero() and not other.is_zero() and self.parity != other.parity:
            raise ParityError("cannot add derivations of different parities")
        parity = other.parity if self.is_zero() else self.parity
        coeffs = tuple(a + b for a, b in zip(self._coeffs, other._coeffs))
        return SuperDerivation._wrap(self.ctx, parity, coeffs)

    def __neg__(self):
        return SuperDerivation._wrap(self.ctx, self.parity, tuple(-c for c in self._coeffs))

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
        return SuperDerivation._wrap(self.ctx, parity, tuple(scalar * c for c in self._coeffs))

    def __str__(self):
        bits = []
        for name, coeff in zip(self.ctx.names, self._coeffs):
            if coeff.is_zero():
                continue
            body = str(coeff)
            neg = False
            if len(coeff) > 1:
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

    The composite is again a derivation, so its coefficient on a
    generator x is its value on x, d1(d2(x)) - sign d2(d1(x)), where d(x)
    is d's own coefficient on x and sign is -1 when both fields are odd,
    else 1.  Each field's coefficients are packed once as one row, and
    all of them are one _derive: d1's nonzero coefficients against the
    left partials of d2's row by their generators, then -sign times d2's
    against those of d1's row.  Both sides of a coefficient accumulate in
    one sum, so it holds at most MAX_TERMS terms.
    """
    if d1.ctx != d2.ctx:
        raise ContextMismatch("derivations live in different contexts")
    ctx = d1.ctx
    both_odd = d1.parity is Parity.ODD and d2.parity is Parity.ODD
    terms = []
    for d, other, negate in ((d1, d2, False), (d2, d1, not both_odd)):
        packed = _pack(ctx, other._coeffs)
        terms += [(-c if negate else c, n, packed) for c, n in zip(d._coeffs, ctx.names) if c]
    return SuperDerivation._wrap(ctx, d1.parity + d2.parity, _derive(ctx, terms, len(ctx.names)))


class _Weights:
    """Rational weights on a context's coordinates, held as one tuple in
    Context order (ctx.names: even coordinates, then odd).  The
    constructor takes the two halves, and only None means a zero half;
    floats are refused.  Subclasses set the length error text and the
    symbol each coordinate prints with."""

    __slots__ = ("ctx", "_weights")

    def __init__(self, ctx: Context, even=None, odd=None):
        even = tuple(map(_exact, [0] * len(ctx.even) if even is None else even))
        odd = tuple(map(_exact, [0] * len(ctx.odd) if odd is None else odd))
        if len(even) != len(ctx.even) or len(odd) != len(ctx.odd):
            raise ValueError(self._LENGTH_ERROR)
        self.ctx = ctx
        self._weights = even + odd

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.ctx == other.ctx
            and self._weights == other._weights
        )

    def __hash__(self):
        return hash((self.ctx, self._weights))

    def __str__(self):
        return _signed_sum(
            (c < 0, ("" if abs(c) == 1 else f"{abs(c)}*") + self._symbol(name))
            for name, c in zip(self.ctx.names, self._weights)
            if c
        )

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class TangentVector(_Weights):
    """Point derivation at a rational point: rational weights on the
    coordinate directions d/dt_i|_x and d/dtheta_j|_x."""

    __slots__ = ()
    _LENGTH_ERROR = "one coordinate per generator expected"

    @staticmethod
    def _symbol(name):
        return f"d/d{name}|_x"

    @classmethod
    def coordinate(cls, ctx, name) -> "TangentVector":
        is_odd, idx = ctx.lookup(name)
        even = [0] * len(ctx.even)
        odd = [0] * len(ctx.odd)
        (odd if is_odd else even)[idx] = 1
        return cls(ctx, even, odd)

    @property
    def even_coords(self):
        return self._weights[:len(self.ctx.even)]

    @property
    def odd_coords(self):
        return self._weights[len(self.ctx.even):]

    def parity(self) -> Parity:
        has_even = any(self.even_coords)
        has_odd = any(self.odd_coords)
        if has_even and has_odd:
            return Parity.MIXED
        if has_odd:
            return Parity.ODD
        return Parity.EVEN

    def coords(self):
        return self._weights

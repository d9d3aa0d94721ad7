"""Exact supercommutative polynomial arithmetic.

A Context names the generators of k[t_1 .. t_p | theta_1 .. theta_q]: even
generators commute with everything, odd generators anticommute among
themselves and square to zero.  Coefficients are Fraction throughout, so
every operation in this module is exact.  Monomials keep their odd word
sorted; normalize_odd_word supplies the sign that sorting costs.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ContextMismatch

Scalar = (int, Fraction)


def _exact(value) -> Fraction:
    """Fraction from an exact scalar.  Floats are refused: Fraction(0.1)
    is the binary float 3602879701896397/36028797018963968, not 1/10."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"inexact float {value!r}; pass an int or a Fraction")
    return Fraction(value)


class Parity(enum.Enum):
    """Z/2 grading tag.  MIXED marks an inhomogeneous sum, never a grade."""

    EVEN = 0
    ODD = 1
    MIXED = 2

    def __add__(self, other):
        if not isinstance(other, Parity):
            return NotImplemented
        if Parity.MIXED in (self, other):
            raise ValueError("cannot add MIXED parities")
        return Parity((self.value + other.value) % 2)

    def flipped(self) -> "Parity":
        if self is Parity.MIXED:
            raise ValueError("cannot flip MIXED parity")
        return Parity(1 - self.value)

    def __str__(self):
        return self.name.lower()


def normalize_odd_word(word: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Sort a word of odd-generator indices by adjacent transpositions.

    Returns (sign, sorted_word) where sign is the sign of the sorting
    permutation, or (0, ()) when an index repeats, since theta*theta = 0.
    """
    w = list(word)
    sign = 1
    for i in range(1, len(w)):
        j = i
        while j > 0 and w[j - 1] > w[j]:
            w[j - 1], w[j] = w[j], w[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(w, w[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(w)


class Context:
    """Fixed, ordered generator names for one supercommutative ring."""

    __slots__ = ("even", "odd", "_kinds")

    def __init__(self, even: Iterable[str] = (), odd: Iterable[str] = ()):
        self.even = tuple(even)
        self.odd = tuple(odd)
        kinds: dict[str, tuple[bool, int]] = {}
        for i, name in enumerate(self.even):
            kinds[name] = (False, i)
        for j, name in enumerate(self.odd):
            kinds[name] = (True, j)
        if len(kinds) != len(self.even) + len(self.odd):
            raise ValueError("generator names must be distinct")
        self._kinds = kinds

    def lookup(self, name: str) -> tuple[bool, int]:
        """Return (is_odd, index) for a generator name."""
        try:
            return self._kinds[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    def __contains__(self, name):
        return name in self._kinds

    @property
    def dims(self) -> tuple[int, int]:
        return len(self.even), len(self.odd)

    def var(self, name: str) -> "SuperPoly":
        return SuperPoly.var(self, name)

    def scalar(self, value) -> "SuperPoly":
        return SuperPoly.scalar(self, value)

    def zero(self) -> "SuperPoly":
        return SuperPoly.zero(self)

    def one(self) -> "SuperPoly":
        return SuperPoly.scalar(self, 1)

    def point(self, even_values) -> "RationalPoint":
        return RationalPoint(self, even_values)

    def __eq__(self, other):
        return (
            isinstance(other, Context)
            and self.even == other.even
            and self.odd == other.odd
        )

    def __hash__(self):
        return hash((self.even, self.odd))

    def __repr__(self):
        return f"Context(even={list(self.even)}, odd={list(self.odd)})"


class Monomial(NamedTuple):
    """even: ((generator index, exponent), ...) sorted, exponents positive;
    odd: strictly increasing generator indices."""

    even: tuple[tuple[int, int], ...]
    odd: tuple[int, ...]

    @property
    def even_degree(self) -> int:
        return sum(e for _, e in self.even)


UNIT_MONOMIAL = Monomial((), ())


def _merge_even(a, b):
    """Add two sorted exponent lists."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ia, ea = a[i]
        ib, eb = b[j]
        if ia < ib:
            out.append(a[i])
            i += 1
        elif ia > ib:
            out.append(b[j])
            j += 1
        else:
            out.append((ia, ea + eb))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


class SuperPoly:
    """Sparse polynomial: {Monomial: Fraction} with no zero coefficients stored.

    Values are immutable once constructed; equality is equality of term maps,
    which is canonical-form equality.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: Mapping[Monomial, Fraction] = ()):
        self.ctx = ctx
        clean = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, c in items:
            if not isinstance(c, Fraction):
                c = _exact(c)
            if c:
                clean[mono] = c
        self.terms = clean

    @classmethod
    def _raw(cls, ctx, terms):
        # internal: terms already pruned, coefficients already Fraction
        p = object.__new__(cls)
        p.ctx = ctx
        p.terms = terms
        return p

    @classmethod
    def zero(cls, ctx) -> "SuperPoly":
        return cls._raw(ctx, {})

    @classmethod
    def scalar(cls, ctx, value) -> "SuperPoly":
        c = value if isinstance(value, Fraction) else _exact(value)
        return cls._raw(ctx, {UNIT_MONOMIAL: c} if c else {})

    @classmethod
    def var(cls, ctx, name) -> "SuperPoly":
        is_odd, idx = ctx.lookup(name)
        mono = Monomial((), (idx,)) if is_odd else Monomial(((idx, 1),), ())
        return cls._raw(ctx, {mono: Fraction(1)})

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {UNIT_MONOMIAL}

    def constant_term(self) -> Fraction:
        return self.terms.get(UNIT_MONOMIAL, Fraction(0))

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def parity(self) -> Parity:
        """EVEN, ODD, or MIXED; the zero polynomial is EVEN by convention."""
        if not self.terms:
            return Parity.EVEN
        seen = {len(m.odd) & 1 for m in self.terms}
        if len(seen) == 2:
            return Parity.MIXED
        return Parity(seen.pop())

    def has_parity(self, parity: Parity) -> bool:
        """True when the polynomial is homogeneous of the given parity.
        Zero counts as homogeneous of every parity."""
        return not self.terms or self.parity() is parity

    def body(self) -> "SuperPoly":
        """Kill the odd part: keep only terms with empty odd word."""
        return SuperPoly._raw(
            self.ctx, {m: c for m, c in self.terms.items() if not m.odd}
        )

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SuperPoly):
            if other.ctx != self.ctx:
                raise ContextMismatch("operands live in different contexts")
            return other
        if isinstance(other, Scalar):
            return SuperPoly.scalar(self.ctx, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono, 0) + c
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
        return SuperPoly._raw(self.ctx, terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return SuperPoly._raw(self.ctx, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Scalar):
            c = Fraction(other)
            if not c:
                return SuperPoly.zero(self.ctx)
            return SuperPoly._raw(self.ctx, {m: v * c for m, v in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sign, odd = normalize_odd_word(m1.odd + m2.odd)
                if not sign:
                    continue
                mono = Monomial(_merge_even(m1.even, m2.even), odd)
                c = c1 * c2
                if sign < 0:
                    c = -c
                s = acc.get(mono, 0) + c
                if s:
                    acc[mono] = s
                else:
                    acc.pop(mono, None)
        return SuperPoly._raw(self.ctx, acc)

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, Scalar) and other:
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = SuperPoly.scalar(self.ctx, 1)
        for _ in range(n):
            out = out * self
            if not out.terms:
                break
        return out

    def __eq__(self, other):
        if isinstance(other, Scalar):
            other = SuperPoly.scalar(self.ctx, other)
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        # a constant equals its Fraction, so it must hash like one too
        if self.is_constant():
            return hash(self.constant_term())
        return hash((self.ctx, frozenset(self.terms.items())))

    # -- calculus --------------------------------------------------------

    def partial(self, name: str) -> "SuperPoly":
        """Left partial derivative with respect to one generator.

        For an odd generator the struck variable is moved to the front of
        the odd word first, and each transposition costs a sign.
        """
        is_odd, idx = self.ctx.lookup(name)
        acc: dict[Monomial, Fraction] = {}
        if is_odd:
            for mono, c in self.terms.items():
                if idx not in mono.odd:
                    continue
                pos = mono.odd.index(idx)
                rest = mono.odd[:pos] + mono.odd[pos + 1 :]
                acc[Monomial(mono.even, rest)] = -c if pos & 1 else c
        else:
            for mono, c in self.terms.items():
                for k, (i, e) in enumerate(mono.even):
                    if i != idx:
                        continue
                    if e == 1:
                        ne = mono.even[:k] + mono.even[k + 1 :]
                    else:
                        ne = mono.even[:k] + ((i, e - 1),) + mono.even[k + 1 :]
                    acc[Monomial(ne, mono.odd)] = c * e
                    break
        return SuperPoly._raw(self.ctx, acc)

    def at(self, point: "RationalPoint") -> Fraction:
        """Evaluate with odd generators sent to zero.  Exact."""
        if point.ctx != self.ctx:
            raise ContextMismatch("point context differs from polynomial context")
        total = Fraction(0)
        for mono, c in self.terms.items():
            if mono.odd:
                continue
            v = c
            for i, e in mono.even:
                v *= point.even_values[i] ** e
            total += v
        return total

    def substitute(self, ctx_out: Context, images: Mapping[str, "SuperPoly"]) -> "SuperPoly":
        """Apply the ring map sending each generator to its image.

        Every generator actually appearing in this polynomial must have an
        image over ctx_out; images must be parity-correct (even generators
        get EVEN polynomials, odd generators get ODD ones; zero is fine for
        either), which is what makes the substitution a well defined
        homomorphism.
        """
        from .errors import ParityError

        pow_cache: dict[tuple[int, int], SuperPoly] = {}

        def even_power(i, e):
            got = pow_cache.get((i, e))
            if got is None:
                name = self.ctx.even[i]
                img = images.get(name)
                if img is None:
                    raise ValueError(f"no image for generator {name!r}")
                if not img.has_parity(Parity.EVEN):
                    raise ParityError(f"image of even generator {name!r} is not even")
                got = img**e
                pow_cache[(i, e)] = got
            return got

        odd_cache: dict[int, SuperPoly] = {}

        def odd_image(j):
            got = odd_cache.get(j)
            if got is None:
                name = self.ctx.odd[j]
                img = images.get(name)
                if img is None:
                    raise ValueError(f"no image for generator {name!r}")
                if not img.has_parity(Parity.ODD):
                    raise ParityError(f"image of odd generator {name!r} is not odd")
                odd_cache[j] = got = img
            return got

        out = SuperPoly.zero(ctx_out)
        for mono, c in self.terms.items():
            prod = SuperPoly.scalar(ctx_out, c)
            for i, e in mono.even:
                prod = prod * even_power(i, e)
                if not prod:
                    break
            if prod:
                for j in mono.odd:
                    prod = prod * odd_image(j)
                    if not prod:
                        break
            out = out + prod
        return out

    def rename(self, ctx_out: Context, name_map: Mapping[str, str] | None = None) -> "SuperPoly":
        """Transport along a generator renaming; names absent from the map
        keep their spelling in ctx_out."""
        name_map = name_map or {}
        images = {}
        for name in self._used_names():
            images[name] = SuperPoly.var(ctx_out, name_map.get(name, name))
        return self.substitute(ctx_out, images)

    def _used_names(self):
        used = set()
        for mono in self.terms:
            for i, _ in mono.even:
                used.add(self.ctx.even[i])
            for j in mono.odd:
                used.add(self.ctx.odd[j])
        return used

    # -- rendering -------------------------------------------------------

    def _mono_key(self, mono: Monomial):
        dense = [0] * len(self.ctx.even)
        for i, e in mono.even:
            dense[i] = e
        return (-mono.even_degree, tuple(-x for x in dense), mono.odd)

    def sorted_terms(self):
        """Terms in canonical printing order: graded-lex descending on the
        even part, then lexicographic on the odd word."""
        for mono in sorted(self.terms, key=self._mono_key):
            yield mono, self.terms[mono]

    def _term_text(self, mono, coeff):
        factors = []
        for i, e in mono.even:
            name = self.ctx.even[i]
            factors.append(name if e == 1 else f"{name}^{e}")
        for j in mono.odd:
            factors.append(self.ctx.odd[j])
        mag = abs(coeff)
        if not factors:
            return str(mag)
        if mag == 1:
            return "*".join(factors)
        return "*".join([str(mag)] + factors)

    def __str__(self):
        return _signed_sum(
            (coeff < 0, self._term_text(mono, coeff))
            for mono, coeff in self.sorted_terms()
        )

    def __repr__(self):
        return f"SuperPoly({self})"


def _signed_sum(pieces) -> str:
    """Join (negative, text) pairs as "a - b + c"; no pieces give "0"."""
    out = []
    for neg, text in pieces:
        if out:
            out.append(" - " if neg else " + ")
        elif neg:
            out.append("-")
        out.append(text)
    return "".join(out) or "0"


class RationalPoint:
    """Rational values for the even generators; odd generators go to zero."""

    __slots__ = ("ctx", "even_values")

    def __init__(self, ctx: Context, even_values):
        vals = tuple(_exact(v) for v in even_values)
        if len(vals) != len(ctx.even):
            raise ValueError(
                f"expected {len(ctx.even)} even values, got {len(vals)}"
            )
        self.ctx = ctx
        self.even_values = vals

    def __eq__(self, other):
        return (
            isinstance(other, RationalPoint)
            and self.ctx == other.ctx
            and self.even_values == other.even_values
        )

    def __hash__(self):
        return hash((self.ctx, self.even_values))

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self.even_values) + ")"

    def __repr__(self):
        return f"RationalPoint{self}"

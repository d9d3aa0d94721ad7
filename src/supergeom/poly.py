"""Exact supercommutative polynomial arithmetic.

A Context names the generators of k[t_1 .. t_p | theta_1 .. theta_q]: even
generators commute with everything, odd generators anticommute among
themselves and square to zero.  A SuperPoly stores int numerators over one
positive int denominator, reduced so that the denominator shares no factor
with all the numerators; the ring operations add and multiply plain ints
and reduce once per result, so every operation in this module is exact.
Fraction appears only where a coefficient is read: coefficient,
constant_term, at, sorted_terms (hence serialize) and the public
constructor.  str prints from the numerators and den, one gcd per
term, with each monomial's sort key and text cached per Context.

Context(even, odd) returns the one live object of its signature, the
ordered generator names that fix the ring, so every producer of contexts
(scripts, serialize, groups, liealg and user code) shares one object and
one print cache per signature, and contexts compare and hash by identity.

Every bounded cache here is one type, _Memo: key -> fn(key), emptied
when a miss finds MAX_CACHE entries.  _WORDS holds odd words, _SWAP_PARITY
Koszul sign masks, each Context's _texts its monomials' sort keys and
texts, and each image map its images' powers, keyed (0, i, e) for
t_i^e and (1, j, 1) for theta_j: _substitute_each pulls a whole tuple of
polynomials back through one such memo, so an image is looked up and its
parity and context checked at its first power, once per image map, and
each polynomial's terms are summed into one numerator map.
SuperPoly.substitute is its one-polynomial case; compose, the group
axioms and the left-invariant fields pull all their polynomials of one
map through one call.  One constructor,
SuperPoly._from_coefficients, makes the canonical numerators and den of
a map of coefficients, for the public constructor and the parser; the
reduced Lie constraints are int echelon rows over the codes _linear_rows
reads, and _pivot_row makes each one a polynomial over its pivot.

A SuperPoly keys its numerators by one int per monomial, its code.  The
even part sits in the low bits as fixed-width exponent fields: the
exponent of t_i is the field of _FIELD_BITS bits that starts at bit
i * _FIELD_BITS.  The top bit of every field is a guard bit and stays
clear, so an exponent is at most MAX_FIELD_EXPONENT.  The odd part is a
mask placed just above the p fields, at bit ctx._shift = p * _FIELD_BITS:
bit ctx._shift + j set means theta_j is present, and theta_mask is the
product of those generators in increasing index order.  The unit is code
0.  The public Monomial is the pair (packed, mask) of the two parts; it is
built only where a monomial crosses the API (the constructor, coefficient,
terms and sorted_terms), and encode and decode convert it.  Codes are
built by the ring operations here, by var and scalar, and for the
expression parser by _times_generator, which multiplies a code by one
generator to a power with the sign rule of _mac, and
SuperPoly._from_coefficients, which makes a polynomial of a map of codes
to coefficients.  The parser, and liealg for its constraints, hold those
codes without reading them; no other module reads a code.
SuperPoly.rename is the one move between contexts.  A map that moves
the even generators by one index offset and the odd ones by another,
as every caller in the package does, keeps their order, so each code
moves its even fields and its odd mask by one shift each, with no sign
and no product; any other map is the substitution of each generator by
its target.
SuperPoly.left_quotient divides out a one-term odd factor theta_M in one
pass, so the Koszul signs of products, partials, renamings and quotients
are all counted in this module.

A product theta_k1 * theta_k2 is zero when k1 & k2 shares a bit.
Otherwise sorting the concatenated word moves each generator y of k2
leftwards past the generators of k1 above it, so the sign is
(-1)^sum(popcount(k1 >> (y+1)) for y in k2).  _SWAP_PARITY[k1] holds the
parity of each of those counts as one mask, which makes the sign one &
and one bit_count per pair.

For two monomials with disjoint odd masks the code of the product is the
sum of the two codes.  Each even field of the sum is below 2**_FIELD_BITS
because both guard bits were clear, so nothing carries out of a field,
and the disjoint masks add like |.  A field that went past
MAX_FIELD_EXPONENT shows as a guard bit of the sum: _mac tests the sum
against the guard bits of its context and raises LimitExceeded, so a
carry never reaches the next field or the mask.

The codes key plain dicts, and CPython hashes an int modulo 2**61 - 1,
which folds bit k onto bit k % 61.  Over three even generators the mask
starts at bit 72 and folds onto bits 11 and up, above every exponent
below 2**11 of the first field; see _FIELD_BITS for the fields.

_mac is the only loop over pairs of terms, with one inner loop for
odd-free left terms and one for the rest, and it has three callers.  A
product of two polynomials (SuperPoly.__mul__) calls it once; the parser
reaches it only for a product with a group or binding, since it folds
literal factors with _times_generator.  _substitute_each calls it once
per term, into one map per substituted polynomial.  dot_row(ctx, row,
grid), the one sum of products, checks every context first and then
calls it once per nonzero left factor for all the columns of a product
row, each column over the running lcm of its products' denominators:
matrix._gmul is one dot_row per row, and matrix._series_inverse builds
each odd-degree part of an inverse with one dot_row per row, on the
parts that SuperPoly.odd_degree_parts splits off.  Those parts share no
monomial, so _disjoint_sum joins them with no product.
A row of a Schur complement (matrix._schur), the residual of a bracket
in distribution.involutive and a whole derivation bracket are one
dot_row each, with the subtracted terms weighted by negated factors; a
derivation applied to one polynomial or to all the images of a map
(apply, livf, is_left_invariant) is one dot_row too.  The Laplace
expansion of matrix._minors is the last exception: it still adds its
products one * and one + at a time.
"""

from __future__ import annotations

import enum
import threading
import weakref
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import itemgetter

from .errors import ContextMismatch, LimitExceeded, ParityError

Scalar = (int, Fraction)

# Largest exponent SuperPoly ** n accepts.  Each step of a power is one
# product, so an unchecked t^100000000 runs for minutes; no demo, test or
# benchmark input comes near this.
MAX_EXPONENT = 1000

# Most terms one product or sum of products may accumulate.  A power or
# product of many-term factors, such as (1+t+s+u)^1000, otherwise grows
# without bound; the largest product in the demos, tests and benchmark
# has 127 terms.
MAX_TERMS = 10_000

# Most decimal digits in the numerator or denominator of a printed
# coefficient; below CPython's own 4300-digit limit on int to str, so a
# huge exact value ends in LimitExceeded rather than a ValueError.
MAX_DIGITS = 4000
_DIGITS_BOUND = 10**MAX_DIGITS

# Width of one even exponent field in a monomial code.  The top bit of a
# field is its guard bit, so MAX_FIELD_EXPONENT is the largest exponent of
# one even generator; a product that passes it raises LimitExceeded.
# CPython hashes an int modulo 2**61 - 1, which folds bit k onto bit
# k % 61.  24-bit fields keep the first five fields at least 11 bits apart
# after that fold, so their monomials hash apart while exponents stay
# below 2**11; with 32-bit fields field 2 folds onto bit 3 and half the
# monomials of degree <= 37 in three generators share a hash.
_FIELD_BITS = 24
_FIELD_MASK = (1 << _FIELD_BITS) - 1
MAX_FIELD_EXPONENT = (1 << (_FIELD_BITS - 1)) - 1


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
        return _PARITIES[(self.value + other.value) & 1]

    def flipped(self) -> "Parity":
        if self is Parity.MIXED:
            raise ValueError("cannot flip MIXED parity")
        return _PARITIES[1 - self.value]

    def __str__(self):
        return self.name.lower()


# the Parity of a bit 0 or 1, read without the Parity(int) enum lookup
_PARITIES = (Parity.EVEN, Parity.ODD)


# Most entries one _Memo holds.  The odd-word memos are keyed by the odd
# masks seen so far, which over many odd generators have no useful bound;
# a miss that finds a memo this full empties it first, so a hit costs the
# same and a long session keeps at most this many entries.
MAX_CACHE = 1 << 16


class _Memo(dict):
    """key -> fn(key), computed on first lookup and kept until a miss
    finds MAX_CACHE entries, which empties the memo first.  MAX_CACHE is
    read at each miss."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self.fn(key)
        if len(self) >= MAX_CACHE:
            self.clear()
        self[key] = value
        return value


# odd-word mask -> its set bits as an increasing index tuple, interned
_WORDS = _Memo(lambda mask: tuple(j for j in range(mask.bit_length()) if mask >> j & 1))
_odd_word = _WORDS.__getitem__


def _swap_parity(mask: int) -> int:
    """The mask whose bit y is the parity of the number of bits of mask
    above y.

    theta_mask * theta_y passes theta_y leftwards over exactly those
    generators, so for a disjoint mask k the product theta_mask * theta_k
    has the sign (-1)^popcount(_SWAP_PARITY[mask] & k).
    """
    # suffix xor of mask >> 1 by doubling shifts
    out = mask >> 1
    step = 1
    while step < mask.bit_length():
        out ^= out >> step
        step <<= 1
    return out


_SWAP_PARITY = _Memo(_swap_parity)


def normalize_odd_word(word: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Sort a word of odd-generator indices, tracking the Koszul sign.

    Returns (sign, sorted_word) where sign is the sign of the sorting
    permutation, or (0, ()) when an index repeats, since theta*theta = 0.
    The generators are folded into a mask one at a time with the sign
    rule of _mac.
    """
    mask, sign = 0, 1
    for j in word:
        bit = 1 << j
        if mask & bit:
            return 0, ()
        if _SWAP_PARITY[mask] & bit:
            sign = -sign
        mask |= bit
    return sign, _odd_word(mask)


# the live Context of each (even, odd) signature; see Context
_CONTEXTS = weakref.WeakValueDictionary()
_CONTEXTS_LOCK = threading.Lock()


class Context:
    """Fixed, ordered generator names for one supercommutative ring.

    Context(even, odd) returns the one live object of its signature
    (tuple(even), tuple(odd)), hash-consed in a weak registry, so two
    contexts with the same names are one object and compare and hash by
    identity.  Its fields are built once, in __new__; copy, deepcopy and
    pickle rebuild through the constructor and so give back that object.
    """

    __slots__ = ("even", "odd", "names", "_kinds", "_guard", "_shift", "_texts",
                 "__weakref__")

    def __new__(cls, even: Iterable[str] = (), odd: Iterable[str] = ()):
        even, odd = tuple(even), tuple(odd)
        with _CONTEXTS_LOCK:
            self = _CONTEXTS.get((even, odd))
            if self is not None:
                return self
            # every generator in order: the even names, then the odd ones
            names = even + odd
            kinds: dict[str, tuple[bool, int]] = {}
            for i, name in enumerate(even):
                kinds[name] = (False, i)
            for j, name in enumerate(odd):
                kinds[name] = (True, j)
            if len(kinds) != len(names):
                raise ValueError("generator names must be distinct")
            self = object.__new__(cls)
            self.even, self.odd, self.names, self._kinds = even, odd, names, kinds
            # the guard bit of every even exponent field
            self._guard = sum(1 << (_FIELD_BITS * i + _FIELD_BITS - 1)
                              for i in range(len(even)))
            # a monomial code keeps its odd mask from this bit up
            self._shift = _FIELD_BITS * len(even)
            # code -> (sort key, factor text) of the monomials printed so
            # far; its function holds the names, not the context, so no
            # cycle keeps a dropped context in the registry
            self._texts = _Memo(partial(_monomial_text, even, odd, self._shift))
            _CONTEXTS[even, odd] = self
        return self

    def __reduce__(self):
        return Context, (self.even, self.odd)

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

    def __repr__(self):
        return f"Context(even={list(self.even)}, odd={list(self.odd)})"


def _monomial_text(even, odd, shift: int, code: int) -> tuple[tuple, str]:
    """(sort key, factor text) of a monomial code over the generator
    names even and odd, its odd mask from bit shift up.  The key sorts
    graded-lex descending on the even part, then lexicographically on the
    odd word; the text is the factors joined by '*', empty for the unit."""
    exps = [code >> i & _FIELD_MASK for i in range(0, shift, _FIELD_BITS)]
    word = _odd_word(code >> shift)
    factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(even, exps) if e]
    factors += [odd[j] for j in word]
    # minus every exponent, so sum(neg) is minus the degree
    neg = tuple(-e for e in exps)
    return (sum(neg), neg, word), "*".join(factors)


def _unpack(packed: int) -> tuple[tuple[int, int], ...]:
    """The nonzero fields of a packed even part as (index, exponent) pairs,
    increasing index."""
    out = []
    i = 0
    while packed:
        e = packed & _FIELD_MASK
        if e:
            out.append((i, e))
        packed >>= _FIELD_BITS
        i += 1
    return tuple(out)


class Monomial(tuple):
    """A monomial t^a theta_K as the pair of ints (packed, mask).

    packed holds the exponent of even generator i in the field of
    _FIELD_BITS bits starting at bit i * _FIELD_BITS, with each field's top
    (guard) bit clear, so an exponent is at most MAX_FIELD_EXPONENT; mask
    has bit j set when theta_j is present, the generators multiplied in
    increasing index order.  even, even_degree and odd are read-only views
    decoded from the two ints.  A Monomial does not know its context: a
    SuperPoly stores it as the one int encode(ctx, mono), which refuses a
    generator index the context does not have.

    Monomial(even, mask) takes (index, exponent) pairs in any order and
    raises ValueError on a repeated or negative index, an exponent that is
    not an int in 1..MAX_FIELD_EXPONENT, or a negative mask, so equal
    monomials always compare and hash equal.
    """

    __slots__ = ()

    def __new__(cls, even: Iterable[tuple[int, int]], mask: int):
        packed = 0
        for i, e in even:
            if type(i) is not int or i < 0:
                raise ValueError(f"even generator index {i!r} is not an int >= 0")
            if type(e) is not int or not 0 < e <= MAX_FIELD_EXPONENT:
                raise ValueError(
                    f"exponent {e!r} is not an int in 1..{MAX_FIELD_EXPONENT}"
                )
            shift = _FIELD_BITS * i
            if packed >> shift & _FIELD_MASK:
                raise ValueError(f"even generator index {i} repeats")
            packed |= e << shift
        if type(mask) is not int or mask < 0:
            raise ValueError(f"odd mask {mask!r} is not an int >= 0")
        return tuple.__new__(cls, (packed, mask))

    packed = property(itemgetter(0), doc="The even part as packed exponent fields.")
    mask = property(itemgetter(1), doc="The odd part: bit j set when theta_j is present.")

    @property
    def even(self) -> tuple[tuple[int, int], ...]:
        """((generator index, exponent), ...) by increasing index."""
        return _unpack(self[0])

    @property
    def odd(self) -> tuple[int, ...]:
        """The odd word: strictly increasing generator indices."""
        return _odd_word(self[1])

    @property
    def even_degree(self) -> int:
        return sum(e for _, e in _unpack(self[0]))

    def __getnewargs__(self):
        return self.even, self[1]

    def __repr__(self):
        return f"Monomial(even={self.even!r}, mask={self[1]!r})"


UNIT_MONOMIAL = Monomial((), 0)


def encode(ctx: Context, mono: Monomial) -> int:
    """The code of mono in ctx: packed | mask << ctx._shift.

    Raises TypeError when mono is not a Monomial and ValueError when it
    names an even or odd generator index that ctx does not have, which
    would otherwise land on another generator's bits.
    """
    if not isinstance(mono, Monomial):
        raise TypeError(f"{mono!r} is not a Monomial")
    packed, mask = mono
    shift = ctx._shift
    if packed >> shift:
        raise ValueError(
            f"monomial has even generator index "
            f"{(packed.bit_length() - 1) // _FIELD_BITS}, but the context "
            f"has {len(ctx.even)} even generators"
        )
    if mask >> len(ctx.odd):
        raise ValueError(
            f"monomial has odd generator index {mask.bit_length() - 1}, "
            f"but the context has {len(ctx.odd)} odd generators"
        )
    return packed | mask << shift


def decode(ctx: Context, code: int) -> Monomial:
    """The Monomial of a code in ctx; the inverse of encode."""
    shift = ctx._shift
    return tuple.__new__(Monomial, (code & ((1 << shift) - 1), code >> shift))


class _Terms(Mapping):
    """Read-only {Monomial: Fraction} view of a polynomial's terms.

    Length reads the numerators directly; iteration decodes each code, and
    a Fraction is built only when a coefficient is read.  A monomial that
    names a generator outside the polynomial's context is not a key.
    """

    __slots__ = ("_poly",)

    def __init__(self, poly):
        self._poly = poly

    def _code(self, mono):
        try:
            return encode(self._poly.ctx, mono)
        except (TypeError, ValueError):
            return None

    def __getitem__(self, mono):
        poly = self._poly
        num = poly.nums.get(self._code(mono))
        if num is None:
            raise KeyError(mono)
        return Fraction(num, poly.den)

    def __len__(self):
        return len(self._poly.nums)

    def __iter__(self):
        ctx = self._poly.ctx
        return (decode(ctx, code) for code in self._poly.nums)

    def __contains__(self, mono):
        return self._code(mono) in self._poly.nums


class SuperPoly:
    """Sparse polynomial: integer numerators over one positive denominator.

    nums maps the code of each monomial (see encode) to a nonzero int and
    den is a positive int; the coefficient of a monomial is its numerator
    over den.  The form is canonical: gcd(den, *nums.values()) == 1, and
    zero has den 1, so two polynomials are equal exactly when their
    (ctx, den, nums) are.  Values are immutable once constructed.
    """

    __slots__ = ("ctx", "nums", "den")

    def __init__(self, ctx: Context, terms: Mapping[Monomial, Fraction | int] = ()):
        """From {Monomial: Fraction or int}; zero coefficients are dropped,
        floats refused, and a monomial with a generator index outside ctx
        raises ValueError."""
        coeffs = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, c in items:
            code = encode(ctx, mono)
            if c := _exact(c):
                coeffs[code] = c
        p = SuperPoly._from_coefficients(ctx, coeffs)
        self.ctx, self.nums, self.den = ctx, p.nums, p.den

    @classmethod
    def _raw(cls, ctx, nums, den=1):
        # internal: nums pruned of zeros, den positive and already coprime to them
        p = object.__new__(cls)
        p.ctx = ctx
        p.nums = nums
        p.den = den
        return p

    @classmethod
    def _reduced(cls, ctx, nums, den):
        # internal: nums pruned of zeros, den positive; divides out their
        # common factor (all of den when nums is empty)
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {m: v // g for m, v in nums.items()}
        return cls._raw(ctx, nums, den)

    @classmethod
    def _from_coefficients(cls, ctx, coeffs: dict[int, int | Fraction]) -> "SuperPoly":
        # internal: from {code: int or Fraction}, zeros dropped; the lcm of
        # the reduced denominators shares no factor with all the scaled
        # numerators, so this is already canonical
        den = lcm(*[c.denominator for c in coeffs.values() if type(c) is not int])
        nums = {}
        for code, c in coeffs.items():
            if c:
                nums[code] = c * den if type(c) is int else c.numerator * (den // c.denominator)
        return cls._raw(ctx, nums, den)

    @classmethod
    def zero(cls, ctx) -> "SuperPoly":
        return cls._raw(ctx, {})

    @classmethod
    def scalar(cls, ctx, value) -> "SuperPoly":
        # the unit monomial has code 0
        if type(value) is int:
            return cls._raw(ctx, {0: value} if value else {})
        c = _exact(value)
        return cls._raw(ctx, {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def var(cls, ctx, name) -> "SuperPoly":
        is_odd, idx = ctx.lookup(name)
        bit = ctx._shift + idx if is_odd else _FIELD_BITS * idx
        return cls._raw(ctx, {1 << bit: 1})

    # -- queries ---------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return _Terms(self)

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    def is_constant(self) -> bool:
        nums = self.nums
        return not nums or (len(nums) == 1 and 0 in nums)

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get(0, 0), self.den)

    def coefficient(self, mono: Monomial) -> Fraction:
        """The coefficient of mono, 0 when absent; ValueError when mono
        names a generator index outside the context."""
        return Fraction(self.nums.get(encode(self.ctx, mono), 0), self.den)

    def parity(self) -> Parity:
        """EVEN, ODD, or MIXED; the zero polynomial is EVEN by convention."""
        if not self.nums:
            return Parity.EVEN
        shift = self.ctx._shift
        codes = iter(self.nums)
        odd = (next(codes) >> shift).bit_count() & 1
        for code in codes:
            if (code >> shift).bit_count() & 1 != odd:
                return Parity.MIXED
        return _PARITIES[odd]

    def has_parity(self, parity: Parity) -> bool:
        """True when the polynomial is homogeneous of the given parity.
        Zero counts as homogeneous of every parity."""
        return not self.nums or self.parity() is parity

    def body(self) -> "SuperPoly":
        """Kill the odd part: keep only terms with empty odd word."""
        shift = self.ctx._shift
        return SuperPoly._reduced(
            self.ctx, {m: v for m, v in self.nums.items() if not m >> shift}, self.den
        )

    def odd_degree_parts(self) -> dict[int, "SuperPoly"]:
        """{e: the terms with exactly e odd generators} for every e that
        occurs, each part reduced on its own; zero gives {}, and a
        polynomial of one degree is its own part.  The parts partition
        the terms, so they sum back to this polynomial."""
        shift = self.ctx._shift
        split: dict[int, dict[int, int]] = {}
        for code, v in self.nums.items():
            e = (code >> shift).bit_count()
            part = split.get(e)
            if part is None:
                part = split[e] = {}
            part[code] = v
        if len(split) == 1:
            return dict.fromkeys(split, self)
        return {e: SuperPoly._reduced(self.ctx, nums, self.den)
                for e, nums in split.items()}

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
        if not other.nums:
            return self
        if not self.nums:
            return other
        den = self.den
        if den == other.den:
            nums = dict(self.nums)
            right = other.nums.items()
        else:
            # both sides over the lcm of the two denominators
            g = gcd(den, other.den)
            up, other_up = other.den // g, den // g
            nums = {m: v * up for m, v in self.nums.items()}
            right = [(m, v * other_up) for m, v in other.nums.items()]
            den *= up
        for mono, v in right:
            s = nums.get(mono, 0) + v
            if s:
                nums[mono] = s
            else:
                del nums[mono]
        return SuperPoly._reduced(self.ctx, nums, den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return SuperPoly._raw(self.ctx, {m: -v for m, v in self.nums.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, SuperPoly):
            ctx = self.ctx
            if other.ctx is not ctx:
                raise ContextMismatch("operands live in different contexts")
            acc: dict[int, int] = {}
            _mac(ctx, self.nums, ((acc, 1, other.nums.items()),))
            return SuperPoly._reduced(ctx, acc, self.den * other.den)
        if not isinstance(other, Scalar):
            return NotImplemented
        if not other:
            return SuperPoly.zero(self.ctx)
        if isinstance(other, Fraction):
            return self._scaled(other.numerator, other.denominator)
        return self._scaled(int(other), 1)

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if not isinstance(other, Scalar) or not other:
            return NotImplemented
        if isinstance(other, Fraction):
            return self._scaled(other.denominator, other.numerator)
        return self._scaled(1, int(other))

    def _scaled(self, n: int, d: int) -> "SuperPoly":
        # this polynomial times n/d for nonzero ints n and d, reduced once
        if d < 0:
            n, d = -n, -d
        return SuperPoly._reduced(
            self.ctx, {m: v * n for m, v in self.nums.items()}, self.den * d
        )

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        _cap_exponent(n)
        out = SuperPoly.scalar(self.ctx, 1)
        for _ in range(n):
            out = out * self
            if not out.nums:
                break
        return out

    def __eq__(self, other):
        if isinstance(other, Scalar):
            other = SuperPoly.scalar(self.ctx, other)
        if not isinstance(other, SuperPoly):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        # a constant equals its Fraction, so it must hash like one too
        if self.is_constant():
            return hash(self.constant_term())
        return hash((self.ctx, self.den, frozenset(self.nums.items())))

    # -- calculus --------------------------------------------------------

    def partial(self, name: str) -> "SuperPoly":
        """Left partial derivative with respect to one generator.

        For an odd generator the struck variable is moved to the front of
        the odd word first, and each transposition costs a sign.
        """
        is_odd, idx = self.ctx.lookup(name)
        acc: dict[int, int] = {}
        if is_odd:
            low = 1 << self.ctx._shift
            bit = low << idx
            # the odd generators in front of theta_idx, one transposition each
            front = bit - low
            for code, c in self.nums.items():
                if code & bit:
                    passed = (code & front).bit_count()
                    acc[code ^ bit] = -c if passed & 1 else c
        else:
            shift = _FIELD_BITS * idx
            step = 1 << shift
            for code, c in self.nums.items():
                e = code >> shift & _FIELD_MASK
                if e:
                    acc[code - step] = c * e
        # dropped terms (and the exponents e) can leave a common factor
        return SuperPoly._reduced(self.ctx, acc, self.den)

    def at(self, point: "RationalPoint") -> Fraction:
        """Evaluate with odd generators sent to zero.  Exact.

        The sum is taken in ints over one common denominator.  With E_i
        the largest exponent of t_i in the body and p_i/q_i its value,
        the value is sum(c * prod p_i^e_i * q_i^(E_i - e_i)) over
        den * prod q_i^E_i, the product over every generator the body
        holds, so a term that lacks t_i is still scaled by q_i^E_i.
        """
        if point.ctx != self.ctx:
            raise ContextMismatch("point context differs from polynomial context")
        shift = self.ctx._shift
        body = [(code, c) for code, c in self.nums.items() if not code >> shift]
        held = 0
        for code, _ in body:
            held |= code
        den = self.den
        # (field shift, p, q, E) of each generator the body holds
        gens = []
        for i, x in enumerate(point.even_values):
            s = _FIELD_BITS * i
            if held >> s & _FIELD_MASK:
                top = max([code >> s & _FIELD_MASK for code, _ in body])
                q = x.denominator
                gens.append((s, x.numerator, q, top))
                den *= q ** top
        total = 0
        for code, c in body:
            for s, p, q, top in gens:
                e = code >> s & _FIELD_MASK
                c *= p ** e * q ** (top - e)
            total += c
        return Fraction(total, den)

    def substitute(self, ctx_out: Context, images: Mapping[str, "SuperPoly"]) -> "SuperPoly":
        """Apply the ring map sending each generator to its image: the
        one-polynomial case of _substitute_each, which pulls a tuple of
        polynomials over one context back through one memo of image powers.

        Each term multiplies the images of its generators in order, the
        even powers by index and then the odd word, and reads no further
        image once that partial product is zero: so
        (t*a*b).substitute(d, {t: s, a: 0}) is 0 with no image for b.
        Every image read must be given, else ValueError, be a polynomial
        of the generator's parity (EVEN for even generators, ODD for odd
        ones; zero is fine for either), else ParityError, which is what
        makes the substitution a well defined homomorphism, and be over
        ctx_out, else ContextMismatch.  Each image is looked up and
        checked once, when it is first read, however many of its powers
        the terms hold.  Every term goes through _mac into one numerator
        map, its numerator the scale of its last factor, over the lcm of
        the terms' denominators so far, and the sum is divided by den
        once.  Powers of an image are built by repeated squaring, so a
        stored exponent above MAX_EXPONENT, the cap of ** in scripts,
        substitutes like any other.
        """
        return _substitute_each((self,), ctx_out, images)[0]

    def rename(self, ctx_out: Context, name_map: Mapping[str, str] | None = None) -> "SuperPoly":
        """Transport along a generator renaming: each generator that appears
        becomes the generator of ctx_out named name_map.get(name, name).

        A target ctx_out lacks raises ValueError, and a target of the other
        parity ParityError, the unknown names first.  A map that moves
        every even generator that appears by one index offset, and every
        odd one by another, keeps the order within each parity, so each
        code only moves: its even fields to their targets' fields and its
        odd mask to the target's bits, with no sign.  With no name_map, a
        ctx_out whose even generators start with this context's, and whose
        odd generators start with the odd generators up to the highest one
        any term holds, is such a map with both offsets 0, found with no
        lookups.  A move that changes no bit keeps the codes as they are.
        Any other map (a swap, a merge, two offsets of one parity) is the
        substitution of each generator by its target, so an odd
        transposition flips the sign, merged even generators add their
        exponents (LimitExceeded past MAX_FIELD_EXPONENT), repeated odd
        targets give zero, and the result holds at most MAX_TERMS terms.
        """
        ctx = self.ctx
        shift, out_shift = ctx._shift, ctx_out._shift
        # the odd generators up to the highest one any term holds
        held = ctx.odd[:max(max(self.nums, default=0).bit_length() - shift, 0)]
        if (not name_map and ctx_out.even[:len(ctx.even)] == ctx.even
                and ctx_out.odd[:len(held)] == held):
            moves = 0, 0, shift, out_shift
        else:
            name_map = name_map or {}
            used = 0
            for code in self.nums:
                used |= code
            # the generators that appear, as (index, name), and their targets
            evens = [(i, name) for i, name in enumerate(ctx.even)
                     if used >> _FIELD_BITS * i & _FIELD_MASK]
            odds = [(j, name) for j, name in enumerate(ctx.odd) if used >> shift + j & 1]
            targets = [ctx_out.lookup(name_map.get(name, name)) for _, name in evens + odds]
            for k, ((_, name), (is_odd, _)) in enumerate(zip(evens + odds, targets)):
                source_odd = k >= len(evens)
                if is_odd != source_odd:
                    parity = _PARITIES[source_odd]
                    raise ParityError(f"image of {parity} generator {name!r} is not {parity}")
            # (source index, target index) of each, split by parity
            pairs = [(i, t) for (i, _), (_, t) in zip(evens + odds, targets)]
            even_pairs, odd_pairs = pairs[:len(evens)], pairs[len(evens):]
            if len({t - i for i, t in even_pairs}) > 1 or len({t - j for j, t in odd_pairs}) > 1:
                images = {name: ctx_out.var(name_map.get(name, name)) for _, name in evens + odds}
                return _substitute_each((self,), ctx_out, images)[0]
            # the lowest generator of each parity and its target fix the move
            i, t = even_pairs[0] if even_pairs else (0, 0)
            j, u = odd_pairs[0] if odd_pairs else (0, 0)
            moves = _FIELD_BITS * i, _FIELD_BITS * t, shift + j, out_shift + u
        # (even source bit, even target bit, odd source bit, odd target bit):
        # no field or odd bit below the source bits is set
        even_from, even_to, odd_from, odd_to = moves
        nums = self.nums
        if (even_from, odd_from) != (even_to, odd_to):
            low = (1 << shift) - 1
            nums = {(m & low) >> even_from << even_to | m >> odd_from << odd_to: c
                    for m, c in nums.items()}
        return SuperPoly._raw(ctx_out, nums, self.den)

    def left_quotient(self, factor: "SuperPoly") -> "SuperPoly":
        """The g with self == factor * g, for a one-term factor c*theta_M
        with no even part.

        Each term must hold every generator of M, or ValueError is raised;
        its code loses M's bits, and its sign is that of theta_M *
        theta_rest, (-1)^popcount(_SWAP_PARITY[M] & rest) by the rule of
        _mac.  The numerators are then scaled by 1/c once.  A factor that
        is zero, has two terms or an even part raises ValueError, and one
        over another context ContextMismatch.
        """
        ctx = self.ctx
        if factor.ctx is not ctx:
            raise ContextMismatch("operands live in different contexts")
        shift = ctx._shift
        if len(factor.nums) != 1 or next(iter(factor.nums)) & ((1 << shift) - 1):
            raise ValueError(f"factor {factor} is not one term c*theta_M")
        ((m, c),) = factor.nums.items()
        swaps = _SWAP_PARITY[m >> shift] << shift
        nums = {}
        for code, v in self.nums.items():
            if code & m != m:
                raise ValueError("polynomial does not factor through the parameter")
            code ^= m
            nums[code] = -v if (swaps & code).bit_count() & 1 else v
        out = SuperPoly._raw(ctx, nums, self.den)
        return out if c == 1 == factor.den else out._scaled(factor.den, c)

    # -- rendering -------------------------------------------------------

    def sorted_terms(self):
        """(Monomial, Fraction) pairs in canonical printing order:
        graded-lex descending on the even part, then lexicographic on the
        odd word.  serialize reads its coefficients here and str prints the
        same order, so a coefficient too long to print raises
        LimitExceeded in both."""
        ctx = self.ctx
        for _, code in sorted((ctx._texts[code][0], code) for code in self.nums):
            c = Fraction(self.nums[code], self.den)
            if max(abs(c.numerator), c.denominator) >= _DIGITS_BOUND:
                raise LimitExceeded(
                    f"coefficient has more than {MAX_DIGITS} digits, the cap"
                )
            yield decode(ctx, code), c

    def __str__(self):
        texts = self.ctx._texts
        rows = []
        for code, n in self.nums.items():
            key, text = texts[code]
            rows.append((key, n, text))
        # the keys of distinct codes differ, so only they are compared
        rows.sort()
        den = self.den
        pieces = []
        for _, n, text in rows:
            g = gcd(n, den)
            num, d = abs(n) // g, den // g
            if num >= _DIGITS_BOUND or d >= _DIGITS_BOUND:
                raise LimitExceeded(
                    f"coefficient has more than {MAX_DIGITS} digits, the cap"
                )
            if num == 1 == d and text:
                piece = text
            else:
                mag = str(num) if d == 1 else f"{num}/{d}"
                piece = f"{mag}*{text}" if text else mag
            pieces.append((n < 0, piece))
        return _signed_sum(pieces)

    def __repr__(self):
        return f"SuperPoly({self})"


def _mac(ctx: Context, nums: dict[int, int], cols) -> None:
    """Add a * b into each column for the left numerators nums of a.

    The one term-pair loop of the package.  cols holds one (acc, scale,
    right) per column: acc maps codes to int numerators, right is the
    items of b.nums, and every product is multiplied by scale.
    Numerators that cancel are dropped as they hit zero.  The code of a
    product of monomials with disjoint odd masks is the sum of the two
    codes; a guard bit set in that sum means one exponent passed
    MAX_FIELD_EXPONENT.  Raises LimitExceeded then, and once one column
    holds more than MAX_TERMS terms.  Each left term is set up once for
    all columns and runs one of two inner loops of this one algorithm:
    an odd-free left term overlaps no right term and _SWAP_PARITY[0] is
    0, so its loop drops the odd-mask skip and the sign test; both loops
    test the guard bits alike.
    """
    guard = ctx._guard
    shift = ctx._shift
    odd = -1 << shift
    for m1, c1 in nums.items():
        o1 = m1 & odd
        if o1:
            swaps = _SWAP_PARITY[m1 >> shift] << shift
            for acc, scale, right in cols:
                c0 = c1 * scale
                for m2, c2 in right:
                    if o1 & m2:
                        continue
                    c = c0 * c2
                    if (swaps & m2).bit_count() & 1:
                        c = -c
                    m = m1 + m2
                    if m & guard:
                        _field_overflow(ctx, m & guard)
                    old = acc.get(m)
                    if old is not None:
                        c += old
                        if not c:
                            del acc[m]
                            continue
                    acc[m] = c
                if len(acc) > MAX_TERMS:
                    raise LimitExceeded(f"product has more than {MAX_TERMS} terms, the cap")
        else:
            for acc, scale, right in cols:
                c0 = c1 * scale
                for m2, c2 in right:
                    c = c0 * c2
                    m = m1 + m2
                    if m & guard:
                        _field_overflow(ctx, m & guard)
                    old = acc.get(m)
                    if old is not None:
                        c += old
                        if not c:
                            del acc[m]
                            continue
                    acc[m] = c
                if len(acc) > MAX_TERMS:
                    raise LimitExceeded(f"product has more than {MAX_TERMS} terms, the cap")


# the code of the unit monomial, where _times_generator starts a product
_UNIT_CODE = 0


def _times_generator(ctx: Context, code: int, name: str, n: int) -> tuple[int, int]:
    """(sign, code) of the monomial code times generator name to the n,
    on the right, for 0 <= n <= MAX_EXPONENT; sign 0 when that is zero.

    The parser folds each literal factor of a term through this, in
    reading order, instead of multiplying polynomials, so it must agree
    with _mac: an odd generator passes leftwards over the generators of
    the mask above it, sign (-1)^popcount(_SWAP_PARITY[mask] & bit), and
    one already in the mask or to a power n >= 2 gives zero.  An even
    exponent that passes MAX_FIELD_EXPONENT sets its guard bit and raises
    LimitExceeded.  n = 0 leaves the code as it is.
    """
    if not n:
        return 1, code
    is_odd, i = ctx._kinds[name]
    if is_odd:
        shift = ctx._shift
        mask = code >> shift
        bit = 1 << i
        if n > 1 or mask & bit:
            return 0, code
        return -1 if _SWAP_PARITY[mask] & bit else 1, code | bit << shift
    code += n << _FIELD_BITS * i
    if code & ctx._guard:
        _field_overflow(ctx, code & ctx._guard)
    return 1, code


def _substitute_each(polys: Sequence[SuperPoly], ctx_out: Context,
                     images: Mapping[str, SuperPoly]) -> tuple[SuperPoly, ...]:
    """SuperPoly.substitute of each of polys, which all live over one
    context, as a tuple.  One _Memo of image powers serves the whole
    tuple, keyed (0, i, e) for t_i^e and (1, j, 1) for theta_j: an image
    is looked up and checked at its first read in any of polys, and each
    power is built once for all of them.
    """
    def image_power(key):
        # the image of generator i of the tag's parity (0 even, 1 odd)
        # to the e; the image itself is the power (tag, i, 1), so it is
        # looked up and checked once, when it is first read
        tag, i, e = key
        if e > 1:
            return _power(powers[tag, i, 1], e)
        name = (polys[0].ctx.odd if tag else polys[0].ctx.even)[i]
        img = images.get(name)
        if img is None:
            raise ValueError(f"no image for generator {name!r}")
        parity = _PARITIES[tag]
        if not img.has_parity(parity):
            raise ParityError(f"image of {parity} generator {name!r} is not {parity}")
        if img.ctx is not ctx_out:
            raise ContextMismatch("operands live in different contexts")
        return img

    powers = _Memo(image_power)
    one = SuperPoly._raw(ctx_out, {0: 1})
    out = []
    for poly in polys:
        shift = poly.ctx._shift
        low = (1 << shift) - 1
        acc: dict[int, int] = {}
        den = 1  # the lcm of the terms' denominators so far
        for code, c in poly.nums.items():
            keys = [(0, i, e) for i, e in _unpack(code & low)]
            keys += [(1, j, 1) for j in _odd_word(code >> shift)]
            # a term of two factors or more starts from its first image
            # power, and the head is tested before each further image is
            # read
            head = powers[keys[0]] if len(keys) > 1 else one
            for key in keys[1:-1]:
                if not head:
                    break
                head = head * powers[key]
            if head:
                last = powers[keys[-1]] if keys else one
                d = head.den * last.den
                if den % d:
                    # a new lcm: the numerators so far move up to it
                    up = d // gcd(den, d)
                    den, acc = den * up, {m: v * up for m, v in acc.items()}
                _mac(ctx_out, head.nums, ((acc, c * (den // d), last.nums.items()),))
        out.append(SuperPoly._reduced(ctx_out, acc, den * poly.den))
    return tuple(out)


def dot_row(ctx: Context, row: Sequence[SuperPoly],
            grid: Sequence[Sequence[SuperPoly]]) -> tuple[SuperPoly, ...]:
    """The row of sums (sum_j row[j] * grid[j][k])_k, one per column of grid.

    The context of every left factor and grid entry is checked first, so
    ContextMismatch comes before any product.  Column k then accumulates
    every product row[j] * grid[j][k] into one map of int numerators,
    over the lcm of the denominators of the products it has taken so
    far: a product whose a.den * b.den does not divide it raises it to
    their lcm and scales the column's numerators up once.  Each column is
    reduced once at the end.  Each left factor row[j] runs through _mac
    once for all the columns, so each of its terms is set up once per row
    rather than once per entry.  A zero left factor or grid entry adds
    nothing and takes no part in the denominators.  An empty grid gives
    an empty row.
    """
    for a, right in zip(row, grid):
        if a.ctx is not ctx and right:
            raise ContextMismatch("operands live in different contexts")
        for b in right:
            if b.ctx is not ctx:
                raise ContextMismatch("operands live in different contexts")
    width = len(grid[0]) if grid else 0
    accs = [{} for _ in range(width)]
    dens = [1] * width
    for a, right in zip(row, grid):
        if a.nums:
            da = a.den
            cols = []
            for k, b in enumerate(right):
                if b.nums:
                    d = da * b.den
                    den = dens[k]
                    if den % d:
                        up = d // gcd(den, d)
                        den = dens[k] = den * up
                        accs[k] = {m: v * up for m, v in accs[k].items()}
                    cols.append((accs[k], den // d, b.nums.items()))
            _mac(ctx, a.nums, cols)
    zero = SuperPoly.zero(ctx)
    return tuple(SuperPoly._reduced(ctx, acc, den) if acc else zero
                 for acc, den in zip(accs, dens))


def _disjoint_sum(ctx: Context, polys: Sequence[SuperPoly]) -> SuperPoly:
    """The sum of polys over ctx, which share no monomial: their
    numerators over the lcm of their denominators.  Raises LimitExceeded
    past MAX_TERMS terms, as a product does.

    The sum is canonical with no reduction: each prime q divides the lcm
    exactly as often as it divides some p.den, and p's numerators, which
    are not all multiples of q, are scaled by a factor prime to q."""
    den = lcm(*[p.den for p in polys])
    nums = {}
    for p in polys:
        up = den // p.den
        for m, v in p.nums.items():
            nums[m] = v * up
    if len(nums) > MAX_TERMS:
        raise LimitExceeded(f"product has more than {MAX_TERMS} terms, the cap")
    return SuperPoly._raw(ctx, nums, den)


def _linear_rows(ctx: Context, names, polys) -> tuple[list[int], list[list[int]]]:
    """(codes, rows): the code of each generator in names, and for each
    polynomial over ctx its numerators on those generators, its
    coefficients there times its den.  liealg reduces these int rows and
    rebuilds each pivot row from the codes through _pivot_row."""
    codes = [1 << (ctx._shift + i if is_odd else _FIELD_BITS * i)
             for is_odd, i in map(ctx.lookup, names)]
    return codes, [[p.nums.get(code, 0) for code in codes] for p in polys]


def _pivot_row(ctx: Context, codes, row, pivot: int) -> SuperPoly:
    """The sum of row[k] / pivot times the generator of code codes[k], for
    an int row and its nonzero pivot, over |pivot| and reduced once."""
    s = 1 if pivot > 0 else -1
    return SuperPoly._reduced(ctx, {c: s * v for c, v in zip(codes, row) if v}, s * pivot)


def _power(p: SuperPoly, e: int) -> SuperPoly:
    """p ** e for e >= 1 by repeated squaring.  Unlike **, which takes the
    script exponent cap MAX_EXPONENT, any e is accepted: a stored exponent
    may reach MAX_FIELD_EXPONENT, and MAX_TERMS and the field cap bound
    each of its at most 2 log2(e) products."""
    out = None
    while True:
        if e & 1:
            out = p if out is None else out * p
        e >>= 1
        if not e:
            return out
        p = p * p
        if not p:
            # a zero power of p is a factor of what is left
            return p


def _cap_exponent(n: int) -> int:
    """n, for an exponent of ** or of a power in a script; LimitExceeded
    when it is above MAX_EXPONENT."""
    if n > MAX_EXPONENT:
        raise LimitExceeded(f"exponent {n} is above the cap of {MAX_EXPONENT}")
    return n


def _field_overflow(ctx: Context, guards: int):
    """Raise for the lowest even generator whose guard bit is in guards."""
    name = ctx.even[((guards & -guards).bit_length() - 1) // _FIELD_BITS]
    raise LimitExceeded(
        f"exponent of {name} is above the cap of {MAX_FIELD_EXPONENT}"
    )


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

"""Exact supercommutative polynomial arithmetic.

A Context names the generators of k[t_1 .. t_p | theta_1 .. theta_q]: even
generators commute with everything, odd generators anticommute among
themselves and square to zero.  A SuperPoly stores int numerators over one
positive int denominator, reduced so that the denominator shares no factor
with all the numerators; the ring operations add and multiply plain ints
and reduce once per result, so every operation in this module is exact.
Fraction appears only where a coefficient is read: constant_term, at
and the term view terms (hence serialize).  str prints from the
numerators and den, one gcd per term, with each monomial's sort key and
text cached per Context.

Context(even, odd) returns the one live object of its signature, the
ordered generator names that fix the ring, so every producer of contexts
(scripts, serialize, groups, liealg and user code) shares one object and
one print cache per signature, and contexts compare and hash by identity.

Every bounded cache here is one type, _Memo: key -> fn(key), emptied
when a miss finds MAX_CACHE entries.  _WORDS holds odd words, _SWAP_PARITY
Koszul sign masks, each Context's _texts its monomials' sort keys and
texts and its _plans their substitution plans (_substitution_plan: the
keys of a term's image powers, head, middle and last), and each image
map its images' powers, keyed (0, i, e) for
t_i^e and (1, j, 1) for theta_j: _substitute_each pulls a whole tuple of
polynomials back through one such memo, so an image is looked up and its
parity and context checked at its first read, once per image map, each
of its powers, the first included, is built by _power, and each
polynomial's terms are summed into one numerator map.
SuperPoly.substitute is its one-polynomial case; compose, the group
axioms and the left-invariant fields pull all their polynomials of one
map through one call.  One constructor,
SuperPoly._from_coefficients, makes the canonical numerators and den of
a map of coefficients, for the parser and for serialize; the
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
0.  The code is the package's one form of a monomial: the term view
SuperPoly.terms reads each code as the pair (even, odd) of its
(index, exponent) fields and its odd word, and SuperPoly._from_terms
packs such pairs into codes for serialize.  Codes are also
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
per term, into one map per substituted polynomial.  _packed_dot calls
it once per (left factor, packed row) pair whose factor and row are
both nonzero: _pack keys the numerators of a row of polynomials over one
den by code << w | k for column k, w = (width - 1).bit_length(), so
_mac shifts each left code by w and one call meets the whole row (more
of the key in one int, as Monagan and Pearce, CASC 2007, pack exponent
vectors), and the sum is one such map over the running lcm of its
products' denominators.  A zero entry holds no key.  _split reads a
packed row, or the sum of several that share no key, back as its
entries, each reduced once and held to MAX_TERMS; inside the sum _mac
holds a packed row to MAX_TERMS << w.  matrix._gmul, the one grid
product, packs its right grid once, takes one packed sum per row of its
left grid and splits each; matrix._series_inverse keeps each odd-degree
part Y_d of an inverse as packed rows, the right factor of
both its products, on the parts that SuperPoly.odd_degree_parts splits
off, and splits the rows of all the Y_d, which share no monomial, once
at the end.
A Schur complement (matrix._schur) is one matrix._gmul of
[1 | b d^-1] by [a; -c].  The residual of a bracket in
distribution.involutive is a one-row matrix._gmul, with the subtracted
terms weighted by negated factors.  A derivation applied to one
polynomial or to all the images of a map (apply, livf,
is_left_invariant) packs them once as one row, and a whole derivation
bracket packs each field's coefficients once; _derive then takes the
left partial of a packed row per nonzero coefficient in one pass over
its keys (_packed_partial, which reads the odd mask and the exponent
fields w bits up), and sums the (coefficient, partial) pairs of the
partials that are not zero in one _packed_dot and one _split, the
bracket's subtracted side weighted by negated coefficients.
SuperPoly.partial is _packed_partial at w = 0, so the package has one
partial loop and builds no grid of partials.  The Laplace expansions
of matrix._det and matrix._body_inverse sum outside _packed_dot: one
bottom-up pass over row masks, matrix._laplace, runs over these
polynomials, for matrix._det and a body that is not constant; each
term of a column sum is one * and one +.  A constant body, which
SuperPoly._body_value reads in one pass with no polynomial built, is
inverted by linalg's elimination instead.  matrix._image_det runs the
same pass over the ints of the Kronecker image (Kronecker 1882; Harvey,
J. Symbolic Comput. 44, 2009) of an odd-free grid of matrix._det: _kronecker_image evaluates
each entry at t_i = 2^(b u_i), the slot width b sized by a
Goldstein-Graham bound and the slot units u_i a linear form read from the
exponent fields of the grid's codes (_slot_units): over three generators
it is injective on the exponent vectors of total degree at most the
grid's bound D, the support of the determinant, not on their whole box
(Arnold and Roche, ISSAC 2014), so it spans about half the box's slots.
The int determinant holds each coefficient of the polynomial one as a
digit, and its unpack reads back the slots of total degree at most D,
the only ones that can hold one.  An image entry has a few nonzero slots
in a wide int, so each nonzero entry is the tuple of its runs: the
terms that differ only in the exponent of the generator of unit 1 sit
in adjacent slots, b bits apart, and make one run, one (int, shift)
pair whose int holds their coefficients as its digits (Kronecker
substitution packing neighbouring coefficients into one int: Fateman,
"Can you save time in multiplying polynomials by encoding them as
integers?", 2004).  The entries of a column share a few shifts:
matrix._image_det sums the ints times the minors per shift and shifts
each sum once, and a linear entry's constant and its term in that
generator cost it one product, not two.  A rule read in the same pass over the codes
keeps the image to grids where it measured the faster expansion and
where the polynomial one would meet no cap.
"""

from __future__ import annotations

import enum
import threading
import weakref
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import partial
from math import comb, gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from .errors import ContextMismatch, LimitExceeded, ParityError

Scalar = (int, Fraction)

# Largest exponent SuperPoly ** n accepts, and so a script's '^'.  A power
# takes at most 2 log2(n) products (_power), so the cap bounds coefficient
# growth rather than the number of products: the digits of 2^n, or of the
# coefficients of (1 + t)^n, grow linearly in n, and the parser raises a
# rational literal to its power exactly before any polynomial is built.
# No demo, test or benchmark input comes near this.
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
                 "_plans", "__weakref__")

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
            # code -> substitution plan of the monomials substituted so
            # far, by the shift alone for the same reason
            self._plans = _Memo(partial(_substitution_plan, self._shift))
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


def _substitution_plan(shift: int, code: int) -> tuple:
    """(first, middle, last) image-power keys of a monomial code, its odd
    mask from bit shift up, in _substitute_each's order: (0, i, e) for
    each t_i^e by increasing i, then (1, j, 1) for each theta_j of the odd
    word.  first is None for a monomial of fewer than two factors, last
    None for the unit, and middle is the tuple of the keys between."""
    keys = [(0, i, e) for i, e in _unpack(code & (1 << shift) - 1)]
    keys += [(1, j, 1) for j in _odd_word(code >> shift)]
    return keys[0] if len(keys) > 1 else None, tuple(keys[1:-1]), keys[-1] if keys else None


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


class _Term(NamedTuple):
    """One key of SuperPoly.terms: the (index, exponent) pairs of the
    nonzero even fields by increasing index, and the odd word."""

    even: tuple[tuple[int, int], ...]
    odd: tuple[int, ...]


class SuperPoly:
    """Sparse polynomial: integer numerators over one positive denominator.

    nums maps the code of each monomial to a nonzero int and den is a
    positive int; the coefficient of a monomial is its numerator over
    den.  The form is canonical: gcd(den, *nums.values()) == 1, and
    zero has den 1, so two polynomials are equal exactly when their
    (ctx, den, nums) are.  Values are immutable once constructed.
    """

    __slots__ = ("ctx", "nums", "den")

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
    def _from_terms(cls, ctx, terms) -> "SuperPoly":
        # internal: from (even pairs, odd word, Fraction) triples of
        # distinct monomials, every index inside ctx, for serialize
        shift = ctx._shift
        return cls._from_coefficients(ctx, {
            sum([e << _FIELD_BITS * i for i, e in even]) + sum([1 << shift + j for j in odd]): c
            for even, odd, c in terms})

    @classmethod
    def zero(cls, ctx) -> "SuperPoly":
        return cls._raw(ctx, {})

    @classmethod
    def scalar(cls, ctx, value) -> "SuperPoly":
        # the unit monomial has code 0
        if type(value) is int:
            return cls._raw(ctx, {0: value} if value else {})
        num, den = _exact(value).as_integer_ratio()
        return cls._raw(ctx, {0: num} if num else {}, den)

    @classmethod
    def var(cls, ctx, name) -> "SuperPoly":
        is_odd, idx = ctx.lookup(name)
        bit = ctx._shift + idx if is_odd else _FIELD_BITS * idx
        return cls._raw(ctx, {1 << bit: 1})

    # -- queries ---------------------------------------------------------

    @property
    def terms(self) -> dict[_Term, Fraction]:
        """{_Term(even, odd): Fraction} of the terms, a new dict in
        printing order: graded-lex descending on the even part, then
        lexicographic on the odd word.  serialize reads its terms here
        and str prints the same order, so a coefficient too long to
        print raises LimitExceeded in both."""
        ctx = self.ctx
        shift = ctx._shift
        low = (1 << shift) - 1
        out = {}
        for _, code in sorted((ctx._texts[code][0], code) for code in self.nums):
            c = Fraction(self.nums[code], self.den)
            if max(abs(c.numerator), c.denominator) >= _DIGITS_BOUND:
                raise LimitExceeded(f"coefficient has more than {MAX_DIGITS} digits, the cap")
            out[_Term(_unpack(code & low), _odd_word(code >> shift))] = c
        return out

    def __len__(self):
        """The number of terms."""
        return len(self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    def is_constant(self) -> bool:
        nums = self.nums
        return not nums or (len(nums) == 1 and 0 in nums)

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get(0, 0), self.den)

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

    def _body_value(self) -> int | Fraction | None:
        """The body as an int (when whole) or a Fraction when it is
        constant, else None: one pass over the codes, no polynomial built."""
        shift = self.ctx._shift
        for code in self.nums:
            if code and not code >> shift:
                return None
        c, den = self.nums.get(0, 0), self.den
        return Fraction(c, den) if c % den else c // den

    def odd_degree_parts(self) -> dict[int, "SuperPoly"]:
        """{e: the terms with exactly e odd generators} for every e that
        occurs, each part reduced on its own; zero gives {}.  The parts
        partition the terms, so they sum back to this polynomial."""
        shift = self.ctx._shift
        split: dict[int, dict[int, int]] = {}
        for code, v in self.nums.items():
            e = (code >> shift).bit_count()
            part = split.get(e)
            if part is None:
                part = split[e] = {}
            part[code] = v
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
            _mac(ctx, self.nums, acc, 1, other.nums.items())
            return SuperPoly._reduced(ctx, acc, self.den * other.den)
        if not isinstance(other, Scalar):
            return NotImplemented
        if not other:
            return SuperPoly.zero(self.ctx)
        return self._scaled(other.numerator, other.denominator)

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero")
        return self._scaled(other.denominator, other.numerator)

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
        return _power(self, _cap_exponent(n)) if n else SuperPoly.scalar(self.ctx, 1)

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
        """Left partial derivative with respect to one generator: the
        w = 0 case of _packed_partial.

        For an odd generator the struck variable is moved to the front of
        the odd word first, and each transposition costs a sign.
        """
        # dropped terms (and the exponents e) can leave a common factor
        return SuperPoly._reduced(self.ctx, _packed_partial(self.ctx, self.nums, name, 0), self.den)

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
        even powers by index and then the odd word, their keys read from
        its context's plan of its code, and reads no further image once
        that partial product is zero, also when the plan was cached: so
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
        once.  Powers of an image are built by _power without the cap of
        **, so a stored exponent above MAX_EXPONENT substitutes like any
        other.
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
        _mac.  The quotient is then scaled by 1/c and reduced, once.  A
        factor that is zero, has two terms or an even part raises
        ValueError, and one over another context ContextMismatch.
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
        return out._scaled(factor.den, c)

    # -- rendering -------------------------------------------------------

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


def _mac(ctx: Context, nums: dict[int, int], acc: dict[int, int], scale: int,
         right, w: int = 0) -> None:
    """Add scale * a * b into acc for the left numerators nums of a.

    The one term-pair loop of the package.  acc maps keys to int
    numerators and right is the items of b's numerators.  A key is a
    code shifted left by w, with the low w bits free for a column index
    (see _pack); w is 0 for the maps of single polynomials.  Numerators
    that cancel are dropped as they hit zero.  The code of a product of
    monomials with disjoint odd masks is the sum of the two codes, so
    each left code is shifted by w once and added to the right keys; a
    guard bit set in that sum means one exponent passed
    MAX_FIELD_EXPONENT.  Raises LimitExceeded then, naming the
    generator, and once acc holds more than MAX_TERMS << w keys.  Each
    left term runs one of two inner loops of this one algorithm: an
    odd-free left term overlaps no right term and _SWAP_PARITY[0] is 0,
    so its loop drops the odd-mask skip and the sign test; both loops
    test the guard bits alike.
    """
    guard = ctx._guard << w
    shift = ctx._shift + w
    odd = -1 << shift
    cap = MAX_TERMS << w
    for m1, c1 in nums.items():
        m1 <<= w
        o1 = m1 & odd
        c0 = c1 * scale
        if o1:
            swaps = _SWAP_PARITY[m1 >> shift] << shift
            for m2, c2 in right:
                if o1 & m2:
                    continue
                c = c0 * c2
                if (swaps & m2).bit_count() & 1:
                    c = -c
                m = m1 + m2
                if m & guard:
                    _field_overflow(ctx, (m & guard) >> w)
                old = acc.get(m)
                if old is not None:
                    c += old
                    if not c:
                        del acc[m]
                        continue
                acc[m] = c
        else:
            for m2, c2 in right:
                c = c0 * c2
                m = m1 + m2
                if m & guard:
                    _field_overflow(ctx, (m & guard) >> w)
                old = acc.get(m)
                if old is not None:
                    c += old
                    if not c:
                        del acc[m]
                        continue
                acc[m] = c
        if len(acc) > cap:
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
    power is built once for all of them.  Each term's keys come from its
    context's _plans, which keeps the plan of a code across calls, so a
    code is decoded once per context, not once per term per call.
    """
    checked = {}  # (tag, i) -> the image of that generator, checked

    def image_power(key):
        # the image of generator i of the tag's parity (0 even, 1 odd)
        # to the e; the image is looked up and checked once, when it is
        # first read, and kept in checked rather than in powers, so this
        # function holds no reference to the memo that holds it and the
        # call leaves no cycle for the collector
        tag, i, e = key
        img = checked.get((tag, i))
        if img is None:
            name = (polys[0].ctx.odd if tag else polys[0].ctx.even)[i]
            img = images.get(name)
            if img is None:
                raise ValueError(f"no image for generator {name!r}")
            parity = _PARITIES[tag]
            if not img.has_parity(parity):
                raise ParityError(f"image of {parity} generator {name!r} is not {parity}")
            if img.ctx is not ctx_out:
                raise ContextMismatch("operands live in different contexts")
            checked[tag, i] = img
        return _power(img, e)

    powers = _Memo(image_power)
    one = SuperPoly._raw(ctx_out, {0: 1})
    out = []
    for poly in polys:
        plans = poly.ctx._plans
        acc: dict[int, int] = {}
        den = 1  # the lcm of the terms' denominators so far
        for code, c in poly.nums.items():
            first, middle, last = plans[code]
            # a term of two factors or more starts from its first image
            # power, and the head is tested before each further image is
            # read
            head = one if first is None else powers[first]
            for key in middle:
                if not head:
                    break
                head = head * powers[key]
            if head:
                last = one if last is None else powers[last]
                d = head.den * last.den
                if den % d:
                    # a new lcm: the numerators so far move up to it
                    up = d // gcd(den, d)
                    den, acc = den * up, {m: v * up for m, v in acc.items()}
                _mac(ctx_out, head.nums, acc, c * (den // d), last.nums.items())
        out.append(SuperPoly._reduced(ctx_out, acc, den * poly.den))
    return tuple(out)


def _pack(ctx: Context, row: Sequence[SuperPoly]):
    """A row of polynomials over ctx as one packed row: the numerators of
    its entries over the lcm of their denominators in one map, entry k's
    code m keyed m << w | k with w = (len(row) - 1).bit_length(), so
    keys of different entries never meet; a row of one entry has w = 0.
    The pair (map, den), or None when every entry is zero.
    ContextMismatch for an entry over another context."""
    den = 1
    for b in row:
        if b.ctx is not ctx:
            raise ContextMismatch("operands live in different contexts")
        if den % b.den:
            den = lcm(den, b.den)
    w = (len(row) - 1).bit_length()
    nums = {}
    for k, b in enumerate(row):
        if b.nums:
            up = den // b.den
            for m, v in b.nums.items():
                nums[m << w | k] = v * up
    return (nums, den) if nums else None


def _packed_dot(ctx: Context, pairs, width: int):
    """The packed row sum a * packed over a list of (a, packed) pairs,
    each a a left factor and packed a packed row of width entries (see
    _pack), or None when the sum is zero.  The context of every left
    factor is checked first, so ContextMismatch comes before any
    product.  The sum is one map over the running lcm of its products'
    denominators: a product whose a.den * den_j does not divide it
    raises it to their lcm and scales the map up once.  A zero factor or
    row adds nothing."""
    for a, _ in pairs:
        if a.ctx is not ctx:
            raise ContextMismatch("operands live in different contexts")
    w = (width - 1).bit_length()
    acc: dict[int, int] = {}
    den = 1
    for a, packed in pairs:
        if a.nums and packed:
            right, d = packed
            d *= a.den
            if den % d:
                up = d // gcd(den, d)
                den, acc = den * up, {m: v * up for m, v in acc.items()}
            _mac(ctx, a.nums, acc, den // d, right.items(), w)
    return (acc, den) if acc else None


def _split(ctx: Context, rows, width: int) -> tuple[SuperPoly, ...]:
    """The entries of the sum of packed rows of width entries that share
    no key, such as the parts of one row by odd degree: one new map per
    column over the lcm of their denominators, each entry reduced once.
    Raises LimitExceeded for an entry of more than MAX_TERMS terms, as a
    product does."""
    w = (width - 1).bit_length()
    low = (1 << w) - 1
    rows = [r for r in rows if r]
    den = lcm(*[d for _, d in rows])
    entries = [{} for _ in range(width)]
    for nums, d in rows:
        up = den // d
        for key, v in nums.items():
            entries[key & low][key >> w] = v * up
    out = []
    for nums in entries:
        if len(nums) > MAX_TERMS:
            raise LimitExceeded(f"product has more than {MAX_TERMS} terms, the cap")
        out.append(SuperPoly._reduced(ctx, nums, den))
    return tuple(out)


def _packed_partial(ctx: Context, nums: dict[int, int], name: str, w: int) -> dict[int, int]:
    """The numerators of the left partial by generator name of every
    entry of a packed row, keys code << w | k (see _pack), in one pass and
    over the row's den, unreduced; w = 0 for one polynomial's numerators.

    For an odd generator the struck variable is moved to the front of
    the odd word first, and each transposition costs a sign.  The column
    index sits below the code, so the odd mask and the exponent fields
    are read w bits up.
    """
    is_odd, idx = ctx.lookup(name)
    acc: dict[int, int] = {}
    if is_odd:
        low = 1 << (ctx._shift + w)
        bit = low << idx
        # the odd generators in front of theta_idx, one transposition each
        front = bit - low
        for key, c in nums.items():
            if key & bit:
                acc[key ^ bit] = -c if (key & front).bit_count() & 1 else c
    else:
        shift = _FIELD_BITS * idx + w
        step = 1 << shift
        for key, c in nums.items():
            if e := key >> shift & _FIELD_MASK:
                acc[key - step] = c * e
    return acc


def _derive(ctx: Context, terms, width: int) -> tuple[SuperPoly, ...]:
    """The entries of sum c * d/dname (row) over the (c, name, packed)
    triples, each packed a packed row of width entries (see _pack) or
    None: one packed partial per triple, paired with its c unless it is
    zero, then one _packed_dot and one _split.  No triple, or only zero
    partials, gives width zeros."""
    w = (width - 1).bit_length()
    pairs = [(c, (nums, packed[1])) for c, name, packed in terms
             if packed and (nums := _packed_partial(ctx, packed[0], name, w))]
    return _split(ctx, (_packed_dot(ctx, pairs, width),), width)


# The two constants of _kronecker_image's rule: an odd-free grid of at
# least _KRONECKER_ROWS rows goes to the integers while the span of its
# slot form (_slot_units) is at most _KRONECKER_K * a^(3/2), a the mean
# term count of its nonzero entries.  tests/det_sweep.py times both
# expansions on seeded grids and refits K.
_KRONECKER_ROWS = 4
_KRONECKER_K = 600


def _slot_units(box, degree):
    """(units, span) of a Kronecker image with box d_i and total-degree
    bound D: the slot index of t^e is sum e_i units[i], distinct for every
    e of total degree at most D with each e_i <= d_i, and below span.

    The three generators of largest d_i share one digit of span D m + 1
    under the units (1, a, m), m = C(D + 2, 2) + D mod 2 and
    a = m - D - D mod 2, where that span is below the product of their
    radices d_i + 1; each other generator is a mixed-radix digit of radix
    d_i + 1 above it.  With two generators or fewer holding terms the
    digit is never narrower, and the index is the mixed radix of the whole
    box, t_1 the lowest digit.  tests/test_det_image.py proves the digit by
    enumeration for every D the rule admits.
    """
    m = comb(degree + 2, 2) + degree % 2
    big = sorted(range(len(box)), key=box.__getitem__)[-3:]
    units = dict(zip(sorted(big), (1, m - degree - degree % 2, m)))
    span = degree * m + 1
    if span >= prod([box[i] + 1 for i in big]):
        units, span = {}, 1
    for i, d in enumerate(box):
        if i not in units:
            units[i] = span
            span *= d + 1
    return [units[i] for i in range(len(box))], span


def _kronecker_image(ctx: Context, grid):
    """(ints, unpack) for a square grid of odd-free polynomials over ctx,
    such that unpack(d) is the determinant of the grid when d is the
    determinant of the int grid ints; None when the grid fails the rule
    below, and matrix._det keeps the polynomial Laplace expansion.

    The image is the evaluation t_i -> 2^(b u_i), a ring map Z[t] -> Z,
    of the grid with each row scaled to ints by the lcm L_r of its
    denominators: an entry sum c_m t^(e_m) maps to sum c_m 2^(b pos(e_m)),
    pos(e) = sum e_i u_i the linear form of _slot_units, with d_i the sum
    of each row's largest degree in t_i, which bounds the degree in t_i of
    every minor, and D (below) the bound of its total degree: pos is
    distinct on every exponent vector a minor can hold, and below the
    form's span of slots.  Over three generators of d_i = D the span is
    about half of the box W = prod(d_i + 1), 260 slots against 512 at
    D = 7, and every image int, minor and unpacked string is as much
    shorter.  Each coefficient of the scaled determinant is at most
    B = prod_r (sum_j |a_rj|_1^2)^(1/2) in absolute value (Goldstein and
    Graham, SIAM Review 16, 1974: Hadamard's inequality on the unit
    torus, then Parseval), and b is the smallest width with B < 2^(b-1),
    so unpack reads the coefficients back as signed base-2^b digits, over
    prod_r L_r; only the slots of total degree at most D can hold one, and
    only they are read.  Each nonzero entry is given as the tuple of its
    runs, pairs (v, s) at distinct shifts with entry = sum v << s: the
    terms that differ only in the exponent e of g, the generator of unit
    1 that holds terms, make one run, v = sum c_m L_r / den << (e b) over
    them and s = b pos of their other exponents, the shift of the run's
    slot of exponent 0 in g.  A run's int spans its adjacent slots, one
    or two digits of 30 bits on a linear entry, and matrix._image_det
    multiplies it into a minor at that cost, not at the entry's width.
    The value sum v << s is exact for any b, so a run whose int is 0 is
    dropped, and an entry left with no run, a zero entry among them, is
    the int 0.

    The rule reads one pass over the terms, before anything is packed.
    The grid has at least _KRONECKER_ROWS rows.  No entry has an odd code,
    the scan stopping at the first entry with one.  C(D + p, p) is at most
    MAX_TERMS, D the sum of each row's largest total degree: every minor
    then has at most that many terms, and every d_i <= D < MAX_TERMS is
    below MAX_FIELD_EXPONENT, so the image is taken only where the
    polynomial expansion would meet neither cap.  And the form's span is
    at most _KRONECKER_K * a^(3/2), a the mean term count of the nonzero
    entries: the span grows with the d_i while the terms do not, and many
    empty slots over few terms per entry make the integer expansion the
    slower one.
    """
    if len(grid) < _KRONECKER_ROWS:
        return None
    fields = range(0, ctx._shift, _FIELD_BITS)
    odd = 1 << ctx._shift  # the least code with an odd generator
    exps = {}  # code -> (its exponent fields, its total degree)
    tops = []  # each row's largest exponent of each even generator
    scales = []  # each row's L_r
    degree = terms = nonzero = 0
    norm = 1  # B^2, an int
    for row in grid:
        codes = set()
        sizes = []  # (sum of |numerators|, den) of each nonzero entry
        for e in row:
            nums = e.nums
            if nums:
                if max(nums) >= odd:
                    return None
                codes.update(nums)
                sizes.append((sum(map(abs, nums.values())), e.den))
                terms += len(nums)
        nonzero += len(sizes)
        for code in codes - exps.keys():
            f = [code >> i & _FIELD_MASK for i in fields]
            exps[code] = f, sum(f)
        seen = [exps[code] for code in codes]
        tops.append([max(col) for col in zip(*[f for f, _ in seen])] or [0] * len(fields))
        degree += max([d for _, d in seen], default=0)
        scale = lcm(*[d for _, d in sizes])
        scales.append(scale)
        norm *= sum((s * (scale // d)) ** 2 for s, d in sizes)
    box = [sum(col) for col in zip(*tops)]  # the d_i
    units, span = _slot_units(box, degree)
    if (comb(degree + len(box), len(box)) > MAX_TERMS
            or span * span * nonzero ** 3 > _KRONECKER_K ** 2 * terms ** 3):
        return None
    b = (norm.bit_length() + 1) // 2 + 1
    steps = [b * u for u in units]  # the bit shift of one unit of each exponent
    # the generator of unit 1 that holds terms: its exponents step through
    # adjacent slots, and the terms of an entry that differ in it alone
    # make one run
    g = next((i for i, d in enumerate(box) if d and units[i] == 1), None)
    at = {}  # code -> (its shift without the power of g, that power's shift)
    for code, (f, _) in exps.items():
        p = f[g] * b if g is not None else 0
        at[code] = sum(map(mul, f, steps)) - p, p
    ints = []
    for row, scale in zip(grid, scales):
        out = []
        for e in row:
            runs = {}  # the shift of a run's slot of power 0 -> the run's int
            for code, c in e.nums.items():
                s, p = at[code]
                runs[s] = runs.get(s, 0) + (c << p)
            k = scale // e.den
            out.append(tuple([(v * k, s) for s, v in runs.items() if v]) or 0)
        ints.append(out)
    # (code, shift) of each slot of total degree <= D, the exponent of t_1
    # running fastest: only these can hold a coefficient
    slots = [(0, 0, 0)]
    for i, d, step in zip(fields, box, steps):
        slots = [(code | e << i, shift + e * step, total + e) for e in range(d + 1)
                 for code, shift, total in slots if total + e <= degree]

    def unpack(v):
        # v plus 2^(b-1) in every slot has the digit c + 2^(b-1), in
        # [1, 2^b), at the slot of each coefficient c; the string holds
        # the slots from the last to the first
        half = 1 << b - 1
        top = b * span
        bits = format(v + ((1 << top) - 1) // ((1 << b) - 1) * half, "b").zfill(top)
        zero = format(half, "b")
        nums = {}
        for code, shift, _ in reversed(slots):
            digit = bits[top - shift - b:top - shift]
            if digit != zero:
                nums[code] = int(digit, 2) - half
        return SuperPoly._reduced(ctx, nums, prod(scales))

    return ints, unpack


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
    """p ** e for e >= 1 by repeated squaring, the package's one power
    routine: ** calls it with e at most MAX_EXPONENT, and substitution
    with a stored exponent, which may reach MAX_FIELD_EXPONENT.  It takes
    floor(log2 e) squares and popcount(e) - 1 other products, and stops
    at the first square that is zero; MAX_TERMS and the field cap bound
    each product, and MAX_EXPONENT the coefficient growth of **."""
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

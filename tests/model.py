"""The tests' model of a monomial and of the Koszul sign.

A SuperPoly keys its int numerators by one int code per monomial,
packed | mask << ctx._shift (see poly.py); that code is the package's one
form of a monomial.  The tests and their oracles build and read
polynomials through a second, context-free form, so that they share no
code-level form with the kernel they check:

- Monomial(even, mask) is the pair (packed, mask), with the even
  exponents as fields of poly._FIELD_BITS bits and bit j of mask set
  when theta_j is present;
- encode and decode convert it to and from the code of one context;
- from_terms(ctx, {Monomial: c}) builds a polynomial (odd_monomial(ctx,
  mask) the one term theta_K), terms_of(p) reads it back as
  {Monomial: Fraction} in the order of p.nums, and
  coefficient(p, mono) reads one coefficient, all from .nums, .den and
  ctx._shift.  The exponent fields are decoded here, not by poly._unpack,
  so a fault in the kernel's term view shows against this one.

The sign of a product of odd generators is modelled by counting
inversions: theta_K is the product of the generators of K in increasing
order, and sorting a word of generators into increasing order takes one
transposition per inversion, so theta_K * theta_L is zero when K and L
share a generator and otherwise (-1)^inversions theta_(K + L).  Nothing
here reads poly._SWAP_PARITY or any other sign code of the package.

The matrix model of Lambda(theta_1..theta_q) is built on that count.  Its
basis is the subsets S of {0..q-1}, as bit masks; a matrix is a sparse
{(row mask, column mask): value} dict with no zero stored.  left_mul and
left_partial are the generators' operators, poly_matrix(q, p) is left
multiplication by a polynomial, the sum over its terms of the coefficient
times the product of left_mul over the odd word, and mat_add and mat_mul
are the ring operations.  The map p -> poly_matrix(q, p) is a faithful
algebra homomorphism, so a product, a sum of products or a determinant
computed by the kernel must map to the matching expression in matrices.
"""

from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

from supergeom import Context, SuperPoly
from supergeom.poly import _FIELD_BITS, MAX_FIELD_EXPONENT, _exact

_FIELD_MASK = (1 << _FIELD_BITS) - 1


# -- the pair form of a monomial ----------------------------------------------


def _fields(packed):
    """The nonzero fields of a packed even part as (index, exponent)
    pairs, increasing index."""
    out = []
    i = 0
    while packed:
        if e := packed & _FIELD_MASK:
            out.append((i, e))
        packed >>= _FIELD_BITS
        i += 1
    return tuple(out)


class Monomial(tuple):
    """A monomial t^a theta_K as the pair of ints (packed, mask).

    packed holds the exponent of even generator i in the field of
    _FIELD_BITS bits starting at bit i * _FIELD_BITS; mask has bit j set
    when theta_j is present, the generators multiplied in increasing
    index order.  even, even_degree and odd are read-only views decoded
    from the two ints.  A Monomial does not know its context: encode
    refuses a generator index the context does not have.

    Monomial(even, mask) takes (index, exponent) pairs in any order and
    raises ValueError on a repeated or negative index, an exponent that is
    not an int in 1..MAX_FIELD_EXPONENT, or a negative mask, so equal
    monomials always compare and hash equal.
    """

    __slots__ = ()

    def __new__(cls, even, mask):
        packed = 0
        for i, e in even:
            if type(i) is not int or i < 0:
                raise ValueError(f"even generator index {i!r} is not an int >= 0")
            if type(e) is not int or not 0 < e <= MAX_FIELD_EXPONENT:
                raise ValueError(f"exponent {e!r} is not an int in 1..{MAX_FIELD_EXPONENT}")
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
    def even(self):
        """((generator index, exponent), ...) by increasing index."""
        return _fields(self[0])

    @property
    def odd(self):
        """The odd word: strictly increasing generator indices."""
        return tuple(word(self[1]))

    @property
    def even_degree(self):
        return sum(e for _, e in _fields(self[0]))

    def __getnewargs__(self):
        return self.even, self[1]

    def __repr__(self):
        return f"Monomial(even={self.even!r}, mask={self[1]!r})"


UNIT_MONOMIAL = Monomial((), 0)


def encode(ctx, mono):
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
            f"monomial has even generator index {(packed.bit_length() - 1) // _FIELD_BITS}, "
            f"but the context has {len(ctx.even)} even generators"
        )
    if mask >> len(ctx.odd):
        raise ValueError(
            f"monomial has odd generator index {mask.bit_length() - 1}, "
            f"but the context has {len(ctx.odd)} odd generators"
        )
    return packed | mask << shift


def decode(ctx, code):
    """The Monomial of a code in ctx; the inverse of encode."""
    shift = ctx._shift
    return tuple.__new__(Monomial, (code & ((1 << shift) - 1), code >> shift))


def from_terms(ctx, terms):
    """The polynomial of {Monomial: Fraction or int}, or of such pairs;
    zero coefficients are dropped, floats refused (TypeError), and a
    monomial with a generator index outside ctx raises ValueError."""
    items = terms.items() if isinstance(terms, Mapping) else terms
    coeffs = {}
    for mono, c in items:
        code = encode(ctx, mono)
        if c := _exact(c):
            coeffs[code] = c
    return SuperPoly._from_coefficients(ctx, coeffs)


def terms_of(p):
    """{Monomial: Fraction} of p's terms, in the order of p.nums."""
    return {decode(p.ctx, code): Fraction(n, p.den) for code, n in p.nums.items()}


def coefficient(p, mono):
    """The coefficient of mono in p, 0 when absent; ValueError when mono
    names a generator index outside p's context."""
    return Fraction(p.nums.get(encode(p.ctx, mono), 0), p.den)


def odd_monomial(ctx, mask):
    """theta_K as a polynomial over ctx, K the generators of mask."""
    return from_terms(ctx, {Monomial((), mask): 1})


# -- the inversion count ------------------------------------------------------


def word(mask):
    """The generator indices of mask, increasing."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def inversions(w):
    return sum(a > b for a, b in combinations(w, 2))


def sort_word(w):
    """(sign, sorted word) of the product of the generators of the word w
    in its order: (0, ()) when an index repeats, since theta*theta = 0,
    else the sign (-1)^inversions of sorting it."""
    if len(set(w)) < len(w):
        return 0, ()
    return (-1) ** inversions(w), tuple(sorted(w))


def theta_product(k, l):
    """{mask: sign} of theta_K * theta_L, empty when it is zero."""
    if k & l:
        return {}
    return {k | l: (-1) ** inversions(word(k) + word(l))}


def front_sign(s, i):
    """(-1) to the number of generators of s in front of theta_i, the
    inversions of the word i, then s."""
    return (-1) ** inversions([i] + word(s & ~(1 << i)))


def left_mul(q, i):
    """Left multiplication by theta_i on Lambda(theta_1..theta_q), as a
    sparse matrix {(row mask, column mask): sign}."""
    return {(s | 1 << i, s): front_sign(s, i) for s in range(1 << q) if not s >> i & 1}


def left_partial(q, i):
    """The left partial d/dtheta_i on Lambda(theta_1..theta_q), as a
    sparse matrix {(row mask, column mask): sign}."""
    return {(s & ~(1 << i), s): front_sign(s, i) for s in range(1 << q) if s >> i & 1}


# -- the matrix model of Lambda(theta_1..theta_q) -----------------------------


def grassmann(q):
    """Lambda(theta1..thetaq): q odd generators and no even one."""
    return Context(odd=[f"theta{i + 1}" for i in range(q)])


def unit_matrix(q):
    return {(s, s): 1 for s in range(1 << q)}


def mat_add(x, y, scale=1):
    """x + scale * y."""
    out = dict(x)
    for key, v in y.items():
        s = out.get(key, 0) + scale * v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def mat_mul(x, y):
    """x y, each entry of x meeting only the row of y it multiplies."""
    by_row = {}
    for (k, j), v in y.items():
        by_row.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), u in x.items():
        for j, v in by_row.get(k, ()):
            s = out.get((i, j), 0) + u * v
            if s:
                out[(i, j)] = s
            else:
                out.pop((i, j), None)
    return out


def poly_matrix(q, p, values=()):
    """The matrix of left multiplication by p on Lambda(theta_1..theta_q),
    p's even generators, if any, set to the rationals values: sending
    them there is a ring homomorphism k[x | theta] -> Lambda(theta)."""
    thetas = [left_mul(q, j) for j in range(q)]
    out = {}
    for mono, c in terms_of(p).items():
        for i, e in mono.even:
            c *= values[i] ** e
        word = unit_matrix(q)
        for j in mono.odd:
            word = mat_mul(word, thetas[j])
        out = mat_add(out, word, c)
    return out

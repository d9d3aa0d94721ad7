"""Proof by enumeration for products with even generators: every ordered
pair of basis monomials of k[t1, t2 | theta1..theta3] with exponents at
most 2, through * and through a weighted packed sum of width two.

A product is bilinear, so its values on pairs of basis monomials fix
it.  The 9 even parts t1^i t2^j (i, j <= 2) times the 8 odd words give
72 monomials and 5,184 ordered pairs, each of which runs the loop of its
left term's kind: the constant one, the odd-free one or the odd one.
The model is tests/model.py's: even exponents add generator by
generator, and theta_K * theta_L is zero when K and L share a generator
and otherwise (-1)^inversions theta_(K + L) (theta_product).  Nothing
here uses _SWAP_PARITY or any other sign code of the package.

The packed sum takes the triple (k, a, row) for the weights k = 1, -1
and 3 in turn, row the pair (b, b') packed by poly._pack, so each
product is keyed code << 1 | column, and must read k times the model in
each column.  The left factors carry 1/2 and the rows 1/3, so the sum's
denominator and scale take part.  A failure is named by its pair.
"""

from fractions import Fraction

from model import Monomial, from_terms, terms_of, theta_product
from supergeom import Context
from supergeom.poly import _pack, _packed_dot, _split

CTX = Context(even=["t1", "t2"], odd=["theta1", "theta2", "theta3"])
MONOMIALS = [Monomial([(i, e) for i, e in enumerate((e1, e2)) if e], mask)
             for e1 in range(3) for e2 in range(3) for mask in range(8)]
WEIGHTS = (1, -1, 3)
HALF, THIRD = Fraction(1, 2), Fraction(1, 3)


def model_product(m1, m2, c):
    """{Monomial: coefficient} of c * m1 * m2."""
    even = dict(m1.even)
    for i, e in m2.even:
        even[i] = even.get(i, 0) + e
    return {Monomial(sorted(even.items()), mask): c * sign
            for mask, sign in theta_product(m1.mask, m2.mask).items()}


def test_every_basis_pair_multiplies_by_the_model():
    assert len(set(MONOMIALS)) == 72
    polys = [from_terms(CTX, {m: 1}) for m in MONOMIALS]
    wrong = [(m1, m2) for m1, a in zip(MONOMIALS, polys) for m2, b in zip(MONOMIALS, polys)
             if terms_of(a * b) != model_product(m1, m2, 1)]
    assert not wrong, f"{len(wrong)} wrong products, (left, right) first: {wrong[:5]}"


def test_every_basis_pair_sums_by_its_weight_in_a_packed_row():
    lefts = [from_terms(CTX, {m: HALF}) for m in MONOMIALS]
    rights = [from_terms(CTX, {m: THIRD}) for m in MONOMIALS]
    n = len(MONOMIALS)
    # row j holds monomial j in column 0 and monomial j + 1 in column 1
    rows = [_pack(CTX, [rights[j], rights[(j + 1) % n]]) for j in range(n)]
    wrong = []
    for i, (m1, a) in enumerate(zip(MONOMIALS, lefts)):
        for j, m2 in enumerate(MONOMIALS):
            k = WEIGHTS[(i + j) % 3]
            got = _split(CTX, (_packed_dot(CTX, [(k, a, rows[j])], 2),), 2)
            want = [model_product(m1, m, k * HALF * THIRD) for m in (m2, MONOMIALS[(j + 1) % n])]
            if [terms_of(p) for p in got] != want:
                wrong.append((k, m1, m2))
    assert not wrong, f"{len(wrong)} wrong sums, (weight, left, right) first: {wrong[:5]}"

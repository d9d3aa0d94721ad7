"""Proof by enumeration for the sum of products: dot_row on every ordered
pair of basis monomials of Lambda(theta1..theta6).

dot_row is bilinear, and a bilinear map is fixed by its values on pairs
of basis elements.  So checking all 64 x 64 products theta_K * theta_L
against an independent model proves the product signs of the term-pair
loop for six odd generators, where seeded random inputs reach a given
pair only by chance.

Model: theta_K is the product of the generators of K in increasing
order.  theta_K * theta_L is zero when K and L share a generator;
otherwise sorting the concatenated word into increasing order takes one
transposition per inversion, so the product is (-1)^inversions
theta_(K + L).  Nothing here uses _SWAP_PARITY, _odd_word or any other
sign code of the package.  The left factors carry 1/2 and the grid 1/3,
so every column also runs dot_row's common denominator.
"""

from fractions import Fraction
from itertools import combinations

from supergeom import Context, Monomial, SuperPoly
from supergeom.poly import dot_row

Q = 6
GR6 = Context(odd=[f"theta{i}" for i in range(1, Q + 1)])
MASKS = range(1 << Q)


def word(mask):
    """The generator indices of mask, increasing."""
    return [j for j in range(Q) if mask >> j & 1]


def model_product(k, l):
    """{mask: coefficient} of theta_K * theta_L."""
    if k & l:
        return {}
    w = word(k) + word(l)
    inversions = sum(a > b for a, b in combinations(w, 2))
    return {k | l: (-1) ** inversions}


def basis(mask, c):
    return SuperPoly(GR6, {Monomial((), mask): c})


def test_every_basis_pair_matches_the_inversion_count():
    half, third = Fraction(1, 2), Fraction(1, 3)
    grid = [[basis(l, third) for l in MASKS]]
    wrong = []
    for k in MASKS:
        got = dot_row(GR6, [basis(k, half)], grid)
        for l, p in zip(MASKS, got):
            want = {mask: c * half * third for mask, c in model_product(k, l).items()}
            if {mono.mask: c for mono, c in p.terms.items()} != want:
                wrong.append((word(k), word(l)))
    assert not wrong, f"{len(wrong)} wrong products theta_K * theta_L, (K, L) first: {wrong[:5]}"

"""The inverse and the Berezinian of every elementary generator of the
even supermatrices over Lambda(theta1..theta3), and of every ordered
pair of them, against closed forms, at 1|1, 2|1, 1|2 and 3|1.

A generator is E = I + x E_ij with x a basis monomial theta_M of E_ij's
parity, |M| = |i| + |j| mod 2: four per position.  Their closed forms
use no inverse or Berezinian of the package.  Off the diagonal E_ij
squares to zero, so E^-1 = I - x E_ij, and E is unipotent in one
diagonal block or block triangular with unit diagonal blocks, so
Ber E = 1.  On the diagonal E^-1
is I with (1 + x)^-1 at (i, i): 1/2 for x = 1, else 1 - x, since then
x^2 = 0; and Ber E is 1 + x in the even block and (1 + x)^-1 in the odd
one.  Over every ordered pair, (E F)^-1 must be F^-1 E^-1 and
Ber(E F) = Ber E Ber F, from those closed forms; the product @ is proved
by enumeration in test_elementary.py.  The grids here are mostly zero
off the diagonal, which is where a Laplace pass of a Berezinian's
determinant can read a minor that its reach never filled.  Each failure
names its generators.
"""

from fractions import Fraction

import pytest

from model import odd_monomial, word
from supergeom import Context, SuperMatrix

Q = 3
GR3 = Context(odd=[f"theta{i}" for i in range(1, Q + 1)])


def generators(dim):
    """(label, E, closed-form E^-1, closed-form Ber E) of every elementary
    generator E = I + x E_ij of one shape."""
    n = sum(dim)
    one = GR3.one()
    out = []
    for i in range(n):
        for j in range(n):
            for mask in range(1 << Q):
                if bin(mask).count("1") % 2 != (i >= dim[0]) ^ (j >= dim[0]):
                    continue
                x = odd_monomial(GR3, mask)
                if i != j:
                    entry, inv_entry, ber = x, -x, one
                else:
                    # (1 + x)^-1, with x^2 = 0 for every x but 1
                    inverse = GR3.scalar(Fraction(1, 2)) if not mask else one - x
                    entry, inv_entry = one + x, inverse
                    ber = one + x if i < dim[0] else inverse
                rows = [[GR3.scalar(int(r == c)) for c in range(n)] for r in range(n)]
                inv = [row[:] for row in rows]
                rows[i][j], inv[i][j] = entry, inv_entry
                label = f"I + {'*'.join(f'theta{g + 1}' for g in word(mask)) or '1'} E{i}{j}"
                out.append((label, SuperMatrix(GR3, dim, dim, rows),
                            SuperMatrix(GR3, dim, dim, inv), ber))
    return out


@pytest.mark.parametrize("dim", [(1, 1), (2, 1), (1, 2), (3, 1)], ids=lambda d: f"{d[0]}|{d[1]}")
def test_every_pair_of_generators_inverts_and_takes_ber_by_the_closed_forms(dim):
    gens = generators(dim)
    wrong = [f"{label}: inv" for label, e, inv, _ in gens if e.invert() != inv]
    wrong += [f"{label}: ber" for label, e, _, ber in gens if e.berezinian() != ber]
    for label_e, e, e_inv, e_ber in gens:
        for label_f, f, f_inv, f_ber in gens:
            ef = e @ f
            if ef.invert() != f_inv @ e_inv or ef.berezinian() != e_ber * f_ber:
                wrong.append(f"({label_e}) @ ({label_f})")
    assert not wrong, f"{len(wrong)} wrong at {dim}, first: {wrong[:3]}"

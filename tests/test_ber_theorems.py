"""Two theorems of the Berezinian against the Jacobians of morphisms.

Each Jacobian is built here from partial: row i, column j holds the
partial of image j by source coordinate i, the layout of
Morphism.differential_at kept symbolic.  So partial, pullback, compose,
the Jacobian layout and berezinian must all agree in sign.

(a) Berezin change of variables over 0|q: with the integral of f the
    coefficient of theta_1 ... theta_q,
    int phi*(f) Ber(J phi) = int f for every automorphism phi.
(b) The chain rule: Ber J(psi . phi) = Ber J phi * phi*(Ber J psi), on
    triangular automorphisms of k[x1, x2 | theta1, theta2, theta3], whose
    body determinants are constant, so that berezinian inverts them.

See Berezin, Introduction to Superanalysis (Reidel, 1987), and Deligne
and Morgan, "Notes on supersymmetry (following Joseph Bernstein)"
(AMS/IAS, 1999).
"""

import random
from fractions import Fraction

import pytest

from helpers import random_poly
from model import Monomial, coefficient
from supergeom import Context, Morphism, Parity, SuperDim, SuperMatrix, compose, linalg


def jacobian(phi):
    ctx = phi.source
    rows = [[img.partial(name) for img in phi.images] for name in ctx.names]
    return SuperMatrix(ctx, SuperDim(*ctx.dims), SuperDim(*phi.target.dims), rows)


def odd_automorphism(rng, ctx):
    """theta_i -> a random odd polynomial whose linear part is invertible."""
    q = len(ctx.odd)
    while True:
        images = [random_poly(rng, ctx, Parity.ODD, n_terms=3, lo=-3, hi=3) for _ in ctx.odd]
        linear = [[coefficient(img, Monomial((), 1 << j)) for j in range(q)] for img in images]
        if linalg.rank(linear) == q:
            return Morphism(ctx, ctx, images)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_berezin_change_of_variables(q):
    rng = random.Random(1800 + q)
    ctx = Context(odd=[f"theta{j + 1}" for j in range(q)])
    top = Monomial((), (1 << q) - 1)
    for _ in range(40):
        phi = odd_automorphism(rng, ctx)
        f = random_poly(rng, ctx, n_terms=4)
        ber = jacobian(phi).berezinian()
        assert coefficient(phi.pullback(f) * ber, top) == coefficient(f, top)


B23 = Context(even=["x1", "x2"], odd=["theta1", "theta2", "theta3"])


def triangular(rng):
    """x_i -> a_i x_i + (x_1 for i = 2) + constant + nilpotent even terms;
    theta_j -> c_j theta_j + p(x) theta_k for k < j + c theta1 theta2 theta3:
    both body blocks of the Jacobian are triangular with constant
    diagonals."""
    x1, x2 = B23.var("x1"), B23.var("x2")
    th = [B23.var(n) for n in B23.odd]

    def c():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))

    def nilpotent():
        p = random_poly(rng, B23, Parity.EVEN, max_even_deg=1, n_terms=2, lo=-3, hi=3)
        return p - p.body()

    even = [c() * x1 + c() + nilpotent(), c() * x2 + c() * x1 ** 2 + nilpotent()]
    odd = []
    for j in range(3):
        img = c() * th[j] + c() * x2 * th[0] * th[1] * th[2]
        for k in range(j):
            img = img + (c() + c() * x1) * th[k]
        odd.append(img)
    return Morphism(B23, B23, even + odd)


def test_berezinian_chain_rule():
    rng = random.Random(1850)
    mirrored = 0
    for _ in range(30):
        phi, psi = triangular(rng), triangular(rng)
        ber_phi = jacobian(phi).berezinian()
        ber_psi = jacobian(psi).berezinian()
        assert jacobian(compose(psi, phi)).berezinian() == ber_phi * phi.pullback(ber_psi)
        mirrored += jacobian(compose(psi, phi)).berezinian() == ber_psi * psi.pullback(ber_phi)
    # the mirrored order is a different identity, so the check reads the order
    assert mirrored <= 3

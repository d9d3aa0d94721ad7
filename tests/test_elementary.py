"""Proof by enumeration for the matrix operations: every elementary
supermatrix E_ij theta_M over Lambda(theta1..theta3), at 1|1, 2|1 and
1|2, of both matrix parities.

A supermatrix of parity pi has entries of parity |i| + |j| + pi, so the
basis matrices of one shape and parity are the E_ij theta_M with
|M| = |i| + |j| + pi mod 2: four masks per position.  The product, the
superbracket, the supertranspose and the supertrace are linear in each
argument, so checking them on every basis matrix, and every ordered pair
of basis matrices, against an independent model proves them at these
shapes, where seeded random matrices reach a given sign only by chance.

Model, with no code of poly.py: a basis matrix is (i, j, M, pi).
theta_M * theta_N is zero when M and N meet; otherwise it is
(-1)^inversions theta_(M + N), with one transposition per inversion of
the concatenated word.  Then

    E_ij theta_M @ E_kl theta_N = [j == k] (-1)^inversions E_il theta_(M+N),
    [a, b] = a b - (-1)^(pi_a pi_b) b a,
    (X^st)_ij = (-1)^((|i| + pi)(|i| + |j|)) X_ji,
    str X = sum_i (-1)^(|i| (1 + pi)) X_ii,

the last two being tr T1 - tr T4 for an even X and tr T1 + tr T4 for an
odd one, with the transposed T2 negated for an even X and the transposed
T3 for an odd one.  The model's supertranspose is checked against its own
product first: (S T)^st = (-1)^(pi_S pi_T) T^st S^st on every pair, the
Koszul rule that fixes the convention.  Each failure names its basis
matrices.
"""

from itertools import combinations

import pytest

from supergeom import Context, Monomial, Parity, SuperMatrix, SuperPoly, superbracket

Q = 3
GR3 = Context(odd=[f"theta{i}" for i in range(1, Q + 1)])
DIMS = [(1, 1), (2, 1), (1, 2)]


def word(mask):
    return [g for g in range(Q) if mask >> g & 1]


def theta_product(m, n):
    """(sign, mask) of theta_M * theta_N, or None when it is zero."""
    if m & n:
        return None
    w = word(m) + word(n)
    return (-1) ** sum(a > b for a, b in combinations(w, 2)), m | n


def row_parity(dim, i):
    return int(i >= dim[0])


def basis(dim):
    """Every (i, j, mask, pi) of one shape, pi the matrix parity."""
    n = sum(dim)
    return [(i, j, mask, pi) for pi in (0, 1) for i in range(n) for j in range(n)
            for mask in range(1 << Q)
            if bin(mask).count("1") % 2 == (row_parity(dim, i) + row_parity(dim, j) + pi) % 2]


def name(b):
    i, j, mask, pi = b
    theta = "*".join(f"theta{g + 1}" for g in word(mask)) or "1"
    return f"E{i}{j}*{theta} ({'odd' if pi else 'even'})"


def model_product(a, b):
    """{(row, col, mask): coefficient} of the product a @ b."""
    i, j, m, _ = a
    k, l, n, _ = b
    prod = theta_product(m, n) if j == k else None
    return {(i, l, prod[1]): prod[0]} if prod else {}


def model_bracket(a, b):
    out = dict(model_product(a, b))
    sign = -1 if a[3] and b[3] else 1
    for key, c in model_product(b, a).items():
        out[key] = out.get(key, 0) - sign * c
    return {key: c for key, c in out.items() if c}


def model_transpose(dim, pi, entries):
    """The supertranspose of {(i, j, mask): c} for a matrix of parity pi."""
    out = {}
    for (i, j, mask), c in entries.items():
        # entry (j, i) of X^st is X_ij, with i the column index there
        pj, pi_ = row_parity(dim, j), row_parity(dim, i)
        out[j, i, mask] = (-1) ** ((pj + pi) * (pj + pi_)) * c
    return out


def model_trace(dim, b):
    i, j, mask, pi = b
    if i != j:
        return {}
    return {mask: (-1) ** (row_parity(dim, i) * (1 + pi))}


def matrix(dim, b):
    i, j, mask, pi = b
    n = sum(dim)
    rows = [[GR3.zero()] * n for _ in range(n)]
    rows[i][j] = SuperPoly(GR3, {Monomial((), mask): 1})
    return SuperMatrix(GR3, dim, dim, rows, Parity.ODD if pi else Parity.EVEN)


def entries(m):
    """{(row, col, mask): coefficient} of a matrix over GR3."""
    return {(i, j, mono.mask): c for i, row in enumerate(m.rows) for j, e in enumerate(row)
            if e for mono, c in e.terms.items()}


@pytest.mark.parametrize("dim", DIMS, ids=lambda d: f"{d[0]}|{d[1]}")
def test_the_model_transpose_reverses_products_with_the_koszul_sign(dim):
    wrong = []
    for a in basis(dim):
        for b in basis(dim):
            lhs = model_transpose(dim, (a[3] + b[3]) % 2, model_product(a, b))
            ta, tb = (model_transpose(dim, x[3], {x[:3]: 1}) for x in (a, b))
            [(ka, ca)], [(kb, cb)] = ta.items(), tb.items()
            rhs = {key: (-1) ** (a[3] * b[3]) * c * ca * cb
                   for key, c in model_product((*kb, b[3]), (*ka, a[3])).items()}
            if lhs != rhs:
                wrong.append((name(a), name(b)))
    assert not wrong, f"{len(wrong)} pairs, first: {wrong[:3]}"


@pytest.mark.parametrize("dim", DIMS, ids=lambda d: f"{d[0]}|{d[1]}")
def test_every_pair_of_basis_matrices_multiplies_and_brackets_by_the_model(dim):
    bases = basis(dim)
    mats = [matrix(dim, b) for b in bases]
    wrong = []
    for a, x in zip(bases, mats):
        for b, y in zip(bases, mats):
            for op, got, want in (("@", x @ y, model_product(a, b)),
                                  ("[,]", superbracket(x, y), model_bracket(a, b))):
                if entries(got) != want or got.parity.value != (a[3] + b[3]) % 2:
                    wrong.append(f"{name(a)} {op} {name(b)}")
    assert not wrong, f"{len(wrong)} wrong at {dim}, first: {wrong[:3]}"


@pytest.mark.parametrize("dim", DIMS, ids=lambda d: f"{d[0]}|{d[1]}")
def test_every_basis_matrix_transposes_and_traces_by_the_model(dim):
    wrong = []
    for b in basis(dim):
        x = matrix(dim, b)
        st = x.supertranspose()
        if entries(st) != model_transpose(dim, b[3], {b[:3]: 1}) or st.parity != x.parity:
            wrong.append(f"st {name(b)}")
        if {mono.mask: c for mono, c in x.supertrace().terms.items()} != model_trace(dim, b):
            wrong.append(f"str {name(b)}")
    assert not wrong, f"{len(wrong)} wrong at {dim}, first: {wrong[:3]}"

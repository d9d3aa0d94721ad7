"""Matrix supergroup Lie algebras and the dual-number brackets.

commutator_bracket must reproduce the direct superbracket xy -
(-1)^{|x||y|}yx on every homogeneous pair; the lie_algebra constraint
sets are frozen from hand expansions:

  SL_{1|1}: p11 - s11                  (supertrace)
  SL_{2|1}: p11 + p22 - s11
  SL_{2|2}: p11 + p22 - s11 - s22
  OSp(1|2), Phi = diag(1; J2):
    p11, s11 + s22 (even), q11 - r21, q12 + r11 (odd), so dim 3|2
"""

import random

import pytest

from helpers import random_supermatrix
from supergeom import (
    Context,
    ContextMismatch,
    MatrixGroupSpec,
    Parity,
    ReservedGeneratorCollision,
    SuperDim,
    SuperMatrix,
    adjoint_bracket,
    commutator_bracket,
    lie_algebra,
    linalg,
    superbracket,
)

CTX = Context(even=["t"], odd=["theta1", "theta2", "theta3", "theta4"])

PARITIES = [
    (Parity.EVEN, Parity.EVEN),
    (Parity.EVEN, Parity.ODD),
    (Parity.ODD, Parity.EVEN),
    (Parity.ODD, Parity.ODD),
]


def diag(ctx, *values):
    n = len(values)
    d = SuperDim(n // 2, n - n // 2)
    rows = [
        [ctx.scalar(values[i]) if i == j else ctx.zero() for j in range(n)]
        for i in range(n)
    ]
    return SuperMatrix(ctx, d, d, rows)


# -- brackets from the group commutator ---------------------------------------


def test_commuting_diagonals_bracket_to_zero():
    x = diag(CTX, 1, 2)
    y = diag(CTX, 3, -5)
    assert commutator_bracket(x, y).is_zero()


def test_even_pair_matches_plain_commutator():
    rng = random.Random(41)
    d = SuperDim(1, 1)
    x = random_supermatrix(rng, CTX, d, d)
    y = random_supermatrix(rng, CTX, d, d)
    assert commutator_bracket(x, y) == x @ y - y @ x


@pytest.mark.parametrize("px,py", PARITIES)
def test_commutator_matches_superbracket(px, py):
    rng = random.Random(hash((px.value, py.value)) % 1000)
    for _ in range(8):
        d = SuperDim(rng.randint(1, 2), rng.randint(1, 2))
        x = random_supermatrix(rng, CTX, d, d, parity=px)
        y = random_supermatrix(rng, CTX, d, d, parity=py)
        b = commutator_bracket(x, y)
        assert b == superbracket(x, y)
        assert b.parity is px + py


@pytest.mark.parametrize("px,py", PARITIES)
def test_adjoint_matches_superbracket(px, py):
    rng = random.Random(hash((py.value, px.value)) % 1000 + 7)
    for _ in range(8):
        d = SuperDim(rng.randint(1, 2), rng.randint(1, 2))
        x = random_supermatrix(rng, CTX, d, d, parity=px)
        y = random_supermatrix(rng, CTX, d, d, parity=py)
        assert adjoint_bracket(x, y) == superbracket(x, y)


def test_commutator_super_antisymmetry():
    rng = random.Random(43)
    d = SuperDim(1, 1)
    for px, py in PARITIES:
        x = random_supermatrix(rng, CTX, d, d, parity=px)
        y = random_supermatrix(rng, CTX, d, d, parity=py)
        sign = -1 if (px is Parity.ODD and py is Parity.ODD) else 1
        lhs = commutator_bracket(x, y)
        rhs = commutator_bracket(y, x) * CTX.scalar(-sign)
        assert lhs == rhs


def test_commutator_super_jacobi():
    # [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]]
    rng = random.Random(44)
    d = SuperDim(1, 1)
    for px in (Parity.EVEN, Parity.ODD):
        for py in (Parity.EVEN, Parity.ODD):
            for pz in (Parity.EVEN, Parity.ODD):
                x = random_supermatrix(rng, CTX, d, d, parity=px)
                y = random_supermatrix(rng, CTX, d, d, parity=py)
                z = random_supermatrix(rng, CTX, d, d, parity=pz)
                lhs = commutator_bracket(x, commutator_bracket(y, z))
                rhs = commutator_bracket(commutator_bracket(x, y), z)
                tail = commutator_bracket(y, commutator_bracket(x, z))
                if px is Parity.ODD and py is Parity.ODD:
                    tail = tail * CTX.scalar(-1)
                assert lhs == rhs + tail


def test_reserved_generators_rejected():
    bad = Context(even=["t"], odd=["epsilon1", "theta1"])
    d = SuperDim(1, 1)
    x = SuperMatrix.identity(bad, d)
    with pytest.raises(ReservedGeneratorCollision, match="epsilon1"):
        commutator_bracket(x, x)
    with pytest.raises(ReservedGeneratorCollision):
        adjoint_bracket(x, x)


def test_bracket_operand_validation():
    d = SuperDim(1, 1)
    other = Context(even=["t"], odd=["theta1"])
    with pytest.raises(ContextMismatch):
        commutator_bracket(
            SuperMatrix.identity(CTX, d), SuperMatrix.identity(other, d)
        )
    rect = SuperMatrix.zeros(CTX, SuperDim(1, 1), SuperDim(2, 1))
    with pytest.raises(ValueError, match="square"):
        commutator_bracket(rect, rect)
    with pytest.raises(ValueError, match="equal dims"):
        adjoint_bracket(
            SuperMatrix.identity(CTX, d),
            SuperMatrix.identity(CTX, SuperDim(2, 2)),
        )


# -- group specs ---------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown group kind"):
        MatrixGroupSpec("SU", (1, 1))
    with pytest.raises(ValueError, match="even number of odd"):
        MatrixGroupSpec.OSp(1, 1)
    with pytest.raises(ValueError, match="bilinear form"):
        MatrixGroupSpec("SL", (1, 1), form=[[1]])


def test_form_validation():
    with pytest.raises(ValueError, match="block diagonal"):
        MatrixGroupSpec.OSp(1, 2, form=[[1, 1, 0], [1, 0, 1], [0, -1, 0]])
    with pytest.raises(ValueError, match="symmetric"):
        MatrixGroupSpec.OSp(2, 2, form=[
            [1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    with pytest.raises(ValueError, match="alternating"):
        MatrixGroupSpec.OSp(1, 2, form=[[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    with pytest.raises(ValueError, match="invertible"):
        MatrixGroupSpec.OSp(1, 2, form=[[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    with pytest.raises(ValueError, match=r"\(m\+n\) x \(m\+n\)"):
        MatrixGroupSpec.OSp(1, 2, form=[[1, 0], [0, 1]])


def test_default_form_is_identity_and_standard_j():
    spec = MatrixGroupSpec.OSp(2, 2)
    assert [[int(v) for v in row] for row in spec.form] == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ]


# -- lie_algebra ----------------------------------------------------------------


def test_gl_has_no_constraints():
    res = lie_algebra(MatrixGroupSpec.GL(1, 1))
    assert res.kind == "GL"
    assert res.constraints == ()
    assert res.dims == SuperDim(1, 1)
    assert str(res.element.entry(0, 0)) == "p11"
    assert str(res.element.entry(0, 1)) == "q11"
    assert str(res.element.entry(1, 0)) == "r11"
    assert str(res.element.entry(1, 1)) == "s11"
    assert str(res.epsilon) == "epsilon1*epsilon2"


@pytest.mark.parametrize("mn,expected", [
    ((1, 1), "p11 - s11"),
    ((2, 1), "p11 + p22 - s11"),
    ((2, 2), "p11 + p22 - s11 - s22"),
])
def test_sl_constraint_is_supertrace(mn, expected):
    res = lie_algebra(MatrixGroupSpec.SL(*mn))
    assert [str(c) for c in res.constraints] == [expected]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [1, 2])
def test_sl_constraints_are_supertrace_kernel(m, n):
    res = lie_algebra(MatrixGroupSpec.SL(m, n))
    assert res.constraints == (res.element.supertrace(),)


def test_osp_1_2_frozen():
    res = lie_algebra(MatrixGroupSpec.OSp(1, 2))
    assert [str(c) for c in res.constraints] == [
        "p11",
        "s11 + s22",
        "q11 - r21",
        "q12 + r11",
    ]
    # ambient gl(1|2) is 5|4, so the cut-out algebra has dimension 3|2
    even = [c for c in res.constraints if c.parity() is Parity.EVEN]
    odd = [c for c in res.constraints if c.parity() is Parity.ODD]
    assert (len(even), len(odd)) == (2, 2)


def test_osp_2_2_dimension():
    res = lie_algebra(MatrixGroupSpec.OSp(2, 2))
    even = [c for c in res.constraints if c.parity() is Parity.EVEN]
    odd = [c for c in res.constraints if c.parity() is Parity.ODD]
    # so(2) + sp(2) is 1 + 3 dimensional inside 8 even symbols
    assert (len(even), len(odd)) == (4, 4)


def _constraint_rows(ctx, polys, names):
    return [[c.partial(n).constant_term() for n in names] for c in polys]


@pytest.mark.parametrize("spec", [
    MatrixGroupSpec.OSp(1, 2),
    MatrixGroupSpec.OSp(2, 2),
    MatrixGroupSpec.OSp(1, 2, form=[[2, 0, 0], [0, 0, 3], [0, -3, 0]]),
])
def test_osp_agrees_with_direct_expansion(spec):
    # oracle: expand X^st Phi + Phi X entrywise without the group element
    res = lie_algebra(spec)
    ctx = res.context
    x = res.element
    phi = SuperMatrix(
        ctx, res.dims, res.dims,
        [[ctx.scalar(v) for v in row] for row in spec.form],
    )
    direct = x.supertranspose() @ phi + phi @ x
    oracle = [e for row in direct.rows for e in row if e]

    sym_even = ctx.even
    sym_odd = ctx.odd[2:]
    for parity, names in ((Parity.EVEN, sym_even), (Parity.ODD, sym_odd)):
        got = [c for c in res.constraints if c.parity() is parity]
        want = [c for c in oracle if c.parity() is parity]
        got_ech, _ = linalg.rref(_constraint_rows(ctx, got, names))
        want_ech, _ = linalg.rref(_constraint_rows(ctx, want, names))
        assert [r for r in got_ech if any(r)] == [r for r in want_ech if any(r)]


def test_sl_element_feeds_berezinian():
    # the advertised relationship: Ber(I + eps X) - 1 factors through eps
    res = lie_algebra(MatrixGroupSpec.SL(1, 1))
    eye = SuperMatrix.identity(res.context, res.dims)
    ber = (eye + res.epsilon * res.element).berezinian()
    assert ber - 1 == res.epsilon * (res.element.supertrace())


def test_form_floats_rejected():
    with pytest.raises(TypeError, match="inexact float"):
        MatrixGroupSpec.OSp(1, 2, form=[[0.5, 0, 0], [0, 0, 1], [0, -1, 0]])

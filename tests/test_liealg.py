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
from fractions import Fraction

import pytest

from helpers import random_supermatrix
from oracles import (reference_canonical_constraints, reference_lie_algebra, reference_rref,
                     substitution_rename)
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
    superbracket,
)
from supergeom import liealg
from supergeom.liealg import (
    RESERVED,
    _canonical_constraints,
    _divide,
    _extended,
    _lift,
    _parameter,
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


def test_lift_then_divide_returns_the_entry():
    # _lift appends the reserved generators to the context, _divide takes
    # the left quotient by the parameter and renames it back; the
    # substitution oracle is the independent route into the extended
    # context
    ext = _extended(CTX)
    assert ext.odd == CTX.odd + RESERVED
    rng = random.Random(88)
    x = random_supermatrix(rng, CTX, (1, 1), (1, 1), Parity.ODD)
    lifted = _lift(x, ext)
    eps = _parameter(ext, Parity.EVEN, 1) * _parameter(ext, Parity.ODD, 0)
    # the even pair commutes past epsilon1: the parameter is
    # +epsilon1*epsilon3*epsilon4 in increasing order
    assert eps == ext.var("epsilon1") * ext.var("epsilon3") * ext.var("epsilon4")
    for row, lifted_row in zip(x.rows, lifted.rows):
        for e, le in zip(row, lifted_row):
            assert le == substitution_rename(e, ext)
            assert _divide(eps * le, eps, CTX) == e
            assert _divide(eps * le, -eps, CTX) == -e
            assert _divide(3 * eps * le, 3 * eps, CTX) == e
            assert _divide(3 * eps * le, Fraction(-3, 2) * eps, CTX) == -2 * e


def _ext_poly(*factors):
    ext = _extended(CTX)
    out = ext.one()
    for name in factors:
        out = out * ext.var(name)
    return out


@pytest.mark.parametrize("poly, param, message", [
    # epsilon2*epsilon1 and theta1*epsilon1 lack epsilon3, so the quotient
    # refuses them
    pytest.param(
        _ext_poly("epsilon1", "epsilon3", "theta2") + _ext_poly("epsilon2", "epsilon1"),
        _ext_poly("epsilon1", "epsilon3"),
        "does not factor through the parameter", id="epsilon2"),
    pytest.param(
        _ext_poly("epsilon1", "epsilon3", "theta2") + _ext_poly("theta1", "epsilon1"),
        _ext_poly("epsilon1", "epsilon3"),
        "does not factor through the parameter", id="theta1"),
    # epsilon1 divides, but epsilon3 is left over outside the parameter,
    # and the caller's context has no such generator
    pytest.param(
        _ext_poly("epsilon1", "epsilon3", "theta2"), _ext_poly("epsilon1"),
        "unknown generator 'epsilon3'", id="epsilon3"),
])
def test_divide_refuses_a_term_the_parameter_does_not_lead(poly, param, message):
    with pytest.raises(ValueError, match=message):
        _divide(poly, param, CTX)


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


def kac_dimension(kind, m, n):
    """even|odd dimension of gl(m|n), sl(m|n) or osp(m|n), n = 2k, from
    Kac's classification (Lie superalgebras, Adv. Math. 26, 1977)."""
    if kind == "GL":
        return m * m + n * n, 2 * m * n
    if kind == "SL":
        return m * m + n * n - 1, 2 * m * n
    k = n // 2
    return m * (m - 1) // 2 + k * (2 * k + 1), 2 * m * k


KAC_CASES = [(kind, m, n) for kind in ("GL", "SL", "OSp")
             for m in range(5) for n in range(5)
             if m + n and not (kind == "OSp" and n % 2)]


@pytest.mark.parametrize("kind, m, n", KAC_CASES,
                         ids=[f"{kind}{m}|{n}" for kind, m, n in KAC_CASES])
def test_constraint_counts_match_kac_dimensions(kind, m, n):
    # gl(m|n) is (m^2 + n^2)|2mn, and every constraint is homogeneous and
    # cuts one dimension of its parity
    res = lie_algebra(MatrixGroupSpec(kind, (m, n)))
    even = sum(c.parity() is Parity.EVEN for c in res.constraints)
    odd = sum(c.parity() is Parity.ODD for c in res.constraints)
    assert even + odd == len(res.constraints)
    assert (m * m + n * n - even, 2 * m * n - odd) == kac_dimension(kind, m, n)


def _constraint_rows(ctx, polys, names):
    return [[c.partial(n).constant_term() for n in names] for c in polys]


# rational forms off the standard one: a symmetric invertible even block
# with denominators and an alternating odd block scaled by a fraction
RATIONAL_FORMS = [
    MatrixGroupSpec.OSp(2, 2, form=[
        [Fraction(2, 3), Fraction(1, 5), 0, 0],
        [Fraction(1, 5), Fraction(-7, 2), 0, 0],
        [0, 0, 0, Fraction(5, 4)],
        [0, 0, Fraction(-5, 4), 0],
    ]),
    MatrixGroupSpec.OSp(3, 2, form=[
        [1, Fraction(-1, 2), 0, 0, 0],
        [Fraction(-1, 2), 0, Fraction(3, 7), 0, 0],
        [0, Fraction(3, 7), Fraction(-5, 9), 0, 0],
        [0, 0, 0, 0, Fraction(-2, 9)],
        [0, 0, 0, Fraction(2, 9), 0],
    ]),
]


@pytest.mark.parametrize("spec", RATIONAL_FORMS, ids=["2|2", "3|2"])
def test_osp_rational_form_matches_the_partial_rows_oracle(spec):
    # oracle: the constraints as lie_algebra built them before it read
    # coefficients, one left partial and constant term per symbol, reduced
    # by the Fraction Gauss-Jordan and rebuilt as sums
    res = lie_algebra(spec)
    ctx = res.context
    x = res.element
    phi = SuperMatrix(
        ctx, res.dims, res.dims,
        [[ctx.scalar(v) for v in row] for row in spec.form],
    )
    direct = x.supertranspose() @ phi + phi @ x
    want = []
    for parity, names in ((Parity.EVEN, ctx.even), (Parity.ODD, ctx.odd[2:])):
        polys = [e for row in direct.rows for e in row if e and e.parity() is parity]
        echelon, _ = reference_rref(_constraint_rows(ctx, polys, names))
        for row in echelon:
            if any(row):
                want.append(sum((c * ctx.var(n) for c, n in zip(row, names)),
                                ctx.zero()))
    assert res.constraints == tuple(want)
    assert [str(c) for c in res.constraints] == [str(c) for c in want]
    # osp(m|2k) has dimension m(m-1)/2 + k(2k+1) + 2mk (Kac)
    m, n = spec.dims
    k = n // 2
    assert len(want) == (m + n) ** 2 - (m * (m - 1) // 2 + k * (2 * k + 1) + 2 * m * k)


# GL, SL and OSp (even n) for every m|n up to 3|3, and the rational forms
ORACLE_SPECS = [
    MatrixGroupSpec(kind, (m, n))
    for kind in ("GL", "SL", "OSp") for m in range(4) for n in range(4)
    if kind != "OSp" or n % 2 == 0
] + RATIONAL_FORMS


# the three OSp forms come first, so their ids keep naming the same specs
@pytest.mark.parametrize("spec", [
    MatrixGroupSpec.OSp(1, 2),
    MatrixGroupSpec.OSp(2, 2),
    MatrixGroupSpec.OSp(1, 2, form=[[2, 0, 0], [0, 0, 3], [0, -3, 0]]),
] + ORACLE_SPECS)
def test_osp_agrees_with_direct_expansion(spec):
    # oracle: the dual-number expansion, which builds the group element
    # I + eps X and divides the residue (I + eps X)^st Phi (I + eps X) - Phi
    # for OSp, and Ber(I + eps X) - 1 for SL, by eps entrywise
    res = lie_algebra(spec)
    want = reference_lie_algebra(spec)
    assert res == want
    assert [str(c) for c in res.constraints] == [str(c) for c in want.constraints]
    assert res.context.odd[:2] == RESERVED[:2]


@pytest.mark.parametrize("spec", ORACLE_SPECS,
                         ids=lambda s: f"{s.kind}{s.dims[0]}|{s.dims[1]}")
def test_constraints_match_the_coefficient_oracle(spec, monkeypatch):
    # the raw constraints lie_algebra hands over, reduced both ways
    seen = []

    def spy(ctx, polys):
        seen.append((ctx, polys))
        return _canonical_constraints(ctx, polys)

    monkeypatch.setattr(liealg, "_canonical_constraints", spy)
    res = lie_algebra(spec)
    ((ctx, raw),) = seen
    want = reference_canonical_constraints(ctx, raw)
    assert res.constraints == want
    assert [str(c) for c in res.constraints] == [str(c) for c in want]


def test_synthetic_constraints_match_the_coefficient_oracle():
    # rational coefficients, duplicates, scaled copies, rows that vanish
    # on the symbols, terms off the symbols, and each parity alone
    spec = MatrixGroupSpec.OSp(2, 2)
    ctx = lie_algebra(spec).context
    rng = random.Random(25)
    even_syms = [ctx.var(n) for n in ctx.even]
    odd_syms = [ctx.var(n) for n in ctx.odd[2:]]

    def form(syms):
        return sum((Fraction(rng.randint(-6, 6), rng.randint(1, 9)) * v
                    for v in rng.sample(syms, rng.randint(1, 3))), ctx.zero())

    eps = ctx.var(RESERVED[0])
    for trial in range(40):
        even = [form(even_syms) for _ in range(rng.randint(0, 4))]
        odd = [form(odd_syms) for _ in range(rng.randint(0, 4))]
        polys = even + odd
        if polys:
            c = rng.choice(polys)
            polys += [c, c * Fraction(rng.randint(1, 9), rng.randint(2, 9)), -c]
        # zero, a constant and an off-symbol odd term read as zero rows
        polys += [ctx.zero(), ctx.scalar(Fraction(3, 7)), eps * Fraction(5, 2)]
        if trial % 4 == 0:
            polys += [form(even_syms) + 2]
        rng.shuffle(polys)
        for group in (polys, [p for p in polys if p.has_parity(Parity.EVEN)],
                      [p for p in polys if not p.has_parity(Parity.EVEN)]):
            got = _canonical_constraints(ctx, group)
            want = reference_canonical_constraints(ctx, group)
            assert got == want
            assert [str(c) for c in got] == [str(c) for c in want]


def test_sl_element_feeds_berezinian():
    # the advertised relationship: Ber(I + eps X) - 1 factors through eps
    res = lie_algebra(MatrixGroupSpec.SL(1, 1))
    eye = SuperMatrix.identity(res.context, res.dims)
    ber = (eye + res.epsilon * res.element).berezinian()
    assert ber - 1 == res.epsilon * (res.element.supertrace())


def test_form_floats_rejected():
    with pytest.raises(TypeError, match="inexact float"):
        MatrixGroupSpec.OSp(1, 2, form=[[0.5, 0, 0], [0, 0, 1], [0, -1, 0]])

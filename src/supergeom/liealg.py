"""Lie superalgebras of matrix supergroups via square-zero parameters.

Four odd generator names are reserved for the dual-number parameters:
epsilon1..epsilon4, prepended to the user's odd generators so that the
reserved part of every canonical monomial sits at the front and can be
stripped without sign bookkeeping.  A parameter matching an even
direction is the square-zero even product of two of them; an odd
direction takes a single reserved generator, so that I + eps*x is
always an even, group-like matrix.

Scalars act through the row-twisted left action of the matrix module.
With parameters of matching parity the group commutator collapses
exactly:

  (I+eps*x)(I+eps'*y)(I-eps*x)(I-eps'*y) = I + (eps'*eps)*(xy - (-1)^{|x||y|}yx)

with the parameter product in the eps'*eps order, and the adjoint form

  (I+eps*x) y (I-eps*x) = y + eps*[x, y]

needs no ordering care.  Both extractions below divide out the
parameter and unwind the row twist, returning the bare bracket matrix
over the caller's context.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .errors import ContextMismatch, ReservedGeneratorCollision
from .matrix import SuperDim, SuperMatrix
from .poly import Context, Monomial, Parity, SuperPoly, _exact

RESERVED = ("epsilon1", "epsilon2", "epsilon3", "epsilon4")


def _check_reserved(ctx: Context):
    clash = [n for n in RESERVED if n in ctx]
    if clash:
        raise ReservedGeneratorCollision(
            f"context uses reserved generator names: {', '.join(clash)}"
        )


def _extended(ctx: Context) -> Context:
    _check_reserved(ctx)
    return Context(even=ctx.even, odd=RESERVED + ctx.odd)


def _lift(mat: SuperMatrix, ext: Context) -> SuperMatrix:
    rows = [[e.rename(ext) for e in row] for row in mat.rows]
    return SuperMatrix(ext, mat.source, mat.target, rows, mat.parity)


def _parameter(ext: Context, parity: Parity, which: int) -> SuperPoly:
    """Square-zero parameter of the given parity; which picks one of the
    two disjoint reserved pairs."""
    a = ext.var(RESERVED[2 * which])
    if parity is Parity.ODD:
        return a
    return a * ext.var(RESERVED[2 * which + 1])


def _strip_parameter(mat: SuperMatrix, scalar: SuperPoly,
                     user_ctx: Context) -> SuperMatrix:
    """Divide a matrix of the form scalar * B (row-twisted action) by the
    single-monomial scalar, landing back in the user context."""
    twist = scalar.parity() is Parity.ODD
    shift = len(RESERVED)
    rows = [
        [_divide(e, scalar, user_ctx, shift, twist and i >= mat.target.even)
         for e in row]
        for i, row in enumerate(mat.rows)
    ]
    return SuperMatrix(user_ctx, mat.source, mat.target, rows,
                       mat.parity + scalar.parity())


def _divide(poly: SuperPoly, param: SuperPoly, ctx_out: Context,
            shift: int, flip: bool) -> SuperPoly:
    """Divide poly = param * g by the single-monomial parameter, whose odd
    word leads every odd word of poly.  g lands in ctx_out with its odd
    indices lowered by shift (reserved generators dropped from the front
    of the context) and negated when flip is set."""
    ((word, coeff),) = param.terms.items()
    k = len(word.odd)
    terms = {}
    for mono, c in poly.terms.items():
        tail = mono.odd[k:]
        if mono.odd[:k] != word.odd or any(j < shift for j in tail):
            raise ValueError("polynomial does not factor through the parameter")
        c = c / coeff
        terms[Monomial(mono.even, tuple(j - shift for j in tail))] = -c if flip else c
    return SuperPoly._raw(ctx_out, terms)


def _bracket_setup(x: SuperMatrix, y: SuperMatrix):
    if x.ctx != y.ctx:
        raise ContextMismatch("operands live in different contexts")
    if not (x.is_square() and y.is_square() and x.source == y.source):
        raise ValueError("bracket needs square matrices of equal dims")
    ext = _extended(x.ctx)
    return ext, _lift(x, ext), _lift(y, ext)


def commutator_bracket(x: SuperMatrix, y: SuperMatrix) -> SuperMatrix:
    """Bracket of two square matrices read off the group commutator.

    Forms (I+eps*x)(I+eps'*y)(I-eps*x)(I-eps'*y) with square-zero
    parameters matching the parities of x and y, checks that the result
    is I + (eps'*eps)*B, and returns B.
    """
    ext, xl, yl = _bracket_setup(x, y)
    eps = _parameter(ext, x.parity, 0)
    epsp = _parameter(ext, y.parity, 1)
    eye = SuperMatrix.identity(ext, x.source)
    prod = (eye + eps * xl) @ (eye + epsp * yl) @ (eye - eps * xl) @ (eye - epsp * yl)
    return _strip_parameter(prod - eye, epsp * eps, x.ctx)


def adjoint_bracket(x: SuperMatrix, y: SuperMatrix) -> SuperMatrix:
    """Bracket via the adjoint action: (I+eps*x) y (I-eps*x) = y + eps*[x,y]."""
    ext, xl, yl = _bracket_setup(x, y)
    eps = _parameter(ext, x.parity, 0)
    eye = SuperMatrix.identity(ext, x.source)
    moved = (eye + eps * xl) @ yl @ (eye - eps * xl)
    return _strip_parameter(moved - yl, eps, x.ctx)


# -- matrix supergroups ----------------------------------------------------


def _standard_form(dims: SuperDim):
    """diag(I_m; J_n) with J_n = [[0, I],[-I, 0]], n even."""
    m, n = dims
    k = n // 2
    rows = [[Fraction(0)] * (m + n) for _ in range(m + n)]
    for i in range(m):
        rows[i][i] = Fraction(1)
    for i in range(k):
        rows[m + i][m + k + i] = Fraction(1)
        rows[m + k + i][m + i] = Fraction(-1)
    return rows


class MatrixGroupSpec:
    """GL, SL, or OSp in dimension m|n.

    OSp preserves an even bilinear form Phi, block diagonal with a
    symmetric invertible even block and an alternating invertible odd
    block; the default is the identity and the standard J, so the odd
    dimension must be even.
    """

    __slots__ = ("kind", "dims", "form")

    def __init__(self, kind: str, dims, form=None):
        if kind not in ("GL", "SL", "OSp"):
            raise ValueError(f"unknown group kind {kind!r}")
        dims = SuperDim(*dims)
        self.kind = kind
        self.dims = dims
        if kind != "OSp":
            if form is not None:
                raise ValueError("only OSp carries a bilinear form")
            self.form = None
            return
        m, n = dims
        if n % 2:
            raise ValueError("OSp needs an even number of odd dimensions")
        if form is None:
            form = _standard_form(dims)
        phi = [[_exact(v) for v in row] for row in form]
        if len(phi) != m + n or any(len(r) != m + n for r in phi):
            raise ValueError("form must be (m+n) x (m+n)")
        if any(phi[i][j] for i in range(m) for j in range(m, m + n)) or any(
            phi[i][j] for i in range(m, m + n) for j in range(m)
        ):
            raise ValueError("form must be block diagonal")
        if any(phi[i][j] != phi[j][i] for i in range(m) for j in range(m)):
            raise ValueError("even block of the form must be symmetric")
        if any(phi[i][j] != -phi[j][i] for i in range(m, m + n)
               for j in range(m, m + n)):
            raise ValueError("odd block of the form must be alternating")
        if linalg.rank(phi) != m + n:
            raise ValueError("form must be invertible")
        self.form = tuple(tuple(r) for r in phi)

    @classmethod
    def GL(cls, m, n):
        return cls("GL", (m, n))

    @classmethod
    def SL(cls, m, n):
        return cls("SL", (m, n))

    @classmethod
    def OSp(cls, m, n, form=None):
        return cls("OSp", (m, n), form)


class LieAlgebraResult(NamedTuple):
    """Lie(G) described by linear constraints on a symbolic matrix.

    element is the X of the group-like I + epsilon*X, with entry symbols
    p../q../r../s.. named by block and 1-based position; constraints are
    canonical linear forms in those symbols, even ones first.
    """

    kind: str
    dims: SuperDim
    context: Context
    element: SuperMatrix
    epsilon: SuperPoly
    constraints: tuple


def _symbol_grid(ctx: Context, dims: SuperDim):
    m, n = dims
    rows = []
    for i in range(m + n):
        row = []
        for j in range(m + n):
            if i < m and j < m:
                row.append(ctx.var(f"p{i + 1}{j + 1}"))
            elif i < m:
                row.append(ctx.var(f"q{i + 1}{j - m + 1}"))
            elif j < m:
                row.append(ctx.var(f"r{i - m + 1}{j + 1}"))
            else:
                row.append(ctx.var(f"s{i - m + 1}{j - m + 1}"))
        rows.append(row)
    return rows


def _canonical_constraints(ctx: Context, polys):
    """Row-reduce the linear constraints separately by parity and rebuild
    them, so any generating set with the same span prints identically."""
    even_names = ctx.even
    odd_names = ctx.odd[2:]  # skip the reserved parameter pair
    even_rows, odd_rows = [], []
    for c in polys:
        if not c:
            continue
        names = even_names if c.has_parity(Parity.EVEN) else odd_names
        row = [c.partial(name).constant_term() for name in names]
        (even_rows if names is even_names else odd_rows).append(row)

    out = []
    for rows, names in ((even_rows, even_names), (odd_rows, odd_names)):
        echelon, _ = linalg.rref(rows)
        for row in echelon:
            if not any(row):
                continue
            poly = ctx.zero()
            for coeff, name in zip(row, names):
                if coeff:
                    poly = poly + ctx.var(name) * coeff
            out.append(poly)
    return tuple(out)


def lie_algebra(spec: MatrixGroupSpec) -> LieAlgebraResult:
    """First-order expansion of the defining equations at I + epsilon*X.

    GL has no equations.  SL imposes Ber(I + epsilon*X) = 1, which
    collapses to supertrace zero.  OSp imposes preservation of Phi,
    expanded entrywise with the supertranspose sign convention that
    makes (AB)^st = B^st A^st for even matrices.
    """
    m, n = spec.dims
    even_syms = [f"p{i + 1}{j + 1}" for i in range(m) for j in range(m)]
    even_syms += [f"s{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    odd_syms = [f"q{i + 1}{j + 1}" for i in range(m) for j in range(n)]
    odd_syms += [f"r{i + 1}{j + 1}" for i in range(n) for j in range(m)]
    ctx = Context(even=even_syms, odd=RESERVED[:2] + tuple(odd_syms))
    x = SuperMatrix(ctx, spec.dims, spec.dims, _symbol_grid(ctx, spec.dims))
    eps = ctx.var(RESERVED[0]) * ctx.var(RESERVED[1])
    group_like = SuperMatrix.identity(ctx, spec.dims) + eps * x

    if spec.kind == "GL":
        raw = []
    elif spec.kind == "SL":
        raw = [_divide(group_like.berezinian() - 1, eps, ctx, 0, False)]
    else:
        phi = SuperMatrix(
            ctx, spec.dims, spec.dims,
            [[ctx.scalar(v) for v in row] for row in spec.form],
        )
        residue = group_like.supertranspose() @ phi @ group_like - phi
        raw = [_divide(e, eps, ctx, 0, False)
               for row in residue.rows for e in row]

    return LieAlgebraResult(
        spec.kind, spec.dims, ctx, x, eps, _canonical_constraints(ctx, raw)
    )

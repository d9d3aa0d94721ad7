"""Lie superalgebras of matrix supergroups, and brackets via square-zero
parameters.

lie_algebra reads Lie(G) off the first-order equations at I + eps*X,
with eps = epsilon1*epsilon2 even and eps^2 = 0.  There

  (I + eps*X)^st Phi (I + eps*X) - Phi = eps*(X^st Phi + Phi X)
  Ber(I + eps*X) = 1 + eps*str X

so OSp's constraints are the entries of X^st Phi + Phi X, SL's is str X,
and GL has none; lie_algebra forms those directly, without the group
element, OSp's as one grid product of the block row [X^st | Phi] by the
block column [Phi; X].  Its context puts the reserved pair first and its
result carries eps, the parameter of I + eps*X.

The brackets use dual numbers.  Four odd generator names are
reserved for the parameters: epsilon1..epsilon4.  The brackets append
them after the user's odd generators, so an entry moves into that context
and back with its codes kept.  Where they sit changes only the speed: the
renaming and the quotient count their signs wherever the generators are.
A parameter matching an even direction is the square-zero even product of
two of them; an odd direction takes a single reserved generator, so that
I + eps*x is always an even, group-like matrix.

Scalars act through the row-twisted left action of the matrix module.
With parameters of matching parity the group commutator collapses
exactly:

  (I+eps*x)(I+eps'*y)(I-eps*x)(I-eps'*y) = I + (eps'*eps)*(xy - (-1)^{|x||y|}yx)

with the parameter product in the eps'*eps order, and the adjoint form

  (I+eps*x) y (I-eps*x) = y + eps*[x, y]

needs no ordering care.  Both extractions below take each entry's left
quotient by the parameter, which counts the Koszul sign in poly.py, unwind
the row twist by dividing twisted rows by minus the parameter, and rename
the quotient back into the caller's context.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from . import linalg
from .errors import ContextMismatch, ReservedGeneratorCollision
from .matrix import SuperDim, SuperMatrix, _gblocks, _gmul
from .poly import Context, Parity, SuperPoly, _exact, _linear_rows, _pivot_row

RESERVED = ("epsilon1", "epsilon2", "epsilon3", "epsilon4")

# Largest m or n that MatrixGroupSpec accepts.  Entry symbols are named
# p{i}{j} by 1-based position, so from 11 on two positions share a name
# (p1,11 and p11,1 are both p111); at 10|10 OSp takes about 0.6 s and SL
# 0.1 s of CPU on a shared 2-vCPU host under Python 3.11.
MAX_GROUP_DIM = 10


def _check_reserved(ctx: Context):
    clash = [n for n in RESERVED if n in ctx]
    if clash:
        raise ReservedGeneratorCollision(
            f"context uses reserved generator names: {', '.join(clash)}"
        )


def _extended(ctx: Context) -> Context:
    _check_reserved(ctx)
    return Context(even=ctx.even, odd=ctx.odd + RESERVED)


def _lift(mat: SuperMatrix, ext: Context) -> SuperMatrix:
    """mat over ext, its context with the reserved generators appended."""
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
    # the odd rows of an odd scalar's action carry an extra sign
    twisted = -scalar if scalar.parity() is Parity.ODD else scalar
    rows = [
        [_divide(e, twisted if i >= mat.target.even else scalar, user_ctx) for e in row]
        for i, row in enumerate(mat.rows)
    ]
    return SuperMatrix(user_ctx, mat.source, mat.target, rows,
                       mat.parity + scalar.parity())


def _divide(poly: SuperPoly, param: SuperPoly, ctx_out: Context) -> SuperPoly:
    """The g with poly = param * g, for the one-term parameter c*theta_M,
    renamed into ctx_out.  A term param does not divide raises ValueError,
    and so does a quotient that still holds a generator ctx_out lacks."""
    return poly.left_quotient(param).rename(ctx_out)


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
        if min(dims) < 0:
            raise ValueError(f"{kind} {dims} has a negative block size")
        if max(dims) > MAX_GROUP_DIM:
            raise ValueError(
                f"{kind} {dims} has a block above the cap of {MAX_GROUP_DIM}"
            )
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


def _symbol_names(dims: SuperDim):
    """The entry names of X as a grid: p (T1), q (T2), r (T3) or s (T4)
    by block, then the 1-based row and column in the block."""
    m, n = dims

    def name(i, j):
        bi, bj = i >= m, j >= m
        return f"{'pqrs'[2 * bi + bj]}{i - m * bi + 1}{j - m * bj + 1}"

    return [[name(i, j) for j in range(m + n)] for i in range(m + n)]


def _canonical_constraints(ctx: Context, polys):
    """Row-reduce the linear constraints separately by parity and rebuild
    them, so any generating set with the same span prints identically."""
    even, odd = [], []
    for c in polys:
        if c:
            (even if c.has_parity(Parity.EVEN) else odd).append(c)

    out = []
    # the odd symbols skip the reserved parameter pair
    for group, names in ((even, ctx.even), (odd, ctx.odd[2:])):
        # each constraint's int row is a multiple of its coefficients on
        # the symbols, which leaves the reduced echelon form unchanged
        codes, rows = _linear_rows(ctx, names, group)
        echelon, pivots = linalg._eliminate_ints(rows)
        out += [_pivot_row(ctx, codes, row, row[c]) for row, c in zip(echelon, pivots)]
    return tuple(out)


def lie_algebra(spec: MatrixGroupSpec) -> LieAlgebraResult:
    """Lie(G) from the first-order equations at I + epsilon*X.

    GL has no equations.  SL imposes Ber(I + epsilon*X) = 1 + epsilon*str X
    = 1, so str X = 0.  OSp imposes (I + epsilon*X)^st Phi (I + epsilon*X)
    = Phi, whose first-order part is X^st Phi + Phi X = 0 entrywise, with
    the supertranspose sign convention that makes (AB)^st = B^st A^st for
    even matrices.  That sum of two products is one grid product,
    [X^st | Phi] [Phi; X], each entry one packed sum.
    """
    dims = spec.dims
    names = _symbol_names(dims)
    # block by block, p q r s, each in row-major order
    by_block = sorted((v for row in names for v in row), key=itemgetter(0))
    ctx = Context(even=[v for v in by_block if v[0] in "ps"],
                  odd=RESERVED[:2] + tuple(v for v in by_block if v[0] in "qr"))
    x = SuperMatrix._wrap(ctx, dims, dims,
                          tuple(tuple(map(ctx.var, row)) for row in names), Parity.EVEN)

    if spec.kind == "GL":
        raw = []
    elif spec.kind == "SL":
        raw = [x.supertrace()]
    else:
        phi = tuple(tuple(map(ctx.scalar, row)) for row in spec.form)
        block_row = _gblocks(x.supertranspose().rows, phi, (), ())
        raw = [e for row in _gmul(ctx, block_row, phi + x.rows) for e in row]

    eps = ctx.var(RESERVED[0]) * ctx.var(RESERVED[1])
    return LieAlgebraResult(
        spec.kind, dims, ctx, x, eps, _canonical_constraints(ctx, raw)
    )

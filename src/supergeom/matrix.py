"""Block supermatrices over SuperPoly entries.

A SuperMatrix represents a morphism A^{p|q} -> A^{r|s}: rows are indexed
by the target (r even rows first, then s odd), columns by the source.  A
homogeneous matrix of parity pi has entry parities (row + column + pi)
mod 2.  For an even matrix that is the familiar block picture

    ( T1  T2 )      T1 (r x p), T4 (s x q) even entries,
    ( T3  T4 )      T2 (r x q), T3 (s x p) odd entries,

with the block parities reversed when pi is odd.

Inversion and the Berezinian require body determinants that are nonzero
constants: over a ring with even indeterminates the determinant alone
cannot certify a unit (t has no inverse in k[t]), and constant bodies
cover both Grassmann coefficients and matrices evaluated at points.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from . import linalg
from .errors import (
    ContextMismatch,
    LimitExceeded,
    NeitherBlockInvertible,
    NonConstantBody,
    NotInvertible,
    ParityError,
)
from .poly import _PARITIES, Context, Parity, Scalar, SuperPoly, _disjoint_sum, dot_row

# Largest n for which _minors expands an n x n grid.  A determinant fills
# its (row set, column set) memo with one minor per row set, 2^n of them: on
# grids of dense linear entries in three variables (perfbench
# corpus.linear_matrix) _det takes 0.5-0.6 s of CPU at 10 x 10, 1.2-1.6 s at
# 11 x 11 and 3.5-4.5 s at 12 x 12 on a shared 2-vCPU host under Python
# 3.11.  The largest determinant in the demos, tests and benchmark is 7 x 7.
MAX_DET_SIZE = 12


class SuperDim(NamedTuple):
    even: int
    odd: int

    @property
    def total(self) -> int:
        return self.even + self.odd

    def __str__(self):
        return f"{self.even}|{self.odd}"


def pi_reverse(d: SuperDim) -> SuperDim:
    """Parity reversal: (Pi V)_0 = V_1, so p|q becomes q|p."""
    return SuperDim(d[1], d[0])


def _par(dim: SuperDim, k: int) -> int:
    return 0 if k < dim.even else 1


# -- grid helpers ---------------------------------------------------------
# Grids are tuples of tuples of SuperPoly, no block bookkeeping.  All the
# matrix algorithms below work on grids and wrap the result at the end.


def _gzero(ctx, nrows, ncols):
    z = SuperPoly.zero(ctx)
    return tuple((z,) * ncols for _ in range(nrows))


def _gid(ctx, n):
    one = SuperPoly.scalar(ctx, 1)
    zero = SuperPoly.zero(ctx)
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def _gadd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _gneg(a):
    return tuple(tuple(-x for x in row) for row in a)


def _gmul(ctx, a, b):
    return tuple(dot_row(ctx, row, b) for row in a)


def _gblocks(tl, tr, bl, br):
    """Grid with block rows [tl tr] and [bl br]; every block is a grid of
    its own full height, so empty blocks still fix the row counts."""
    return tuple(a + b for a, b in zip(tl, tr)) + tuple(
        a + b for a, b in zip(bl, br)
    )


def _gis_zero(a):
    return all(not e for row in a for e in row)


def _minors(ctx, grid):
    """minor(rows, cols) of a square grid of even (hence commuting) entries:
    the determinant on the increasing index tuples rows and cols, by
    division-free Laplace expansion down cols[0] with one memo keyed by
    (rows, cols), so a determinant and its cofactors share the minors on
    trailing column sets.  Exact over any commutative coefficient ring,
    nilpotents included, which rules out fraction-free elimination: its
    exact divisions can hit zero divisors once even entries carry
    nilpotent parts."""
    n = len(grid)
    if n > MAX_DET_SIZE:
        raise LimitExceeded(
            f"determinant of a {n}x{n} block is above the cap of {MAX_DET_SIZE} rows"
        )
    memo = {((), ()): SuperPoly.scalar(ctx, 1)}
    return partial(_minor, ctx, grid, memo)


def _minor(ctx, grid, memo, rows, cols):
    # one step of _minors' expansion; a module function, not a closure
    # over itself, so the memo holds no reference cycle and is freed as
    # soon as its caller drops it
    got = memo.get((rows, cols))
    if got is not None:
        return got
    col, rest = cols[0], cols[1:]
    acc = SuperPoly.zero(ctx)
    neg = False
    for k, i in enumerate(rows):
        e = grid[i][col]
        if e:
            # negate the entry (a few terms), not the much larger product
            acc = acc + (-e if neg else e) * _minor(
                ctx, grid, memo, rows[:k] + rows[k + 1 :], rest)
        neg = not neg
    memo[rows, cols] = acc
    return acc


def _det(ctx, grid) -> SuperPoly:
    """Determinant of a square grid of even entries (see _minors)."""
    full = tuple(range(len(grid)))
    return _minors(ctx, grid)(full, full)


def _body_inverse(ctx, grid, label):
    """Inverse of the body of an even square grid, the grid of its
    entries' terms without odd generators.

    The body determinant must be a nonzero constant; the body entries
    themselves may be arbitrary even-variable polynomials (a unipotent
    block like [[1, t], [0, 1]] is fine).  Entry (i, j) of the inverse is
    the (j, i) cofactor over the determinant, all read from one _minors
    memo.
    """
    minor = _minors(ctx, tuple(tuple(e.body() for e in row) for row in grid))
    full = tuple(range(len(grid)))
    d = minor(full, full)
    if not d.is_constant():
        raise NotInvertible(f"body determinant of {label} is not constant")
    c = d.constant_term()
    if not c:
        raise NotInvertible(f"body determinant of {label} is zero")

    def entry(i, j):
        e = minor(full[:j] + full[j + 1 :], full[:i] + full[i + 1 :]) / c
        return -e if (i + j) & 1 else e

    return tuple(tuple(entry(i, j) for j in full) for i in full)


def _series_inverse(ctx, grid, binv):
    """Exact inverse of grid = B + N from binv = B^{-1}, built one odd
    degree at a time.  Each entry splits into its parts of odd degree e:
    the part with e = 0 is its body, the entry of B, and the parts N_e
    with e >= 1 make up N.  The part Y_d of the inverse with d odd
    generators per term is

        Y_0 = B^{-1},   Y_d = -B^{-1} sum_{e >= 1} N_e Y_{d-e},

    the degree-d part of B Y = I - N Y, so each degree of the result is
    computed once, and Y_d is zero for d > len(ctx.odd).  Only the degrees
    e and d - e that occur are visited, and only the nonzero entries of
    N_e enter the sum for row i, which is one dot_row: zero blocks padded
    into it would cost the small inverses most.  Each nonzero sum is
    multiplied once by -B^{-1}, which is negated once per series.  The
    Y_d share no monomial, so each entry of the inverse joins the entries
    of the nonzero Y_d with one _disjoint_sum, with no product and no
    partial sum."""
    # row i of N as the triples (e, j, N_e[i][j]) of its nonzero parts,
    # by increasing e: the Y_{d-e} of most odd generators come first, and
    # the denominators of the later ones mostly divide theirs, so a column
    # of dot_row seldom has to scale its numerators up
    parts = [
        sorted((e, j, part) for j, x in enumerate(row)
               for e, part in x.odd_degree_parts().items() if e)
        for row in grid
    ]
    if not any(parts):
        return binv
    neg_binv = _gneg(binv)
    zero_row = (SuperPoly.zero(ctx),) * len(grid)
    ys = {0: binv}
    for d in range(1, len(ctx.odd) + 1):
        rows = []
        nonzero = False
        for out in parts:
            pairs = [(n, ys[d - e][j]) for e, j, n in out if d - e in ys]
            if pairs:
                row = dot_row(ctx, *zip(*pairs))
                nonzero = nonzero or any(row)
                rows.append(row)
            else:
                rows.append(zero_row)
        if nonzero:
            ys[d] = _gmul(ctx, neg_binv, rows)
    return tuple(tuple(_disjoint_sum(ctx, entries) for entries in zip(*row))
                 for row in zip(*ys.values()))


def _grid_inverse(ctx, grid, label):
    return _series_inverse(ctx, grid, _body_inverse(ctx, grid, label))


def _schur(ctx, a, b, c, d, label):
    """(d^{-1}, b d^{-1}, a - b d^{-1} c) for the block grid [[a, b], [c, d]].

    Row i of the complement is one dot_row of (1, (b d^{-1})_i) against
    the rows (a_i, -c), with c negated once.  An empty d leaves a
    unchanged: a product through a zero inner dimension would otherwise
    lose the width of a."""
    if not d:
        return d, b, a
    dinv = _grid_inverse(ctx, d, label)
    bdinv = _gmul(ctx, b, dinv)
    one = (SuperPoly.scalar(ctx, 1),)
    neg_c = _gneg(c)
    return dinv, bdinv, tuple(
        dot_row(ctx, one + row, (top,) + neg_c) for top, row in zip(a, bdinv))


class SuperMatrix:
    """Homogeneous block matrix; immutable once built.

    Scalar multiplication is the left module action: c * T twists each
    entry by the row sign (-1)^{|c| * row parity}, the cost of carrying c
    past the target basis vector of that row.  This is the action with
    (c*S) @ T == c*(S@T) and S @ (c*T) == (-1)^{|c||S|} c*(S@T), and it
    is what makes square-zero parameters interact correctly with matrix
    products in the dual-number constructions downstream.
    """

    __slots__ = ("ctx", "source", "target", "parity", "rows")

    def __init__(self, ctx, source, target, rows, parity=Parity.EVEN):
        if parity not in (Parity.EVEN, Parity.ODD):
            raise ParityError("matrix parity must be even or odd")
        source = SuperDim(*source)
        target = SuperDim(*target)
        if len(rows) != target.total:
            raise ValueError(
                f"expected {target.total} rows for target {target}, got {len(rows)}"
            )
        grid = []
        for i, row in enumerate(rows):
            if len(row) != source.total:
                raise ValueError(
                    f"row {i}: expected {source.total} entries, got {len(row)}"
                )
            rp = _par(target, i)
            out = []
            for j, e in enumerate(row):
                if isinstance(e, Scalar):
                    e = SuperPoly.scalar(ctx, e)
                elif not isinstance(e, SuperPoly):
                    raise TypeError(f"entry ({i},{j}) is not a polynomial")
                elif e.ctx != ctx:
                    raise ContextMismatch(f"entry ({i},{j}) built over a different context")
                need = _PARITIES[(rp + _par(source, j) + parity.value) & 1]
                if not e.has_parity(need):
                    raise ParityError(
                        f"entry ({i},{j}) of a {parity} matrix must be {need}"
                    )
                out.append(e)
            grid.append(tuple(out))
        self.ctx = ctx
        self.source = source
        self.target = target
        self.parity = parity
        self.rows = tuple(grid)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, ctx, dim) -> "SuperMatrix":
        dim = SuperDim(*dim)
        return cls._wrap(ctx, dim, dim, _gid(ctx, dim.total), Parity.EVEN)

    @classmethod
    def zeros(cls, ctx, source, target, parity=Parity.EVEN) -> "SuperMatrix":
        source = SuperDim(*source)
        target = SuperDim(*target)
        return cls._wrap(
            ctx, source, target, _gzero(ctx, target.total, source.total), parity
        )

    @classmethod
    def from_blocks(cls, ctx, t1, t2, t3, t4, parity=Parity.EVEN) -> "SuperMatrix":
        """Assemble from the four blocks; empty lists mark empty blocks."""
        r = len(t1) if t1 else len(t2)
        s = len(t4) if t4 else len(t3)
        p = len(t1[0]) if r and t1 else (len(t3[0]) if s and t3 else 0)
        q = len(t4[0]) if s and t4 else (len(t2[0]) if r and t2 else 0)
        rows = []
        for i in range(r):
            rows.append(list(t1[i] if t1 else []) + list(t2[i] if t2 else []))
        for i in range(s):
            rows.append(list(t3[i] if t3 else []) + list(t4[i] if t4 else []))
        return cls(ctx, SuperDim(p, q), SuperDim(r, s), rows, parity)

    @classmethod
    def _wrap(cls, ctx, source, target, grid, parity):
        # internal: grid already validated/normalised
        m = object.__new__(cls)
        m.ctx = ctx
        m.source = source
        m.target = target
        m.parity = parity
        m.rows = grid
        return m

    # -- queries -----------------------------------------------------------

    def entry(self, i, j) -> SuperPoly:
        return self.rows[i][j]

    def blocks(self):
        """The four blocks (T1, T2, T3, T4) as grids."""
        p = self.source.even
        r = self.target.even
        t1 = tuple(row[:p] for row in self.rows[:r])
        t2 = tuple(row[p:] for row in self.rows[:r])
        t3 = tuple(row[:p] for row in self.rows[r:])
        t4 = tuple(row[p:] for row in self.rows[r:])
        return t1, t2, t3, t4

    def is_zero(self) -> bool:
        return _gis_zero(self.rows)

    def is_square(self) -> bool:
        return self.source == self.target

    def __eq__(self, other):
        # the parity tag is not compared: distinct tags force some blocks
        # to vanish, so equal grids never disagree about acting parity
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.source == other.source
            and self.target == other.target
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ctx, self.source, self.target, self.rows))

    # -- arithmetic ----------------------------------------------------------

    def _compatible(self, other):
        if not isinstance(other, SuperMatrix):
            return None
        if other.ctx != self.ctx:
            raise ContextMismatch("matrices live in different contexts")
        return other

    def __add__(self, other):
        other = self._compatible(other)
        if other is None:
            return NotImplemented
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("matrix shapes differ")
        if self.parity is not other.parity:
            raise ParityError("cannot add matrices of different parity")
        return SuperMatrix._wrap(
            self.ctx, self.source, self.target,
            _gadd(self.rows, other.rows), self.parity,
        )

    def __sub__(self, other):
        other = self._compatible(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return SuperMatrix._wrap(
            self.ctx, self.source, self.target, _gneg(self.rows), self.parity
        )

    def __matmul__(self, other):
        other = self._compatible(other)
        if other is None:
            return NotImplemented
        if self.source != other.target:
            raise ValueError(
                f"cannot compose {self.target}<-{self.source} with "
                f"{other.target}<-{other.source}"
            )
        if other.rows:
            rows = _gmul(self.ctx, self.rows, other.rows)
        else:
            # through a 0|0 space: no row of other is left to give the width
            rows = _gzero(self.ctx, self.target.total, other.source.total)
        return SuperMatrix._wrap(
            self.ctx, other.source, self.target, rows, self.parity + other.parity
        )

    def __rmul__(self, scalar):
        if isinstance(scalar, Scalar):
            scalar = SuperPoly.scalar(self.ctx, scalar)
        if not isinstance(scalar, SuperPoly):
            return NotImplemented
        if scalar.ctx != self.ctx:
            raise ContextMismatch("scalar built over a different context")
        sp = scalar.parity()
        if sp is Parity.MIXED:
            raise ParityError("scalar multiplier must be homogeneous")
        grid = []
        for i, row in enumerate(self.rows):
            flip = sp is Parity.ODD and _par(self.target, i)
            grid.append(tuple(-(scalar * e) if flip else scalar * e for e in row))
        return SuperMatrix._wrap(
            self.ctx, self.source, self.target, tuple(grid), self.parity + sp
        )

    def __mul__(self, scalar):
        # both spellings mean the left action
        return self.__rmul__(scalar)

    # -- operations ----------------------------------------------------------

    def supertrace(self) -> SuperPoly:
        """tr(T1) - tr(T4) for even matrices, tr(S1) + tr(S4) for odd."""
        if not self.is_square():
            raise ValueError("supertrace needs a square matrix")
        p = self.source.even
        n = self.source.total
        top = SuperPoly.zero(self.ctx)
        for i in range(p):
            top = top + self.rows[i][i]
        bot = SuperPoly.zero(self.ctx)
        for i in range(p, n):
            bot = bot + self.rows[i][i]
        return top + bot if self.parity is Parity.ODD else top - bot

    def supertranspose(self) -> "SuperMatrix":
        """Block transpose with signs chosen so products reverse with the
        Koszul sign: (S @ T)^st == (-1)^{|S||T|} (T^st @ S^st).

        Even matrices map T2 to -T2^t, odd matrices map T3 to -T3^t.
        """
        p, q = self.source
        r, s = self.target
        grid = []
        for i in range(p + q):
            row = []
            for j in range(r + s):
                e = self.rows[j][i]
                if self.parity is Parity.EVEN:
                    if j < r and i >= p:
                        e = -e
                else:
                    if j >= r and i < p:
                        e = -e
                row.append(e)
            grid.append(tuple(row))
        return SuperMatrix._wrap(
            self.ctx, self.target, self.source, tuple(grid), self.parity
        )

    def invert(self) -> "SuperMatrix":
        """Exact two-sided inverse of an even square matrix.

        B, the body of T, is block diagonal: the odd entries of T2 and T3
        have no body.  Both body block determinants must be nonzero
        constants, and B^{-1} is assembled from the two block inverses,
        each read from the cofactors of one memoised Laplace expansion.
        T^{-1} is then built one odd degree at a time from the parts N_e
        of T with e >= 1 odd generators: its part Y_d with d odd
        generators per term is -B^{-1} sum_e N_e Y_{d-e}, which keeps the
        sparse N_e on the left of each product.  The Y_d share no monomial
        and are joined entry by entry with no product (see
        _series_inverse); each entry, and each intermediate sum, which
        holds a single odd degree, is subject to MAX_TERMS like any
        product.
        """
        if self.parity is not Parity.EVEN:
            raise ParityError("only even matrices are inverted")
        if not self.is_square():
            raise ValueError("cannot invert a non-square matrix")
        ctx = self.ctx
        p, q = self.source
        t1, _, _, t4 = self.blocks()
        binv = _gblocks(
            _body_inverse(ctx, t1, "T1"), _gzero(ctx, p, q),
            _gzero(ctx, q, p), _body_inverse(ctx, t4, "T4"),
        )
        grid = _series_inverse(ctx, self.rows, binv)
        return SuperMatrix._wrap(ctx, self.source, self.target, grid, Parity.EVEN)

    def berezinian(self, formula=None) -> SuperPoly:
        """det(T1 - T2 T4^{-1} T3) det(T4)^{-1}, the super determinant.

        formula picks "primary" (needs T4 invertible) or "alternate"
        (needs T1 invertible, computes det(T1) det(T4 - T3 T1^{-1} T2)^{-1});
        with formula=None the primary form is tried first.  The two agree
        whenever both blocks invert.
        """
        if self.parity is not Parity.EVEN:
            raise ParityError("the Berezinian is defined for even matrices")
        if not self.is_square():
            raise ValueError("the Berezinian needs a square matrix")
        if formula not in (None, "primary", "alternate"):
            raise ValueError(f"unknown formula {formula!r}")
        ctx = self.ctx
        t1, t2, t3, t4 = self.blocks()

        def inverse_det(grid):
            # the body of a Schur complement is the body of its diagonal
            # block, so a failure here is always T4's
            return _grid_inverse(ctx, ((_det(ctx, grid),),), "T4")[0][0]

        # with an empty block row the two formulas coincide
        if self.source.odd == 0:
            return _det(ctx, t1)
        if self.source.even == 0:
            return inverse_det(t4)

        def primary():
            _, _, y1 = _schur(ctx, t1, t2, t3, t4, "T4")
            return _det(ctx, y1) * inverse_det(t4)

        def alternate():
            _, _, y2 = _schur(ctx, t4, t3, t2, t1, "T1")
            return _det(ctx, t1) * inverse_det(y2)

        if formula == "primary":
            return primary()
        if formula == "alternate":
            return alternate()
        try:
            return primary()
        except NotInvertible:
            pass
        try:
            return alternate()
        except NotInvertible:
            raise NeitherBlockInvertible(
                "neither T1 nor T4 has an invertible body"
            ) from None

    def elementary_decomposition(self):
        """Factor T = T_plus @ T_zero @ T_minus with X = T2 T4^{-1},
        Y1 = T1 - T2 T4^{-1} T3, Y2 = T4, Z = T4^{-1} T3."""
        if self.parity is not Parity.EVEN:
            raise ParityError("decomposition is defined for even matrices")
        if not self.is_square():
            raise ValueError("decomposition needs a square matrix")
        ctx = self.ctx
        p, q = self.source
        t1, t2, t3, t4 = self.blocks()
        t4inv, x, y1 = _schur(ctx, t1, t2, t3, t4, "T4")
        z = _gmul(ctx, t4inv, t3)
        eye_p = _gid(ctx, p)
        eye_q = _gid(ctx, q)
        zero_pq = _gzero(ctx, p, q)
        zero_qp = _gzero(ctx, q, p)
        grids = (
            _gblocks(eye_p, x, zero_qp, eye_q),
            _gblocks(y1, zero_pq, zero_qp, t4),
            _gblocks(eye_p, zero_pq, z, eye_q),
        )
        return tuple(
            SuperMatrix._wrap(ctx, self.source, self.target, g, Parity.EVEN)
            for g in grids
        )

    def srank(self) -> SuperDim:
        """rank(body T1) | rank(body T4); entries must have constant bodies."""
        if self.parity is not Parity.EVEN:
            raise ParityError("srank is defined for even matrices")
        t1, _, _, t4 = self.blocks()

        def body_rows(grid, label):
            rows = []
            for row in grid:
                out = []
                for e in row:
                    b = e.body()
                    if not b.is_constant():
                        raise NonConstantBody(
                            f"{label} entry has non-constant body {b}"
                        )
                    out.append(b.constant_term())
                rows.append(out)
            return rows

        return SuperDim(
            linalg.rank(body_rows(t1, "T1")), linalg.rank(body_rows(t4, "T4"))
        )

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        head = f"dims {self.source} -> {self.target}"
        if self.parity is Parity.ODD:
            head += " parity odd"
        lines = [head]
        for row in self.rows:
            lines.append("[" + ", ".join(str(e) for e in row) + "]")
        return "\n".join(lines)

    def __repr__(self):
        return f"SuperMatrix({self.source} -> {self.target}, {self.parity})"


def superbracket(a: SuperMatrix, b: SuperMatrix) -> SuperMatrix:
    """Matrix superbracket [a, b] = ab - (-1)^{|a||b|} ba."""
    ab = a @ b
    ba = b @ a
    if a.parity is Parity.ODD and b.parity is Parity.ODD:
        return ab + ba
    return ab - ba

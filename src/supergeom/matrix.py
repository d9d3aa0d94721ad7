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
from .poly import (_PARITIES, Context, Parity, Scalar, SuperPoly, _dot, _kronecker_image,
                   _pack, _packed_dot, _split)

# Largest n for which _laplace and _image_det expand an n x n grid.  Each
# holds one minor per row set, 2^n of them: on grids of dense linear
# entries in three variables (perfbench corpus.linear_matrix) _det takes
# 0.02 s of CPU at 10 x 10, 0.06 s at 11 x 11 and 0.17 s at 12 x 12 on
# a shared 2-vCPU host under Python 3.11, all three over the image of
# poly._kronecker_image; _laplace over the polynomials of the same grids
# takes 0.3, 0.8 and 2.1 s.  A constant body inverse (linalg._inverse)
# holds no such list, but takes the same cap, so that inv and ber meet it
# on the same blocks.
# Outside the cap tests, the largest determinant in the demos, tests and
# benchmark is 8 x 8.
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
    # the package's one grid product: b is packed once for all the rows
    # of a, and each row of a is one packed sum (poly._packed_dot)
    width = len(b[0]) if b else 0
    rows = _gmul_packed(ctx, a, [_pack(ctx, row) for row in b], width)
    return tuple(_split(ctx, (row,), width) for row in rows)


def _gmul_packed(ctx, a, rows, width):
    # the rows of grid a times the packed rows of width entries, as
    # packed rows (see poly._pack)
    return [_packed_dot(ctx, list(zip(row, rows)), width) for row in a]


def _gblocks(tl, tr, bl, br):
    """Grid with block rows [tl tr] and [bl br]; every block is a grid of
    its own full height, so empty blocks still fix the row counts."""
    return tuple(a + b for a, b in zip(tl, tr)) + tuple(
        a + b for a, b in zip(bl, br)
    )


def _gis_zero(a):
    return all(not e for row in a for e in row)


def _det_size(grid):
    # n for an n x n grid, LimitExceeded above MAX_DET_SIZE: every
    # expansion here holds a minor for each of the 2^n row sets
    n = len(grid)
    if n > MAX_DET_SIZE:
        raise LimitExceeded(
            f"determinant of a {n}x{n} block is above the cap of {MAX_DET_SIZE} rows"
        )
    return n


def _masks(n, cols):
    # the row masks, in increasing order, whose minors a Laplace expansion
    # of a grid of n rows and the m = n or n - 1 columns cols takes: the
    # mask of k <= m rows on the last k columns, expanded down column
    # m - k.  They are the masks reached from every mask of m rows (the
    # full mask of a square grid, each mask that lacks one row when a
    # column is struck out) through nonzero entries, column by column.
    # Where no column but the last, whose one-row masks expand no
    # further, holds a zero entry, that is every mask of at most m rows;
    # on a triangular or block grid almost no other minor is ever read
    m = len(cols)
    full = (1 << n) - 1
    if all(map(all, cols[:-1])):
        return range(1, full + 1 if m == n else full)
    level = {full} if m == n else {full ^ 1 << i for i in range(n)}
    reached = set(level)
    for column in cols[:-1]:
        rows = [i for i, e in enumerate(column) if e]
        level = {mask ^ 1 << i for mask in level for i in rows if mask >> i & 1}
        reached |= level
    return sorted(reached)


def _laplace(ctx, grid):
    """The minors of a grid of n rows and n or n - 1 columns of even
    (hence commuting) polynomials over ctx, in a list indexed by row
    mask: the minor on the rows of a mask of k rows and the last k
    columns.  The last one of a square grid is its determinant; with
    column i struck out, the mask that lacks row j holds the (j, i)
    minor.

    Division-free Laplace expansion, filled bottom-up over the masks of
    _masks: minors[0] is the unit, a one-row mask is its entry in the
    last column, so no entry is multiplied by the unit, and the minor of
    a mask of k >= 2 rows is the sum of +-entry * (the minor without that
    row) down the k-th column from the right, the sign advancing past
    every row of the mask, zero entries included.  The entry is negated,
    a few terms, not the much larger minor.  The signed (entry, minor)
    pairs of a mask are summed by one poly._dot, one numerator map built
    at the lcm of their denominators, reduced once, so a column sum
    builds no partial sum and no product of its own.  A sub mask is
    below its mask, so one pass in increasing order meets every minor it
    reads already filled.  It runs for _det over a grid that
    poly._kronecker_image refuses and for the cofactors of a body that is
    not constant.  Exact over any commutative coefficient ring,
    nilpotents included, which rules out fraction-free elimination here:
    its exact divisions can hit zero divisors once even entries carry
    nilpotent parts.  A constant body lies over the field Q, and
    _body_inverse inverts it by linalg's elimination instead."""
    n = _det_size(grid)
    cols = list(zip(*grid))
    minors = [SuperPoly.scalar(ctx, 1)] * (1 << n)
    for mask in _masks(n, cols):
        column = cols[-mask.bit_count()]
        if not mask & mask - 1:
            minors[mask] = column[mask.bit_length() - 1]
            continue
        pairs = []
        neg = False
        rows = mask
        while rows:
            low = rows & -rows
            rows ^= low
            e = column[low.bit_length() - 1]
            if e:
                pairs.append((-e if neg else e, minors[mask ^ low]))
            neg = not neg
        minors[mask] = _dot(ctx, pairs)
    return minors


def _image_det(ints):
    """The determinant of an image grid of poly._kronecker_image: each
    nonzero entry the tuple of (c, s) pairs of its int sum c << s, one
    pair per run of adjacent slots, and a zero entry the int 0.

    The expansion of _laplace over the masks of _masks, with its own
    column sum: the products c * minor are summed per shift s and each
    sum is shifted once.  The entries of a column share a few shifts, so
    no product pays a shift of its own, and a run's c holds all its
    slots, so a run pays one product."""
    n = _det_size(ints)
    cols = list(zip(*ints))
    minors = [1] * (1 << n)
    for mask in _masks(n, cols):
        column = cols[-mask.bit_count()]
        sums = {}
        neg = False
        rows = mask
        while rows:
            low = rows & -rows
            rows ^= low
            e = column[low.bit_length() - 1]
            if e:
                m = -minors[mask ^ low] if neg else minors[mask ^ low]
                for c, s in e:
                    sums[s] = sums[s] + c * m if s in sums else c * m
            neg = not neg
        minors[mask] = sum([t << s for s, t in sums.items()])
    return minors[-1]


def _det(ctx, grid) -> SuperPoly:
    """Determinant of a square grid of even entries.

    An odd-free grid that the rule of poly._kronecker_image takes is
    expanded over its image in Z, the evaluation of its polynomials at
    one point whose int determinant holds every coefficient of theirs as
    a base-2^b digit, by _image_det, and read back from that one int.
    Any other grid, odd parts included, is expanded over its polynomials
    by _laplace, each column sum one packed sum.  Both paths take the
    same MAX_DET_SIZE cap, and the rule keeps the image to grids on which
    the polynomial expansion would meet no other cap."""
    image = _kronecker_image(ctx, grid)
    if image is None:
        return _laplace(ctx, grid)[-1]
    ints, unpack = image
    return unpack(_image_det(ints))


def _body_inverse(ctx, grid, label):
    """Inverse of the body of an even square grid, the grid of its
    entries' terms without odd generators.

    The body determinant must be a nonzero constant; the body entries
    themselves may be arbitrary even-variable polynomials (a unipotent
    block like [[1, t], [0, 1]] is fine).  When every body is constant
    (SuperPoly._body_value) the body is a matrix over Q, inverted by
    linalg's one elimination (linalg._inverse), under the MAX_DET_SIZE
    cap that _det puts on the same block, each entry built once from its
    row's ints over their pivot, reduced by one gcd.  Otherwise the
    determinant of the body polynomials comes from _det, which takes the
    Kronecker image where its rule admits the grid, and a determinant
    that is not constant, or zero, is refused before any pass runs.
    Entry (i, j) of the inverse is then the (j, i) cofactor over the
    determinant, and row i is read from one _laplace pass over the grid
    with column i struck out, whose minor on the rows other than j is the
    (j, i) minor.
    """
    values = [[e._body_value() for e in row] for row in grid]
    if all(v is not None for row in values for v in row):
        _det_size(values)
        inverse = linalg._inverse(values)
        if inverse is None:
            raise NotInvertible(f"body determinant of {label} is zero")
        return tuple([tuple([SuperPoly._ratio(ctx, x, p) for x in row]) for row, p in inverse])
    body = [[e.body() for e in row] for row in grid]
    d = _det(ctx, body)
    if not d.is_constant():
        raise NotInvertible(f"body determinant of {label} is not constant")
    d = d.constant_term()
    if not d:
        raise NotInvertible(f"body determinant of {label} is zero")
    n = len(grid)
    full = (1 << n) - 1
    signed = (d, -d)
    inverse = []
    for i in range(n):
        minors = _laplace(ctx, [[*row[:i], *row[i + 1:]] for row in body])
        # the (j, i) minor, with row j and column i struck out, over (-1)^(i+j) d
        inverse.append(tuple([minors[full ^ 1 << j] / signed[(i + j) & 1] for j in range(n)]))
    return tuple(inverse)


def _series_inverse(ctx, grid, binv):
    """Exact inverse of grid = B + N from binv = B^{-1}, built one odd
    degree at a time.  Each entry splits into its parts of odd degree e:
    the part with e = 0 is its body, the entry of B, and the parts N_e
    with e >= 1 make up N.  The part Y_d of the inverse with d odd
    generators per term is

        Y_0 = B^{-1},   Y_d = -B^{-1} sum_{e >= 1} N_e Y_{d-e},

    the degree-d part of B Y = I - N Y, so each degree of the result is
    computed once, and Y_d is zero for d > len(ctx.odd).  Each Y_d is
    kept as packed rows (poly._pack), the right factor of both products.
    Only the degrees e and d - e that occur are visited, and only the
    nonzero entries of N_e enter the sum for row i, which is one packed
    row: zero blocks padded into it would cost the small inverses most.
    Each nonzero sum is multiplied once by -B^{-1}, which is negated once
    per series.  The Y_d share no monomial, so each row of the inverse
    is split from the packed rows of all the Y_d at once, at the end,
    with no product and no partial sum."""
    # row i of N as the triples (e, j, N_e[i][j]) of its nonzero parts,
    # in any order: B^{-1}'s entries carry the body's denominators into
    # every Y_d, and each sum below is built at the lcm of its products'
    # denominators, so it scales no numerator up midway
    parts = [
        [(e, j, part) for j, x in enumerate(row)
         for e, part in x.odd_degree_parts().items() if e]
        for row in grid
    ]
    if not any(parts):
        return binv
    n = len(grid)
    neg_binv = _gneg(binv)
    ys = {0: [_pack(ctx, row) for row in binv]}
    for d in range(1, len(ctx.odd) + 1):
        sums = [_packed_dot(ctx, [(x, ys[d - e][j]) for e, j, x in out if d - e in ys], n)
                for out in parts]
        if any(sums):
            ys[d] = _gmul_packed(ctx, neg_binv, sums, n)
    return tuple(_split(ctx, rows, n) for rows in zip(*ys.values()))


def _grid_inverse(ctx, grid, label):
    return _series_inverse(ctx, grid, _body_inverse(ctx, grid, label))


def _schur(ctx, a, b, c, d, label):
    """(d^{-1}, b d^{-1}, a - b d^{-1} c) for the block grid [[a, b], [c, d]].

    The complement is one grid product [1 | b d^{-1}] [a; -c], its right
    grid packed once.  An empty d leaves a unchanged: a product through a
    zero inner dimension would otherwise lose the width of a."""
    if not d:
        return d, b, a
    dinv = _grid_inverse(ctx, d, label)
    bdinv = _gmul(ctx, b, dinv)
    left = tuple(e + row for e, row in zip(_gid(ctx, len(a)), bdinv))
    return dinv, bdinv, _gmul(ctx, left, a + _gneg(c))


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

    def _composable(self, other):
        if self.source != other.target:
            raise ValueError(
                f"cannot compose {self.target}<-{self.source} with "
                f"{other.target}<-{other.source}"
            )

    def __matmul__(self, other):
        other = self._compatible(other)
        if other is None:
            return NotImplemented
        self._composable(other)
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
        constants, and B^{-1} is assembled from the two block inverses: a
        constant body block by linalg's elimination over Q, any other
        from the cofactors of one Laplace pass per row (see
        _body_inverse).  Both take the MAX_DET_SIZE cap.
        T^{-1} is then built one odd degree at a time from the parts N_e
        of T with e >= 1 odd generators: its part Y_d with d odd
        generators per term is -B^{-1} sum_e N_e Y_{d-e}, which keeps the
        sparse N_e on the left of each product.  Each Y_d stays as packed
        rows, one numerator map per row (poly._pack), and the Y_d, which
        share no monomial, are split into the entries of the inverse once,
        with no product (see _series_inverse).  Each entry is held to
        MAX_TERMS there, like any product; inside the sums a packed row
        is held to MAX_TERMS per column slot.
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
                    v = e._body_value()
                    if v is None:
                        raise NonConstantBody(
                            f"{label} entry has non-constant body {e.body()}"
                        )
                    out.append(v)
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
    """Matrix superbracket [a, b] = ab - (-1)^{|a||b|} ba, one grid
    product of the block row [a | -b] by the block column [b; a], with
    +b when both are odd.  a and b must compose both ways, as ab and ba,
    and be square, so every block is n x n."""
    if not (isinstance(a, SuperMatrix) and isinstance(b, SuperMatrix)):
        raise TypeError(f"unsupported operand type(s) for @: "
                        f"'{type(a).__name__}' and '{type(b).__name__}'")
    a._compatible(b)
    a._composable(b)
    b._composable(a)
    if not a.is_square():
        raise ValueError("matrix shapes differ")
    odd = a.parity is Parity.ODD and b.parity is Parity.ODD
    left = _gblocks(a.rows, b.rows if odd else _gneg(b.rows), (), ())
    rows = _gmul(a.ctx, left, b.rows + a.rows)
    return SuperMatrix._wrap(a.ctx, a.source, a.target, rows, a.parity + b.parity)

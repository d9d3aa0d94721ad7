"""linalg's integer elimination against the Fraction Gauss-Jordan it
replaced (tests/oracles.py).

The reduced echelon form of a matrix is unique, so rref must return the
oracle's rows and pivots exactly, every entry a Fraction, whatever the
integer rows looked like on the way; rank and pivot_columns must agree
with it.  The matrices are seeded: ints, Fractions with denominators,
rank-deficient products, zero rows and columns, the empty shapes, single
rows and columns up to 10 x 12, and entries up to 10^30.
"""

import copy
import random
from fractions import Fraction

import pytest

from oracles import reference_rref
from supergeom import linalg


def _entry(rng, kind, big):
    hi = 10**30 if big else 9
    n = rng.randint(-hi, hi)
    if kind == "int" or rng.random() < 0.3:
        return n
    return Fraction(n, rng.randint(1, 10**12 if big else 12))


def _matrix(rng, nrows, ncols, kind, big=False):
    return [[_entry(rng, kind, big) for _ in range(ncols)] for _ in range(nrows)]


def _low_rank(rng, nrows, ncols, kind, big=False):
    """A product of nrows x k and k x ncols matrices with k below both,
    so its rank is at most k."""
    k = rng.randint(0, max(min(nrows, ncols) - 1, 0))
    a = _matrix(rng, nrows, k, kind, big)
    b = _matrix(rng, k, ncols, kind, big)
    return [[sum((a[i][t] * b[t][j] for t in range(k)), 0) for j in range(ncols)]
            for i in range(nrows)]


def _with_zero_lines(rng, rows):
    rows = [list(r) for r in rows]
    if rows:
        rows[rng.randrange(len(rows))] = [0] * len(rows[0])
        if rows[0]:
            c = rng.randrange(len(rows[0]))
            for r in rows:
                r[c] = Fraction(0)
    return rows


def _cases():
    rng = random.Random(2020)
    out = [[], [[]], [[], []], [[0]], [[5]], [[Fraction(-3, 7)]], [[0, 0], [0, 0]]]
    for nrows, ncols in [(1, 1), (1, 5), (1, 12), (5, 1), (10, 1), (2, 2),
                         (3, 4), (4, 3), (6, 6), (7, 9), (10, 12), (12, 10)]:
        for kind in ("int", "frac"):
            out.append(_matrix(rng, nrows, ncols, kind))
            out.append(_low_rank(rng, nrows, ncols, kind))
            out.append(_with_zero_lines(rng, _matrix(rng, nrows, ncols, kind)))
    for nrows, ncols in [(3, 3), (4, 6), (10, 12)]:
        for kind in ("int", "frac"):
            out.append(_matrix(rng, nrows, ncols, kind, big=True))
            out.append(_low_rank(rng, nrows, ncols, kind, big=True))
    # repeated rows and a row that is a sum of two others
    a = _matrix(rng, 3, 5, "frac")
    out.append(a + [a[0], [x + y for x, y in zip(a[1], a[2])]])
    return out


CASES = _cases()


def _shape(rows):
    return f"{len(rows)}x{len(rows[0]) if rows else 0}"


@pytest.mark.parametrize("rows", CASES, ids=[f"{i}-{_shape(r)}" for i, r in enumerate(CASES)])
def test_rref_rank_and_pivots_match_the_fraction_oracle(rows):
    before = copy.deepcopy(rows)
    want = reference_rref(rows)
    got = linalg.rref(rows)
    assert got == want
    assert all(type(x) is Fraction for row in got[0] for x in row)
    assert linalg.rank(rows) == len(want[1])
    assert linalg.pivot_columns(rows) == want[1]
    assert rows == before
    assert [[type(x) for x in row] for row in rows] == [[type(x) for x in row] for row in before]


def test_the_cases_cover_rank_deficient_and_full_rank_matrices():
    deficient = [r for r in CASES if r and r[0] and len(reference_rref(r)[1]) < min(len(r), len(r[0]))]
    full = [r for r in CASES if r and r[0] and len(reference_rref(r)[1]) == min(len(r), len(r[0]))]
    assert len(deficient) >= 20 and len(full) >= 20
    # rank below the row count, so counting rows is not counting pivots
    assert any(len(r) > len(reference_rref(r)[1]) > 0 for r in deficient)


def test_rows_may_be_tuples_and_mix_ints_with_fractions():
    rows = ((1, Fraction(1, 2), 0), (2, 1, Fraction(-4, 3)))
    assert linalg.rref(rows) == reference_rref(rows)
    assert linalg.rref(rows) == (
        [[1, Fraction(1, 2), 0], [0, 0, 1]], [0, 2]
    )


@pytest.mark.parametrize("rows", [
    [[0.1, 1]],
    [[1, 2], [3, 0.5]],
    [[Fraction(1, 3), 2.0]],
])
def test_floats_are_refused(rows):
    for fn in (linalg.rref, linalg.rank, linalg.pivot_columns):
        with pytest.raises(TypeError, match="inexact float"):
            fn(rows)


def test_right_nullspace_reads_the_integer_echelon_form():
    rows = [[1, 2, 3, 4], [2, 4, 7, 9], [Fraction(1, 2), 1, 2, Fraction(5, 2)]]
    echelon, pivots = linalg.rref(rows)
    basis = linalg.right_nullspace(echelon, pivots, 4)
    assert len(basis) == 4 - len(pivots)
    for v in basis:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)

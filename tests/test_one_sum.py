"""Sums of products formed as one packed sum.

The superbracket ab -+ ba, OSp's constraints X^st Phi + Phi X and each
column sum of a Laplace expansion are sums of products.  Each is one
packed sum of the term-pair loop: the superbracket and the constraints
one matrix._gmul of a block row by a block column, a column sum one
poly._dot.  None adds or subtracts a polynomial or a matrix on the way,
or multiplies two matrices with @, and a Laplace expansion multiplies no
two polynomials with *.  Each test counts those operators while the
operation runs, then checks its value against the plain sums of
products, taken with the counters removed: a @ b -+ b @ a,
tests/oracles.py's reference_lie_algebra, which expands
(I + eps X)^st Phi (I + eps X) - Phi, and reference_minors, the
top-down Laplace expansion.

poly._packed_dot is the package's one sum of products and its one loop
over pairs of terms.  The last test counts its calls, through poly's
name and matrix's import of it, while a product, a substitution, a
composition, a grid product, a derivation applied and bracketed, and a
Laplace column sum run: each must reach it, and each value must match
tests/oracles.py's, whose reference_dot multiplies term pair by term
pair on tests/model.py's Monomials.
"""

import random

import pytest

from helpers import random_chain, random_poly, random_rational_poly, random_supermatrix
from oracles import (reference_apply, reference_bracket, reference_dot, reference_lie_algebra,
                     reference_minors, reference_substitute)
from supergeom import (Context, MatrixGroupSpec, Morphism, Parity, SuperDerivation, SuperMatrix,
                       SuperPoly, bracket, compose, lie_algebra)
from supergeom import matrix as M
from supergeom import poly as P

KT4 = Context(even=["t"], odd=[f"theta{i}" for i in range(1, 5)])
SUMS = [(SuperPoly, name) for name in ("__add__", "__radd__", "__sub__", "__rsub__")]
MATRIX_SUMS = [(SuperMatrix, name) for name in ("__add__", "__sub__", "__matmul__")]
PRODUCTS = [(SuperPoly, name) for name in ("__mul__", "__rmul__")]


def counted(monkeypatch, methods):
    """The list of names of methods called from now on, each method of
    the (class, name) pairs replaced by a counting wrapper."""
    calls = []
    for cls, name in methods:
        def wrapper(*args, real=getattr(cls, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(cls, name, wrapper)
    return calls


@pytest.mark.parametrize("dim", [(1, 1), (2, 1), (0, 2)])
@pytest.mark.parametrize("pa, pb", [(pa, pb) for pa in (Parity.EVEN, Parity.ODD)
                                    for pb in (Parity.EVEN, Parity.ODD)])
def test_the_superbracket_is_one_grid_product(monkeypatch, dim, pa, pb):
    rng = random.Random(5800 + 10 * dim[0] + dim[1] + 2 * pa.value + pb.value)
    a = random_supermatrix(rng, KT4, dim, dim, parity=pa)
    b = random_supermatrix(rng, KT4, dim, dim, parity=pb)
    calls = counted(monkeypatch, SUMS + MATRIX_SUMS)
    got = M.superbracket(a, b)
    assert calls == []
    monkeypatch.undo()
    assert got == (a @ b + b @ a if pa is pb is Parity.ODD else a @ b - b @ a)
    assert got.parity is pa + pb


@pytest.mark.parametrize("spec", [
    MatrixGroupSpec.OSp(1, 2),
    MatrixGroupSpec.OSp(2, 2),
    MatrixGroupSpec.OSp(3, 4),
    MatrixGroupSpec.OSp(1, 2, form=[[2, 0, 0], [0, 0, 3], [0, -3, 0]]),
], ids=["1|2", "2|2", "3|4", "1|2-form"])
def test_osp_constraints_are_one_grid_product(monkeypatch, spec):
    calls = counted(monkeypatch, SUMS + MATRIX_SUMS)
    got = lie_algebra(spec)
    assert calls == []
    monkeypatch.undo()
    assert got == reference_lie_algebra(spec)


@pytest.mark.parametrize("n, struck", [(2, None), (4, None), (5, None), (4, 1)])
def test_each_laplace_column_sum_is_one_packed_sum(monkeypatch, n, struck):
    # even entries with nilpotent parts, a zero here and there, so some
    # column sums skip an entry and a minor may vanish
    rng = random.Random(5900 + 10 * n + (struck or 0))
    square = [[random_poly(rng, KT4, Parity.EVEN, max_even_deg=1, n_terms=2)
               if rng.random() > 0.2 else KT4.zero() for _ in range(n)] for _ in range(n)]
    grid = square if struck is None else [row[:struck] + row[struck + 1:] for row in square]
    calls = counted(monkeypatch, SUMS + PRODUCTS)
    minors = M._laplace(KT4, grid)
    assert calls == []
    monkeypatch.undo()
    minor = reference_minors(square, KT4.one(), KT4.zero())
    full = (1 << n) - 1
    columns = full if struck is None else full ^ 1 << struck
    for mask in M._masks(n, list(zip(*grid))):
        # the rows of mask on the last mask.bit_count() columns of grid
        keep = columns
        for _ in range(columns.bit_count() - mask.bit_count()):
            keep &= keep - 1
        assert minors[mask] == minor(mask | keep << n)


KT2 = Context(even=["t", "s"], odd=["a", "b", "c"])


def field(rng, parity):
    return SuperDerivation(
        KT2, parity,
        [random_rational_poly(rng, KT2, parity, n_terms=2, max_den=4) for _ in KT2.even],
        [random_rational_poly(rng, KT2, parity.flipped(), n_terms=2, max_den=4)
         for _ in KT2.odd])


def operations(rng):
    """{name: (run, oracle)} over seeded inputs: each pair of thunks
    gives one value, the package's and the oracles'."""
    p, q = (random_rational_poly(rng, KT2, n_terms=4, max_den=6) for _ in range(2))
    images = {n: random_rational_poly(rng, KT2, Parity.ODD if n in KT2.odd else Parity.EVEN,
                                      n_terms=2, max_den=4) for n in KT2.names}
    psi, phi = random_chain(rng)
    a = [[random_rational_poly(rng, KT2, n_terms=2, max_den=4) for _ in range(3)]
         for _ in range(2)]
    b = [[random_rational_poly(rng, KT2, n_terms=2, max_den=4) for _ in range(2)]
         for _ in range(3)]
    odd1, odd2, even = field(rng, Parity.ODD), field(rng, Parity.ODD), field(rng, Parity.EVEN)
    grid = [[random_rational_poly(rng, KT2, Parity.EVEN, max_even_deg=1, n_terms=2, max_den=3)
             for _ in range(3)] for _ in range(3)]
    return {
        "mul": (lambda: p * q, lambda: reference_dot(KT2, [(p, q)])),
        "substitute": (lambda: p.substitute(KT2, images),
                       lambda: reference_substitute(p, KT2, images)),
        "compose": (lambda: compose(psi, phi),
                    lambda: Morphism(phi.source, psi.target,
                                     [reference_substitute(img, phi.source, phi.image_map())
                                      for img in psi.images])),
        "gmul": (lambda: M._gmul(KT2, a, b),
                 lambda: tuple(tuple(reference_dot(KT2, zip(row, col)) for col in zip(*b))
                               for row in a)),
        "apply": (lambda: odd1.apply(p), lambda: reference_apply(odd1, p)),
        "bracket-odd-odd": (lambda: bracket(odd1, odd2), lambda: reference_bracket(odd1, odd2)),
        "bracket-even-odd": (lambda: bracket(even, odd1), lambda: reference_bracket(even, odd1)),
        "laplace": (lambda: M._laplace(KT2, grid)[0b111],
                    lambda: reference_minors(grid, KT2.one(), KT2.zero())(0b111111)),
    }


@pytest.mark.parametrize("name", list(operations(random.Random(0))))
@pytest.mark.parametrize("seed", range(3))
def test_every_sum_of_products_is_one_packed_dot(monkeypatch, name, seed):
    run, oracle = operations(random.Random(6100 + seed))[name]
    calls = []
    real = P._packed_dot

    def counted(ctx, triples, width):
        calls.append(width)
        return real(ctx, triples, width)

    monkeypatch.setattr(P, "_packed_dot", counted)
    monkeypatch.setattr(M, "_packed_dot", counted)
    got = run()
    monkeypatch.undo()
    assert calls
    assert got == oracle()

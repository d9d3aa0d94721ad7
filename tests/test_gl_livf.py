"""Left-invariant fields of GL(m|n) realise gl(m|n).

GL(m|n) has coordinates x_ij for 0 <= i, j < m + n, odd when exactly one
of i, j is >= m, and the law mu*(x_ij) = sum_k x_ik x'_kj with the
identity as unit.  Let D_ij be the left-invariant field with value
d/dx_ij at the unit and phi(E_ij) = s_ij D_ij, where s_ij = -1 on the
lower-left odd block (i >= m > j) and +1 elsewhere.  Then
[phi A, phi B] = phi([A, B]) for every pair of matrix units, with
[A, B] = AB - (-1)^{|A||B|} BA read from matrix.superbracket and from
liealg.commutator_bracket.  The sign s_ij comes from the left-partial
convention: the field's coefficients differentiate mu's second factor
from the left, past the odd entries of the first.

For any associative law the same holds in its general form: the bracket
of two left-invariant fields is the left-invariant field of its own
value at the unit.  See Varadarajan, Supersymmetry for Mathematicians
(AMS, 2004), ch. 7, and Carmeli, Caston and Fioresi, Mathematical
Foundations of Supersymmetry (EMS, 2011).
"""

import random

import pytest

from supergeom import (Context, GroupLaw, Morphism, Parity, SuperDim, SuperMatrix,
                       TangentVector, bracket, check_group_axioms, commutator_bracket,
                       is_left_invariant, left_invariant_field, product_context,
                       superbracket)
from test_derivation_reference import LAW_SHAPES, heisenberg_law, twisted_law
from test_groups import affine_law, r11_law, r12_law

SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2)]
SCALARS = Context()


def gl_law(m, n):
    size = m + n

    def odd(i, j):
        return (i >= m) != (j >= m)

    cells = [(i, j) for i in range(size) for j in range(size)]
    g = Context(even=[f"x{i}{j}" for i, j in cells if not odd(i, j)],
                odd=[f"x{i}{j}" for i, j in cells if odd(i, j)])
    gg = product_context(g)
    v = gg.var
    mu = [sum((v(f"x{i}{k}") * v(f"x{k}{j}p") for k in range(size)), gg.zero())
          for i, j in (map(int, name[1:]) for name in g.names)]
    unit = g.point([int(name[1] == name[2]) for name in g.even])
    return GroupLaw(g, Morphism(gg, g, mu), unit)


def unit_matrix(m, n, i, j):
    size = m + n
    rows = [[int((r, c) == (i, j)) for c in range(size)] for r in range(size)]
    parity = Parity.ODD if (i >= m) != (j >= m) else Parity.EVEN
    return SuperMatrix(SCALARS, SuperDim(m, n), SuperDim(m, n), rows, parity)


def phi(law, m, a):
    """sum of a_ij s_ij D_ij over the entries of the constant matrix a, as
    one left-invariant field."""
    def weight(name):
        i, j = int(name[1]), int(name[2])
        sign = -1 if i >= m > j else 1
        return sign * a.entry(i, j).constant_term()

    g = law.coords
    return left_invariant_field(law, TangentVector(g, even=[weight(n) for n in g.even],
                                                   odd=[weight(n) for n in g.odd]))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_gl_law_is_a_group_law(shape):
    reports = check_group_axioms(gl_law(*shape))
    assert [(r.axiom, r.passed) for r in reports] == [("associativity", True), ("unit", True)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_left_invariant_fields_realise_the_matrix_superbracket(shape):
    m, n = shape
    law = gl_law(m, n)
    units = [unit_matrix(m, n, i, j) for i in range(m + n) for j in range(m + n)]
    fields = [phi(law, m, a) for a in units]
    odd_pairs = 0
    for a, fa in zip(units, fields):
        for b, fb in zip(units, fields):
            ab = superbracket(a, b)
            assert commutator_bracket(a, b) == ab
            assert bracket(fa, fb) == phi(law, m, ab)
            odd_pairs += a.parity is b.parity is Parity.ODD
    assert odd_pairs == (2 * m * n) ** 2


def test_the_sign_is_needed_on_odd_pairs():
    # D_01 and D_10 on GL(1|1): with s = +1 everywhere [D_01, D_10] would
    # have to be D_00 + D_11; it is -(D_00 + D_11)
    law = gl_law(1, 1)
    g = law.coords

    def d(name):
        return left_invariant_field(law, TangentVector.coordinate(g, name))

    assert bracket(d("x01"), d("x10")) == -1 * (d("x00") + d("x11"))


def value_at_unit(field, law):
    return TangentVector(law.coords, *([c.at(law.unit) for c in half]
                                       for half in (field.even_coeffs, field.odd_coeffs)))


ASSOCIATIVE = ([("heisenberg", shape) for shape in LAW_SHAPES]
               + [("affine", None), ("r11", None), ("r12", None), ("twisted", (1, 0))])


def make_law(kind, shape):
    if kind == "heisenberg":
        return heisenberg_law(random.Random(2000 + 10 * shape[0] + shape[1]), *shape)
    if kind == "twisted":
        return twisted_law(random.Random(2100), *shape)
    return {"affine": affine_law, "r11": r11_law, "r12": r12_law}[kind]()


@pytest.mark.parametrize("kind, shape", ASSOCIATIVE, ids=str)
def test_brackets_are_left_invariant_fields_of_their_value_at_the_unit(kind, shape):
    law = make_law(kind, shape)
    assert check_group_axioms(law)[0].passed
    g = law.coords
    fields = [left_invariant_field(law, TangentVector.coordinate(g, n)) for n in g.names]
    for x in fields:
        for y in fields:
            xy = bracket(x, y)
            assert xy == left_invariant_field(law, value_at_unit(xy, law))
            assert is_left_invariant(xy, law)


def test_the_general_form_reads_associativity():
    # twisted_law(1, 1) is not associative, and some bracket of its
    # fields is not the field of its value at the unit
    law = twisted_law(random.Random(2100), 1, 1)
    assert not check_group_axioms(law)[0].passed
    g = law.coords
    fields = [left_invariant_field(law, TangentVector.coordinate(g, n)) for n in g.names]
    assert any(bracket(x, y) != left_invariant_field(law, value_at_unit(bracket(x, y), law))
               for x in fields for y in fields)

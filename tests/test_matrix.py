"""Supermatrix tests.

Frozen values were worked out by hand before the implementation: the
1|1 square {1,theta1;theta2,1} was expanded term by term, the Berezinian
examples reduce to scalar arithmetic after one Schur complement, and the
elementary decomposition of {2,theta1;theta2,1} solves the triangular
system directly.  srank is checked against a brute-force search for the
largest invertible square submatrix.
"""

import random
from fractions import Fraction

import pytest

from helpers import random_invertible, random_poly, random_supermatrix
from oracles import brute_srank
from supergeom import (
    Context,
    ContextMismatch,
    NeitherBlockInvertible,
    NonConstantBody,
    NotInvertible,
    Parity,
    ParityError,
    SuperDim,
    SuperMatrix,
    SuperPoly,
    pi_reverse,
    superbracket,
)

CTX = Context(even=["t"], odd=["theta1", "theta2", "theta3", "theta4"])
GRASS = Context(even=[], odd=["theta1", "theta2", "theta3", "theta4"])

T1 = CTX.var("theta1")
T2 = CTX.var("theta2")


def mat(ctx, source, target, rows, parity=Parity.EVEN):
    return SuperMatrix(ctx, source, target, rows, parity)


def sq(ctx, rows, p, q, parity=Parity.EVEN):
    return SuperMatrix(ctx, (p, q), (p, q), rows, parity)


class TestConstruction:
    def test_block_parity_enforced(self):
        with pytest.raises(ParityError):
            sq(CTX, [[T1, 0], [0, 1]], 1, 1)

    def test_odd_matrix_reverses_blocks(self):
        m = sq(CTX, [[T1, 2], [3, T2]], 1, 1, parity=Parity.ODD)
        assert m.entry(0, 0) == T1
        with pytest.raises(ParityError):
            sq(CTX, [[1, 0], [0, 1]], 1, 1, parity=Parity.ODD)

    def test_zero_entries_fit_any_block(self):
        m = sq(CTX, [[0, 0], [0, 0]], 1, 1)
        assert m.is_zero()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            mat(CTX, (1, 1), (1, 1), [[1, 0]])
        with pytest.raises(ValueError):
            mat(CTX, (1, 1), (1, 1), [[1], [0]])

    def test_context_mismatch(self):
        other = Context(even=["s"], odd=["eta"])
        with pytest.raises(ContextMismatch):
            sq(CTX, [[other.var("s")]], 1, 0)

    def test_from_blocks(self):
        m = SuperMatrix.from_blocks(CTX, [[1]], [[T1]], [[T2]], [[1]])
        assert m.source == SuperDim(1, 1)
        assert m.entry(0, 1) == T1
        assert m.entry(1, 0) == T2

    def test_blocks_round_trip(self):
        rng = random.Random(11)
        m = random_supermatrix(rng, CTX, (2, 1), (1, 2))
        t1, t2, t3, t4 = m.blocks()
        again = SuperMatrix.from_blocks(CTX, t1, t2, t3, t4)
        assert again == m


class TestMatmul:
    def test_square_of_unipotent(self):
        m = sq(CTX, [[1, T1], [T2, 1]], 1, 1)
        sqr = m @ m
        expect = sq(
            CTX,
            [[1 + T1 * T2, 2 * T1], [2 * T2, 1 - T1 * T2]],
            1,
            1,
        )
        assert sqr == expect

    def test_identity_is_neutral(self):
        rng = random.Random(2)
        for _ in range(10):
            m = random_supermatrix(rng, CTX, (2, 1), (1, 2))
            assert SuperMatrix.identity(CTX, (1, 2)) @ m == m
            assert m @ SuperMatrix.identity(CTX, (2, 1)) == m

    def test_associativity(self):
        rng = random.Random(3)
        for _ in range(10):
            a = random_supermatrix(rng, CTX, (1, 1), (2, 1))
            b = random_supermatrix(rng, CTX, (2, 2), (1, 1), parity=Parity.ODD)
            c = random_supermatrix(rng, CTX, (1, 2), (2, 2))
            assert (a @ b) @ c == a @ (b @ c)

    def test_parity_adds(self):
        rng = random.Random(4)
        a = random_supermatrix(rng, CTX, (1, 1), (1, 1), parity=Parity.ODD)
        b = random_supermatrix(rng, CTX, (1, 1), (1, 1), parity=Parity.ODD)
        assert (a @ b).parity is Parity.EVEN

    def test_shape_mismatch(self):
        a = random_supermatrix(random.Random(5), CTX, (2, 1), (1, 1))
        with pytest.raises(ValueError):
            a @ a

    @pytest.mark.parametrize("outer", [(1, 0), (2, 1), (0, 2)])
    def test_through_zero_space_is_zero_matrix(self, outer):
        # A^{p|q} -> A^{0|0} -> A^{r|s} is the zero map, with full shape
        into = SuperMatrix(CTX, SuperDim(*outer), SuperDim(0, 0), [])
        out_of = SuperMatrix(CTX, SuperDim(0, 0), SuperDim(2, 1), [[]] * 3)
        prod = out_of @ into
        assert prod.source == SuperDim(*outer)
        assert prod.target == SuperDim(2, 1)
        assert prod == SuperMatrix.zeros(CTX, outer, (2, 1))


class TestScalarAction:
    """c * T twists entry (i, j) by (-1)^{|c| * (row parity)}."""

    def test_left_action_commutes_with_matmul(self):
        rng = random.Random(6)
        for _ in range(20):
            s = random_supermatrix(rng, CTX, (1, 1), (1, 1))
            t = random_supermatrix(rng, CTX, (1, 1), (1, 1), parity=Parity.ODD)
            c = random_poly(rng, CTX, parity=rng.choice([Parity.EVEN, Parity.ODD]))
            assert (c * s) @ t == c * (s @ t)

    def test_scalar_through_even_matrix(self):
        rng = random.Random(7)
        for _ in range(20):
            s = random_supermatrix(rng, CTX, (1, 1), (1, 1))
            t = random_supermatrix(rng, CTX, (1, 1), (1, 1))
            c = random_poly(rng, CTX, parity=Parity.ODD)
            assert s @ (c * t) == c * (s @ t)

    def test_scalar_through_odd_matrix_flips(self):
        rng = random.Random(8)
        for _ in range(20):
            s = random_supermatrix(rng, CTX, (1, 1), (1, 1), parity=Parity.ODD)
            t = random_supermatrix(rng, CTX, (1, 1), (1, 1))
            c = random_poly(rng, CTX, parity=Parity.ODD)
            assert s @ (c * t) == -(c * (s @ t))

    def test_action_is_associative(self):
        rng = random.Random(9)
        for _ in range(20):
            t = random_supermatrix(rng, CTX, (1, 1), (1, 1))
            lam = random_poly(rng, CTX, parity=Parity.ODD)
            mu = random_poly(rng, CTX, parity=Parity.ODD)
            assert lam * (mu * t) == (lam * mu) * t

    def test_rational_scalars(self):
        m = sq(CTX, [[2, T1], [T2, 4]], 1, 1)
        half = Fraction(1, 2) * m
        assert half.entry(0, 0) == 1
        assert half.entry(1, 1) == 2

    def test_mixed_scalar_rejected(self):
        m = SuperMatrix.identity(CTX, (1, 1))
        with pytest.raises(ParityError):
            (1 + T1) * m


class TestSupertrace:
    def test_identity(self):
        for p in range(5):
            for q in range(5):
                tr = SuperMatrix.identity(CTX, (p, q)).supertrace()
                assert tr == p - q

    def test_diagonal_two_three(self):
        m = sq(CTX, [[2, 0], [0, 3]], 1, 1)
        assert m.supertrace() == -1

    def test_odd_matrix_sums_blocks(self):
        m = sq(CTX, [[T1, 1], [2, T2]], 1, 1, parity=Parity.ODD)
        assert m.supertrace() == T1 + T2

    def test_trace_of_product_symmetric(self):
        rng = random.Random(10)
        for _ in range(25):
            a = random_supermatrix(rng, CTX, (2, 1), (2, 1))
            b = random_supermatrix(rng, CTX, (2, 1), (2, 1))
            assert (a @ b).supertrace() == (b @ a).supertrace()

    def test_trace_kills_superbracket(self):
        rng = random.Random(12)
        dim = (1, 2)
        for pa in (Parity.EVEN, Parity.ODD):
            for pb in (Parity.EVEN, Parity.ODD):
                for _ in range(10):
                    a = random_supermatrix(rng, CTX, dim, dim, parity=pa)
                    b = random_supermatrix(rng, CTX, dim, dim, parity=pb)
                    assert not superbracket(a, b).supertrace()

    def test_non_square_rejected(self):
        m = random_supermatrix(random.Random(13), CTX, (2, 1), (1, 1))
        with pytest.raises(ValueError):
            m.supertrace()


class TestInvert:
    def test_scalar_unit(self):
        m = SuperMatrix(CTX, (1, 0), (1, 0), [[1 + T1 * T2]])
        assert m.invert() == SuperMatrix(CTX, (1, 0), (1, 0), [[1 - T1 * T2]])

    def test_identity(self):
        eye = SuperMatrix.identity(CTX, (2, 2))
        assert eye.invert() == eye

    def test_unipotent_even_block(self):
        t = CTX.var("t")
        m = sq(CTX, [[1, t], [0, 1]], 2, 0)
        inv = m.invert()
        assert inv == sq(CTX, [[1, -t], [0, 1]], 2, 0)

    def test_round_trip(self):
        rng = random.Random(14)
        eye = SuperMatrix.identity(CTX, (2, 2))
        for _ in range(15):
            m = random_invertible(rng, CTX, (2, 2))
            inv = m.invert()
            assert m @ inv == eye
            assert inv @ m == eye

    def test_polynomial_body_rejected(self):
        t = CTX.var("t")
        m = SuperMatrix(CTX, (1, 0), (1, 0), [[t]])
        with pytest.raises(NotInvertible, match="not constant"):
            m.invert()

    def test_singular_body_rejected(self):
        m = sq(CTX, [[1, 1], [1, 1]], 2, 0)
        with pytest.raises(NotInvertible, match="zero"):
            m.invert()

    def test_singular_t4_rejected(self):
        m = sq(CTX, [[1, T1], [T2, T1 * T2]], 1, 1)
        with pytest.raises(NotInvertible, match="T4"):
            m.invert()

    def test_odd_matrix_rejected(self):
        m = random_supermatrix(random.Random(15), CTX, (1, 1), (1, 1), parity=Parity.ODD)
        with pytest.raises(ParityError):
            m.invert()


class TestBerezinian:
    def test_rational_diagonal(self):
        m = sq(CTX, [[6, 0], [0, 3]], 1, 1)
        assert m.berezinian() == 2

    def test_frozen_1x1(self):
        m = sq(CTX, [[2, T1], [T2, 1]], 1, 1)
        assert m.berezinian() == 2 - T1 * T2

    def test_dual_number_trace_rule(self):
        # Ber(I + eps T) = 1 + eps Tr(T) for a square-zero even scalar
        rng = random.Random(16)
        eps = T1 * T2
        for _ in range(20):
            t = random_supermatrix(rng, CTX, (2, 1), (2, 1))
            m = SuperMatrix.identity(CTX, (2, 1)) + eps * t
            assert m.berezinian() == 1 + eps * t.supertrace()

    def test_formulas_agree(self):
        rng = random.Random(17)
        for _ in range(15):
            m = random_invertible(rng, CTX, (2, 1))
            assert m.berezinian(formula="primary") == m.berezinian(formula="alternate")

    def test_multiplicative(self):
        rng = random.Random(18)
        for _ in range(10):
            s = random_invertible(rng, CTX, (1, 2))
            t = random_invertible(rng, CTX, (1, 2))
            assert (s @ t).berezinian() == s.berezinian() * t.berezinian()

    def test_inverse_has_reciprocal_berezinian(self):
        rng = random.Random(19)
        for _ in range(10):
            m = random_invertible(rng, CTX, (2, 1))
            assert m.berezinian() * m.invert().berezinian() == 1

    def test_neither_block_invertible(self):
        m = sq(CTX, [[T1 * T2, T1], [T2, T1 * T2]], 1, 1)
        with pytest.raises(NeitherBlockInvertible):
            m.berezinian()
        assert issubclass(NeitherBlockInvertible, NotInvertible)

    def test_explicit_formula_disagrees_with_bad_block(self):
        # T4 body singular: the primary formula has nothing to invert
        m = sq(CTX, [[1, T1], [T2, T1 * T2]], 1, 1)
        with pytest.raises(NotInvertible):
            m.berezinian(formula="primary")

    def test_unknown_formula_name(self):
        m = SuperMatrix.identity(CTX, (1, 1))
        with pytest.raises(ValueError):
            m.berezinian(formula="schur")

    def test_odd_matrix_rejected(self):
        m = random_supermatrix(random.Random(20), CTX, (1, 1), (1, 1), parity=Parity.ODD)
        with pytest.raises(ParityError):
            m.berezinian()

    def test_purely_odd_dims_invert_the_determinant(self):
        # 0|q: Ber is 1/det(T4), here 1/(2 + ab) = 1/2 - ab/4
        ab = Context(even=[], odd=["a", "b"])
        a, b = ab.var("a"), ab.var("b")
        m = sq(ab, [[2 + a * b, 0], [0, 1]], 0, 2)
        assert m.berezinian() == Fraction(1, 2) - Fraction(1, 4) * a * b

    @pytest.mark.parametrize("entry", ["ab", "t"])
    def test_purely_odd_dims_need_an_invertible_body(self, entry):
        ctx = Context(even=["t"], odd=["a", "b"])
        e = ctx.var("a") * ctx.var("b") if entry == "ab" else ctx.var("t")
        m = sq(ctx, [[e]], 0, 1)
        with pytest.raises(NotInvertible, match="T4"):
            m.berezinian()

    def test_alternate_formula_reports_singular_t4(self):
        # T1 inverts, but T4 - T3 T1^{-1} T2 = 2*theta1*theta2 has zero body
        m = sq(CTX, [[1, T1], [T2, T1 * T2]], 1, 1)
        with pytest.raises(NotInvertible, match="T4"):
            m.berezinian(formula="alternate")


class TestElementaryDecomposition:
    def test_frozen_1x1(self):
        m = sq(CTX, [[2, T1], [T2, 1]], 1, 1)
        plus, zero, minus = m.elementary_decomposition()
        assert plus.entry(0, 1) == T1
        assert zero.entry(0, 0) == 2 - T1 * T2
        assert zero.entry(1, 1) == 1
        assert minus.entry(1, 0) == T2
        assert plus @ zero @ minus == m

    def test_block_diagonal_is_fixed(self):
        m = sq(CTX, [[3, 0], [0, 2]], 1, 1)
        plus, zero, minus = m.elementary_decomposition()
        eye = SuperMatrix.identity(CTX, (1, 1))
        assert plus == eye
        assert minus == eye
        assert zero == m

    def test_reassembles_random(self):
        rng = random.Random(21)
        for _ in range(10):
            m = random_invertible(rng, CTX, (2, 2))
            plus, zero, minus = m.elementary_decomposition()
            assert plus @ zero @ minus == m

    @pytest.mark.parametrize("p, q", [(2, 0), (0, 2)])
    def test_reassembles_with_an_empty_block(self, p, q):
        ab = Context(even=[], odd=["a", "b"])
        m = sq(ab, [[2, 1], [1, 1]], p, q)
        plus, zero, minus = m.elementary_decomposition()
        assert plus @ zero @ minus == m

    def test_triangular_factors_have_unit_berezinian(self):
        rng = random.Random(22)
        for _ in range(5):
            m = random_invertible(rng, CTX, (2, 1))
            plus, zero, minus = m.elementary_decomposition()
            assert plus.berezinian() == 1
            assert minus.berezinian() == 1
            assert m.berezinian() == zero.berezinian()


class TestSrank:
    def test_identity(self):
        assert SuperMatrix.identity(CTX, (3, 2)).srank() == SuperDim(3, 2)

    def test_zero(self):
        assert SuperMatrix.zeros(CTX, (2, 2), (2, 2)).srank() == SuperDim(0, 0)

    def test_frozen_rank_deficient(self):
        rows = [
            [1, 2, T1, T2],
            [2, 4, T2, T1],
            [T1, T2, 1, 0],
            [T2, T1, 0, 1],
        ]
        m = sq(CTX, rows, 2, 2)
        assert m.srank() == SuperDim(1, 2)

    def test_matches_brute_force(self):
        rng = random.Random(23)
        for _ in range(10):
            dims = (rng.randint(1, 3), rng.randint(1, 3))
            m = random_supermatrix(rng, GRASS, dims, dims)
            assert m.srank() == brute_srank(m)

    def test_non_constant_body(self):
        t = CTX.var("t")
        m = SuperMatrix(CTX, (1, 0), (1, 0), [[t]])
        with pytest.raises(NonConstantBody):
            m.srank()


class TestPiReverse:
    def test_swap(self):
        assert pi_reverse(SuperDim(2, 3)) == SuperDim(3, 2)

    def test_zero(self):
        assert pi_reverse(SuperDim(0, 0)) == SuperDim(0, 0)

    def test_involution(self):
        rng = random.Random(24)
        for _ in range(20):
            d = SuperDim(rng.randint(0, 9), rng.randint(0, 9))
            assert pi_reverse(pi_reverse(d)) == d


class TestSupertranspose:
    def test_shape_swaps(self):
        m = random_supermatrix(random.Random(25), CTX, (2, 1), (1, 2))
        st = m.supertranspose()
        assert st.source == SuperDim(1, 2)
        assert st.target == SuperDim(2, 1)

    def test_even_product_reverses(self):
        rng = random.Random(26)
        for _ in range(15):
            a = random_supermatrix(rng, CTX, (1, 1), (2, 1))
            b = random_supermatrix(rng, CTX, (2, 2), (1, 1))
            assert (a @ b).supertranspose() == b.supertranspose() @ a.supertranspose()

    def test_koszul_sign_for_odd_pairs(self):
        rng = random.Random(27)
        dim = (1, 1)
        for pa in (Parity.EVEN, Parity.ODD):
            for pb in (Parity.EVEN, Parity.ODD):
                for _ in range(10):
                    a = random_supermatrix(rng, CTX, dim, dim, parity=pa)
                    b = random_supermatrix(rng, CTX, dim, dim, parity=pb)
                    lhs = (a @ b).supertranspose()
                    rhs = b.supertranspose() @ a.supertranspose()
                    if pa is Parity.ODD and pb is Parity.ODD:
                        rhs = -rhs
                    assert lhs == rhs

    def test_preserves_supertrace(self):
        rng = random.Random(28)
        for parity in (Parity.EVEN, Parity.ODD):
            for _ in range(10):
                m = random_supermatrix(rng, CTX, (2, 1), (2, 1), parity=parity)
                assert m.supertranspose().supertrace() == m.supertrace()

    def test_order_four(self):
        rng = random.Random(29)
        for parity in (Parity.EVEN, Parity.ODD):
            m = random_supermatrix(rng, CTX, (2, 1), (2, 1), parity=parity)
            four = m
            for _ in range(4):
                four = four.supertranspose()
            assert four == m


class TestSuperbracket:
    def test_even_even_is_commutator(self):
        rng = random.Random(30)
        a = random_supermatrix(rng, CTX, (1, 1), (1, 1))
        b = random_supermatrix(rng, CTX, (1, 1), (1, 1))
        assert superbracket(a, b) == a @ b - b @ a

    def test_odd_odd_is_anticommutator(self):
        rng = random.Random(31)
        a = random_supermatrix(rng, CTX, (1, 1), (1, 1), parity=Parity.ODD)
        b = random_supermatrix(rng, CTX, (1, 1), (1, 1), parity=Parity.ODD)
        assert superbracket(a, b) == a @ b + b @ a

    def test_super_antisymmetry(self):
        # [a, b] = -(-1)^{|a||b|} [b, a]
        rng = random.Random(32)
        dim = (1, 1)
        for pa in (Parity.EVEN, Parity.ODD):
            for pb in (Parity.EVEN, Parity.ODD):
                a = random_supermatrix(rng, CTX, dim, dim, parity=pa)
                b = random_supermatrix(rng, CTX, dim, dim, parity=pb)
                back = superbracket(b, a)
                if pa is Parity.ODD and pb is Parity.ODD:
                    assert superbracket(a, b) == back
                else:
                    assert superbracket(a, b) == -back

    @pytest.mark.parametrize("a, b, error, message", [
        (SuperMatrix.zeros(CTX, (1, 1), (1, 1)), SuperMatrix.zeros(GRASS, (1, 1), (1, 1)),
         ContextMismatch, "matrices live in different contexts"),
        # a context mismatch is reported before shapes that compose neither way
        (SuperMatrix.zeros(CTX, (2, 1), (2, 1)), SuperMatrix.zeros(GRASS, (1, 2), (1, 1)),
         ContextMismatch, "matrices live in different contexts"),
        # a.source != b.target, as a @ b reports it
        (SuperMatrix.zeros(CTX, (2, 1), (2, 1)), SuperMatrix.zeros(CTX, (2, 1), (1, 1)),
         ValueError, "cannot compose 2|1<-2|1 with 1|1<-2|1"),
        # ... also when b.source != a.target
        (SuperMatrix.zeros(CTX, (2, 1), (2, 1)), SuperMatrix.zeros(CTX, (1, 2), (1, 1)),
         ValueError, "cannot compose 2|1<-2|1 with 1|1<-1|2"),
        # b.source != a.target, as b @ a reports it
        (SuperMatrix.zeros(CTX, (1, 1), (2, 1)), SuperMatrix.zeros(CTX, (1, 2), (1, 1)),
         ValueError, "cannot compose 1|1<-1|2 with 2|1<-1|1"),
        # p|q -> r|s and r|s -> p|q compose both ways, to different shapes
        (SuperMatrix.zeros(CTX, (2, 1), (1, 1)), SuperMatrix.zeros(CTX, (1, 1), (2, 1)),
         ValueError, "matrix shapes differ"),
        (SuperMatrix.zeros(CTX, (0, 2), (1, 0), Parity.ODD),
         SuperMatrix.zeros(CTX, (1, 0), (0, 2), Parity.ODD),
         ValueError, "matrix shapes differ"),
        (SuperMatrix.identity(CTX, (1, 1)), 3,
         TypeError, "unsupported operand type(s) for @: 'SuperMatrix' and 'int'"),
        (Fraction(1, 2), SuperMatrix.identity(CTX, (1, 1)),
         TypeError, "unsupported operand type(s) for @: 'Fraction' and 'SuperMatrix'"),
        (SuperMatrix.identity(CTX, (1, 1)).rows, SuperMatrix.identity(CTX, (1, 1)),
         TypeError, "unsupported operand type(s) for @: 'tuple' and 'SuperMatrix'"),
    ])
    def test_refusals_keep_their_types_messages_and_order(self, a, b, error, message):
        with pytest.raises(error) as raised:
            superbracket(a, b)
        assert type(raised.value) is error
        assert str(raised.value) == message


class TestAddSub:
    def test_parity_mismatch(self):
        even = SuperMatrix.identity(CTX, (1, 1))
        odd = random_supermatrix(random.Random(33), CTX, (1, 1), (1, 1), parity=Parity.ODD)
        with pytest.raises(ParityError):
            even + odd

    def test_add_then_subtract(self):
        rng = random.Random(34)
        a = random_supermatrix(rng, CTX, (2, 1), (1, 2))
        b = random_supermatrix(rng, CTX, (2, 1), (1, 2))
        assert (a + b) - b == a


class TestRendering:
    def test_str_header_and_rows(self):
        m = sq(CTX, [[2, T1], [T2, 1]], 1, 1)
        text = str(m)
        lines = text.splitlines()
        assert lines[0] == "dims 1|1 -> 1|1"
        assert lines[1] == "[2, theta1]"
        assert lines[2] == "[theta2, 1]"

    def test_odd_tagged(self):
        m = sq(CTX, [[T1, 1], [2, T2]], 1, 1, parity=Parity.ODD)
        assert "parity odd" in str(m).splitlines()[0]

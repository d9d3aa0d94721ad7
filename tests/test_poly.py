"""Core ring tests: sign-tracked normalization, products, parity, partials.

Expected values for the worked cases were computed by hand from the sign
rule (theta_i theta_j = -theta_j theta_i, theta_i^2 = 0) before the
implementation existed; the loops re-check them against independent
expansions on random data.
"""

import copy
import gc
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from helpers import one_column, poly, random_poly, random_rational_poly
from model import Monomial, UNIT_MONOMIAL, coefficient, from_terms, sort_word, terms_of
from oracles import reference_parity
from supergeom import (
    Context,
    ContextMismatch,
    LimitExceeded,
    Parity,
    ParityError,
    RationalPoint,
    SuperPoly,
)
from supergeom.poly import MAX_EXPONENT, MAX_FIELD_EXPONENT
from supergeom.serialize import to_json

T2 = Context(even=["t1", "t2"], odd=["theta1", "theta2"])
T3 = Context(even=["t"], odd=["theta1", "theta2", "theta3"])


class TestNormalizeOddWord:
    """The sorting of an odd word with its Koszul sign, as the tests' model
    counts it (tests/model.py's sort_word)."""

    def test_swap_costs_a_sign(self):
        assert sort_word([2, 1]) == (-1, (1, 2))

    def test_repeat_is_zero(self):
        assert sort_word([1, 1]) == (0, ())

    def test_empty_word_is_unit(self):
        assert sort_word([]) == (1, ())

    def test_sign_counts_inversions(self):
        # 3,2,1 -> 1,2,3 needs three transpositions
        assert sort_word([3, 2, 1]) == (-1, (1, 2, 3))
        assert sort_word([2, 3, 1]) == (1, (1, 2, 3))

    def test_interior_repeat_is_zero(self):
        assert sort_word([2, 1, 2]) == (0, ())


def test_context_names_list_even_then_odd():
    assert T2.names == ("t1", "t2", "theta1", "theta2")
    assert Context(odd=["a"]).names == ("a",)
    assert Context().names == ()
    assert [T3.lookup(n) for n in T3.names] == [(False, 0), (True, 0), (True, 1), (True, 2)]


class TestMul:
    def test_ordered_product(self):
        th1, th2 = T2.var("theta1"), T2.var("theta2")
        assert th1 * th2 == poly(T2, [(1, [], ["theta1", "theta2"])])

    def test_swapped_product_flips_sign(self):
        th1, th2 = T2.var("theta1"), T2.var("theta2")
        assert th2 * th1 == -(th1 * th2)

    def test_square_of_even_nilpotent(self):
        one = T2.one()
        th12 = T2.var("theta1") * T2.var("theta2")
        # (1 + theta1 theta2)^2 = 1 + 2 theta1 theta2, since (theta1 theta2)^2 = 0
        assert (one + th12) * (one + th12) == one + 2 * th12

    def test_odd_square_is_zero(self):
        th1 = T2.var("theta1")
        assert (th1 * th1).is_zero()

    def test_context_mismatch_rejected(self):
        with pytest.raises(ContextMismatch):
            T2.var("t1") * T3.var("t")

    def test_sign_rule_on_random_homogeneous_pairs(self):
        rng = random.Random(7)
        for _ in range(100):
            pa = Parity.EVEN if rng.random() < 0.5 else Parity.ODD
            pb = Parity.EVEN if rng.random() < 0.5 else Parity.ODD
            a = random_poly(rng, T3, parity=pa)
            b = random_poly(rng, T3, parity=pb)
            sign = -1 if (pa is Parity.ODD and pb is Parity.ODD) else 1
            assert a * b == (b * a) * sign

    def test_associativity_and_distributivity(self):
        rng = random.Random(11)
        for _ in range(50):
            a = random_poly(rng, T3)
            b = random_poly(rng, T3)
            c = random_poly(rng, T3)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_exponent_at_the_cap_is_computed(self):
        assert str(T3.var("t") ** MAX_EXPONENT) == f"t^{MAX_EXPONENT}"

    def test_exponent_above_the_cap_is_refused(self):
        with pytest.raises(LimitExceeded):
            T3.var("t") ** (MAX_EXPONENT + 1)

    def test_unit_is_neutral(self):
        rng = random.Random(13)
        a = random_poly(rng, T2)
        assert a * T2.one() == a
        assert T2.one() * a == a


class TestParity:
    def test_even_pair(self):
        th12 = T2.var("theta1") * T2.var("theta2")
        assert th12.parity() is Parity.EVEN

    def test_even_variable(self):
        assert T2.var("t1").parity() is Parity.EVEN

    def test_mixed(self):
        assert (T2.var("t1") + T2.var("theta1")).parity() is Parity.MIXED

    def test_zero_is_even(self):
        assert T2.zero().parity() is Parity.EVEN

    @pytest.mark.parametrize("p,q", itertools.product(range(4), repeat=2))
    def test_matches_the_set_oracle(self, p, q):
        # parity() stops at the first term whose odd degree differs from
        # the first term's; the oracle collects every term's
        ctx = Context(even=[f"t{i}" for i in range(p)], odd=[f"a{j}" for j in range(q)])
        rng = random.Random(100 * p + q)
        polys = [ctx.zero(), ctx.one()]
        for _ in range(30):
            polys.append(random_poly(rng, ctx, n_terms=rng.randint(1, 6)))
            polys.append(random_poly(rng, ctx, Parity.EVEN, n_terms=rng.randint(1, 6)))
            if q:
                polys.append(random_poly(rng, ctx, Parity.ODD, n_terms=rng.randint(1, 6)))
        if q:
            # one odd term among even ones, second and last in term order
            even = [Monomial(((i, 1),), 0) for i in range(p)] + [UNIT_MONOMIAL]
            odd = Monomial((), 1)
            for terms in ([even[0], odd] + even[1:], even + [odd]):
                f = from_terms(ctx, [(m, 1) for m in terms])
                assert list(terms_of(f)) == terms
                polys += [f, -f]
        for f in polys:
            assert f.parity() is reference_parity(f)
            for parity in Parity:
                assert f.has_parity(parity) is (not f or reference_parity(f) is parity)
        assert {reference_parity(f) for f in polys} == (
            set(Parity) if q else {Parity.EVEN})

    def test_add_and_flip_on_every_pair(self):
        grades = {Parity.EVEN: 0, Parity.ODD: 1}
        for a, b in itertools.product(Parity, repeat=2):
            if Parity.MIXED in (a, b):
                with pytest.raises(ValueError, match="cannot add MIXED parities"):
                    a + b
            else:
                assert a + b is Parity((grades[a] + grades[b]) % 2)
        assert Parity.EVEN.flipped() is Parity.ODD
        assert Parity.ODD.flipped() is Parity.EVEN
        with pytest.raises(ValueError, match="cannot flip MIXED parity"):
            Parity.MIXED.flipped()


class TestBody:
    def test_drops_odd_terms(self):
        f = poly(
            T2,
            [
                (3, [], []),
                (1, [("t1", 1)], ["theta1", "theta2"]),
                (1, [], ["theta1"]),
            ],
        )
        assert f.body() == T2.scalar(3)

    def test_identity_on_even_only(self):
        f = poly(T2, [(1, [("t1", 2)], []), (5, [], [])])
        assert f.body() == f

    def test_chart_assignment(self):
        t = T3.var("t")
        f = t + T3.var("theta1") * T3.var("theta2")
        assert f.body() == t

    def test_body_is_a_homomorphism(self):
        rng = random.Random(17)
        for _ in range(50):
            a = random_poly(rng, T3)
            b = random_poly(rng, T3)
            assert (a * b).body() == a.body() * b.body()


class TestBodyValue:
    def test_constant_bodies_read_as_rationals(self):
        theta1, theta2 = T3.var("theta1"), T3.var("theta2")
        assert T3.zero()._body_value() == 0
        assert T3.scalar(-4)._body_value() == -4
        assert type(T3.scalar(-4)._body_value()) is int
        assert T3.scalar(Fraction(5, 6))._body_value() == Fraction(5, 6)
        assert (3 + theta1 * theta2)._body_value() == 3
        # the body of a polynomial over den 2 may be whole on its own
        assert (3 + theta1 * theta2 / 2)._body_value() == 3
        assert type((3 + theta1 * theta2 / 2)._body_value()) is int
        assert (T3.var("t") * theta1 * theta2)._body_value() == 0

    def test_a_body_with_an_even_generator_reads_none(self):
        assert (T3.var("t") + 1)._body_value() is None
        assert (T3.var("t") + T3.var("theta1") * T3.var("theta2"))._body_value() is None

    def test_agrees_with_body(self):
        rng = random.Random(18)
        for _ in range(100):
            f = random_rational_poly(rng, T2, max_even_deg=rng.choice([0, 2]))
            b = f.body()
            assert f._body_value() == (b.constant_term() if b.is_constant() else None)


class TestOddDegreeParts:
    CTXS = [T2, T3, Context(even=["x", "y"], odd=[f"theta{i}" for i in range(1, 7)])]

    def test_parts_partition_and_sum_back(self):
        rng = random.Random(1700)
        for ctx in self.CTXS:
            for _ in range(60):
                f = random_rational_poly(rng, ctx, n_terms=rng.randint(0, 8))
                parts = f.odd_degree_parts()
                seen = set()
                for e, part in parts.items():
                    assert part, "a part is never zero"
                    # one odd degree per part, every term kept with its coefficient
                    assert {len(mono.odd) for mono in terms_of(part)} == {e}
                    for mono, c in terms_of(part).items():
                        assert terms_of(f)[mono] == c
                    seen |= set(terms_of(part))
                    # reduced: the canonical form of its own terms
                    assert part == from_terms(ctx, terms_of(part))
                assert seen == set(terms_of(f))
                assert sum(len(part) for part in parts.values()) == len(f)
                assert sum(parts.values(), ctx.zero()) == f

    def test_zero_has_no_parts(self):
        assert T3.zero().odd_degree_parts() == {}

    def test_each_part_is_reduced_on_its_own(self):
        th1, th2, th3 = (T3.var(f"theta{i}") for i in range(1, 4))
        t = T3.var("t")
        f = t / 6 + th1 / 2 + th1 * th2 * th3 / 3
        assert f.den == 6
        parts = f.odd_degree_parts()
        assert parts == {0: t / 6, 1: th1 / 2, 3: th1 * th2 * th3 / 3}
        assert [parts[e].den for e in (0, 1, 3)] == [6, 2, 3]

    def test_a_single_degree_is_the_polynomial_itself(self):
        f = T3.var("t") * T3.var("theta1") * T3.var("theta2") - 4 * T3.var("theta2") * T3.var("theta3")
        assert f.odd_degree_parts() == {2: f}


class TestPartial:
    def test_leading_odd_variable(self):
        th12 = T3.var("theta1") * T3.var("theta2")
        assert th12.partial("theta1") == T3.var("theta2")

    def test_interior_odd_variable_costs_a_sign(self):
        th12 = T3.var("theta1") * T3.var("theta2")
        assert th12.partial("theta2") == -T3.var("theta1")

    def test_even_partial(self):
        t = T3.var("t")
        assert (t * t).partial("t") == 2 * t

    def test_missing_variable_gives_zero(self):
        assert T3.var("theta1").partial("theta2").is_zero()

    def test_odd_partials_anticommute(self):
        rng = random.Random(19)
        for _ in range(30):
            f = random_poly(rng, T3, n_terms=4)
            ab = f.partial("theta1").partial("theta2")
            ba = f.partial("theta2").partial("theta1")
            assert ab == -ba

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            T3.var("t").partial("nope")

    def test_euler_identity_ties_partial_signs_to_products(self):
        # sum over generators n of n * d/dn p scales each term c*m by its
        # even degree plus its odd word length; for an odd n this holds
        # only if the left-derivative sign of partial undoes the sign the
        # product theta_n * (d/dn p) picks up in the sum
        ctx = Context(even=["x", "y"], odd=[f"theta{i}" for i in range(1, 7)])
        names = ctx.even + ctx.odd
        rng = random.Random(23)
        for _ in range(200):
            p = random_poly(rng, ctx, n_terms=4)
            (lhs,) = one_column(ctx, [(ctx.var(n), p.partial(n)) for n in names])
            rhs = from_terms(ctx, {
                m: (m.even_degree + len(m.odd)) * c for m, c in terms_of(p).items()
            })
            assert lhs == rhs


class TestOddMask:
    CTX = Context(odd=[f"theta{i}" for i in range(1, 7)])

    def test_odd_word_round_trips_through_the_mask(self):
        for k in range(7):
            for word in itertools.combinations(range(6), k):
                p = self.CTX.one()
                for j in word:
                    p = p * self.CTX.var(f"theta{j + 1}")
                ((mono, c),) = terms_of(p).items()
                assert c == 1
                assert mono.odd == word
                assert mono.mask == sum(1 << j for j in word)
                assert Monomial((), mono.mask).odd == word


class TestMonomialConstructor:
    """The tests' Monomial(even, mask) (tests/model.py) is canonical:
    equal monomials built from any spelling of the pairs compare, hash and
    print equal, and spellings that would name no monomial are refused."""

    XY = Context(even=["x", "y"])

    def test_pairs_in_any_order(self):
        x, y = self.XY.var("x"), self.XY.var("y")
        p = from_terms(self.XY, {Monomial(((1, 1), (0, 1)), 0): 1})
        assert str(p) == "x*y"
        assert p == x * y
        assert Monomial(((1, 2), (0, 3)), 5) == Monomial(((0, 3), (1, 2)), 5)
        assert Monomial(((1, 2), (0, 3)), 0).even == ((0, 3), (1, 2))

    def test_zero_exponent_refused(self):
        with pytest.raises(ValueError):
            Monomial(((0, 0),), 0)

    def test_repeated_index_refused(self):
        with pytest.raises(ValueError):
            Monomial(((0, 1), (0, 1)), 0)
        with pytest.raises(ValueError):
            Monomial(((1, 2), (0, 1), (1, 3)), 0)

    @pytest.mark.parametrize("e", [-1, Fraction(1), 1.0, True, "1",
                                   MAX_FIELD_EXPONENT + 1])
    def test_bad_exponent_refused(self, e):
        with pytest.raises(ValueError):
            Monomial(((0, e),), 0)

    @pytest.mark.parametrize("i", [-1, 1.0, True])
    def test_bad_index_refused(self, i):
        with pytest.raises(ValueError):
            Monomial(((i, 1),), 0)

    @pytest.mark.parametrize("mask", [-1, 1.0, None])
    def test_bad_mask_refused(self, mask):
        with pytest.raises(ValueError):
            Monomial((), mask)

    def test_largest_exponent_kept(self):
        mono = Monomial(((1, MAX_FIELD_EXPONENT),), 0)
        assert mono.even == ((1, MAX_FIELD_EXPONENT),)
        assert mono.even_degree == MAX_FIELD_EXPONENT

    def test_repr_copy_and_pickle_keep_the_monomial(self):
        mono = Monomial(((2, 7), (0, 1)), 0b101)
        assert repr(mono) == "Monomial(even=((0, 1), (2, 7)), mask=5)"
        assert copy.deepcopy(mono) == mono
        back = pickle.loads(pickle.dumps(mono))
        assert type(back) is Monomial and back == mono


class TestMonomialOutsideTheContext:
    """A Monomial does not know its context, so the model's constructor
    and readers check each one against the polynomial's: an index past the
    context's generators is refused on the way in and is never a key of
    the terms view."""

    X_TH = Context(even=["x"], odd=["th"])
    # even generator 1 and odd generator 1 of a 1|1 context do not exist
    OUTSIDE = [Monomial(((1, 1),), 0), Monomial((), 0b10),
               Monomial(((0, 2), (3, 1)), 0b1), Monomial(((0, 1),), 0b11)]

    @pytest.mark.parametrize("mono", OUTSIDE, ids=repr)
    def test_constructor_refuses(self, mono):
        with pytest.raises(ValueError, match="context has 1"):
            from_terms(self.X_TH, {mono: 1})
        with pytest.raises(ValueError, match="context has 1"):
            from_terms(self.X_TH, [(UNIT_MONOMIAL, 2), (mono, 1)])

    @pytest.mark.parametrize("mono", OUTSIDE, ids=repr)
    def test_coefficient_refuses(self, mono):
        with pytest.raises(ValueError, match="context has 1"):
            coefficient(self.X_TH.var("th"), mono)

    @pytest.mark.parametrize("mono", OUTSIDE, ids=repr)
    def test_terms_view_has_no_such_key(self, mono):
        ctx = self.X_TH
        x, th = ctx.var("x"), ctx.var("th")
        p = 3 + x * x * th + th + x
        assert mono not in p.terms
        with pytest.raises(KeyError):
            p.terms[mono]

    def test_an_even_index_past_the_fields_is_not_an_odd_generator(self):
        # x_1 would sit where theta_0 sits in a monomial code of a 1|1
        # context; it must not read as th
        th = self.X_TH.var("th")
        x1 = Monomial(((1, 1),), 0)
        assert x1 not in terms_of(th)
        assert terms_of(th) == {Monomial((), 1): 1}
        with pytest.raises(ValueError):
            coefficient(th, x1)

    def test_keys_that_are_no_monomial(self):
        p = self.X_TH.var("x")
        assert (1, 0) not in p.terms
        assert "x" not in p.terms
        with pytest.raises(KeyError):
            p.terms[(1, 0)]
        with pytest.raises(TypeError):
            from_terms(self.X_TH, {(1, 0): 1})

    def test_json_never_sees_an_outside_index(self):
        ctx = self.X_TH
        p = from_terms(ctx, {Monomial(((0, 2),), 1): Fraction(1, 2)})
        data = to_json(p)
        assert data["terms"] == [{"coeff": "1/2", "even": [[1, 2]], "odd": [1]}]


class TestEvaluation:
    def test_odd_terms_vanish(self):
        f = poly(T2, [(2, [("t1", 2)], []), (7, [], ["theta1"])])
        assert f.at(T2.point([3, 0])) == 18

    def test_fraction_exactness(self):
        f = poly(T2, [(Fraction(1, 3), [("t1", 1), ("t2", 1)], [])])
        assert f.at(T2.point([Fraction(1, 2), Fraction(3, 5)])) == Fraction(1, 10)


class TestExactScalars:
    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            SuperPoly.scalar(T2, 0.1)
        with pytest.raises(TypeError):
            T2.scalar(0.5)
        with pytest.raises(TypeError):
            from_terms(T2, {UNIT_MONOMIAL: 0.5})
        with pytest.raises(TypeError):
            RationalPoint(T2, [0.5, 1])

    def test_constants_hash_like_their_value(self):
        assert {T2.scalar(3): 1}[3] == 1
        assert hash(T2.zero()) == hash(0)
        assert hash(T3.scalar(Fraction(-2, 7))) == hash(Fraction(-2, 7))


class TestRendering:
    def test_canonical_order_and_signs(self):
        t = T3.var("t")
        th12 = T3.var("theta1") * T3.var("theta2")
        f = t * t + 2 * t * th12
        assert str(f) == "t^2 + 2*t*theta1*theta2"

    def test_constant_first_within_same_even_degree(self):
        f = T2.one() + 2 * T2.var("theta1") * T2.var("theta2")
        assert str(f) == "1 + 2*theta1*theta2"

    def test_negative_leading_term(self):
        f = -T2.var("t1") + T2.scalar(1)
        assert str(f) == "-t1 + 1"

    def test_fraction_coefficients(self):
        f = T2.var("t1") * Fraction(1, 2)
        assert str(f) == "1/2*t1"

    def test_zero(self):
        assert str(T2.zero()) == "0"

    def test_odd_words_print_in_lex_order_not_mask_order(self):
        # theta1*theta3 has mask 5 and theta2 mask 2: the index words sort
        # theta1*theta3 first, their masks and insertion order would not
        th1, th2, th3 = (T3.var(f"theta{i}") for i in (1, 2, 3))
        f = th2 + th1 * th3
        assert str(f) == "theta1*theta3 + theta2"
        assert [t["odd"] for t in to_json(f)["terms"]] == [[1, 3], [2]]


class TestSubstitute:
    def test_chart_pullback_shape(self):
        # t -> t + theta1*theta2 sends f(t) to f + theta1*theta2*f'
        t = T3.var("t")
        images = {"t": t + T3.var("theta1") * T3.var("theta2")}
        for f, fprime in [(t, T3.one()), (t**2, 2 * t), (t**3, 3 * t**2)]:
            got = f.substitute(T3, images)
            assert got == f + T3.var("theta1") * T3.var("theta2") * fprime

    def test_parity_violation_rejected(self):
        with pytest.raises(ParityError):
            T3.var("theta1").substitute(T3, {"theta1": T3.var("t")})

    def test_missing_image_rejected(self):
        with pytest.raises(ValueError, match="no image for generator 'theta2'"):
            (T3.var("t") * T3.var("theta2")).substitute(T3, {"t": T3.var("t")})

    def test_each_image_is_read_and_checked_once(self, monkeypatch):
        # t^2 + t^3 + t*a meets t at three exponents, but looks its image
        # up and checks its parity once, and a's once
        ctx = Context(even=["t"], odd=["a"])
        t, a = ctx.var("t"), ctx.var("a")
        f = t**2 + t**3 + t * a
        checks = []
        has_parity = SuperPoly.has_parity

        def counted(p, parity):
            checks.append(parity)
            return has_parity(p, parity)

        monkeypatch.setattr(SuperPoly, "has_parity", counted)
        images = {"t": t + 1, "a": 2 * a}
        assert f.substitute(ctx, images) == (t + 1)**2 + (t + 1)**3 + (t + 1) * 2 * a
        assert checks == [Parity.EVEN, Parity.ODD]
        # an odd image for t is refused when t^3 first reads it, in the
        # same words as at exponent 1
        for g in (t**3, f):
            with pytest.raises(ParityError) as err:
                g.substitute(ctx, {"t": a, "a": a})
            assert str(err.value) == "image of even generator 't' is not even"

    def test_a_substitution_leaves_no_garbage(self):
        # the memo of image powers holds no reference cycle, so it and its
        # powers are freed with the call, not by the cyclic collector
        t, a = T3.var("t"), T3.var("theta1")
        f = t**3 + t**2 * a + a * T3.var("theta2")
        images = {"t": t + a * T3.var("theta3"), "theta1": 2 * a, "theta2": t * a}
        gc.collect()
        gc.disable()
        try:
            got = f.substitute(T3, images)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert got == (t + a * T3.var("theta3"))**3 + (t + a * T3.var("theta3"))**2 * 2 * a

    def test_vanished_product_reads_no_further_image(self):
        # theta1*theta2 -> eta*eta = 0 before theta3's image is needed
        line = Context(odd=["eta"])
        eta = line.var("eta")
        f = T3.var("theta1") * T3.var("theta2") * T3.var("theta3") + T3.var("theta1")
        assert f.substitute(line, {"theta1": eta, "theta2": eta}) == eta

    @pytest.mark.parametrize("coeff", [1, -3, Fraction(5, 7)])
    def test_zero_first_image_reads_no_further_image(self, coeff):
        # t -> 0 kills t*a*b before a's image is needed, at any numerator
        # and den of the term; a read of a or b would raise ValueError
        ctx = Context(even=["t"], odd=["a", "b"])
        d = Context(even=["s"], odd=["c"])
        f = coeff * ctx.var("t") * ctx.var("a") * ctx.var("b")
        assert f.substitute(d, {"t": d.zero()}) == d.zero()
        assert (f + ctx.var("t")).substitute(d, {"t": d.zero()}) == d.zero()

    def test_docstring_case_reads_no_image_for_b(self):
        # (t*a*b).substitute(d, {t: s, a: 0}) is 0 with no image for b
        ctx = Context(even=["t"], odd=["a", "b"])
        d = Context(even=["s"], odd=["c"])
        s = d.var("s")
        f = ctx.var("t") * ctx.var("a") * ctx.var("b")
        assert f.substitute(d, {"t": s, "a": d.zero()}) == d.zero()
        g = f + 2 * ctx.var("t") ** 2
        assert g.substitute(d, {"t": s, "a": d.zero()}) == 2 * s**2
        with pytest.raises(ValueError, match="no image for generator 'b'"):
            f.substitute(d, {"t": s, "a": d.var("c")})

    def test_matches_term_by_term_expansion(self):
        # the image of each term is its coefficient times the product of
        # its generators' images, taken one factor at a time
        rng = random.Random(60)
        images = {
            "t1": random_poly(rng, T2, parity=Parity.EVEN),
            "t2": random_poly(rng, T2, parity=Parity.EVEN),
            "theta1": random_poly(rng, T2, parity=Parity.ODD),
            "theta2": random_poly(rng, T2, parity=Parity.ODD),
        }
        for _ in range(20):
            f = random_poly(rng, T2, n_terms=4)
            expect = T2.zero()
            for mono, c in f.terms.items():
                term = T2.scalar(c)
                for i, e in mono.even:
                    for _ in range(e):
                        term = term * images[T2.even[i]]
                for j in mono.odd:
                    term = term * images[T2.odd[j]]
                expect = expect + term
            assert f.substitute(T2, images) == expect

    def test_exponents_above_the_power_cap(self):
        # powers of an image are built by squaring, not by the capped **
        t = T3.var("t")
        ab = T3.var("theta1") * T3.var("theta2")

        def t_to(e):
            return from_terms(T3, {Monomial(((0, e),), 0): 1})

        for e in (1001, 2000, MAX_FIELD_EXPONENT):
            assert t_to(e).substitute(T3, {"t": t}) == t_to(e)
            # the chart shift: f + theta1*theta2*f'
            got = t_to(e).substitute(T3, {"t": t + ab})
            assert got == t_to(e) + e * ab * t_to(e - 1)
            # a nilpotent image squares to zero on the way
            assert t_to(e).substitute(T3, {"t": ab}) == 0
        assert t_to(2000).substitute(T3, {"t": 2 * t}) == 2**2000 * t_to(2000)

    def test_renaming(self):
        big = Context(even=["t", "tp"], odd=["theta", "thetap"])
        small = Context(even=["t"], odd=["theta"])
        f = big.var("t") * big.var("theta") * big.var("thetap")
        g = f.rename(big, {"t": "tp", "tp": "t", "theta": "thetap", "thetap": "theta"})
        assert g == big.var("tp") * big.var("thetap") * big.var("theta")
        assert g == -big.var("tp") * big.var("theta") * big.var("thetap")

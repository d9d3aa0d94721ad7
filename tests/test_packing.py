"""Packed even exponents and monomial codes against the forms they replaced.

A polynomial keys each monomial by one int code: the even part as
fixed-width exponent fields in the low bits and the odd mask above them,
so the product of two monomials is one addition and a guard bit per field
catches an exponent past MAX_FIELD_EXPONENT.  The oracle here is the
sorted-pair form: an even part as ((index, exponent), ...) by increasing
index, and merge_even, the two-pointer merge that multiplied those lists
before the packing.  Products, the even partial and even_degree of
seeded monomials are checked against it, in a 3-generator context and
in a 70-generator one whose packed ints span many machine words, with
exponents up to the largest a field holds.
"""

import itertools
import random
import re
from fractions import Fraction

import pytest

from helpers import one_column
from model import Monomial, coefficient, decode, encode, from_terms, sort_word, terms_of
from oracles import partials_quotient, substitution_rename
from supergeom import (
    Context,
    ContextMismatch,
    LimitExceeded,
)
from supergeom.groups import product_context
from supergeom.matrix import _gmul
from supergeom.poly import _FIELD_BITS, MAX_FIELD_EXPONENT

SMALL = Context(even=["x", "y", "z"], odd=["a", "b"])
WIDE = Context(even=[f"x{i}" for i in range(70)], odd=["a", "b", "c"])


def merge_even(a, b):
    """Add two sorted exponent lists."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ia, ea = a[i]
        ib, eb = b[j]
        if ia < ib:
            out.append(a[i])
            i += 1
        elif ia > ib:
            out.append(b[j])
            j += 1
        else:
            out.append((ia, ea + eb))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def random_pairs(rng, ctx, top):
    """Sorted (index, exponent) pairs on a random subset of the even
    generators, exponents in 1..top with top itself drawn often."""
    n = len(ctx.even)
    picked = sorted(rng.sample(range(n), rng.randint(0, min(n, 6))))
    return tuple((i, rng.choice((1, top, rng.randint(1, top)))) for i in picked)


def single(ctx, pairs, mask=0):
    """The one-term polynomial of a monomial, from pairs given in a
    shuffled order so the constructor's sorting takes part."""
    pairs = list(pairs)
    random.Random(len(pairs)).shuffle(pairs)
    return from_terms(ctx, {Monomial(pairs, mask): 1})


def only_monomial(p):
    ((mono, _),) = terms_of(p).items()
    return mono


@pytest.mark.parametrize("ctx", [SMALL, WIDE], ids=["3 even", "70 even"])
def test_products_match_the_merge_oracle(ctx):
    rng = random.Random(71)
    half = MAX_FIELD_EXPONENT // 2
    for _ in range(300):
        a, b = random_pairs(rng, ctx, half), random_pairs(rng, ctx, half + 1)
        mono = only_monomial(single(ctx, a) * single(ctx, b))
        assert mono.even == merge_even(a, b)
        assert mono.mask == 0


def test_sums_of_products_match_the_merge_oracle():
    rng = random.Random(72)
    top = MAX_FIELD_EXPONENT // 2
    pairs, want = [], {}
    for k in range(40):
        a, b = random_pairs(rng, WIDE, top), random_pairs(rng, WIDE, top)
        pairs.append((single(WIDE, a) * (k + 1), single(WIDE, b)))
        key = merge_even(a, b)
        want[key] = want.get(key, 0) + k + 1
    (total,) = one_column(WIDE, pairs)
    got = {mono.even: c for mono, c in terms_of(total).items()}
    assert got == {key: c for key, c in want.items() if c}


@pytest.mark.parametrize("ctx", [SMALL, WIDE], ids=["3 even", "70 even"])
def test_even_partial_matches_the_pair_form(ctx):
    rng = random.Random(73)
    for _ in range(200):
        pairs = random_pairs(rng, ctx, MAX_FIELD_EXPONENT)
        i = rng.choice([i for i, _ in pairs] or [0])
        got = single(ctx, pairs, mask=0b11).partial(ctx.even[i])
        exps = dict(pairs)
        e = exps.pop(i, 0)
        if not e:
            assert not got
            continue
        if e > 1:
            exps[i] = e - 1
        want = Monomial(tuple(sorted(exps.items())), 0b11)
        assert terms_of(got) == {want: e}
        assert only_monomial(got).even == tuple(sorted(exps.items()))


@pytest.mark.parametrize("ctx", [SMALL, WIDE], ids=["3 even", "70 even"])
def test_even_degree_and_view_match_the_pairs(ctx):
    rng = random.Random(74)
    for _ in range(200):
        pairs = random_pairs(rng, ctx, MAX_FIELD_EXPONENT)
        mask = rng.randrange(1 << len(ctx.odd))
        mono = only_monomial(single(ctx, pairs, mask=mask))
        assert mono.even == pairs
        assert mono.even_degree == sum(e for _, e in pairs)


def test_every_field_at_its_largest_value():
    top = tuple((i, MAX_FIELD_EXPONENT) for i in range(len(WIDE.even)))
    p = single(WIDE, top, mask=0b101)
    assert only_monomial(p).even == top
    assert only_monomial(p * WIDE.one()).even == top
    assert only_monomial(p * WIDE.var("b")).mask == 0b111
    last = p.partial("x69")
    assert terms_of(last) == {
        Monomial(top[:-1] + ((69, MAX_FIELD_EXPONENT - 1),), 0b101):
            MAX_FIELD_EXPONENT
    }
    assert str(p).startswith(f"x0^{MAX_FIELD_EXPONENT}*x1^{MAX_FIELD_EXPONENT}*")


@pytest.mark.parametrize("i", [0, 1, 34, 68, 69])
def test_field_overflow_raises_and_never_carries(i):
    name = WIDE.even[i]
    full = single(WIDE, ((i, MAX_FIELD_EXPONENT),))
    with pytest.raises(LimitExceeded, match=f"exponent of {name} is above"):
        full * WIDE.var(name)
    with pytest.raises(LimitExceeded, match=f"exponent of {name} is above"):
        full * full
    # a full field next to another full field stays put
    if i + 1 < len(WIDE.even):
        both = full * single(WIDE, ((i + 1, MAX_FIELD_EXPONENT),))
        assert only_monomial(both).even == (
            (i, MAX_FIELD_EXPONENT), (i + 1, MAX_FIELD_EXPONENT)
        )


def test_overflow_in_two_fields_names_the_first_generator():
    full = single(WIDE, ((3, MAX_FIELD_EXPONENT), (40, MAX_FIELD_EXPONENT)))
    with pytest.raises(LimitExceeded, match="exponent of x3 is above"):
        full * full


def test_overflow_inside_a_sum_of_products_raises():
    x = SMALL.var("x")
    full = single(SMALL, ((0, MAX_FIELD_EXPONENT),))
    with pytest.raises(LimitExceeded):
        one_column(SMALL, [(x, x), (full, 1 + x), (x, -x)])


def test_largest_exponent_is_reached_by_products():
    # t^(2^k - 1) = t * t^2 * t^4 * ... * t^(2^(k-1)), by repeated squaring;
    # a field holds 2^(_FIELD_BITS - 1) - 1 after _FIELD_BITS - 2 squarings,
    # so a product that adds exponents wrongly ends the loop unreached
    ctx = Context(even=["t", "s"])
    t = ctx.var("t")
    power = acc = t
    for _ in range(_FIELD_BITS):
        if only_monomial(acc).even_degree >= MAX_FIELD_EXPONENT:
            break
        power = power * power
        acc = acc * power
    assert only_monomial(acc).even == ((0, MAX_FIELD_EXPONENT),)
    with pytest.raises(LimitExceeded, match="exponent of t is above"):
        acc * t
    assert acc * ctx.var("s") == ctx.var("s") * acc


# -- the monomial code -------------------------------------------------
#
# A polynomial keys its numerators by one int per monomial: the packed
# even fields in the low bits and the odd mask from bit 24 * p up, p the
# number of even generators.  These tests pin that layout against the
# pair form, against the model's inversion count (sort_word) for the odd
# part of a product, and against CPython's int hash, which folds bit k
# onto bit k % 61.

def ctx_of(p, q):
    return Context(even=[f"x{i}" for i in range(p)],
                   odd=[f"th{j}" for j in range(q)])


LAYOUTS = [(0, 6), (1, 4), (3, 0), (3, 6), (70, 3)]


def random_monomial(rng, ctx, top):
    return Monomial(random_pairs(rng, ctx, top) if ctx.even else (),
                    rng.randrange(1 << len(ctx.odd)))


def word_mask(word):
    return sum(1 << j for j in word)


@pytest.mark.parametrize("p, q", LAYOUTS, ids=lambda d: str(d))
def test_code_round_trips_to_the_monomial(p, q):
    ctx = ctx_of(p, q)
    rng = random.Random(75 + p + q)
    for _ in range(200):
        mono = random_monomial(rng, ctx, MAX_FIELD_EXPONENT)
        code = encode(ctx, mono)
        # exponent of x_i at bit 24 i, theta_j at bit 24 p + j
        assert code == (sum(e << 24 * i for i, e in mono.even)
                        + sum(1 << 24 * p + j for j in mono.odd))
        back = decode(ctx, code)
        assert type(back) is Monomial and back == mono
        assert (back.even, back.odd) == (mono.even, mono.odd)
        poly = from_terms(ctx, {mono: 3})
        assert set(poly.nums) == {code}
        assert list(terms_of(poly)) == [mono]
        assert coefficient(poly, mono) == 3
        assert poly.terms == {(mono.even, mono.odd): 3}


@pytest.mark.parametrize("p, q", [(1, 4), (3, 6), (70, 3)], ids=str)
def test_products_match_the_oracles_with_a_full_top_field(p, q):
    """Products and sums of products whose top even field reaches
    MAX_FIELD_EXPONENT, the largest a field holds, right below the odd
    mask, against merge_even for the even part and the model's
    inversion count, sort_word, for the odd part and its sign."""
    ctx = ctx_of(p, q)
    rng = random.Random(76 + p)
    top = p - 1
    pairs, want = [], {}
    for k in range(60):
        rest_a = [(i, e) for i, e in random_pairs(rng, ctx, 5) if i != top]
        rest_b = [(i, e) for i, e in random_pairs(rng, ctx, 5) if i != top]
        a_even = tuple(rest_a) + ((top, MAX_FIELD_EXPONENT - 1),)
        b_even = tuple(rest_b) + (((top, 1),) if k % 2 else ())
        a_word = tuple(sorted(rng.sample(range(q), rng.randint(1, q))))
        b_word = tuple(sorted(rng.sample(range(q), rng.randint(0, q))))
        a = from_terms(ctx, {Monomial(a_even, word_mask(a_word)): 1})
        b = from_terms(ctx, {Monomial(b_even, word_mask(b_word)): 1})
        sign, word = sort_word(a_word + b_word)
        got = a * b
        if not sign:
            assert not got
            continue
        mono = Monomial(merge_even(sorted(a_even), sorted(b_even)),
                        word_mask(word))
        assert terms_of(got) == {mono: sign}
        assert dict(mono.even)[top] == MAX_FIELD_EXPONENT - 1 + k % 2
        pairs.append((a * (k + 1), b))
        want[mono] = want.get(mono, 0) + sign * (k + 1)
    assert pairs
    (total,) = one_column(ctx, pairs)
    assert terms_of(total) == {m: c for m, c in want.items() if c}


@pytest.mark.parametrize("p, q", [(1, 4), (3, 6), (70, 3)], ids=str)
def test_top_field_overflow_beside_the_mask_raises(p, q):
    ctx = ctx_of(p, q)
    name = ctx.even[p - 1]
    full = from_terms(ctx, {Monomial(((p - 1, MAX_FIELD_EXPONENT),), 0b1): 1})
    th = ctx.var(ctx.odd[q - 1])
    with pytest.raises(LimitExceeded, match=f"exponent of {name} is above"):
        full * (th * ctx.var(name))
    with pytest.raises(LimitExceeded, match=f"exponent of {name} is above"):
        one_column(ctx, [(th, th), (full, ctx.var(name) + 1)])


@pytest.mark.parametrize("width", [2, 3, 5, 8, 9])
def test_an_overflow_in_a_packed_row_names_its_generator(width):
    """A packed row shifts each code by w bits (see poly._pack), and so
    the guard bits; the overflow still names the generator that passed
    MAX_FIELD_EXPONENT, whichever column the product lands in."""
    ctx = ctx_of(3, 2)
    for i, name in enumerate(ctx.even):
        full = from_terms(ctx, {Monomial(((i, MAX_FIELD_EXPONENT),), 0b1): 1})
        row = [ctx.zero()] * (width - 1) + [ctx.var(name) * ctx.var(ctx.odd[1])]
        with pytest.raises(LimitExceeded, match=f"^exponent of {name} is above"):
            _gmul(ctx, ([full],), [row])[0]
        with pytest.raises(LimitExceeded, match=f"^exponent of {name} is above"):
            _gmul(ctx, ((ctx.one(),), (full,)), (tuple(row),))


@pytest.mark.parametrize("p, q", [(3, 6), (2, 6)], ids=str)
def test_low_degree_codes_hash_apart(p, q):
    """Every monomial of total degree <= 8 has its own int hash.  At 3|6
    the mask starts at bit 72, which the hash folds onto bit 11.  So do
    the keys code << w | k of a packed row of up to 2^w entries (see
    poly._pack) for w up to 4, a row of 16 entries: the shift moves each
    field w bits up, and so where the hash folds it."""
    ctx = ctx_of(p, q)
    codes = set()
    for k in range(q + 1):
        for word in itertools.combinations(range(q), k):
            for exps in itertools.product(range(9 - k), repeat=p):
                if sum(exps) <= 8 - k:
                    pairs = [(i, e) for i, e in enumerate(exps) if e]
                    codes.add(encode(ctx, Monomial(pairs, word_mask(word))))
    assert len(codes) > 1000
    for w in range(5):
        keys = {c << w | k for c in codes for k in range(1 << w)}
        assert len(keys) == len(codes) << w
        assert len({hash(key) for key in keys}) == len(keys)


@pytest.mark.parametrize("p, q", [(0, 6), (3, 6), (70, 3)], ids=str)
def test_odd_partial_sign_counts_only_odd_generators(p, q):
    """The left partial by theta_j takes one sign per odd generator in
    front of it, whatever the even exponents are."""
    ctx = ctx_of(p, q)
    rng = random.Random(77 + p)
    for _ in range(100):
        # odd exponents on the even part, so its bits count oddly
        even = tuple((i, e | 1) for i, e in random_pairs(rng, ctx, 99)) if p else ()
        word = tuple(sorted(rng.sample(range(q), rng.randint(1, q))))
        j = rng.choice(word)
        got = from_terms(ctx, {Monomial(even, word_mask(word)): 1}).partial(ctx.odd[j])
        rest = tuple(i for i in word if i != j)
        sign = (-1) ** word.index(j)
        assert terms_of(got) == {Monomial(even, word_mask(rest)): sign}


# -- transport and quotient between related contexts ------------------------
#
# SuperPoly.rename keeps every code as it is when there is no name map and
# the target has the same even generators and the same odd generators up
# to the highest one a term holds; any other target relabels the codes.
# The substitution form of rename, which multiplies, is the oracle.

def seeded(rng, ctx, top=9):
    """Up to five terms on random monomials over one small denominator."""
    return from_terms(ctx, {random_monomial(rng, ctx, top): rng.randint(-9, 9)
                            for _ in range(rng.randint(0, 5))}) / rng.randint(1, 6)


def renames_as_the_oracle(poly, ctx_out, name_map=None):
    """Check rename against the oracle, a refusal included; True when both
    gave a value."""
    try:
        want = substitution_rename(poly, ctx_out, name_map)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            poly.rename(ctx_out, name_map)
        return False
    got = poly.rename(ctx_out, name_map)
    assert got.ctx == ctx_out and got == want
    return True


@pytest.mark.parametrize("p, q", [(0, 3), (1, 4), (3, 2), (70, 3)], ids=str)
def test_rename_round_trips_up_and_down(p, q):
    ctx = ctx_of(p, q)
    wide = Context(even=ctx.even, odd=ctx.odd + ("eps1", "eps2"))
    rng = random.Random(78 + p)
    for _ in range(50):
        poly = seeded(rng, ctx)
        up = poly.rename(wide)
        assert up.ctx == wide and up == substitution_rename(poly, wide)
        assert terms_of(up) == terms_of(poly) and up.nums is poly.nums
        down = up.rename(ctx)
        assert down.ctx == ctx and down == poly and down.nums is poly.nums
        assert poly.rename(ctx) == poly and poly.rename(ctx, {}).nums is poly.nums


@pytest.mark.parametrize("odd, name_map", [
    pytest.param(("b", "a", "c"), None, id="('b', 'a', 'c')"),        # reordered
    pytest.param(("a", "d"), {"b": "d", "c": "a"}, id="('a', 'd')"),  # renamed
    pytest.param(("d", "a", "b", "c"), None, id="('d', 'a', 'b', 'c')"),  # one in front
])
def test_rename_relabels_reordered_or_renamed_odd_generators(odd, name_map):
    ctx = Context(even=["x"], odd=["a", "b", "c"])
    out = Context(even=["x"], odd=odd)
    rng = random.Random(79)
    for _ in range(100):
        assert renames_as_the_oracle(seeded(rng, ctx), out, name_map)
    # a lone theta_a moves to the bit of a in out
    assert ctx.var("a").rename(out, name_map) == out.var("a")


@pytest.mark.parametrize("even", [(), ("y",), ("x", "y"), ("y", "x")], ids=str)
def test_rename_relabels_other_even_generators(even):
    # a target without x refuses the terms that hold it, as the oracle does
    ctx = Context(even=["x"], odd=["a"])
    out = Context(even=even, odd=["a", "b"])
    rng = random.Random(80)
    values = sum(renames_as_the_oracle(seeded(rng, ctx), out) for _ in range(100))
    assert values > 0 and (values < 100) == ("x" not in even)
    assert ctx.var("a").rename(out) == out.var("a")


def test_rename_refuses_a_term_with_a_dropped_generator():
    ctx = ctx_of(2, 4)
    poly = ctx.var("x0") * ctx.var("th1") + ctx.var("th0") * ctx.var("th3")
    # the message names the first generator a term holds that the target lacks
    for q, name in enumerate(("th0", "th1", "th3", "th3")):
        with pytest.raises(ValueError, match=f"unknown generator '{name}'"):
            poly.rename(Context(even=ctx.even, odd=ctx.odd[:q]))
    with pytest.raises(ValueError, match="unknown generator 'th1'"):
        (ctx.var("x0") * ctx.var("th1")).rename(Context(even=ctx.even, odd=ctx.odd[:1]))
    kept = ctx.var("x0") * ctx.var("th1") + 1
    assert kept.rename(Context(even=ctx.even, odd=ctx.odd[:2])).nums is kept.nums


@pytest.mark.parametrize("p, q", [(0, 3), (1, 2), (2, 2)], ids=str)
def test_rename_into_product_contexts(p, q):
    # a 0|q group has no even generators, so its doubled and tripled
    # contexts extend its odd ones and the codes are kept
    ctx = ctx_of(p, q)
    rng = random.Random(81 + p)
    for copies in (2, 3):
        out = product_context(ctx, copies)
        for _ in range(50):
            poly = seeded(rng, ctx)
            assert renames_as_the_oracle(poly, out)
            assert (poly.rename(out).nums is poly.nums) == (p == 0)


# SuperPoly.left_quotient divides out a one-term factor c*theta_M in one
# pass.  The oracle is the division liealg made before it: the left
# partials along M's generators in increasing order, then c.

def placements(q, k):
    """k of q odd generators at the front, at the back and interleaved."""
    return {"front": tuple(range(k)), "back": tuple(range(q - k, q)),
            "interleaved": tuple(range(0, 2 * k, 2))}


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_left_quotient_matches_the_partials(p, k):
    q = 8
    ctx = ctx_of(p, q)
    rng = random.Random(82 + 10 * p + k)
    for where, word in placements(q, k).items():
        theta = from_terms(ctx, {Monomial((), word_mask(word)): 1})
        for c in (1, -1, 3, Fraction(-3, 2), Fraction(1, 2)):
            factor = c * theta
            for _ in range(20):
                g = seeded(rng, ctx)
                poly = factor * g
                got = poly.left_quotient(factor)
                assert got == partials_quotient(poly, factor), where
                assert factor * got == poly
                # a term without the first generator of M is refused
                outside = min(set(range(q)) - set(word))
                lacking = word_mask(word[1:]) | 1 << outside
                bad = poly + from_terms(ctx, {Monomial((), lacking): 1})
                for route in (bad.left_quotient, lambda f: partials_quotient(bad, f)):
                    with pytest.raises(ValueError, match="does not factor"):
                        route(factor)


def test_left_quotient_by_a_constant_divides():
    ctx = ctx_of(2, 3)
    poly = seeded(random.Random(83), ctx)
    assert poly.left_quotient(ctx.scalar(Fraction(-3, 2))) == poly / Fraction(-3, 2)
    assert ctx.zero().left_quotient(ctx.var("th1")) == ctx.zero()


@pytest.mark.parametrize("factor", [
    pytest.param(lambda ctx: ctx.var("th0") + ctx.var("th1"), id="two terms"),
    pytest.param(lambda ctx: ctx.var("x0") * ctx.var("th1"), id="even part"),
    pytest.param(lambda ctx: ctx.zero(), id="zero"),
])
def test_left_quotient_refuses_a_factor_that_is_not_one_odd_term(factor):
    ctx = ctx_of(1, 3)
    with pytest.raises(ValueError, match="is not one term c\\*theta_M"):
        (ctx.var("th0") * ctx.var("th1")).left_quotient(factor(ctx))


def test_left_quotient_refuses_a_factor_over_another_context():
    ctx = ctx_of(1, 3)
    with pytest.raises(ContextMismatch):
        ctx.var("th0").left_quotient(ctx_of(1, 4).var("th0"))

"""Packed even exponents against the sorted-pair form they replaced.

A Monomial keeps its even part as one int of fixed-width exponent fields,
so the even part of a product is one addition and a guard bit per field
catches an exponent past MAX_FIELD_EXPONENT.  The oracle here is the
sorted-pair form: an even part as ((index, exponent), ...) by increasing
index, and merge_even, the two-pointer merge that multiplied those lists
before the packing.  Products, the even partial and even_degree of
seeded monomials are checked against it, in a 3-generator context and
in a 70-generator one whose packed ints span many machine words, with
exponents up to the largest a field holds.
"""

import random

import pytest

from supergeom import Context, LimitExceeded, Monomial, SuperPoly
from supergeom.poly import MAX_FIELD_EXPONENT, dot

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
    return SuperPoly(ctx, {Monomial(pairs, mask): 1})


def only_monomial(p):
    ((mono, _),) = p.terms.items()
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
    got = {mono.even: c for mono, c in dot(WIDE, pairs).terms.items()}
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
        assert got.terms == {want: e}
        assert only_monomial(got).even == tuple(sorted(exps.items()))


@pytest.mark.parametrize("ctx", [SMALL, WIDE], ids=["3 even", "70 even"])
def test_even_degree_and_view_match_the_pairs(ctx):
    rng = random.Random(74)
    for _ in range(200):
        pairs = random_pairs(rng, ctx, MAX_FIELD_EXPONENT)
        mono = only_monomial(single(ctx, pairs, mask=rng.randrange(8)))
        assert mono.even == pairs
        assert mono.even_degree == sum(e for _, e in pairs)


def test_every_field_at_its_largest_value():
    top = tuple((i, MAX_FIELD_EXPONENT) for i in range(len(WIDE.even)))
    p = single(WIDE, top, mask=0b101)
    assert only_monomial(p).even == top
    assert only_monomial(p * WIDE.one()).even == top
    assert only_monomial(p * WIDE.var("b")).mask == 0b111
    last = p.partial("x69")
    assert last.terms == {
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
        dot(SMALL, [(x, x), (full, 1 + x), (x, -x)])


def test_largest_exponent_is_reached_by_products():
    # t^(2^k - 1) = t * t^2 * t^4 * ... * t^(2^(k-1)), by repeated squaring
    ctx = Context(even=["t", "s"])
    t = ctx.var("t")
    power = acc = t
    while only_monomial(acc).even_degree < MAX_FIELD_EXPONENT:
        power = power * power
        acc = acc * power
    assert only_monomial(acc).even == ((0, MAX_FIELD_EXPONENT),)
    with pytest.raises(LimitExceeded, match="exponent of t is above"):
        acc * t
    assert acc * ctx.var("s") == ctx.var("s") * acc

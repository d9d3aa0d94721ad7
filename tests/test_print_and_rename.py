"""The printer, rename and scalar division on monomial codes against the
Monomial/Fraction forms they replaced (tests/oracles.py).

str(p) reads each term's sort key and factor text from a per-context
cache keyed by code, and each coefficient takes one gcd against the
shared denominator.  rename relabels codes with no products: even fields
move, odd bits are folded in with the Koszul sign, a doubled odd target
gives zero and merged even fields add under the exponent cap.  The
polynomials are seeded over contexts with no, one and seventy even
generators, with coefficients that are fractional, +-1 or constant and
exponents up to MAX_FIELD_EXPONENT.
"""

import random
from fractions import Fraction

import pytest

from model import Monomial, from_terms, terms_of
from oracles import reference_str, reference_terms, substitution_rename
from supergeom import Context, LimitExceeded, ParityError, poly
from supergeom.expr import parse_poly
from supergeom.groups import primed, product_context
from supergeom.poly import MAX_DIGITS, MAX_EXPONENT, MAX_FIELD_EXPONENT

CONTEXTS = [
    Context(),
    Context(even=["t"]),
    Context(odd=["a", "b", "c"]),
    Context(even=["x", "y", "z"], odd=["a", "b", "c", "d"]),
    Context(even=[f"x{i}" for i in range(70)], odd=["a", "b", "c"]),
]


def seeded_poly(rng, ctx, top):
    """Up to six terms on random monomials, exponents in 1..top with top
    itself drawn often, coefficients +-1, small ints or fractions."""
    p, q = len(ctx.even), len(ctx.odd)
    terms = {}
    for _ in range(rng.randint(0, 6)):
        picked = sorted(rng.sample(range(p), rng.randint(0, min(p, 4))))
        even = [(i, rng.choice((1, 2, top, rng.randint(1, top)))) for i in picked]
        mask = rng.getrandbits(q) if q else 0
        terms[Monomial(even, mask)] = rng.choice((
            1, -1, rng.randint(-9, 9), Fraction(rng.randint(-99, 99), rng.randint(1, 12)),
        ))
    return from_terms(ctx, terms)


# -- printing ---------------------------------------------------------------


def reference_view(p):
    """reference_terms with each Monomial as its (even, odd) pair, the
    key of the terms view."""
    return [((m.even, m.odd), c) for m, c in reference_terms(p)]


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: "{}|{}".format(*c.dims))
@pytest.mark.parametrize("top", [9, MAX_FIELD_EXPONENT], ids=["small", "cap"])
def test_str_matches_the_reference_printer(ctx, top):
    rng = random.Random(1601 + len(ctx.even) + top)
    for _ in range(200):
        p = seeded_poly(rng, ctx, top)
        assert str(p) == reference_str(p)
        assert list(p.terms.items()) == reference_view(p)
        # a scaled copy shares its codes and so its cached texts
        assert str(p / 7) == reference_str(p / 7)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: "{}|{}".format(*c.dims))
def test_printed_text_reads_back(ctx):
    rng = random.Random(1602 + len(ctx.even))
    for _ in range(100):
        p = seeded_poly(rng, ctx, MAX_EXPONENT)
        assert parse_poly(str(p), ctx) == p


def test_order_is_by_degree_before_exponents():
    ctx = Context(even=["x", "y"], odd=["a", "b"])
    x, y, a, b = (ctx.var(n) for n in ("x", "y", "a", "b"))
    p = x**2 + x * y**5 + b - a * b + 1 + y * a
    assert str(p) == "x*y^5 + x^2 + y*a + 1 - a*b + b" == reference_str(p)


@pytest.mark.parametrize("coeffs, fits", [
    ({"x": Fraction(10**MAX_DIGITS, 3)}, False),          # numerator alone
    ({"x": Fraction(1, 10**MAX_DIGITS)}, False),          # denominator alone
    ({"x": Fraction(10**MAX_DIGITS - 1, 7)}, True),       # both at the cap
    # the shared denominator 2^20 makes the stored numerator of x longer
    # than the cap; the reduced coefficient fits
    ({"x": 9 * 10**(MAX_DIGITS - 1), "y": Fraction(1, 2**20)}, True),
    ({"x": 10**MAX_DIGITS, "y": Fraction(1, 3)}, False),
], ids=["numerator", "denominator", "at-cap", "reduced-fits", "integer"])
def test_digit_cap(coeffs, fits):
    ctx = Context(even=["x", "y"])
    p = from_terms(ctx, {Monomial((((ctx.even.index(n)), 1),), 0): c
                         for n, c in coeffs.items()})
    if fits:
        assert str(p) == reference_str(p)
        assert list(p.terms.items()) == reference_view(p)
    else:
        for show in (str, reference_str, lambda p: p.terms):
            with pytest.raises(LimitExceeded, match=f"more than {MAX_DIGITS} digits"):
                show(p)


def test_the_text_cache_is_emptied_when_full(monkeypatch):
    monkeypatch.setattr(poly, "MAX_CACHE", 5)
    ctx = Context(even=["x", "y", "z"], odd=["a", "b", "c", "d"])
    # the cache belongs to the signature, shared with every other test
    ctx._texts.clear()
    rng = random.Random(1603)
    for _ in range(100):
        p = seeded_poly(rng, ctx, 30)
        assert str(p) == reference_str(p)
        assert len(ctx._texts) <= 5


# -- rename -----------------------------------------------------------------


def check_rename(p, ctx_out, name_map):
    want = substitution_rename(p, ctx_out, name_map)
    got = p.rename(ctx_out, name_map)
    assert got.ctx == ctx_out and got == want


@pytest.mark.parametrize("top", [9, MAX_FIELD_EXPONENT], ids=["small", "cap"])
def test_rename_under_permutations_matches_substitution(top):
    ctx = Context(even=["x", "y", "z"], odd=["a", "b", "c", "d"])
    rng = random.Random(1604 + top)
    for _ in range(300):
        even, odd = list(ctx.even), list(ctx.odd)
        rng.shuffle(even)
        rng.shuffle(odd)
        out = Context(even=rng.sample(even, 3) + ["w"], odd=rng.sample(odd, 4) + ["e"])
        name_map = dict(zip(ctx.even + ctx.odd, even + odd))
        p = seeded_poly(rng, ctx, top)
        check_rename(p, out, name_map)
        # the substitution itself, as rename computed it before; its
        # powers pass MAX_EXPONENT up to the field cap
        images = {n: out.var(name_map[n]) for n in ctx.names}
        assert p.substitute(out, images) == substitution_rename(p, out, name_map)


def test_an_odd_transposition_flips_the_sign():
    ctx = Context(odd=["a", "b", "c"])
    a, b, c = (ctx.var(n) for n in ctx.odd)
    swap = {"a": "b", "b": "a"}
    assert (a * b * c).rename(ctx, swap) == b * a * c == -(a * b * c)
    assert (a * c + 2 * b).rename(ctx, swap) == b * c + 2 * a
    cycle = {"a": "b", "b": "c", "c": "a"}
    assert (a * b * c).rename(ctx, cycle) == a * b * c


def test_rename_into_product_contexts_as_groups_does():
    # the maps of groups.py: into the doubled context, G onto the primed
    # slots (is_left_invariant's lift of a field onto mu's second factor)
    # and the two lifts of associativity into the tripled context, written
    # out in full; and the swap of oracles.reference_iota
    g = Context(even=["x", "y"], odd=["a", "b", "c"])
    double = product_context(g, 2)
    triple = product_context(g, 3)
    to_primed = {n: primed(n) for n in g.names}
    swap = {}
    for n in g.names:
        swap[n] = primed(n)
        swap[primed(n)] = n
    lifts = []
    for shift in (0, 1):
        m = {n: primed(n, shift) for n in g.names}
        m.update({primed(n): primed(n, shift + 1) for n in g.names})
        lifts.append(m)
    rng = random.Random(1605)
    for _ in range(150):
        p = seeded_poly(rng, g, 9)
        check_rename(p, double, None)
        check_rename(p, double, to_primed)
        check_rename(p, triple, None)
        pp = seeded_poly(rng, double, rng.choice((9, MAX_FIELD_EXPONENT)))
        check_rename(pp, double, swap)
        assert pp.rename(double, swap).rename(double, swap) == pp
        for m in lifts:
            check_rename(pp, triple, m)
        # the first lift keeps every name, so no map gives it too
        assert pp.rename(triple) == pp.rename(triple, lifts[0])


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: "{}|{}".format(*c.dims))
def test_a_rename_into_a_wider_context_moves_the_odd_mask(ctx):
    # no name map, and ctx_out's generator lists start with ctx's: every
    # name keeps its index, and the odd mask moves to ctx_out's shift
    wider = [
        Context(ctx.even + ("w1",), ctx.odd),
        Context(ctx.even, ctx.odd + ("e1",)),
        Context(ctx.even + ("w1", "w2"), ctx.odd + ("e1", "e2")),
        Context(ctx.even + tuple(f"w{i}" for i in range(9)), ctx.odd + ("e1",)),
    ]
    rng = random.Random(1608 + len(ctx.even))
    for _ in range(60):
        p = seeded_poly(rng, ctx, rng.choice((9, MAX_FIELD_EXPONENT)))
        for out in wider:
            check_rename(p, out, None)
            assert p.rename(out).rename(ctx) == p


def test_merged_generators_add_exponents_and_kill_odd_repeats():
    ctx = Context(even=["x", "y", "z"], odd=["a", "b", "c", "d"])
    out = Context(even=["u", "v"], odd=["e", "f"])
    rng = random.Random(1606)
    for _ in range(300):
        name_map = {n: rng.choice(out.even) for n in ctx.even}
        name_map |= {n: rng.choice(out.odd) for n in ctx.odd}
        p = seeded_poly(rng, ctx, rng.choice((9, 1000)))
        check_rename(p, out, name_map)
    a, b, x, y = (ctx.var(n) for n in ("a", "b", "x", "y"))
    merge = {"x": "u", "y": "u", "z": "v", "a": "e", "b": "e", "c": "f", "d": "f"}
    assert (x * a * b + y).rename(out, merge) == out.var("u")
    # x^2 y and x y^2 land on one code and cancel
    assert (x**2 * y - x * y**2).rename(out, merge) == 0
    assert (x**2 * y + x * y**2).rename(out, merge) == 2 * out.var("u") ** 3


def power(ctx, *exps):
    return from_terms(ctx, {Monomial([(i, e) for i, e in enumerate(exps) if e], 0): 1})


@pytest.mark.parametrize("exps, overflows", [
    ((MAX_FIELD_EXPONENT - 5, 5, 0), False),
    ((MAX_FIELD_EXPONENT - 5, 6, 0), True),
    ((MAX_FIELD_EXPONENT, MAX_FIELD_EXPONENT, 0), True),
    # three fields whose sum carries past the guard bit, leaving it clear
    (((1 << 24) // 3 + 2,) * 3, True),
], ids=["at-cap", "one-past", "both-full", "carry"])
def test_a_merged_exponent_past_the_cap_raises(exps, overflows):
    ctx = Context(even=["x", "y", "z"], odd=["a"])
    out = Context(even=["w", "u"], odd=["a"])
    merge = {"x": "u", "y": "u", "z": "u"}
    p = power(ctx, *exps) * ctx.var("a") + 1
    if overflows:
        for route in (p.rename, lambda *args: substitution_rename(p, *args)):
            with pytest.raises(LimitExceeded, match="exponent of u is above the cap"):
                route(out, merge)
    else:
        check_rename(p, out, merge)
        assert p.rename(out, merge) == power(out, 0, sum(exps)) * out.var("a") + 1


def test_rename_refusals_keep_their_text():
    ctx = Context(even=["x", "y"], odd=["a", "b"])
    out = Context(even=["x", "u"], odd=["a", "e"])
    p = ctx.var("x") * ctx.var("a") + ctx.var("b")
    cases = [
        ({"x": "nope"}, ValueError, "unknown generator 'nope'"),
        ({}, ValueError, "unknown generator 'b'"),
        ({"b": "u"}, ParityError, "image of odd generator 'b' is not odd"),
        ({"x": "e", "b": "e"}, ParityError, "image of even generator 'x' is not even"),
        # an unknown name is reported before a parity mismatch
        ({"x": "e", "b": "nope"}, ValueError, "unknown generator 'nope'"),
    ]
    for name_map, error, text in cases:
        for route in (p.rename, lambda *args: substitution_rename(p, *args)):
            with pytest.raises(error, match=text):
                route(out, name_map)
    # only the generators that appear are looked up
    check_rename(p, out, {"b": "e", "y": "nope"})
    assert ctx.zero().rename(out, {"x": "nope"}) == out.zero()


# -- scalar division ----------------------------------------------------------


def test_division_by_a_scalar_scales_the_numerators():
    ctx = Context(even=["x"], odd=["a", "b"])
    rng = random.Random(1607)
    for _ in range(200):
        p = seeded_poly(rng, ctx, 9)
        c = rng.choice((1, -1, True, rng.randint(-9, 9) or 3,
                        Fraction(rng.randint(-20, 20) or 1, rng.randint(1, 9))))
        got = p / c
        assert got.terms == {m: v / Fraction(c) for m, v in p.terms.items()}
        assert got == from_terms(ctx, terms_of(got))  # canonical form
    p = ctx.var("x") + ctx.var("a")
    assert p / -1 == -p
    # a zero scalar is a ZeroDivisionError, as for Fraction, even for the
    # zero polynomial; an operand that is no scalar is NotImplemented
    for zero in (0, Fraction(0)):
        for q in (p, ctx.zero()):
            with pytest.raises(ZeroDivisionError):
                q / zero
    for bad in (0.5, "2", p):
        assert p.__truediv__(bad) is NotImplemented
        with pytest.raises(TypeError):
            p / bad

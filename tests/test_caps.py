"""Size caps of the kernel: term count in a product or sum of products
(a derivation bracket and a rename that substitutes included),
determinant size, the digits of a printed coefficient, and the exponent
one even generator can reach.  The last tests bound the process-wide
odd-word caches, which a miss at MAX_CACHE entries empties instead of
refusing anything.

Each cap turns an input that used to run for minutes, or to end in a
CPython message, into a LimitExceeded that a script reports as
"error: line N: ..." before going on with the next statement.  The
script repros run in a subprocess with a timeout, so a missing cap fails
the test instead of hanging it.
"""

import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from helpers import one_column, random_rational_poly
from model import Monomial, from_terms, sort_word, terms_of
from oracles import reference_bracket
from supergeom import (
    Context,
    LimitExceeded,
    Parity,
    PointedVariety,
    RationalPoint,
    ScriptError,
    SuperDerivation,
    SuperPoly,
    bracket,
)
from supergeom import poly
from supergeom.liealg import MAX_GROUP_DIM, MatrixGroupSpec
from supergeom.matrix import MAX_DET_SIZE, _det
from supergeom.poly import MAX_CACHE, MAX_DIGITS, MAX_FIELD_EXPONENT, MAX_TERMS
from supergeom.expr import parse_rational
from supergeom.script import run_script
from supergeom.serialize import from_json, to_json


def keep_going(tmp_path, text):
    """Run a script with --keep-going; without the caps these repros were
    still running after 10 s, with them each takes under 2 s."""
    path = tmp_path / "repro.sg"
    path.write_text(textwrap.dedent(text))
    return subprocess.run(
        [sys.executable, "-m", "supergeom", "--keep-going", "--script", str(path)],
        capture_output=True, text=True, timeout=10,
    )


# -- terms -------------------------------------------------------------------


def test_power_of_a_four_term_sum_hits_the_term_cap(tmp_path):
    proc = keep_going(tmp_path, """\
        context M even=[t, s, u] odd=[]
        eval (1+t+s+u)^1000
        eval t
    """)
    assert proc.stderr.startswith("error: line 2: ")
    assert f"more than {MAX_TERMS} terms" in proc.stderr
    assert proc.stdout == "t\n"


def test_product_of_twenty_odd_binomials_hits_the_term_cap(tmp_path):
    odd = ", ".join(f"th{i}" for i in range(1, 41))
    product = "*".join(f"(1+th{i}*th{i + 20})" for i in range(1, 21))
    proc = keep_going(tmp_path, f"""\
        context M even=[] odd=[{odd}]
        eval {product}
        eval th1
    """)
    assert proc.stderr.startswith("error: line 2: ")
    assert f"more than {MAX_TERMS} terms" in proc.stderr
    assert proc.stdout == "th1\n"


def test_dot_output_at_the_cap_is_kept_and_above_it_refused():
    ctx = Context(even=["x", "y"])
    x, y = ctx.var("x"), ctx.var("y")
    xs = sum((x**i for i in range(100)), ctx.zero())
    ys = sum((y**j for j in range(100)), ctx.zero())
    (at_cap,) = one_column(ctx, [(xs, ys)])
    assert len(at_cap.nums) == MAX_TERMS
    with pytest.raises(LimitExceeded):
        one_column(ctx, [(xs + x**100, ys)])
    with pytest.raises(LimitExceeded):
        (xs + x**100) * ys


def test_a_product_of_odd_left_terms_past_the_cap_is_refused():
    # every left term t^k*a is odd, so only the odd-left-term loop of _mac
    # runs; 101 * 101 = 10,201 distinct products pass the cap
    ctx = Context(even=["t", "s"], odd=["a"])
    t, s, a = ctx.var("t"), ctx.var("s"), ctx.var("a")
    left = sum((t**k * a for k in range(101)), ctx.zero())
    right = sum((s**k for k in range(101)), ctx.zero())
    assert len(left.nums) * len(right.nums) == 10_201 > MAX_TERMS
    with pytest.raises(LimitExceeded, match=f"^product has more than {MAX_TERMS} terms, the cap$"):
        left * right


def test_bracket_sums_both_sides_under_one_cap():
    # [x d/dx + 2 d/dy, y*q d/dx] = (2q - y*q) d/dx: each side applies to
    # 6,000 terms, below the cap, and the sides share no monomial.  The
    # bracket sums both into one accumulator per coefficient, so it
    # raises where two capped applies and an uncapped - gave 12,000 terms
    ctx = Context(even=["x", "y", "w", "u"])
    x, y, w, u = (ctx.var(n) for n in ctx.even)
    q = (sum((w**i for i in range(60)), ctx.zero())
         * sum((u**j for j in range(100)), ctx.zero()))
    zero = ctx.zero()
    d1 = SuperDerivation(ctx, Parity.EVEN, [x, ctx.scalar(2), zero, zero])
    d2 = SuperDerivation(ctx, Parity.EVEN, [y * q, zero, zero, zero])
    assert len(d1.apply(y * q).nums) == len(d2.apply(x).nums) == 6000
    assert len(reference_bracket(d1, d2).coefficient("x").nums) == 12000
    with pytest.raises(LimitExceeded, match=f"more than {MAX_TERMS} terms"):
        bracket(d1, d2)


def test_a_rename_past_the_term_cap_is_refused_only_where_it_substitutes():
    # x^i y^j for i, j < 100 and x^100: a map that keeps the order of the
    # names moves the codes, uncapped; a swap is a substitution, whose
    # accumulator holds at most MAX_TERMS terms
    ctx = Context(even=["x", "y"])
    p = from_terms(ctx, {Monomial([(k, e) for k, e in enumerate((i, j)) if e], 0): 1
                         for i in range(100) for j in range(100)}) + ctx.var("x") ** 100
    assert len(p.nums) == MAX_TERMS + 1
    wider = Context(even=["w", "x", "y"])
    moved = p.rename(wider)
    assert len(moved.nums) == MAX_TERMS + 1 and moved.rename(ctx) == p
    with pytest.raises(LimitExceeded, match=f"more than {MAX_TERMS} terms"):
        p.rename(ctx, {"x": "y", "y": "x"})


# -- determinant size ----------------------------------------------------------


def test_ber_of_a_22_by_22_block_is_refused(tmp_path):
    rows = "; ".join(
        ", ".join(f"t + {22 * i + j + 1}" for j in range(22)) for i in range(22)
    )
    proc = keep_going(tmp_path, f"""\
        context M even=[t] odd=[]
        matrix A dims 22|0 -> 22|0 rows [{rows}]
        ber A
        eval t
    """)
    assert proc.stderr.startswith("error: line 3: ")
    assert f"cap of {MAX_DET_SIZE}" in proc.stderr
    assert proc.stdout == "t\n"


def test_det_at_the_cap_is_computed_and_above_it_refused():
    ctx = Context(even=["t"])
    t = ctx.var("t")

    def diagonal(n):
        return tuple(tuple(t + 1 if i == j else ctx.zero() for j in range(n))
                     for i in range(n))

    assert _det(ctx, diagonal(MAX_DET_SIZE)) == (t + 1) ** MAX_DET_SIZE
    with pytest.raises(LimitExceeded):
        _det(ctx, diagonal(MAX_DET_SIZE + 1))


def test_an_odd_free_grid_above_the_size_cap_is_refused_on_its_image():
    ctx = Context(even=["x", "y"])
    rng = random.Random(3300)
    n = MAX_DET_SIZE + 1
    grid = [[ctx.var("x") * rng.randint(-3, 3) + rng.randint(-3, 3) for _ in range(n)]
            for _ in range(n)]
    assert poly._kronecker_image(ctx, grid) is not None
    with pytest.raises(LimitExceeded,
                       match=f"determinant of a {n}x{n} block is above the cap of "
                             f"{MAX_DET_SIZE} rows"):
        _det(ctx, grid)


def test_an_odd_free_grid_past_the_term_cap_still_raises():
    # C(D + 6, 6) > MAX_TERMS over six variables: the polynomial expansion
    # runs, as it always did, and raises inside the last products
    ctx = Context(even=[f"x{i}" for i in range(1, 7)])
    rng = random.Random(1)

    def entry():
        return from_terms(ctx, {Monomial([(i, rng.randint(1, 4)) for i in rng.sample(range(6), 2)],
                                         0): rng.randint(1, 5) for _ in range(10)})

    grid = [[entry() for _ in range(4)] for _ in range(4)]
    assert poly._kronecker_image(ctx, grid) is None
    with pytest.raises(LimitExceeded, match=f"product has more than {MAX_TERMS} terms, the cap"):
        _det(ctx, grid)


def test_an_odd_free_grid_past_the_field_cap_still_raises():
    # each entry's exponent is within the field, the determinant's is not
    ctx = Context(even=["t"])
    entry = poly._power(ctx.var("t"), 3_000_000) + 1
    grid = [[entry if i == j else ctx.zero() for j in range(4)] for i in range(4)]
    assert poly._kronecker_image(ctx, grid) is None
    with pytest.raises(LimitExceeded, match=f"exponent of t is above the cap of {MAX_FIELD_EXPONENT}"):
        _det(ctx, grid)


# -- exponent fields -----------------------------------------------------------


def test_nested_power_past_the_field_cap_is_a_script_error(tmp_path):
    # each ^ is within MAX_EXPONENT, but t^(10^9) passes the field cap;
    # t sits in the field below s, which a carry would reach
    proc = keep_going(tmp_path, """\
        context M even=[t, s] odd=[]
        eval (t^1000)^1000
        eval (((t^1000)^1000)^1000)^1000
        eval s
    """)
    assert proc.stderr == (
        f"error: line 3: exponent of t is above the cap of {MAX_FIELD_EXPONENT}\n"
    )
    assert proc.stdout == "t^1000000\ns\n"


def test_a_product_past_the_power_cap_pulls_back_while_caret_keeps_the_cap(tmp_path):
    # t^2000 is a legal value; pullback raises the image of t to the
    # 2000th power by squaring, where ^ still refuses 1001
    proc = keep_going(tmp_path, """\
        context M even=[t] odd=[theta1, theta2]
        morphism chart : M -> M [t + theta1*theta2, theta1, theta2]
        pullback chart t^1000 * t^1000
        eval t^1001
    """)
    assert proc.stdout == "t^2000 + 2000*t^1999*theta1*theta2\n"
    assert proc.stderr == "error: line 4: exponent 1001 is above the cap of 1000\n"


# -- printed digits ------------------------------------------------------------


def test_huge_coefficient_is_a_script_error(tmp_path):
    proc = keep_going(tmp_path, """\
        context M even=[t] odd=[]
        eval (10^999)^5
        eval t
    """)
    assert proc.stderr.startswith("error: line 2: ")
    assert f"more than {MAX_DIGITS} digits" in proc.stderr
    assert "set_int_max_str_digits" not in proc.stderr
    assert proc.stdout == "t\n"


def test_digit_cap_boundary_in_str_and_json():
    ctx = Context(even=["t"])
    at_cap = SuperPoly.scalar(ctx, 10 ** (MAX_DIGITS - 1)) * ctx.var("t")
    assert str(at_cap) == "1" + "0" * (MAX_DIGITS - 1) + "*t"
    assert to_json(at_cap)["terms"][0]["coeff"] == str(10 ** (MAX_DIGITS - 1))
    small = ctx.var("t") / 10**MAX_DIGITS
    for p in (at_cap * 10, small):
        with pytest.raises(LimitExceeded):
            str(p)
        with pytest.raises(LimitExceeded):
            to_json(p)
    # arithmetic itself stays exact above the cap
    assert (at_cap * 10) / 10 == at_cap


def test_huge_export_is_a_script_error():
    result = run_script(
        "context M even=[t] odd=[]\nlet p = (10^1000)^4*t\nexport p\neval t\n",
        keep_going=True,
    )
    assert len(result.errors) == 1
    assert result.errors[0].startswith("error: line 3: ")
    assert result.output == "t\n"


def test_long_bad_literal_is_echoed_only_in_part():
    digits = "1" * 5000
    result = run_script(
        "context M even=[t] odd=[]\nmorphism f : M -> M [t]\n"
        f"jacobian f ({digits})\neval t\n",
        keep_going=True,
    )
    (err,) = result.errors
    assert err.startswith("error: line 3: bad rational '1111")
    assert "(5000 characters)" in err
    assert len(err) < 120
    assert result.output == "t\n"


# Point coordinates and JSON rationals read only what str(Fraction)
# writes, '-'? int ('/' int)?; Fraction(str) also takes exponents,
# decimals and '_', and spent about a second of CPU on 1e2000000.
NOT_RATIONALS = ["1e2000000", "0.5", "1_0"]


@pytest.mark.parametrize("literal", NOT_RATIONALS)
def test_point_coordinates_take_only_plain_rationals(literal):
    result = run_script(
        "context M even=[t] odd=[]\nmorphism f : M -> M [t]\n"
        f"classify f ({literal})\neval t\n",
        keep_going=True,
    )
    assert result.errors == (f"error: line 3: bad rational {literal!r}",)
    assert result.output == "t\n"


@pytest.mark.parametrize("literal", NOT_RATIONALS)
def test_json_rationals_take_only_plain_rationals(literal):
    ctx = Context(even=["x"], odd=[])
    poly_data = to_json(3 * ctx.var("x"))
    poly_data["terms"][0]["coeff"] = literal
    variety = PointedVariety(ctx, [ctx.var("x") - 1], RationalPoint(ctx, [1]))
    variety_data = to_json(variety)
    variety_data["point"] = [literal]
    for data in (poly_data, variety_data):
        with pytest.raises(ScriptError, match=re.escape(f"bad rational {literal!r}")):
            from_json(data)


def test_plain_rationals_read_with_spaces_and_nothing_else():
    at_cap = "9" * MAX_DIGITS
    for text, value in [
        ("7", 7), ("-0", 0), ("4/6", Fraction(2, 3)),
        ("-3/2", Fraction(-3, 2)), (" - 3 / 2 ", Fraction(-3, 2)),
        (at_cap, int(at_cap)),
    ]:
        assert parse_rational(text) == value
    for text in [
        "", "+1", "--1", "1 0", "1/", "1/0", "1/-2", "(1)", "x", "1e3",
        at_cap + "9",
    ]:
        with pytest.raises(ScriptError, match="bad rational"):
            parse_rational(text)


def test_literal_digits_are_capped_in_kernel_words():
    at_cap = "9" * MAX_DIGITS
    result = run_script(
        f"context M even=[t] odd=[]\neval {at_cap}*t\neval {at_cap}9*t\n"
        f"eval t^{at_cap}9\neval t\n",
        keep_going=True,
    )
    assert result.output == f"{at_cap}*t\nt\n"
    assert [e.split(":")[0] for e in result.errors] == ["error", "error"]
    for line, err in zip((3, 4), result.errors):
        assert err.startswith(f"error: line {line}, column ")
        assert f"more than {MAX_DIGITS} digits" in err


# -- odd-word caches -----------------------------------------------------------


def swap_parity(mask):
    """Bit y set when an odd number of bits of mask lie above y."""
    return sum(1 << y for y in range(mask.bit_length())
               if bin(mask >> (y + 1)).count("1") & 1)


def test_odd_word_caches_are_emptied_by_a_miss_at_their_bound():
    poly._SWAP_PARITY.clear()
    poly._WORDS.clear()
    for mask in range(MAX_CACHE):
        poly._SWAP_PARITY[mask]
        poly._odd_word(mask)
    assert len(poly._SWAP_PARITY) == len(poly._WORDS) == MAX_CACHE
    # a hit at the bound keeps every entry
    assert poly._odd_word(5) == (0, 2)
    assert poly._SWAP_PARITY[5] == swap_parity(5) == 0b11
    assert len(poly._SWAP_PARITY) == len(poly._WORDS) == MAX_CACHE
    # a miss empties the cache before it stores the new entry
    assert poly._odd_word(MAX_CACHE + 5) == (0, 2, 16)
    assert poly._SWAP_PARITY[MAX_CACHE + 5] == swap_parity(MAX_CACHE + 5)
    assert len(poly._SWAP_PARITY) == len(poly._WORDS) == 1


def test_products_over_many_odd_generators_keep_the_caches_bounded(monkeypatch):
    bound = 64
    monkeypatch.setattr(poly, "MAX_CACHE", bound)
    ctx = Context(odd=[f"th{j}" for j in range(40)])
    rng = random.Random(40)
    for _ in range(10):
        a = random_rational_poly(rng, ctx, n_terms=40)
        b = random_rational_poly(rng, ctx, n_terms=40)
        want = {}
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                sign, word = sort_word(ma.odd + mb.odd)
                if sign:
                    m = Monomial((), sum(1 << j for j in word))
                    want[m] = want.get(m, 0) + sign * ca * cb
        assert terms_of(a * b) == {m: c for m, c in want.items() if c}
        assert len(poly._SWAP_PARITY) <= bound
        assert len(poly._WORDS) <= bound


# -- matrix group blocks -------------------------------------------------------


@pytest.mark.parametrize("group", ["SL 9999999999|1", "GL 11|0", "GL 0|11"])
def test_lie_above_the_block_cap_is_a_script_error(tmp_path, group):
    # without the cap the first runs past any timeout, and the others name
    # two entries p111 and end in a misleading duplicate-generator error
    proc = keep_going(tmp_path, f"""\
        lie {group}
        lie GL 1|1
    """)
    assert proc.stderr == (
        f"error: line 1: {group} has a block above the cap of {MAX_GROUP_DIM}\n"
    )
    assert proc.stdout == "no constraints\n"


def test_lie_at_the_block_cap_is_computed(tmp_path):
    proc = keep_going(tmp_path, f"lie GL {MAX_GROUP_DIM}|{MAX_GROUP_DIM}\n")
    assert proc.returncode == 0
    assert proc.stdout == "no constraints\n"


@pytest.mark.parametrize("kind", ["GL", "SL", "OSp"])
def test_group_spec_refuses_blocks_above_the_cap(kind):
    n = MAX_GROUP_DIM + 1
    for dims in [(n, 0), (0, n + 1), (10**10, 2)]:
        with pytest.raises(ValueError, match=f"cap of {MAX_GROUP_DIM}"):
            MatrixGroupSpec(kind, dims)
    assert MatrixGroupSpec(kind, (MAX_GROUP_DIM, MAX_GROUP_DIM)).dims == (
        MAX_GROUP_DIM, MAX_GROUP_DIM)


@pytest.mark.parametrize("kind", ["GL", "SL", "OSp"])
@pytest.mark.parametrize("dims", [(-1, 2), (2, -2)], ids=["-1|2", "2|-2"])
def test_group_spec_refuses_negative_blocks(kind, dims):
    # the script grammar only takes digits, but the library API took these
    # and GL (-1, 2) came back as a -1|2 algebra
    with pytest.raises(ValueError, match="negative block"):
        MatrixGroupSpec(kind, dims)
    assert MatrixGroupSpec(kind, (0, 2)).dims == (0, 2)

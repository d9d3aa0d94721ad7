"""The expression parser against the parser it replaced (tests/oracles.py),
and one pinned column per parser error message.

The reference tokenizes into (kind, text, col) tuples and carries a column
with every token; expr reads token strings and works a column out only
when it raises.  Both must give the same value, or the same error type,
message and column, on every input here:
- seeded texts over the contexts 0|0 .. 3|3, with and without let
  bindings, one of them over another context and one shadowed by a
  generator;
- one-character insertions and deletions of each, drawn from an alphabet
  that holds characters no token starts with (é , .), the Unicode digit
  ٣ that \\d and int() accept, a non-breaking space and a tab;
- nesting at the depth cap, and literals at the digit cap placed before
  and after a bad character;
- short faulty texts, and parse_rational on the point and JSON forms;
- the literal fold: repeated and permuted odd generators, zero and
  capped powers, minus runs at the depth cap, groups and bindings between
  literal factors, a product that passes the exponent field cap with and
  without a zero in front, and a sum of 10,001 terms.

The parser folds literal factors into one monomial and sums literal terms
into one map, so a work count checks that such texts make no ring
product, sum or power.  script._split_top is checked against the
character loop it replaced on seeded lists, their edits and bracket-heavy
strings.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from model import Monomial, from_terms
from oracles import (reference_parse_poly, reference_parse_rational,
                     reference_split_top)
from supergeom import Context, LimitExceeded, ScriptError, SuperPoly, expr
from supergeom.expr import parse_poly, parse_rational
from supergeom.poly import MAX_DIGITS, MAX_EXPONENT, MAX_FIELD_EXPONENT, _power
from supergeom.script import _split_top, run_script

ROOT = Path(__file__).resolve().parent.parent
OTHER = Context(even=["u"], odd=["v"])
EDITS = "é,.٣\xa0\t +-*^/()0719xt_"


def outcome(parse, *args):
    """The value of a parse, or (type, message, col) of its error."""
    try:
        return parse(*args)
    except (ScriptError, LimitExceeded) as e:
        return (type(e), str(e), getattr(e, "col", None))


def _factor(rng, names, depth):
    r = rng.random()
    if depth < 2 and r < 0.15:
        # a power of a group would make an inserted digit costly
        return "(" + _text(rng, names, depth + 1) + ")"
    if names and r < 0.6:
        atom = rng.choice(names)
    else:
        atom = str(rng.randint(0, 12))
        if rng.random() < 0.3:
            atom += f"/{rng.randint(1, 5)}"
    if rng.random() < 0.25:
        atom += f"^{rng.randint(0, 3)}"
    return "-" + atom if rng.random() < 0.15 else atom


def _text(rng, names, depth=0):
    terms = ["*".join(_factor(rng, names, depth) for _ in range(rng.randint(1, 3)))
             for _ in range(rng.randint(1, 3))]
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice([" + ", " - ", "+", "-", "  -\t"]) + term
    return text


def _edits(rng, text, k):
    out = []
    for _ in range(k):
        if text and rng.random() < 0.4:
            i = rng.randrange(len(text))
            out.append(text[:i] + text[i + 1:])
        else:
            i = rng.randrange(len(text) + 1)
            out.append(text[:i] + rng.choice(EDITS) + text[i:])
    return out


def _cases():
    """(text, ctx, env) for every seeded text and its edits."""
    rng = random.Random(2200)
    out = []
    for p in range(4):
        for q in range(4):
            ctx = Context(even=[f"t{i + 1}" for i in range(p)],
                          odd=[f"th{j + 1}" for j in range(q)])
            names = list(ctx.names)
            # f over ctx, one term so that an edited power of it stays
            # cheap; g over another context, t1 shadowed when ctx has t1
            env = {"f": parse_poly("*".join(["3/2"] + names[:1]), ctx),
                   "g": OTHER.var("u"), "t1": OTHER.var("v")}
            for bound in (None, env):
                texts = [_text(rng, names + ["f"] * bool(bound)) for _ in range(8)]
                if bound:
                    texts += [_text(rng, names + ["g"]), _text(rng, names + ["t1"])]
                for text in texts:
                    # a draw that once picked a line number; it keeps the
                    # seeded stream, and so these texts, as they were
                    rng.choice([None, 7])
                    out += [(t, ctx, bound)
                            for t in [text] + _edits(rng, text, 8)]
    return out


CASES = _cases()
CTX = Context(even=["t", "s"], odd=["a", "b"])
ENV = {"f": CTX.var("t") + 1, "g": OTHER.var("u")}
LONG, OVER = "9" * MAX_DIGITS, "9" * (MAX_DIGITS + 1)
BOUNDARY = [
    *[open_ * n + "t" + ")" * n if open_ == "(" else open_ * n + "t"
      for open_ in ("(", "-") for n in (99, 100, 101)],
    "-(" * 50 + "t" + ")" * 50, "-(" * 50 + "-t" + ")" * 50,
    "(" * 101 + "é", "-" * 101,
    LONG, OVER, "٣" * (MAX_DIGITS + 1), f"t + {LONG}", f"t + {OVER}",
    f"{OVER} é", f"é {OVER}", f"t é {LONG}", f"{LONG} é", f"t + {OVER} + é",
    f"t , {OVER}", f"{OVER}/{OVER}", f"1/{OVER}", f"t^{OVER}",
    "x" * 5000, "x" * 5000 + " é", "t + " + "x" * 5000, "_" + "1" * 5000,
    "2/0", "2/", "t^-1", "t^1/2", "t^", "t^1001", "t^1000*0", "", "   ",
    "\t\xa0", "t t", "t )", "t + 1 2", "t ,", "(t", "()", "t^2^3", "1/2/3",
    "٣*t^٣", "t\xa0+\xa0s", "t+\t*", "t + .5", "f*f + g", "g^0", "-f^2",
]


def test_seeded_texts_and_edits_match_the_reference():
    assert len(CASES) > 1000
    for text, ctx, env in CASES:
        assert outcome(parse_poly, text, ctx, env) == \
            outcome(reference_parse_poly, text, ctx, env), text


def test_boundary_texts_match_the_reference():
    for text in BOUNDARY:
        for env in (None, ENV):
            assert outcome(parse_poly, text, CTX, env) == \
                outcome(reference_parse_poly, text, CTX, env), text[:40]


def test_rationals_match_the_reference():
    texts = ["3", "-3", "0", "3/4", "-3/4", " - 3 / 4 ", "6/8", "-0/5", "3/0",
             "3/-4", "--3", "-", "3.5", "1e3", "", " ", "x", "3 4", "3/4/5",
             "(3)", "+3", "٣/4", "3\xa0/\t4", "é", "1" * 50 + "x", LONG,
             OVER, f"-{LONG}/{LONG}", f"1/{OVER}"]
    rng = random.Random(2201)
    for _ in range(100):
        value = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        texts += [str(value)] + _edits(rng, str(value), 2)
    for text in texts:
        assert outcome(parse_rational, text) == \
            outcome(reference_parse_rational, text), text[:40]


# (text, message, column) for every error the parser raises; f is bound
# over CTX and g over another context.
ERRORS = [
    (f"t + {OVER} é", f"integer literal has more than {MAX_DIGITS} digits, the cap", 5),
    ("t +\t é", "unexpected character 'é'", 6),
    (f"t é {OVER}", "unexpected character 'é'", 3),
    ("t*" + "(" * 101 + "t" + ")" * 101, "expression nested deeper than 100 levels", 103),
    ("t + " + "-" * 101 + "s", "expression nested deeper than 100 levels", 105),
    ("t * z", "unknown generator 'z'", 5),
    ("2*\xa0g", "'g' is bound over a different context", 4),
    ("t + *", "unexpected '*'", 5),
    ("t +  ", "unexpected end of expression", 6),
    ("(t + s", "expected ')'", 7),
    ("(t s)", "expected ')'", 4),
    ("t^-1", "exponent must be a nonnegative integer", 3),
    ("t^s", "expected an integer exponent", 3),
    ("t ^ 1 / 2", "exponent must be an integer, not a fraction", 7),
    ("1/t", "expected a denominator", 3),
    ("t + 1/0", "zero denominator", 7),
    ("f  s", "unexpected 's' after expression", 4),
]


@pytest.mark.parametrize("text,message,col", ERRORS, ids=[m for _, m, _ in ERRORS])
def test_each_error_message_has_its_column(text, message, col):
    with pytest.raises(ScriptError) as info:
        parse_poly(text, CTX, ENV)
    assert str(info.value) == f"column {col}: {message}"
    assert info.value.col == col


def test_a_bad_rational_is_echoed_without_a_column():
    with pytest.raises(ScriptError) as info:
        parse_rational("3/")
    assert str(info.value) == "bad rational '3/'"
    with pytest.raises(ScriptError) as info:
        parse_rational(" " + "1" * 45 + "x ")
    assert str(info.value) == f"bad rational {'1' * 40!r}... (46 characters)"
    assert info.value.col is None


def test_a_successful_parse_computes_no_column(monkeypatch):
    expected = [(case, outcome(parse_poly, *case)) for case in CASES]
    golden = (ROOT / "demos" / "golden_session.sg").read_text()
    output = run_script(golden).output

    def no_column(*args):
        raise AssertionError("a column was computed")

    monkeypatch.setattr(expr, "_column", no_column)
    parsed = 0
    for case, value in expected:
        if not isinstance(value, tuple):
            assert parse_poly(*case) == value
            parsed += 1
    assert parsed > 200
    assert parse_rational(" -3/4 ") == Fraction(-3, 4)
    assert run_script(golden).output == output


# odd words, powers and minus runs that the parser folds into one monomial
FOLD_CTX = Context(even=["x", "y"], odd=["theta1", "theta2", "theta3"])
FOLD_ENV = {"f": parse_poly("x + theta1", FOLD_CTX), "h": parse_poly("3*theta2", FOLD_CTX),
            "g": OTHER.var("u")}
FOLDS = [
    "theta1*theta1", "theta1^2", "theta1^0", "x^0", "0^0", "theta1^1", "theta1^2^0",
    "-theta1^2^0", "theta1^0^5", "theta1*x*theta1", "theta1*theta1*z", "0*z",
    "theta3*theta1*theta2", "theta3*theta2*theta1", "theta2*theta3*theta1",
    "-theta2*x*theta1*y^2*theta3", "theta2*theta1 + theta1*theta2",
    "theta3*theta1 - theta1*theta3 + 2*theta1*theta3",
    *["-" * n + "x*theta2*theta1" for n in (99, 100, 101)],
    *["2*" + "-" * n + "theta2^1*theta1" for n in (99, 100, 101)],
    "3/4*x", "3/4*x - 1/4*x - 1/2*x", "-3/4*x^2*theta1 + 1/6*theta1*x^2", "2^1000",
    "2^1001", "x^1001", "x^2^3", "-2^2^2", "x^1000^1001", "0*x^1001", "theta1^1001",
    "x^1001/2", "2^0^1001", "(3/2)^2*x", "x^2^0", "0^5*theta1",
    "2*theta2*(x+1)*theta1", "theta2*(theta1)", "theta2*h*theta1", "f*theta2*f",
    "theta1*f*theta2*x^2", "-f", "3*-f", "-(x+1)*theta1", "2*(x+1)^2*theta1",
    "0*(x)", "(x)*0*x", "x*f^2*theta3 - theta3*f", "g*x", "x*g", "theta1*theta1*(x)",
    "(theta2)*-theta1*-3", "x - (x) + f - f", "(x)^1001", "f^2^1001", "theta1*(x*é",
    "x*(y", "x*)", "2*3 + theta1^3*x",
]


def _squaring_pow(monkeypatch):
    """Run ** below the cap by repeated squaring, once per power: the same
    values and errors, without the thousand products of each x^1000."""
    plain = SuperPoly.__pow__
    powers = {}

    def power(p, n):
        if not isinstance(n, int) or not 0 < n <= MAX_EXPONENT:
            return plain(p, n)
        got = powers.get((p, n))
        if got is None:
            got = powers[p, n] = _power(p, n)
        return got

    monkeypatch.setattr(SuperPoly, "__pow__", power)


def test_literal_folds_match_the_reference():
    for text in FOLDS:
        for env in (None, FOLD_ENV):
            assert outcome(parse_poly, text, FOLD_CTX, env) == \
                outcome(reference_parse_poly, text, FOLD_CTX, env), text[:40]


def test_generator_names_that_are_not_identifiers_are_not_read():
    # the Python API accepts any names; the parser reads only identifiers
    ctx = Context(even=["x", "(", ""], odd=["-", "theta"])
    for text in ["(x)", "x*(x)", "-theta", "x - theta", "x*", "(", "x^2*theta*(x)"]:
        assert outcome(parse_poly, text, ctx) == outcome(reference_parse_poly, text, ctx), text


def test_field_overflow_matches_the_reference(monkeypatch):
    # 8389 * 1000 is the first multiple of 1000 above the field cap
    assert 8388 * 1000 <= MAX_FIELD_EXPONENT < 8389 * 1000
    over = "*".join(["x^1000"] * 8389)
    texts = [over, over[7:], "0*" + over, "theta1*theta1*" + over, "theta1*" + over + "*theta1",
             "(x)*" + over, "2*(x)*" + over, over + "*z", over[7:] + "*z", "(0)*" + over,
             # a later generator's overflow names it, not the first one
             "x*" + over.replace("x", "y")]
    expected = [outcome(parse_poly, text, FOLD_CTX) for text in texts]
    _squaring_pow(monkeypatch)
    assert expected == [outcome(reference_parse_poly, text, FOLD_CTX) for text in texts]
    message = f"exponent of x is above the cap of {MAX_FIELD_EXPONENT}"
    x8388000 = from_terms(FOLD_CTX, {Monomial([(0, 8388 * 1000)], 0): 1})
    assert [e[:2] if isinstance(e, tuple) else e for e in expected] == [
        (LimitExceeded, message), x8388000, 0, 0, (LimitExceeded, message),
        (LimitExceeded, message), (LimitExceeded, message), (LimitExceeded, message),
        (ScriptError, f"column {len(over) - 5}: unknown generator 'z'"), 0,
        (LimitExceeded, message.replace("of x", "of y"))]


def test_a_sum_of_ten_thousand_and_one_terms_matches_the_reference():
    # MAX_TERMS caps products only; a serialized polynomial of any size loads
    text = " + ".join(f"{k % 7 - 3 or 1}*x^{k // 100}*y^{k % 100}*theta{k % 3 + 1}"
                      for k in range(10_001))
    value = parse_poly(text, FOLD_CTX)
    assert len(value) == 10_001
    assert value == reference_parse_poly(text, FOLD_CTX)


def test_literal_monomials_make_no_ring_operation(monkeypatch):
    counts = dict.fromkeys(["__mul__", "__add__", "__pow__"], 0)
    for name in counts:
        def counted(*args, _name=name, _plain=getattr(SuperPoly, name)):
            counts[_name] += 1
            return _plain(*args)
        monkeypatch.setattr(SuperPoly, name, counted)
    literal = "3*x^2*theta2*theta1 - 1/2*y + x*-theta3 - 4 + theta1^0*2^3 - x^2*theta1*theta2"
    value = parse_poly(literal, FOLD_CTX)
    assert counts == dict.fromkeys(counts, 0)
    assert value == reference_parse_poly(literal, FOLD_CTX)
    parse_poly("2*theta2*(x + 1)*theta1", FOLD_CTX)
    assert counts["__mul__"] > 0


def _lists(rng):
    """Script argument lists: seeded expressions joined by commas or
    semicolons, some in brackets."""
    names = list(CTX.names)
    out = []
    for _ in range(60):
        items = [_text(rng, names) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            items[0] = "[" + items[0]
            items[-1] += "]"
        out.append(rng.choice([", ", ",", " ; ", ";"]).join(items))
    return out


def test_split_top_matches_the_character_loop():
    rng = random.Random(2300)
    golden = (ROOT / "demos" / "golden_session.sg").read_text()
    texts = golden.splitlines() + _lists(rng)
    texts += [edit for text in texts for edit in _edits(rng, text, 3)]
    texts += [text for text, *_ in CASES]
    for _ in range(300):
        texts.append("".join(rng.choice(")(,;[] ab") for _ in range(rng.randint(0, 24))))
    texts += ["", ",", ";", ")(", "(,)", "),(", "a)b,c(d,e", "[a,b],(c;d);e", "]]],[[[,"]
    for text in texts:
        for sep in ",;":
            assert _split_top(text, sep) == reference_split_top(text, sep), (text, sep)


# A fault inside a bracketed list is reported at its column in the list,
# counted from the first character after the '[' that opens it, so the
# column tells the items apart; eval and let count from the expression.
LIST_FAULTS = [
    ("morphism f : M -> M [t + $, s]", "unexpected character '$'", 5),
    ("morphism f : M -> M [t, s + $]", "unexpected character '$'", 8),
    ("field X = [t, s + $]", "unexpected character '$'", 8),
    ("field X = [ t,  u]", "unknown generator 'u'", 6),
    ("field X = [t, s +, 0]", "unexpected end of expression", 7),
    ("group g context=M mu=[t + tp, s + $] unit=(0, 0)", "unexpected character '$'", 13),
    ("group g context=M mu=[t + tp, s + sp] unit=(0, 0) inv=[-t, -$]",
     "unexpected character '$'", 6),
    ("variety V ideal=[t, s - $] point=(0, 0)", "unexpected character '$'", 8),
    ("matrix A dims 1|1 -> 1|1 rows [1, 0; 0, 1 + $]", "unexpected character '$'", 14),
    ("matrix A dims 1|1 -> 1|1 rows [1, $; 0, 1]", "unexpected character '$'", 4),
]


@pytest.mark.parametrize("statement,message,col", LIST_FAULTS,
                         ids=[s.split()[0] + str(col) for s, _, col in LIST_FAULTS])
def test_a_fault_in_a_list_has_its_column_in_the_list(statement, message, col):
    result = run_script("context M even=[t, s] odd=[]\n" + statement + "\n")
    assert result.errors == (f"error: line 2, column {col}: {message}",)

"""The expression parser against the parser it replaced (tests/oracles.py),
and one pinned column per parser error message.

The reference tokenizes into (kind, text, col) tuples and carries a column
with every token; expr reads token strings and works a column out only
when it raises.  Both must give the same value, or the same error type,
message, line and column, on every input here:
- seeded texts over the contexts 0|0 .. 3|3, with and without let
  bindings, one of them over another context and one shadowed by a
  generator;
- one-character insertions and deletions of each, drawn from an alphabet
  that holds characters no token starts with (é , .), the Unicode digit
  ٣ that \\d and int() accept, a non-breaking space and a tab;
- nesting at the depth cap, and literals at the digit cap placed before
  and after a bad character;
- short faulty texts, and parse_rational on the point and JSON forms.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import reference_parse_poly, reference_parse_rational
from supergeom import Context, LimitExceeded, ScriptError, expr
from supergeom.expr import parse_poly, parse_rational
from supergeom.poly import MAX_DIGITS
from supergeom.script import run_script

ROOT = Path(__file__).resolve().parent.parent
OTHER = Context(even=["u"], odd=["v"])
EDITS = "é,.٣\xa0\t +-*^/()0719xt_"


def outcome(parse, *args):
    """The value of a parse, or (type, message, line, col) of its error."""
    try:
        return parse(*args)
    except (ScriptError, LimitExceeded) as e:
        return (type(e), str(e), getattr(e, "line", None), getattr(e, "col", None))


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
    """(text, ctx, line, env) for every seeded text and its edits."""
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
                    line = rng.choice([None, 7])
                    out += [(t, ctx, line, bound)
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
    for text, ctx, line, env in CASES:
        assert outcome(parse_poly, text, ctx, line, env) == \
            outcome(reference_parse_poly, text, ctx, line, env), text


@pytest.mark.parametrize("line", [None, 3])
def test_boundary_texts_match_the_reference(line):
    for text in BOUNDARY:
        for env in (None, ENV):
            assert outcome(parse_poly, text, CTX, line, env) == \
                outcome(reference_parse_poly, text, CTX, line, env), text[:40]


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
        for line in (None, 5):
            assert outcome(parse_rational, text, line) == \
                outcome(reference_parse_rational, text, line), text[:40]


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
        parse_poly(text, CTX, 9, ENV)
    assert str(info.value) == f"line 9, column {col}: {message}"
    assert (info.value.line, info.value.col) == (9, col)


def test_a_bad_rational_is_echoed_without_a_column():
    with pytest.raises(ScriptError) as info:
        parse_rational("3/", 4)
    assert str(info.value) == "line 4: bad rational '3/'"
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

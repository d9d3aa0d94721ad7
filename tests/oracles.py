"""Reference forms of the printer, rename, the parameter quotient, rref,
at, the expression parser and the script's list splitter, written
against the public Monomial/Fraction API only, so they share no code
with the code-level forms in poly.py, linalg.py, expr.py and script.py
that they check.

reference_str is the printer before it moved onto monomial codes: sort
the (Monomial, Fraction) terms by a key built from the Monomial, check the
digit cap on the reduced Fraction and spell the factors from the
generator names.  substitution_rename is rename before it relabelled
codes: the ring map that sends each generator to its renamed generator,
applied term by term through SuperPoly products.  partials_quotient is
the left quotient by a one-term parameter as liealg took it before
SuperPoly.left_quotient: one left partial per generator of the parameter.
reference_rref is linalg.rref before it eliminated over the integers:
Gauss-Jordan on Fractions, each pivot row divided by its pivot at once.
reference_at is SuperPoly.at before it summed over one denominator: each
body term's Fraction coefficient times the powers of the point's values.
reference_tokenize, reference_parse_poly and reference_parse_rational are
the parser before it read token strings: a tokenizer that yields
(kind, text, col) tuples, one method per grammar rule and a column carried
by every token, and a ring product for every factor and a ring sum for
every term.  reference_split_top is script._split_top before it jumped
from bracket to bracket with a regex: one step per character.

reference_parity and reference_canonical_constraints are kept verbatim
from the code they check, so they read the numerators where that code
did.  reference_parity is SuperPoly.parity before it compared each term
with the first: the set of every term's odd-degree parity.
reference_canonical_constraints is liealg._canonical_constraints before
it reduced int rows: one Monomial per symbol and one Fraction per
coefficient read, reduced by linalg.rref and rebuilt by the public
constructor.
"""

import re
from fractions import Fraction

from supergeom import (Context, LimitExceeded, Monomial, Parity, ParityError,
                       ScriptError, SuperPoly, linalg)
from supergeom.expr import _ECHO_CHARS, _MAX_DEPTH
from supergeom.poly import MAX_DIGITS


def reference_key(ctx, mono):
    """Graded-lex descending on the even part, then the odd word."""
    exps = [0] * len(ctx.even)
    for i, e in mono.even:
        exps[i] = e
    neg = tuple(-e for e in exps)
    return (sum(neg), neg, mono.odd)


def reference_terms(p):
    """(Monomial, Fraction) pairs in printing order, digit cap checked."""
    out = sorted(p.terms.items(), key=lambda item: reference_key(p.ctx, item[0]))
    for _, c in out:
        if max(abs(c.numerator), c.denominator) >= 10**MAX_DIGITS:
            raise LimitExceeded(f"coefficient has more than {MAX_DIGITS} digits, the cap")
    return out


def reference_str(p):
    ctx = p.ctx
    text = ""
    for mono, coeff in reference_terms(p):
        factors = [ctx.even[i] if e == 1 else f"{ctx.even[i]}^{e}" for i, e in mono.even]
        factors += [ctx.odd[j] for j in mono.odd]
        mag = abs(coeff)
        if not factors:
            piece = str(mag)
        elif mag == 1:
            piece = "*".join(factors)
        else:
            piece = "*".join([str(mag)] + factors)
        if text:
            text += (" - " if coeff < 0 else " + ") + piece
        else:
            text = ("-" if coeff < 0 else "") + piece
    return text or "0"


def substitution_rename(p, ctx_out, name_map=None):
    """p with each generator n replaced by generator name_map.get(n, n) of
    ctx_out.  The images of the generators that appear are looked up
    first, in index order (ValueError for an unknown name), then their
    parities are checked (ParityError); each term is then the product of
    its coefficient, the powers of its even images and its odd images in
    increasing order.  A power of an image is built as one monomial,
    since ** stops at MAX_EXPONENT, so exponents up to the field cap can
    be renamed; merged generators multiply, and a product whose exponent
    passes the cap raises LimitExceeded."""
    name_map = name_map or {}
    ctx = p.ctx
    used_even = sorted({i for mono in p.terms for i, _ in mono.even})
    used_odd = sorted({j for mono in p.terms for j in mono.odd})
    images = {}
    for names, used in ((ctx.even, used_even), (ctx.odd, used_odd)):
        for k in used:
            images[names[k]] = ctx_out.var(name_map.get(names[k], names[k]))
    for names, used, parity in ((ctx.even, used_even, Parity.EVEN),
                                (ctx.odd, used_odd, Parity.ODD)):
        for k in used:
            if not images[names[k]].has_parity(parity):
                raise ParityError(f"image of {parity} generator {names[k]!r} is not {parity}")
    out = SuperPoly.zero(ctx_out)
    for mono, coeff in p.terms.items():
        term = SuperPoly.scalar(ctx_out, Fraction(coeff))
        for i, e in mono.even:
            (target,) = images[ctx.even[i]].terms
            ((t, _),) = target.even
            term = term * SuperPoly(ctx_out, {Monomial(((t, e),), 0): 1})
        for j in mono.odd:
            term = term * images[ctx.odd[j]]
        out = out + term
    return out


def partials_quotient(p, factor):
    """The g with p == factor * g for a one-term factor c*theta_M.  The left
    partials along M's generators in increasing order strip theta_M from
    the front; each keeps exactly the terms that hold its generator, so a
    lost term is one theta_M does not divide (ValueError).  The result is
    then divided by c."""
    ((mono, c),) = factor.terms.items()
    g = p
    for j in mono.odd:
        g = g.partial(p.ctx.odd[j])
    if len(g.terms) != len(p.terms):
        raise ValueError("polynomial does not factor through the parameter")
    return g / c


def reference_rref(rows):
    """(echelon rows, pivot columns) by Gauss-Jordan on Fractions; the
    input is not modified."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def reference_at(p, point):
    """p at a RationalPoint, odd generators sent to zero, term by term."""
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        if mono.odd:
            continue
        v = coeff
        for i, e in mono.even:
            v *= point.even_values[i] ** e
        total += v
    return total


_REFERENCE_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^/()]))"
)


def reference_tokenize(text: str, line=None) -> list[tuple[str, str, int]]:
    """The tokens of text as (kind, text, col) tuples: kind is int, ident,
    op or end, and col is 1-based.  The last token is ("end", "", n + 1)
    for a text of n characters.  One scan; the first character no token
    starts with raises ScriptError at its column, and so does an integer
    literal of more than MAX_DIGITS digits."""
    out = []
    pos = 0
    for m in _REFERENCE_TOKEN.finditer(text):
        if m.start() != pos:
            # the scan skipped a character no token starts with
            break
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "int" and m.end() - start > MAX_DIGITS:
            # the printing cap; CPython itself refuses int() past 4300 digits
            raise ScriptError(
                f"integer literal has more than {MAX_DIGITS} digits, the cap",
                line=line, col=start + 1,
            )
        out.append((kind, m.group(kind), start + 1))
        pos = m.end()
    stripped = text[pos:].lstrip()
    if stripped:
        raise ScriptError(f"unexpected character {stripped[0]!r}",
                          line=line, col=len(text) - len(stripped) + 1)
    out.append(("end", "", len(text) + 1))
    return out


class _ReferenceParser:
    """Reads tokens left to right; tok is the current (kind, text, col).
    An op's text is never the text of an int, an ident or the end, so the
    text alone tells an operator apart."""

    def __init__(self, text, line, ctx=None, env=None):
        self.next_token = iter(reference_tokenize(text, line)).__next__
        self.tok = self.next_token()
        self.line = line
        self.ctx = ctx
        self.env = env
        self.depth = 0

    def advance(self):
        self.tok = self.next_token()

    def error(self, message, tok=None):
        raise ScriptError(message, line=self.line, col=(tok or self.tok)[2])

    def nested(self, tok, rule) -> SuperPoly:
        """Read rule one nesting level deeper, counted from tok."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.error(f"expression nested deeper than {_MAX_DEPTH} levels", tok)
        out = rule()
        self.depth -= 1
        return out

    def eat_op(self, op) -> bool:
        if self.tok[1] == op:
            self.advance()
            return True
        return False

    def expr(self) -> SuperPoly:
        out = self.term()
        while True:
            sign = self.tok[1]
            if sign == "+":
                self.advance()
                out = out + self.term()
            elif sign == "-":
                self.advance()
                out = out - self.term()
            else:
                return out

    def term(self) -> SuperPoly:
        out = self.factor()
        while self.eat_op("*"):
            out = out * self.factor()
        return out

    def factor(self) -> SuperPoly:
        tok = self.tok
        if self.eat_op("-"):
            return -self.nested(tok, self.factor)
        out = self.atom()
        # a loop: chained powers are left-associative and cost no depth
        while self.eat_op("^"):
            out = out ** self.exponent()
        return out

    def exponent(self) -> int:
        kind, text, _ = self.tok
        if kind != "int":
            self.error("exponent must be a nonnegative integer" if text == "-"
                       else "expected an integer exponent")
        self.advance()
        if self.tok[1] == "/":
            self.error("exponent must be an integer, not a fraction")
        return int(text)

    def rational(self) -> int | Fraction:
        """An int literal, or a Fraction when a denominator follows."""
        value = int(self.tok[1])
        self.advance()
        if self.eat_op("/"):
            den = self.tok
            if den[0] != "int":
                self.error("expected a denominator")
            self.advance()
            d = int(den[1])
            if d == 0:
                self.error("zero denominator", den)
            return Fraction(value, d)
        return value

    def atom(self) -> SuperPoly:
        tok = self.tok
        kind, text, _ = tok
        if kind == "int":
            return self.ctx.scalar(self.rational())
        if kind == "ident":
            self.advance()
            if text in self.ctx:
                return self.ctx.var(text)
            bound = self.env.get(text) if self.env else None
            if bound is None:
                self.error(f"unknown generator {text!r}", tok)
            if bound.ctx != self.ctx:
                self.error(f"{text!r} is bound over a different context", tok)
            return bound
        if text == "(":
            self.advance()
            out = self.nested(tok, self.expr)
            if not self.eat_op(")"):
                self.error("expected ')'")
            return out
        if kind == "end":
            self.error("unexpected end of expression")
        self.error(f"unexpected {text!r}")


def reference_parse_poly(text: str, ctx: Context, line=None, env=None) -> SuperPoly:
    """Text to a polynomial over ctx.  env holds session bindings, which
    generators shadow; a binding over another context is an error."""
    p = _ReferenceParser(text, line, ctx, env)
    out = p.expr()
    kind, text, _ = p.tok
    if kind != "end":
        p.error(f"unexpected {text!r} after expression")
    return out


def reference_parse_rational(text: str, line=None) -> Fraction:
    """'-'? rational with spaces: only the form str(Fraction) writes."""
    try:
        p = _ReferenceParser(text, line)
        sign = -1 if p.eat_op("-") else 1
        if p.tok[0] == "int":
            value = p.rational()
            if p.tok[0] == "end":
                return Fraction(sign * value)
    except ScriptError:
        pass
    shown = text.strip()
    more = f"... ({len(shown)} characters)" if len(shown) > _ECHO_CHARS else ""
    raise ScriptError(f"bad rational {shown[:_ECHO_CHARS]!r}{more}", line=line)


def reference_split_top(text: str, sep: str):
    """Split at top-level separators, ignoring ones inside () or []."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return parts


def reference_parity(p):
    """EVEN, ODD, or MIXED; the zero polynomial is EVEN by convention."""
    if not p.nums:
        return Parity.EVEN
    shift = p.ctx._shift
    seen = {(m >> shift).bit_count() & 1 for m in p.nums}
    if len(seen) == 2:
        return Parity.MIXED
    return Parity(seen.pop())


def reference_canonical_constraints(ctx, polys):
    """Row-reduce the linear constraints separately by parity and rebuild
    them, so any generating set with the same span prints identically."""
    even, odd = [], []
    for c in polys:
        if c:
            (even if c.has_parity(Parity.EVEN) else odd).append(c)

    out = []
    # the odd symbols skip the reserved parameter pair
    for group, names in ((even, ctx.even), (odd, ctx.odd[2:])):
        if not group:
            continue
        monos = []
        for name in names:
            is_odd, i = ctx.lookup(name)
            monos.append(Monomial((), 1 << i) if is_odd else Monomial(((i, 1),), 0))
        echelon, _ = linalg.rref([[c.coefficient(m) for m in monos] for c in group])
        out += [SuperPoly(ctx, zip(monos, row)) for row in echelon if any(row)]
    return tuple(out)

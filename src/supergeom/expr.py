"""Polynomial expression language for scripts and serialized values.

Grammar; power binds tightest, then unary minus, product, sum:

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | atom ('^' nat)*
    atom     := rational | ident | '(' expr ')'
    rational := int ('/' int)?

The parser multiplies through the ring as it reads, so it builds no
syntax tree and a line with several faults reports the first one it
reaches.  Odd-word normalization makes parse order irrelevant:
"theta2*theta1" and "-theta1*theta2" read as the same value.  The
canonical renderer of SuperPoly emits this grammar, so printing and
parsing are inverse.  A lone rational (a point, JSON) is '-'? rational.

tokenize splits the whole line in one regex scan before parsing starts,
into plain (kind, text, col) tuples, so a bad character or an over-long
integer is reported ahead of any parse fault.  The parser keeps the
current tuple in its tok attribute and steps through the list with one
iterator.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ScriptError
from .poly import MAX_DIGITS, Context, SuperPoly

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^/()]))"
)


def tokenize(text: str, line=None) -> list[tuple[str, str, int]]:
    """The tokens of text as (kind, text, col) tuples: kind is int, ident,
    op or end, and col is 1-based.  The last token is ("end", "", n + 1)
    for a text of n characters.  One scan; the first character no token
    starts with raises ScriptError at its column, and so does an integer
    literal of more than MAX_DIGITS digits."""
    out = []
    pos = 0
    for m in _TOKEN.finditer(text):
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


# Open parentheses plus pending unary minuses allowed at once.  Only the
# parser recurses, once per level, so this bounds its stack and turns
# absurdly nested input into a ScriptError instead of a crash.
_MAX_DEPTH = 100


class _Parser:
    """Reads tokens left to right; tok is the current (kind, text, col).
    An op's text is never the text of an int, an ident or the end, so the
    text alone tells an operator apart."""

    def __init__(self, text, line, ctx=None, env=None):
        self.next_token = iter(tokenize(text, line)).__next__
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


def parse_poly(text: str, ctx: Context, line=None, env=None) -> SuperPoly:
    """Text to a polynomial over ctx.  env holds session bindings, which
    generators shadow; a binding over another context is an error."""
    p = _Parser(text, line, ctx, env)
    out = p.expr()
    kind, text, _ = p.tok
    if kind != "end":
        p.error(f"unexpected {text!r} after expression")
    return out


# Most characters of a bad rational that an error message repeats.
_ECHO_CHARS = 40


def parse_rational(text: str, line=None) -> Fraction:
    """'-'? rational with spaces: only the form str(Fraction) writes."""
    try:
        p = _Parser(text, line)
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

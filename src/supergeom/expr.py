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
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import ScriptError
from .poly import MAX_DIGITS, Context, SuperPoly

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^/()]))"
)


class Token(NamedTuple):
    kind: str  # int | ident | op | end
    text: str
    col: int  # 1-based


def tokenize(text: str, line=None):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ScriptError(f"unexpected character {stripped[0]!r}",
                              line=line, col=len(text) - len(stripped) + 1)
        kind = m.lastgroup
        if kind == "int" and len(m.group(kind)) > MAX_DIGITS:
            # the printing cap; CPython itself refuses int() past 4300 digits
            raise ScriptError(
                f"integer literal has more than {MAX_DIGITS} digits, the cap",
                line=line, col=m.start(kind) + 1,
            )
        out.append(Token(kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    out.append(Token("end", "", len(text) + 1))
    return out


# Open parentheses plus pending unary minuses allowed at once.  Only the
# parser recurses, once per level, so this bounds its stack and turns
# absurdly nested input into a ScriptError instead of a crash.
_MAX_DEPTH = 100


class _Parser:
    def __init__(self, text, line, ctx=None, env=None):
        self.tokens = tokenize(text, line)
        self.line = line
        self.ctx = ctx
        self.env = env
        self.i = self.depth = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def error(self, message, tok=None):
        tok = tok or self.cur
        raise ScriptError(message, line=self.line, col=tok.col)

    def nested(self, tok, rule) -> SuperPoly:
        """Read rule one nesting level deeper, counted from tok."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.error(f"expression nested deeper than {_MAX_DEPTH} levels", tok)
        out = rule()
        self.depth -= 1
        return out

    def eat_op(self, op) -> bool:
        if self.cur.kind == "op" and self.cur.text == op:
            self.i += 1
            return True
        return False

    def expr(self) -> SuperPoly:
        out = self.term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            sign = self.cur.text
            self.i += 1
            part = self.term()
            out = out + part if sign == "+" else out - part
        return out

    def term(self) -> SuperPoly:
        out = self.factor()
        while self.eat_op("*"):
            out = out * self.factor()
        return out

    def factor(self) -> SuperPoly:
        tok = self.cur
        if self.eat_op("-"):
            return -self.nested(tok, self.factor)
        out = self.atom()
        # a loop: chained powers are left-associative and cost no depth
        while self.eat_op("^"):
            out = out ** self.exponent()
        return out

    def exponent(self) -> int:
        tok = self.cur
        if tok.kind != "int":
            self.error("exponent must be a nonnegative integer" if tok.text == "-"
                       else "expected an integer exponent")
        self.i += 1
        if self.cur.kind == "op" and self.cur.text == "/":
            self.error("exponent must be an integer, not a fraction")
        return int(tok.text)

    def rational(self) -> Fraction:
        value = Fraction(int(self.cur.text))
        self.i += 1
        if self.eat_op("/"):
            den = self.cur
            if den.kind != "int":
                self.error("expected a denominator")
            self.i += 1
            if int(den.text) == 0:
                self.error("zero denominator", den)
            value /= int(den.text)
        return value

    def atom(self) -> SuperPoly:
        tok = self.cur
        if tok.kind == "int":
            return self.ctx.scalar(self.rational())
        if tok.kind == "ident":
            self.i += 1
            if tok.text in self.ctx:
                return self.ctx.var(tok.text)
            bound = self.env.get(tok.text) if self.env else None
            if bound is None:
                self.error(f"unknown generator {tok.text!r}", tok)
            if bound.ctx != self.ctx:
                self.error(f"{tok.text!r} is bound over a different context", tok)
            return bound
        if tok.kind == "op" and tok.text == "(":
            self.i += 1
            out = self.nested(tok, self.expr)
            if not self.eat_op(")"):
                self.error("expected ')'")
            return out
        if tok.kind == "end":
            self.error("unexpected end of expression")
        self.error(f"unexpected {tok.text!r}")


def parse_poly(text: str, ctx: Context, line=None, env=None) -> SuperPoly:
    """Text to a polynomial over ctx.  env holds session bindings, which
    generators shadow; a binding over another context is an error."""
    p = _Parser(text, line, ctx, env)
    out = p.expr()
    if p.cur.kind != "end":
        p.error(f"unexpected {p.cur.text!r} after expression")
    return out


# Most characters of a bad rational that an error message repeats.
_ECHO_CHARS = 40


def parse_rational(text: str, line=None) -> Fraction:
    """'-'? rational with spaces: only the form str(Fraction) writes."""
    try:
        p = _Parser(text, line)
        sign = -1 if p.eat_op("-") else 1
        if p.cur.kind == "int":
            value = p.rational()
            if p.cur.kind == "end":
                return sign * value
    except ScriptError:
        pass
    shown = text.strip()
    more = f"... ({len(shown)} characters)" if len(shown) > _ECHO_CHARS else ""
    raise ScriptError(f"bad rational {shown[:_ECHO_CHARS]!r}{more}", line=line)

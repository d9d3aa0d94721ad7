"""Polynomial expression language for scripts and serialized values.

Grammar, with the usual precedence (power binds tightest, then unary
minus, product, sum):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | atom ('^' nat)*
    atom     := rational | ident | '(' expr ')'
    rational := int ('/' int)?

Lowering multiplies through the ring, so the odd-word normalization
makes parse order irrelevant: "theta2*theta1" and "-theta1*theta2"
lower to the same value.  The canonical renderer of SuperPoly emits
this grammar, which is what makes printing and parsing inverse to each
other.
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
            col = len(text) - len(stripped) + 1
            raise ScriptError(
                f"unexpected character {stripped[0]!r}", line=line, col=col
            )
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


# AST nodes; Var keeps its column so name-resolution errors can point at it
class Lit(NamedTuple):
    value: Fraction


class Var(NamedTuple):
    name: str
    col: int


class Neg(NamedTuple):
    arg: object


class Sum(NamedTuple):
    head: object
    tail: tuple  # (sign, node) pairs


class Prod(NamedTuple):
    factors: tuple


class Pow(NamedTuple):
    base: object
    exp: int


# Open parentheses plus pending unary minuses allowed at once.  Parsing
# and lowering recurse once per level, so this bounds their stack use and
# turns absurdly nested input into a ScriptError instead of a crash.
_MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens, line):
        self.tokens = tokens
        self.line = line
        self.i = 0
        self.depth = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def error(self, message, tok=None):
        tok = tok or self.cur
        raise ScriptError(message, line=self.line, col=tok.col)

    def nest(self, tok):
        """Enter one nesting level at tok; the caller leaves it."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.error(f"expression nested deeper than {_MAX_DEPTH} levels", tok)

    def eat_op(self, op) -> bool:
        if self.cur.kind == "op" and self.cur.text == op:
            self.i += 1
            return True
        return False

    def expr(self):
        head = self.term()
        tail = []
        while self.cur.kind == "op" and self.cur.text in "+-":
            sign = 1 if self.cur.text == "+" else -1
            self.i += 1
            tail.append((sign, self.term()))
        return Sum(head, tuple(tail)) if tail else head

    def term(self):
        factors = [self.factor()]
        while self.eat_op("*"):
            factors.append(self.factor())
        return Prod(tuple(factors)) if len(factors) > 1 else factors[0]

    def factor(self):
        tok = self.cur
        if self.eat_op("-"):
            self.nest(tok)
            node = Neg(self.factor())
            self.depth -= 1
            return node
        node = self.atom()
        while self.eat_op("^"):
            node = Pow(node, self.exponent())
        return node

    def exponent(self) -> int:
        if self.cur.kind == "op" and self.cur.text == "-":
            self.error("exponent must be a nonnegative integer")
        if self.cur.kind != "int":
            self.error("expected an integer exponent")
        tok = self.cur
        self.i += 1
        if self.cur.kind == "op" and self.cur.text == "/":
            self.error("exponent must be an integer, not a fraction")
        return int(tok.text)

    def atom(self):
        tok = self.cur
        if tok.kind == "int":
            self.i += 1
            value = Fraction(int(tok.text))
            if self.eat_op("/"):
                den = self.cur
                if den.kind != "int":
                    self.error("expected a denominator")
                self.i += 1
                if int(den.text) == 0:
                    self.error("zero denominator", den)
                value /= int(den.text)
            return Lit(value)
        if tok.kind == "ident":
            self.i += 1
            return Var(tok.text, tok.col)
        if tok.kind == "op" and tok.text == "(":
            self.nest(tok)
            self.i += 1
            node = self.expr()
            if not self.eat_op(")"):
                self.error("expected ')'")
            self.depth -= 1
            return node
        if tok.kind == "end":
            self.error("unexpected end of expression")
        self.error(f"unexpected {tok.text!r}")


def parse(text: str, line=None):
    """Text to AST; raises ScriptError with position on bad input."""
    p = _Parser(tokenize(text, line), line)
    node = p.expr()
    if p.cur.kind != "end":
        p.error(f"unexpected {p.cur.text!r} after expression")
    return node


def lower(node, ctx: Context, line=None, env=None) -> SuperPoly:
    """AST to a polynomial over the context.

    env maps names to already-built polynomials (session bindings);
    generators shadow it, and a binding over a different context is an
    error rather than a silent miss.
    """
    if isinstance(node, Lit):
        return ctx.scalar(node.value)
    if isinstance(node, Var):
        if node.name in ctx:
            return ctx.var(node.name)
        bound = env.get(node.name) if env else None
        if bound is not None:
            if bound.ctx != ctx:
                raise ScriptError(
                    f"{node.name!r} is bound over a different context",
                    line=line, col=node.col,
                )
            return bound
        raise ScriptError(
            f"unknown generator {node.name!r}", line=line, col=node.col
        )
    if isinstance(node, Neg):
        return -lower(node.arg, ctx, line, env)
    if isinstance(node, Sum):
        out = lower(node.head, ctx, line, env)
        for sign, item in node.tail:
            part = lower(item, ctx, line, env)
            out = out + part if sign > 0 else out - part
        return out
    if isinstance(node, Prod):
        out = ctx.one()
        for f in node.factors:
            out = out * lower(f, ctx, line, env)
        return out
    if isinstance(node, Pow):
        # chained powers nest Pow nodes outside the depth budget, so
        # unwind them in a loop rather than by recursion
        exps = []
        while isinstance(node, Pow):
            exps.append(node.exp)
            node = node.base
        out = lower(node, ctx, line, env)
        for e in reversed(exps):
            out = out ** e
        return out
    raise TypeError(f"not an expression node: {node!r}")


def parse_poly(text: str, ctx: Context, line=None, env=None) -> SuperPoly:
    return lower(parse(text, line), ctx, line, env)

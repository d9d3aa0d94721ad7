"""Polynomial expression language for scripts and serialized values.

Grammar; power binds tightest, then unary minus, product, sum:

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | atom ('^' nat)*
    atom     := rational | ident | '(' expr ')'
    rational := int ('/' int)?

The parser evaluates as it reads, so it builds no syntax tree and a line
with several faults reports the first one it reaches.  A term's literal
factors (rationals, context generators, gen^n and unary minus) fold into
one coefficient and one monomial code as they are read: poly's
_times_generator multiplies the code by each generator with the Koszul
sign of the ring, gives zero for a repeated odd generator, and raises on
an exponent past the field cap at the same factor as a ring product
would; a term that is zero folds no further generators, as a product by
zero overflows nothing.  The literal terms of one level sum into one map
of codes that becomes one SuperPoly at the end, so a sum of literal
monomials makes no ring product, sum or power.  A group, '(' expr ')' or
a session binding, is multiplied in by * in its place, its powers by
**, the literal factors before it and every factor after it in the term
by *, so overflows, caps and errors come in reading order; such a term
is added by + to the SuperPoly of the literal terms, zero when there are
none.  A literal with a chained power, such as x^2^3, is a group from
its second '^' on.  Odd-word normalization makes parse order
irrelevant: "theta2*theta1" and "-theta1*theta2" read as the same
value.  The canonical renderer of SuperPoly emits this grammar, so
printing and parsing are inverse.  A lone rational (a point, JSON) is
'-'? rational.

The line is split into tokens first, by one regex scan that returns the
token strings, so a bad character or an over-long integer is reported
ahead of any parse fault.  A token's kind is read off its text: an int is
decimal digits, an ident an identifier, the end the empty string, and an
op is none of these.  The descent steps through the strings with one
iterator and carries no positions: only whitespace lies between the
tokens of a line that scanned clean, so the column of a token is worked
out from the strings before it, and only when an error is raised.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ScriptError
from .poly import (MAX_DIGITS, _UNIT_CODE, Context, SuperPoly, _cap_exponent,
                   _times_generator)

_WORD = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*^/()]")
# a character that is neither whitespace nor part of a token
_BAD = re.compile(r"[^\s\dA-Za-z_+\-*^/()]")


def _column(text: str, words: list[str], k: int) -> int:
    """The 1-based column of words[k] in text, where words are the tokens of
    text in order and the last one is the end "".  No character between
    two tokens can start a token, so each token is the first match of its
    string after the end of the one before."""
    pos = 0
    for word in words[:k]:
        pos = text.index(word, pos) + len(word)
    return text.index(words[k], pos) + 1 if words[k] else len(text) + 1


def _words(text: str, at=0) -> list[str]:
    """The token strings of text, then "" for the end.  The first character
    no token starts with raises ScriptError at its column, and so does an
    integer literal of more than MAX_DIGITS digits, whichever comes first;
    columns count as if text started at column at + 1."""
    words = _WORD.findall(text)
    words.append("")
    bad = _BAD.search(text)
    if bad or max(map(len, words)) > MAX_DIGITS:
        long = [k for k, w in enumerate(words)
                if len(w) > MAX_DIGITS and w.isdecimal()]
        col = _column(text, words, long[0]) if long else len(text) + 1
        if bad and bad.start() < col:
            raise ScriptError(f"unexpected character {bad.group()!r}",
                              col=at + bad.start() + 1)
        if long:
            # the printing cap; CPython itself refuses int() past 4300 digits
            raise ScriptError(
                f"integer literal has more than {MAX_DIGITS} digits, the cap",
                col=at + col,
            )
    return words


# Open parentheses plus pending unary minuses allowed at once.  Only the
# parser recurses, once per level, so this bounds its stack and turns
# absurdly nested input into a ScriptError instead of a crash.
_MAX_DEPTH = 100


class _Parser:
    """Reads token strings left to right; tok is the current one."""

    def __init__(self, text, ctx=None, env=None, at=0):
        self.text = text
        self.at = at
        self.words = _words(text, at)
        self.rest = iter(self.words)
        self.next = self.rest.__next__
        self.tok = self.next()
        self.ctx = ctx
        self.env = env
        self.depth = 0

    def error(self, message, back=0):
        """Raise at the current token, or at the one back tokens before it."""
        k = len(self.words) - self.rest.__length_hint__() - 1 - back
        raise ScriptError(message, col=self.at + _column(self.text, self.words, k))

    def expr(self) -> SuperPoly:
        # literal terms sum into one map of codes, the others by + at the end
        coeffs: dict[int, int | Fraction] = {}
        groups = []
        c = 1
        while True:
            c, code, out = self.term(c)
            if out is not None:
                groups.append(out)
            elif c:
                coeffs[code] = coeffs.get(code, 0) + c
            sign = self.tok
            if sign == "+":
                c = 1
            elif sign == "-":
                c = -1
            else:
                break
            self.tok = self.next()
        out = SuperPoly._from_coefficients(self.ctx, coeffs)
        for group in groups:
            out = out + group
        return out

    def term(self, c):
        """c times the product of one term's factors, read left to right.
        Literal factors fold into c and one monomial code, with no ring
        product, until a group comes; the term is then (c, code, None).  A
        group is multiplied in by * in its place, and so is every factor
        after it, and the term is (None, None, product)."""
        ctx = self.ctx
        code = _UNIT_CODE
        out = None
        while True:
            tok = self.tok
            depth = self.depth
            while tok == "-":
                # the minus takes the whole factor after it, powers included
                tok = self.tok = self.next()
                self.depth += 1
                if self.depth > _MAX_DEPTH:
                    self.error(f"expression nested deeper than {_MAX_DEPTH} levels", 1)
                c = -c
            group = None
            if tok.isdecimal():
                value = self.rational()
                if self.tok == "^":
                    value **= self.exponent()
                if self.tok == "^":
                    group = ctx.scalar(value)
                else:
                    c *= value
            elif tok in ctx and tok.isidentifier():
                self.tok = self.next()
                n = self.exponent() if self.tok == "^" else 1
                if self.tok == "^":
                    group = ctx.var(tok) ** n
                elif c:
                    # a zero term stays zero, so it can no longer overflow
                    sign, code = _times_generator(ctx, code, tok, n)
                    c *= sign
            else:
                group = self.group(tok)
            if group is not None:
                # chained powers are left-associative and cost no depth
                while self.tok == "^":
                    group = group ** self.exponent()
                if code != _UNIT_CODE:
                    group = SuperPoly._from_coefficients(ctx, {code: c}) * group
                elif c != 1:
                    group = group * c
                out = group if out is None else out * group
                c, code = 1, _UNIT_CODE
            elif out is not None:
                out = out * SuperPoly._from_coefficients(ctx, {code: c})
                c, code = 1, _UNIT_CODE
            self.depth = depth
            if self.tok != "*":
                return (c, code, None) if out is None else (None, None, out)
            self.tok = self.next()

    def group(self, tok) -> SuperPoly:
        """A parenthesised expression or a session binding."""
        if tok == "(":
            self.tok = self.next()
            self.depth += 1
            if self.depth > _MAX_DEPTH:
                self.error(f"expression nested deeper than {_MAX_DEPTH} levels", 1)
            out = self.expr()
            if self.tok != ")":
                self.error("expected ')'")
            self.tok = self.next()
            self.depth -= 1
            return out
        if tok.isidentifier():
            self.tok = self.next()
            out = self.env.get(tok) if self.env else None
            if out is None:
                self.error(f"unknown generator {tok!r}", 1)
            if out.ctx != self.ctx:
                self.error(f"{tok!r} is bound over a different context", 1)
            return out
        if tok:
            self.error(f"unexpected {tok!r}")
        self.error("unexpected end of expression")

    def exponent(self) -> int:
        """The n of '^' n, from the current token '^'; at most MAX_EXPONENT."""
        tok = self.tok = self.next()
        if not tok.isdecimal():
            self.error("exponent must be a nonnegative integer" if tok == "-"
                       else "expected an integer exponent")
        self.tok = self.next()
        if self.tok == "/":
            self.error("exponent must be an integer, not a fraction")
        return _cap_exponent(int(tok))

    def rational(self) -> int | Fraction:
        """An int literal, or a Fraction when a denominator follows."""
        value = int(self.tok)
        self.tok = self.next()
        if self.tok != "/":
            return value
        den = self.tok = self.next()
        if not den.isdecimal():
            self.error("expected a denominator")
        self.tok = self.next()
        d = int(den)
        if d == 0:
            self.error("zero denominator", 1)
        return Fraction(value, d)


def parse_poly(text: str, ctx: Context, env=None, at=0) -> SuperPoly:
    """Text to a polynomial over ctx.  env holds session bindings, which
    generators shadow; a binding over another context is an error.  A
    fault raises ScriptError with its column and no line (run_script adds
    the line).  The column counts as if text started at column at + 1, so
    an item that starts at index at of a longer list is placed in that
    list."""
    p = _Parser(text, ctx, env, at)
    out = p.expr()
    if p.tok:
        p.error(f"unexpected {p.tok!r} after expression")
    return out


# Most characters of a bad rational that an error message repeats.
_ECHO_CHARS = 40


def parse_rational(text: str) -> Fraction:
    """'-'? rational with spaces: only the form str(Fraction) writes.  Any
    other text raises ScriptError "bad rational ...", which echoes the
    text and names no column or line."""
    try:
        p = _Parser(text)
        sign = 1
        if p.tok == "-":
            p.tok = p.next()
            sign = -1
        if p.tok.isdecimal():
            value = p.rational()
            if not p.tok:
                return Fraction(sign * value)
    except ScriptError:
        pass
    shown = text.strip()
    more = f"... ({len(shown)} characters)" if len(shown) > _ECHO_CHARS else ""
    raise ScriptError(f"bad rational {shown[:_ECHO_CHARS]!r}{more}")

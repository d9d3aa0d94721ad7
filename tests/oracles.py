"""The tests' oracles: independent algorithms for the kernel's values,
and earlier forms of the code that can stand in for the code they check.

The independent algorithms share no code with matrix.py or linalg.py:

- leibniz is the determinant as the signed sum over permutations, each
  sign the parity of tests/model.py's inversion count, over any ring given
  by its operations; over Fractions, its default, it is every small
  Fraction determinant of the tests.
- gauss_jordan_inverse inverts a grid of Fractions or polynomials by
  Gauss-Jordan, each pivot the first nonzero constant in its column.
- adjugate_inverse inverts a grid of polynomials with a constant
  determinant as its adjugate over that determinant, every cofactor and
  the determinant read from one reference_minors memo, so it shares no
  elimination with linalg, which inverts the constant bodies.
- oracle_inverse is the inverse of an even grid T = B + N as the power
  series sum_k (-N')^k B^-1 in N' = B^-1 N, with B^-1 the
  adjugate_inverse of the body.  Its products pair mostly terms whose
  odd words overlap, so it is slow and serves as an oracle for
  _grid_inverse and invert only.
- oracle_schur is the Schur complement a - b d^-1 c with b d^-1 c taken
  one polynomial product at a time (helpers.grid_mul) and subtracted with
  plain -, the oracle for matrix._schur's one packed grid product.
- brute_srank is srank by subset search: the sizes of the largest square
  submatrices of the constant bodies of T1 and T4 whose leibniz
  determinant is nonzero, so it shares no elimination with linalg.rank,
  on which srank stands.

The reference forms below are of the printer, rename, the parameter
quotient, rref, at, the expression parser and the script's list
splitter, written against the Monomial/Fraction model of tests/model.py
only, so they share no code with the code-level forms in poly.py,
linalg.py, expr.py and script.py that they check.

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
coefficient read, reduced by linalg.rref and rebuilt by the model's
constructor.

reference_lie_algebra is liealg.lie_algebra before it read the linearised
equations, kept verbatim: it expands the group element I + eps*X, takes
the Berezinian (SL) or the form's residue (I + eps*X)^st Phi (I + eps*X) -
Phi (OSp), and divides each entry by eps, all through the dual-number
quotient.

reference_substitute is SuperPoly.substitute before it accumulated every
term into one numerator map: a generator yields each term's head (the
numerator times every image power but the last) with its last factor,
and reference_dot sums those pairs.  reference_dot checks the context of
each pair, then multiplies term pair by term pair on tests/model.py's
Monomials, each odd sign theta_product's inversion count, so it shares
no pair loop with poly._packed_dot.

reference_apply and reference_bracket are SuperDerivation.apply and
derivation.bracket before the bracket became one sum of products, kept verbatim
over reference_dot: apply is one dot of the nonzero coefficients with
the argument's left partials, and the bracket applies each field to
each of the other's coefficients, 2(p+q) applies, then subtracts the
second side times the swap sign generator by generator.
reference_infinitesimal_action and reference_is_left_invariant are
groups.infinitesimal_action and groups.is_left_invariant in that form,
one reference_apply per image and per generator.

reference_iota is GroupLaw.iota, kept verbatim: the anti-law
iota(g, g') = g'g, mu with its two factors swapped by a rename.  Before
the group layer read mu alone, left_invariant_field was the infinitesimal
action of iota and is_left_invariant checked (field x id) iota* =
iota* field; reference_is_left_invariant still takes that route.

reference_check_group_axioms is groups.check_group_axioms before it
substituted each side of an axiom as one tuple: one function per axiom,
one substitution per polynomial and side, and the unit's left and right
residuals built coordinate by coordinate.  Each substitution is
reference_substitute, so it shares no image-power memo with the code it
checks.

reference_minors is the Laplace expansion of matrix._det and
matrix._body_inverse before matrix._laplace filled it bottom-up, kept
verbatim with its column sum: a top-down memo keyed by the packed int of
a row mask and a column mask, whose minor(key) is the determinant on the
rows of key & (2^n - 1) and the columns of key >> n, expanded down the
lowest column by recursion.
"""

import re
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations
from operator import add, itemgetter, mul, neg

from helpers import grid_mul, identity
from model import Monomial, coefficient, from_terms, inversions, terms_of, theta_product
from supergeom import (Context, ContextMismatch, LimitExceeded, Morphism,
                       Parity, ParityError, ScriptError, SuperDerivation, SuperDim,
                       SuperMatrix, SuperPoly, linalg)
from supergeom.expr import _ECHO_CHARS, _MAX_DEPTH
from supergeom.groups import AxiomResult, primed, product_context
from supergeom.liealg import (RESERVED, LieAlgebraResult, _canonical_constraints,
                              _divide, _symbol_names)
from supergeom.poly import (_PARITIES, MAX_DIGITS, MAX_FIELD_EXPONENT, _Memo, _odd_word,
                            _power, _unpack)


# -- independent algorithms ----------------------------------------------------


def leibniz(grid, mul=mul, add=add, neg=neg, one=Fraction(1), zero=Fraction(0)):
    """sum over permutations s of sign(s) * prod grid[i][s(i)], in the ring
    of mul, add, neg, one and zero: n! terms, so for small grids only."""
    total = zero
    for perm in permutations(range(len(grid))):
        term = one
        for i, j in enumerate(perm):
            term = mul(term, grid[i][j])
        total = add(total, neg(term) if inversions(perm) & 1 else term)
    return total


def gauss_jordan_inverse(rows, one, zero):
    """The inverse of a square grid of Fractions or of polynomials, one and
    zero its ring's unit and zero, by Gauss-Jordan.  The pivot of each
    column is the first entry at or below the diagonal that is a nonzero
    constant, so an invertible constant grid is inverted, and so is a
    polynomial one whose pivots are all found, such as an upper
    triangular grid with a constant diagonal."""
    n = len(rows)
    aug = [list(r) + [one if i == j else zero for j in range(n)]
           for i, r in enumerate(rows)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if _constant(aug[r][c]))
        aug[c], aug[pivot] = aug[pivot], aug[c]
        lead = _constant(aug[c][c])
        aug[c] = [x / lead for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [r[n:] for r in aug]


def adjugate_inverse(ctx, body):
    """The adjugate over the determinant of a square grid of polynomials
    over ctx whose determinant is a nonzero constant: entry (i, j) is
    (-1)^(i+j) times the minor off row j and column i, over the full
    minor, every one read from one reference_minors memo."""
    n = len(body)
    full = (1 << n) - 1
    minor = reference_minors(body, ctx.one(), ctx.zero())
    det = minor(full | full << n)
    assert det.is_constant() and det, "the determinant is not a nonzero constant"
    det = det.constant_term()
    return [[(-1) ** (i + j) * minor(full ^ 1 << j | (full ^ 1 << i) << n) / det
             for j in range(n)]
            for i in range(n)]


def _constant(x):
    # a Fraction is a constant; a polynomial is one when it has no term
    # but its constant term, and reads 0 otherwise
    if isinstance(x, SuperPoly):
        return x.is_constant() and x.constant_term()
    return x


def oracle_inverse(ctx, rows):
    """The inverse of an even grid T = B + N, B its body and N nilpotent:
    sum_k (-N')^k over N' = B^-1 N, then times B^-1 on the right.  Only
    products and sums of single polynomials and the adjugate body
    inverse; no _gmul, _laplace, _det, _body_inverse or linalg of the
    package."""
    n = len(rows)
    body = [[e.body() for e in row] for row in rows]
    binv = adjugate_inverse(ctx, body)
    nilpotent = [[e - b for e, b in zip(r, rb)] for r, rb in zip(rows, body)]
    nprime = grid_mul(ctx, binv, nilpotent)
    out = identity(ctx, n)
    power = nprime
    for k in range(1, len(ctx.odd) + 2):
        sign = -1 if k % 2 else 1
        out = [[o + sign * p for o, p in zip(ro, rp)]
               for ro, rp in zip(out, power)]
        power = grid_mul(ctx, power, nprime)
    assert all(not e for row in power for e in row), "N' is not nilpotent"
    return grid_mul(ctx, out, binv)


def oracle_schur(ctx, a, b, c, dinv):
    """a - b d^-1 c for the block grid [[a, b], [c, d]], given d^-1: the
    plain products one polynomial at a time, then the plain difference."""
    bdc = grid_mul(ctx, grid_mul(ctx, b, dinv), c)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, bdc)]


def brute_srank(mat):
    """Oracle for srank: sizes of the largest invertible square
    submatrices of the constant bodies of T1 and T4, found by subset
    search, each subset invertible when its leibniz determinant is
    nonzero.  Only valid for matrices with constant-body entries."""

    def best(grid):
        rows = [[e.body().constant_term() for e in row] for row in grid]
        m = len(rows)
        n = len(rows[0]) if m else 0
        for k in range(min(m, n), 0, -1):
            for ri in combinations(range(m), k):
                for ci in combinations(range(n), k):
                    if leibniz([[rows[i][j] for j in ci] for i in ri]):
                        return k
        return 0

    t1, _, _, t4 = mat.blocks()
    return SuperDim(best(t1), best(t4))


# -- earlier forms ---------------------------------------------------------------


def reference_key(ctx, mono):
    """Graded-lex descending on the even part, then the odd word."""
    exps = [0] * len(ctx.even)
    for i, e in mono.even:
        exps[i] = e
    neg = tuple(-e for e in exps)
    return (sum(neg), neg, mono.odd)


def reference_terms(p):
    """(Monomial, Fraction) pairs in printing order, digit cap checked."""
    out = sorted(terms_of(p).items(), key=lambda item: reference_key(p.ctx, item[0]))
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
    used_even = sorted({i for mono in terms_of(p) for i, _ in mono.even})
    used_odd = sorted({j for mono in terms_of(p) for j in mono.odd})
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
    for mono, coeff in terms_of(p).items():
        term = SuperPoly.scalar(ctx_out, Fraction(coeff))
        for i, e in mono.even:
            (target,) = terms_of(images[ctx.even[i]])
            ((t, _),) = target.even
            term = term * from_terms(ctx_out, {Monomial(((t, e),), 0): 1})
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
    ((mono, c),) = terms_of(factor).items()
    g = p
    for j in mono.odd:
        g = g.partial(p.ctx.odd[j])
    if len(terms_of(g)) != len(terms_of(p)):
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
    for mono, coeff in terms_of(p).items():
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


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
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
                col=start + 1,
            )
        out.append((kind, m.group(kind), start + 1))
        pos = m.end()
    stripped = text[pos:].lstrip()
    if stripped:
        raise ScriptError(f"unexpected character {stripped[0]!r}",
                          col=len(text) - len(stripped) + 1)
    out.append(("end", "", len(text) + 1))
    return out


class _ReferenceParser:
    """Reads tokens left to right; tok is the current (kind, text, col).
    An op's text is never the text of an int, an ident or the end, so the
    text alone tells an operator apart."""

    def __init__(self, text, ctx=None, env=None):
        self.next_token = iter(reference_tokenize(text)).__next__
        self.tok = self.next_token()
        self.ctx = ctx
        self.env = env
        self.depth = 0

    def advance(self):
        self.tok = self.next_token()

    def error(self, message, tok=None):
        raise ScriptError(message, col=(tok or self.tok)[2])

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


def reference_parse_poly(text: str, ctx: Context, env=None) -> SuperPoly:
    """Text to a polynomial over ctx.  env holds session bindings, which
    generators shadow; a binding over another context is an error."""
    p = _ReferenceParser(text, ctx, env)
    out = p.expr()
    kind, text, _ = p.tok
    if kind != "end":
        p.error(f"unexpected {text!r} after expression")
    return out


def reference_parse_rational(text: str) -> Fraction:
    """'-'? rational with spaces: only the form str(Fraction) writes."""
    try:
        p = _ReferenceParser(text)
        sign = -1 if p.eat_op("-") else 1
        if p.tok[0] == "int":
            value = p.rational()
            if p.tok[0] == "end":
                return Fraction(sign * value)
    except ScriptError:
        pass
    shown = text.strip()
    more = f"... ({len(shown)} characters)" if len(shown) > _ECHO_CHARS else ""
    raise ScriptError(f"bad rational {shown[:_ECHO_CHARS]!r}{more}")


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
        echelon, _ = linalg.rref([[coefficient(c, m) for m in monos] for c in group])
        out += [from_terms(ctx, zip(monos, row)) for row in echelon if any(row)]
    return tuple(out)


def reference_lie_algebra(spec):
    """First-order expansion of the defining equations at I + epsilon*X.

    GL has no equations.  SL imposes Ber(I + epsilon*X) = 1, which
    collapses to supertrace zero.  OSp imposes preservation of Phi,
    expanded entrywise with the supertranspose sign convention that
    makes (AB)^st = B^st A^st for even matrices.
    """
    names = _symbol_names(spec.dims)
    # block by block, p q r s, each in row-major order
    by_block = sorted((v for row in names for v in row), key=itemgetter(0))
    ctx = Context(even=[v for v in by_block if v[0] in "ps"],
                  odd=RESERVED[:2] + tuple(v for v in by_block if v[0] in "qr"))
    x = SuperMatrix(ctx, spec.dims, spec.dims,
                    [[ctx.var(v) for v in row] for row in names])
    eps = ctx.var(RESERVED[0]) * ctx.var(RESERVED[1])
    group_like = SuperMatrix.identity(ctx, spec.dims) + eps * x

    if spec.kind == "GL":
        raw = []
    elif spec.kind == "SL":
        raw = [_divide(group_like.berezinian() - 1, eps, ctx)]
    else:
        phi = SuperMatrix(
            ctx, spec.dims, spec.dims,
            [[ctx.scalar(v) for v in row] for row in spec.form],
        )
        residue = group_like.supertranspose() @ phi @ group_like - phi
        raw = [_divide(e, eps, ctx) for row in residue.rows for e in row]

    return LieAlgebraResult(
        spec.kind, spec.dims, ctx, x, eps, _canonical_constraints(ctx, raw)
    )


def reference_substitute(self, ctx_out, images):
    def image_power(key):
        # the image of generator i of the tag's parity (0 even, 1 odd)
        # to the e; the image itself is the power (tag, i, 1), so it is
        # looked up and checked once, when it is first read
        tag, i, e = key
        if e > 1:
            return _power(powers[tag, i, 1], e)
        name = (self.ctx.odd if tag else self.ctx.even)[i]
        img = images.get(name)
        if img is None:
            raise ValueError(f"no image for generator {name!r}")
        parity = _PARITIES[tag]
        if not img.has_parity(parity):
            raise ParityError(
                f"image of {parity} generator {name!r} is not {parity}"
            )
        return img

    powers = _Memo(image_power)
    one = SuperPoly.scalar(ctx_out, 1)

    def pairs():
        # numerator * (product of all factors but the last), last factor
        shift = self.ctx._shift
        low = (1 << shift) - 1
        for code, c in self.nums.items():
            keys = [(0, i, e) for i, e in _unpack(code & low)]
            keys += [(1, j, 1) for j in _odd_word(code >> shift)]
            # a term of two factors or more starts from its first image
            # power, and the head is tested before each further image
            # is read
            head = (powers[keys[0]]._scaled(c, 1) if len(keys) > 1
                    else SuperPoly.scalar(ctx_out, c))
            for key in keys[1:-1]:
                if not head:
                    break
                head = head * powers[key]
            if head:
                yield head, powers[keys[-1]] if keys else one

    out = reference_dot(ctx_out, pairs())
    if self.den == 1:
        return out
    return SuperPoly._reduced(ctx_out, out.nums, out.den * self.den)


def reference_dot(ctx, pairs):
    """sum a * b over (a, b) pairs of polynomials over ctx, term pair by
    term pair on tests/model.py's Monomials and Fractions: the even
    exponents add, the odd parts multiply by theta_product, and an
    exponent past MAX_FIELD_EXPONENT raises LimitExceeded, naming the
    lowest such generator.  ContextMismatch before any product.  It holds
    no MAX_TERMS cap."""
    pairs = list(pairs)
    for a, b in pairs:
        if a.ctx is not ctx or b.ctx is not ctx:
            raise ContextMismatch("operands live in different contexts")
    out = {}
    signs = {}  # (K, L) -> theta_product(K, L)
    for a, b in pairs:
        right = terms_of(b).items()
        for (p1, k1), c1 in terms_of(a).items():
            for (p2, k2), c2 in right:
                product = signs.get((k1, k2))
                if product is None:
                    product = signs[k1, k2] = theta_product(k1, k2)
                for mask, sign in product.items():
                    mono = tuple.__new__(Monomial, (p1 + p2, mask))
                    over = [i for i, e in mono.even if e > MAX_FIELD_EXPONENT]
                    if over:
                        raise LimitExceeded(f"exponent of {ctx.even[over[0]]} is above "
                                            f"the cap of {MAX_FIELD_EXPONENT}")
                    out[mono] = out.get(mono, 0) + sign * c1 * c2
    return from_terms(ctx, out)


def reference_apply(self, a):
    if a.ctx != self.ctx:
        raise ContextMismatch("argument lives in a different context")
    return reference_dot(self.ctx, (
        (c, a.partial(n)) for c, n in zip(self.coefficients(), self.ctx.names) if c
    ))


def reference_bracket(d1, d2):
    if d1.ctx != d2.ctx:
        raise ContextMismatch("derivations live in different contexts")
    ctx = d1.ctx
    swap_sign = -1 if (d1.parity is Parity.ODD and d2.parity is Parity.ODD) else 1

    def on(n):
        return (reference_apply(d1, d2.coefficient(n))
                - reference_apply(d2, d1.coefficient(n)) * swap_sign)

    return SuperDerivation(
        ctx,
        d1.parity + d2.parity,
        [on(n) for n in ctx.even],
        [on(n) for n in ctx.odd],
    )


# iota(g, g') = g' g: swap the two factors of mu
def reference_iota(law):
    src = law.mu.source
    swap = {}
    for n in law.coords.names:
        swap[n] = primed(n)
        swap[primed(n)] = n
    images = [img.rename(src, swap) for img in law.mu.images]
    return Morphism(src, law.coords, images)


def reference_is_left_invariant(field, law):
    if field.ctx != law.coords:
        raise ContextMismatch("field must live in the group context")
    g = law.coords
    double = law.mu.source
    iota = reference_iota(law)
    lifted = SuperDerivation(
        double,
        field.parity,
        [c.rename(double) for c in field.even_coeffs]
        + [double.zero()] * len(g.even),
        [c.rename(double) for c in field.odd_coeffs]
        + [double.zero()] * len(g.odd),
    )
    for n in g.names:
        lhs = reference_apply(lifted, iota.image(n))
        rhs = iota.pullback(reference_apply(field, g.var(n)))
        if lhs != rhs:
            return False
    return True


def reference_infinitesimal_action(law, sigma, v):
    g = law.coords
    if v.ctx != g:
        raise ContextMismatch("tangent vector must live in the group context")
    parity = v.parity()
    if parity is Parity.MIXED:
        raise ParityError("tangent vector must be parity homogeneous")
    src = sigma.source
    m, n = len(g.even), len(g.odd)
    if src.even[:m] != g.even or src.odd[:n] != g.odd:
        raise ValueError("sigma's source must start with the group coordinates")
    rest_even = src.even[m:]
    rest_odd = src.odd[n:]
    target = sigma.target
    if len(rest_even) != len(target.even) or len(rest_odd) != len(target.odd):
        raise ValueError("sigma's source must end with a copy of its target")

    images = {}
    for c in g.names:
        images[c] = law._unit_value(c, target)
    for old, new in zip(rest_even + rest_odd, target.names):
        images[old] = target.var(new)

    # v's weights on the group coordinates, zeros on the M coordinates
    along = SuperDerivation(src, parity, v.even_coords + (0,) * len(rest_even),
                            v.odd_coords + (0,) * len(rest_odd))
    coeffs = [reference_apply(along, sigma.image(n_t)).substitute(target, images)
              for n_t in target.names]
    k = len(target.even)
    return SuperDerivation(target, parity, coeffs[:k], coeffs[k:])


def reference_check_group_axioms(law):
    return [
        _reference_associativity(law),
        _reference_unit_axiom(law),
    ] + ([_reference_inverse_axiom(law)] if law.inverse is not None else [])


def _reference_associativity(law):
    g = law.coords
    triple = product_context(g, copies=3)
    later = {}
    for n in g.names:
        later[n] = primed(n)
        later[primed(n)] = primed(n, 2)
    first_two = {}
    last_two = {}
    for n in g.names:
        first_two[n] = law.mu.image(n).rename(triple)
        first_two[primed(n)] = triple.var(primed(n, 2))
        last_two[n] = triple.var(n)
        last_two[primed(n)] = law.mu.image(n).rename(triple, later)
    residuals = []
    for n in g.names:
        lhs = reference_substitute(law.mu.image(n), triple, first_two)
        rhs = reference_substitute(law.mu.image(n), triple, last_two)
        if lhs != rhs:
            residuals.append((n, lhs - rhs))
    return AxiomResult("associativity", not residuals, tuple(residuals))


def _reference_unit_axiom(law):
    g = law.coords
    double = law.mu.source
    images_left = {}
    images_right = {}
    for c in g.names:
        images_left[c] = law._unit_value(c, double)
        images_left[primed(c)] = double.var(primed(c))
        images_right[c] = double.var(c)
        images_right[primed(c)] = law._unit_value(c, double)
    residuals = []
    for n in g.names:
        expected_left = double.var(primed(n))
        expected_right = double.var(n)
        actual_left = reference_substitute(law.mu.image(n), double, images_left)
        actual_right = reference_substitute(law.mu.image(n), double, images_right)
        if actual_left != expected_left:
            residuals.append((f"left at {n}", actual_left - expected_left))
        if actual_right != expected_right:
            residuals.append((f"right at {n}", actual_right - expected_right))
    return AxiomResult("unit", not residuals, tuple(residuals))


def _reference_inverse_axiom(law):
    g = law.coords
    residuals = []
    images = {}
    for c in g.names:
        images[c] = g.var(c)
        images[primed(c)] = law.inverse.image(c)
    for n in g.names:
        actual = reference_substitute(law.mu.image(n), g, images)
        residual = actual - law._unit_value(n, g)
        if residual:
            residuals.append((n, residual))
    return AxiomResult("inverse", not residuals, tuple(residuals))


def reference_minors(grid, one, zero):
    """minor(key) of a square grid over a commutative ring with unit one
    and zero zero: the determinant on the rows of the row mask
    key & (2^n - 1) and the columns of the column mask key >> n, by
    division-free Laplace expansion down the lowest column with one memo
    keyed by that packed int, so a determinant and its cofactors share
    the minors on trailing column sets and each step clears two bits."""
    return partial(_reference_minor, grid, len(grid), partial(_reference_chain, zero), {0: one})


def _reference_minor(grid, n, dot, memo, key):
    # one step of the expansion; the memo is read before each recursive
    # call, so a minor already taken costs no call
    got = memo.get(key)
    if got is not None:
        return got
    cols = key >> n
    col = (cols & -cols).bit_length() - 1
    rest = key ^ 1 << n + col
    triples = []
    neg = False
    for i, row in enumerate(grid):
        if key >> i & 1:
            e = row[col]
            if e:
                sub = rest ^ 1 << i
                m = memo.get(sub)
                if m is None:
                    m = _reference_minor(grid, n, dot, memo, sub)
                triples.append((e, m, neg))
            neg = not neg
    memo[key] = got = dot(triples)
    return got


def _reference_chain(zero, triples):
    # the column sum: the terms +-e * m over a column's (entry e, minor m,
    # negated) triples, its nonzero entries in row order
    acc = zero
    for e, m, neg in triples:
        acc = acc + (-e if neg else e) * m
    return acc

"""Reference forms of the printer, rename, the parameter quotient, rref and
at, written against the public Monomial/Fraction API only, so they share
no code with the code-level forms in poly.py and linalg.py that they
check.

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
"""

from fractions import Fraction

from supergeom import LimitExceeded, Monomial, Parity, ParityError, SuperPoly
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

"""Line-oriented session scripts.

A script is a sequence of statements, one per logical line; a line
continues onto the next while it leaves a bracket open, a line that
closes more brackets than are open ends its statement, and '#' starts a
comment.  Binding statements (context, let, matrix, morphism,
field, group, variety) populate a single namespace; command statements
(eval, ber, strace, srank, inv, pullback, jacobian, classify, tangent,
livf, bracket, lie, involutive, axioms, export) append their canonical
rendering to the report.  A handler's name fixes its statement head:
the Interpreter method stmt_HEAD runs a binding statement and cmd_HEAD a
command, and the table of heads is built from those names once, at
import.  Expressions are evaluated over the most recently declared
context; morphisms and groups refer to contexts by name.

Output is plain ASCII and depends only on the script text, never on
hashing or platform, so identical scripts give byte-identical reports.
Interpreter.execute runs one statement, and what it raises (a
ScriptError, another kernel error or a ValueError) names no line.
run_script names the line of every error: it collects them as
"error: line N: ..." messages, or "error: line N, column C: ..." when a
parse error carries its column.  Execution stops at the first one unless
keep_going is set.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

from . import expr
from .derivation import SuperDerivation, TangentVector, bracket
from .distribution import involutive
from .errors import KernelError, ScriptError
from .groups import (
    GroupLaw,
    check_group_axioms,
    left_invariant_field,
    product_context,
)
from .liealg import MatrixGroupSpec, lie_algebra
from .matrix import SuperDim, SuperMatrix
from .morphism import Morphism
from .poly import Context, Parity, RationalPoint
from .serialize import to_json
from .variety import PointedVariety, tangent_space

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_BRACKETS = re.compile(r"[()\[\]]")


class ScriptResult(NamedTuple):
    output: str
    errors: tuple
    exports: dict

    @property
    def ok(self) -> bool:
        return not self.errors


def _logical_lines(text: str):
    """Yield (line_number, statement) with comments stripped and
    bracket-continued lines joined.  A line on which the running depth
    drops below zero ends its statement, whatever it opens after that."""
    buf = []
    depth = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line and depth == 0:
            continue
        if not buf:
            start = lineno
        buf.append(line)
        for ch in _BRACKETS.findall(line):
            depth += 1 if ch in "([" else -1
            if depth < 0:
                break
        if depth <= 0:
            yield start, " ".join(buf)
            buf = []
            depth = 0
    if buf:
        yield start, " ".join(buf)


# the brackets and the separator, one pattern per separator _split_top takes
_SPLITTERS = {sep: re.compile(rf"[()\[\]{sep}]") for sep in ",;"}


def _items(text: str, sep: str):
    """Yield (start, item) for the items between top-level separators,
    ignoring ones inside () or [].  An item is stripped on the right and
    keeps its leading blanks, so it starts at index start of text."""
    depth = 0
    start = 0
    for m in _SPLITTERS[sep].finditer(text):
        ch = m.group()
        if ch == sep:
            if not depth:
                yield start, text[start:m.start()].rstrip()
                start = m.end()
        elif ch in "([":
            depth += 1
        else:
            depth -= 1
    yield start, text[start:].rstrip()


def _split_top(text: str, sep: str):
    """Split at top-level separators, ignoring ones inside () or []."""
    return [item.strip() for _, item in _items(text, sep)]


class Interpreter:
    def __init__(self):
        self.contexts = {}
        self.values = {}
        self.active = None
        self.last_group = None
        self.report = []
        self.exports = {}

    # -- lookups -------------------------------------------------------------

    def _ctx(self) -> Context:
        if self.active is None:
            raise ScriptError("no context declared yet")
        return self.active

    def _named_ctx(self, name) -> Context:
        try:
            return self.contexts[name]
        except KeyError:
            raise ScriptError(f"unknown context {name!r}") from None

    def _env(self):
        """let-bound polynomials, resolvable inside later expressions."""
        return {k: v for k, (kind, v) in self.values.items() if kind == "poly"}

    def _polys(self, text, ctx, at=0):
        """Comma-separated expressions over ctx, as a list of polynomials;
        blank text is the empty list.  An error column counts from the
        start of text, which is at index at of its list: parse_poly is
        given each item's start."""
        if not text.strip():
            return []
        env = self._env()
        return [expr.parse_poly(e, ctx, env=env, at=at + start)
                for start, e in _items(text, ",")]

    def _value(self, name, want):
        kind_value = self.values.get(name)
        if kind_value is None:
            raise ScriptError(f"name {name!r} is not bound")
        kind, value = kind_value
        if kind != want:
            raise ScriptError(f"{name!r} is a {kind}, expected a {want}")
        return value

    def _point(self, text, ctx) -> RationalPoint:
        values = [] if not text.strip() else [
            expr.parse_rational(v) for v in _split_top(text, ",")
        ]
        m, n = ctx.dims
        if len(values) == m + n:
            if any(values[m:]):
                raise ScriptError("odd coordinates of a point must be zero")
            values = values[:m]
        elif len(values) != m:
            counts = f"{m} or {m + n}" if n else m
            raise ScriptError(f"expected {counts} coordinates, got {len(values)}")
        return RationalPoint(ctx, values)

    def _names_list(self, text):
        if not text.strip():
            return []
        names = [n.strip() for n in _split_top(text, ",")]
        for n in names:
            if not re.fullmatch(_NAME, n):
                raise ScriptError(f"bad generator name {n!r}")
        return names

    # -- statements ------------------------------------------------------------

    def _match(self, pattern, text, usage):
        m = re.fullmatch(pattern, text)
        if not m:
            raise ScriptError(f"expected: {usage}")
        return m

    def stmt_context(self, rest):
        m = self._match(
            rf"(?:(?P<name>{_NAME})\s+)?even\s*=\s*\[(?P<even>[^\]]*)\]"
            rf"\s+odd\s*=\s*\[(?P<odd>[^\]]*)\]",
            rest, "context [NAME] even=[...] odd=[...]",
        )
        ctx = Context(
            even=self._names_list(m.group("even")),
            odd=self._names_list(m.group("odd")),
        )
        self.active = ctx
        if m.group("name"):
            self.contexts[m.group("name")] = ctx

    def stmt_let(self, rest):
        m = self._match(rf"(?P<name>{_NAME})\s*=\s*(?P<expr>.+)", rest,
                        "let NAME = EXPR")
        poly = expr.parse_poly(m.group("expr"), self._ctx(), env=self._env())
        self.values[m.group("name")] = ("poly", poly)

    def stmt_matrix(self, rest):
        m = self._match(
            rf"(?P<name>{_NAME})\s+dims\s+(?P<p>\d+)\|(?P<q>\d+)\s*->\s*"
            rf"(?P<r>\d+)\|(?P<s>\d+)(?P<odd>\s+odd)?\s+rows\s*"
            rf"\[(?P<rows>.*)\]",
            rest, "matrix NAME dims p|q -> r|s [odd] rows [a, b; c, d]",
        )
        ctx = self._ctx()
        source = SuperDim(int(m.group("p")), int(m.group("q")))
        target = SuperDim(int(m.group("r")), int(m.group("s")))
        parity = Parity.ODD if m.group("odd") else Parity.EVEN
        text = m.group("rows")
        # blank text is no rows, as for a 0|0 target
        rows = [self._polys(row, ctx, start)
                for start, row in _items(text, ";")] if text.strip() else []
        self.values[m.group("name")] = (
            "matrix", SuperMatrix(ctx, source, target, rows, parity)
        )

    def stmt_morphism(self, rest):
        m = self._match(
            rf"(?P<name>{_NAME})\s*:\s*(?P<src>{_NAME})\s*->\s*"
            rf"(?P<dst>{_NAME})\s*\[(?P<images>.*)\]",
            rest, "morphism NAME : SRC -> DST [expr, ...]",
        )
        src = self._named_ctx(m.group("src"))
        dst = self._named_ctx(m.group("dst"))
        images = self._polys(m.group("images"), src)
        self.values[m.group("name")] = ("morphism", Morphism(src, dst, images))

    def stmt_field(self, rest):
        m = self._match(rf"(?P<name>{_NAME})\s*=\s*\[(?P<coeffs>.*)\]",
                        rest, "field NAME = [coeff, ...]")
        ctx = self._ctx()
        coeffs = self._polys(m.group("coeffs"), ctx)
        em, on = ctx.dims
        if len(coeffs) != em + on:
            raise ScriptError(f"expected {em + on} coefficients, got {len(coeffs)}")
        parity = None
        for k, c in enumerate(coeffs):
            if not c:
                continue
            cp = c.parity()
            if cp is Parity.MIXED:
                raise ScriptError(f"coefficient {k + 1} is not parity homogeneous")
            fp = cp if k < em else cp.flipped()
            if parity is None:
                parity = fp
            elif parity is not fp:
                raise ScriptError("coefficients do not give the field one parity")
        parity = parity or Parity.EVEN
        self.values[m.group("name")] = (
            "field", SuperDerivation(ctx, parity, coeffs[:em], coeffs[em:])
        )

    def stmt_group(self, rest):
        m = self._match(
            rf"(?P<name>{_NAME})\s+context\s*=\s*(?P<ctx>{_NAME})\s+"
            rf"mu\s*=\s*\[(?P<mu>.*?)\]\s+unit\s*=\s*\((?P<unit>.*?)\)"
            rf"(?:\s+inv\s*=\s*\[(?P<inv>.*)\])?",
            rest, "group NAME context=CTX mu=[...] unit=(...) [inv=[...]]",
        )
        coords = self._named_ctx(m.group("ctx"))
        double = product_context(coords)
        mu = Morphism(double, coords, self._polys(m.group("mu"), double))
        unit = self._point(m.group("unit"), coords)
        inverse = None
        if m.group("inv") is not None:
            inverse = Morphism(coords, coords, self._polys(m.group("inv"), coords))
        law = GroupLaw(coords, mu, unit, inverse)
        self.values[m.group("name")] = ("group", law)
        self.last_group = law

    def stmt_variety(self, rest):
        m = self._match(
            rf"(?P<name>{_NAME})\s+ideal\s*=\s*\[(?P<ideal>.*?)\]\s+"
            rf"point\s*=\s*\((?P<point>.*?)\)",
            rest, "variety NAME ideal=[...] point=(...)",
        )
        ctx = self._ctx()
        gens = self._polys(m.group("ideal"), ctx)
        point = self._point(m.group("point"), ctx)
        self.values[m.group("name")] = (
            "variety", PointedVariety(ctx, gens, point)
        )

    # -- commands ----------------------------------------------------------------

    def cmd_eval(self, rest):
        ctx = self._ctx()
        self.report.append(str(expr.parse_poly(rest, ctx, env=self._env())))

    def _matrix_arg(self, rest) -> SuperMatrix:
        m = self._match(rf"(?P<name>{_NAME})", rest, "COMMAND MATRIXNAME")
        return self._value(m.group("name"), "matrix")

    def cmd_ber(self, rest):
        self.report.append(str(self._matrix_arg(rest).berezinian()))

    def cmd_strace(self, rest):
        self.report.append(str(self._matrix_arg(rest).supertrace()))

    def cmd_srank(self, rest):
        self.report.append(str(self._matrix_arg(rest).srank()))

    def cmd_inv(self, rest):
        self.report.append(str(self._matrix_arg(rest).invert()))

    def cmd_pullback(self, rest):
        m = self._match(rf"(?P<name>{_NAME})\s+(?P<expr>.+)", rest,
                        "pullback MORPHISM EXPR")
        phi = self._value(m.group("name"), "morphism")
        f = expr.parse_poly(m.group("expr"), phi.target, env=self._env())
        self.report.append(str(phi.pullback(f)))

    def _morphism_point(self, rest, usage):
        m = self._match(rf"(?P<name>{_NAME})\s*\((?P<point>.*?)\)", rest, usage)
        phi = self._value(m.group("name"), "morphism")
        return phi, self._point(m.group("point"), phi.source)

    def cmd_jacobian(self, rest):
        phi, at = self._morphism_point(rest, "jacobian MORPHISM (point)")
        self.report.append(str(phi.differential_at(at)))

    def cmd_classify(self, rest):
        phi, at = self._morphism_point(rest, "classify MORPHISM (point)")
        kind = phi.classify_at(at)
        self.report.append("none" if kind is None else str(kind))

    def cmd_tangent(self, rest):
        m = self._match(rf"(?P<name>{_NAME})", rest, "tangent VARIETY")
        result = tangent_space(self._value(m.group("name"), "variety"))
        for rel in result.relations:
            self.report.append(f"{rel} = 0")
        self.report.append(f"dim {result.dimension}")

    def cmd_livf(self, rest):
        m = self._match(rf"d/d(?P<coord>{_NAME})(?:\s+(?P<group>{_NAME}))?",
                        rest, "livf d/dCOORD [GROUP]")
        if m.group("group"):
            law = self._value(m.group("group"), "group")
        elif self.last_group is not None:
            law = self.last_group
        else:
            raise ScriptError("no group declared yet")
        name = m.group("coord")
        if name not in law.coords:
            raise ScriptError(f"unknown generator {name!r} in the group context")
        v = TangentVector.coordinate(law.coords, name)
        self.report.append(str(left_invariant_field(law, v)))

    def cmd_bracket(self, rest):
        m = self._match(rf"(?P<a>{_NAME})\s+(?P<b>{_NAME})", rest,
                        "bracket FIELD FIELD")
        a = self._value(m.group("a"), "field")
        b = self._value(m.group("b"), "field")
        self.report.append(str(bracket(a, b)))

    def cmd_lie(self, rest):
        m = self._match(r"(?P<kind>GL|SL|OSp)\s+(?P<m>\d+)\|(?P<n>\d+)",
                        rest, "lie GL|SL|OSp m|n")
        spec = MatrixGroupSpec(
            m.group("kind"), (int(m.group("m")), int(m.group("n")))
        )
        result = lie_algebra(spec)
        if not result.constraints:
            self.report.append("no constraints")
        for c in result.constraints:
            self.report.append(f"{c} = 0")

    def cmd_involutive(self, rest):
        names = rest.split()
        if not names:
            raise ScriptError("expected: involutive FIELD [FIELD ...]")
        fields = [self._value(n, "field") for n in names]
        self.report.append(str(involutive(fields)))

    def cmd_axioms(self, rest):
        m = self._match(rf"(?P<name>{_NAME})", rest, "axioms GROUP")
        law = self._value(m.group("name"), "group")
        for result in check_group_axioms(law):
            self.report.append(str(result))

    def cmd_export(self, rest):
        m = self._match(rf"(?P<name>{_NAME})", rest, "export NAME")
        name = m.group("name")
        if name in self.values:
            value = self.values[name][1]
        elif name in self.contexts:
            value = self.contexts[name]
        else:
            raise ScriptError(f"name {name!r} is not bound")
        data = to_json(value)
        self.exports[name] = data
        self.report.append(json.dumps(data, separators=(",", ":")))

    # -- driver ---------------------------------------------------------------

    def execute(self, lineno, statement):
        """Run one statement.  lineno is unused here: an error is raised
        without a line, and run_script names the line in its message.
        It stays in the signature because the benchmark wraps this
        method: perfbench/workloads.py's _StatementTimer replaces it with
        execute(interp, lineno, statement) and perfbench/spans.py traces
        it as script.execute, so dropping the argument would change the
        benchmark's definition."""
        head, _, rest = statement.partition(" ")
        handler = _STATEMENTS.get(head)
        if handler is None:
            raise ScriptError(f"unknown statement {head!r}")
        handler(self, rest.strip())


# statement head -> handler: stmt_HEAD binds a name, cmd_HEAD reports
_STATEMENTS = {
    name.partition("_")[2]: handler for name, handler in vars(Interpreter).items()
    if name.startswith(("stmt_", "cmd_"))
}


def run_script(text: str, keep_going: bool = False) -> ScriptResult:
    """Execute a script and collect its report, errors, and exports."""
    interp = Interpreter()
    errors = []
    for lineno, statement in _logical_lines(text):
        try:
            interp.execute(lineno, statement)
        except (KernelError, ValueError, ZeroDivisionError) as e:
            # a parse error's text starts "column C: ..."
            sep = ", " if getattr(e, "col", None) is not None else ": "
            errors.append(f"error: line {lineno}{sep}{e}")
        if errors and not keep_going:
            break
    output = "\n".join(interp.report)
    if output:
        output += "\n"
    return ScriptResult(output, tuple(errors), interp.exports)

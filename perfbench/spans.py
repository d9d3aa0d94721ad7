"""Layer tracing from outside the package.

``Tracer`` wraps the public entry points of each ``supergeom`` module in
place and records one span per call: its name, the span that caused it,
and its duration.  Spans are aggregated in memory per (name, parent), so
a long run costs no memory per call, and ``restore`` puts every original
back.

Three things make patching from outside easy to get wrong, and the tracer
handles each by patching by identity rather than by name: modules bind
each other's functions by value (``script`` binds ``bracket``,
``tangent_space``, ``to_json`` and others; ``distribution`` binds
``_gmul``), so every namespace in the package that holds an original gets
the wrapper; ``SuperPoly.__radd__`` is the same function as ``__add__``
and is wrapped with it; methods are replaced on their class, where
operators look them up.
"""

from __future__ import annotations

import functools
import sys
import time

from supergeom import (
    derivation,
    distribution,
    expr,
    groups,
    liealg,
    linalg,
    matrix,
    morphism,
    poly,
    script,
    serialize,
    variety,
)

ROOT = "(root)"


def _mul_counts(tracer, args, result):
    a, b = args
    if result is NotImplemented:
        return
    pairs = len(a.terms) * (len(b.terms) if isinstance(b, poly.SuperPoly) else 1)
    tracer.counters["poly.mul.term_pairs"] += pairs
    tracer.counters["poly.mul.out_terms"] += len(result.terms)


# (span name, owner, attribute, per-call hook)
ENTRY_POINTS = [
    ("poly.mul", poly.SuperPoly, "__mul__", _mul_counts),
    ("poly.add", poly.SuperPoly, "__add__", None),
    ("poly.substitute", poly.SuperPoly, "substitute", None),
    ("poly.partial", poly.SuperPoly, "partial", None),
    ("matrix._gmul", matrix, "_gmul", None),
    ("matrix._series_inverse", matrix, "_series_inverse", None),
    ("matrix._det", matrix, "_det", None),
    ("matrix.matmul", matrix.SuperMatrix, "__matmul__", None),
    ("matrix.invert", matrix.SuperMatrix, "invert", None),
    ("matrix.berezinian", matrix.SuperMatrix, "berezinian", None),
    ("matrix.srank", matrix.SuperMatrix, "srank", None),
    ("matrix.superbracket", matrix, "superbracket", None),
    ("linalg.rref", linalg, "rref", None),
    ("morphism.pullback", morphism.Morphism, "pullback", None),
    ("morphism.differential_at", morphism.Morphism, "differential_at", None),
    ("derivation.bracket", derivation, "bracket", None),
    ("derivation.apply", derivation.SuperDerivation, "apply", None),
    ("variety.tangent_space", variety, "tangent_space", None),
    ("distribution.involutive", distribution, "involutive", None),
    ("groups.check_group_axioms", groups, "check_group_axioms", None),
    ("groups.left_invariant_field", groups, "left_invariant_field", None),
    ("liealg.lie_algebra", liealg, "lie_algebra", None),
    ("liealg.commutator_bracket", liealg, "commutator_bracket", None),
    ("expr.parse_poly", expr, "parse_poly", None),
    ("serialize.to_json", serialize, "to_json", None),
    ("script.execute", script.Interpreter, "execute", None),
]


def package_namespaces():
    """Every module of the package and every class defined in one, as
    (owner, namespace dict) pairs."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name != "supergeom" and not name.startswith("supergeom."):
            continue
        out.append((mod, vars(mod)))
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == name:
                out.append((value, vars(value)))
    return out


class Tracer:
    """Install with ``install()``; read ``stats`` and ``counters``; always
    call ``restore()`` (or use the tracer as a context manager)."""

    def __init__(self):
        # (name, parent) -> [calls, total seconds, self seconds]
        self.stats = {}
        self.counters = {"poly.mul.term_pairs": 0, "poly.mul.out_terms": 0}
        self._stack = [[ROOT, 0.0]]
        self._patches = []  # (owner, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def install(self):
        namespaces = package_namespaces()
        for span, owner, attr, hook in ENTRY_POINTS:
            original = vars(owner)[attr]
            wrapper = self._wrap(span, original, hook)
            for holder, ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def restore(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def _wrap(self, name, fn, hook):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = stats.get((name, parent[0]))
                if rec is None:
                    rec = stats[(name, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if hook is not None:
                hook(self, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- summaries ----------------------------------------------------------

    def calls(self, name, parent=None):
        return sum(
            rec[0] for (n, p), rec in self.stats.items()
            if n == name and (parent is None or p == parent)
        )

    def self_s(self, name):
        return sum(rec[2] for (n, _), rec in self.stats.items() if n == name)

    def total_s(self, name):
        """Inclusive time summed over calls not made from a span of the
        same name, so recursion is not counted twice."""
        return sum(
            rec[1] for (n, p), rec in self.stats.items() if n == name and p != name
        )

    def spans(self):
        """Aggregated spans as JSON-ready rows."""
        return [
            {"name": n, "parent": p, "calls": rec[0], "total_s": rec[1],
             "self_s": rec[2]}
            for (n, p), rec in sorted(self.stats.items())
        ]

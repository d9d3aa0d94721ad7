"""rename as one code shift for every rename in the package.

Each caller in src/ maps the generators that appear by one index offset
per parity: liealg's transports into and out of the context with the
reserved generators (offset 0), the two lifts of associativity into the
tripled context (offset 0, and G's dimensions for factors (1, 2)) and
is_left_invariant's lift onto the primed slots.  Such a map keeps the
order within each parity, so rename only moves codes.  With
poly._substitute_each patched to raise, which every other map and every
SuperPoly.substitute reaches, the group axioms, is_left_invariant and
both Lie brackets must still run; a swap must reach the patch, which
shows the patch is live.
"""

import random

import pytest

from helpers import broken_law, random_supermatrix
from oracles import substitution_rename
from supergeom import (
    Context,
    Parity,
    SuperDim,
    TangentVector,
    adjoint_bracket,
    check_group_axioms,
    commutator_bracket,
    is_left_invariant,
    left_invariant_field,
    superbracket,
)
from supergeom import poly


class Substituted(Exception):
    pass


def refuse_substitution(monkeypatch):
    def refuse(*args):
        raise Substituted

    monkeypatch.setattr(poly, "_substitute_each", refuse)


def group_reports(laws):
    """The axiom reports of each law and is_left_invariant of its
    coordinate fields."""
    out = []
    for law in laws:
        fields = [left_invariant_field(law, TangentVector.coordinate(law.coords, n))
                  for n in law.coords.names]
        out.append(([str(r) for r in check_group_axioms(law)],
                    [is_left_invariant(f, law) for f in fields]))
    return out


def test_the_group_layer_renames_by_shifts_only(monkeypatch):
    # the axioms pull mu back through groups' own binding of
    # _substitute_each, which the patch leaves alone; only rename's
    # fallback and SuperPoly.substitute are refused
    rng = random.Random(3201)
    laws = [broken_law(rng) for _ in range(40)]
    want = group_reports(laws)
    assert any(not all(flags) for _, flags in want)
    refuse_substitution(monkeypatch)
    assert group_reports(laws) == want


@pytest.mark.parametrize("px", [Parity.EVEN, Parity.ODD], ids=str)
@pytest.mark.parametrize("py", [Parity.EVEN, Parity.ODD], ids=str)
def test_both_lie_brackets_rename_by_shifts_only(monkeypatch, px, py):
    refuse_substitution(monkeypatch)
    ctx = Context(even=["t"], odd=["theta1", "theta2"])
    rng = random.Random(3202 + 2 * px.value + py.value)
    for _ in range(4):
        d = SuperDim(rng.randint(1, 2), rng.randint(1, 2))
        x = random_supermatrix(rng, ctx, d, d, parity=px)
        y = random_supermatrix(rng, ctx, d, d, parity=py)
        assert commutator_bracket(x, y) == superbracket(x, y) == adjoint_bracket(x, y)


def test_a_swap_reaches_the_substitution(monkeypatch):
    refuse_substitution(monkeypatch)
    ctx = Context(odd=["a", "b"])
    a, b = ctx.var("a"), ctx.var("b")
    with pytest.raises(Substituted):
        (a * b).rename(ctx, {"a": "b", "b": "a"})
    # a shift of both names is no swap
    out = Context(odd=["e", "a", "b"])
    assert (a * b).rename(out) == out.var("a") * out.var("b")


@pytest.mark.parametrize("name_map, shifted", [
    ({"a": "b", "b": "c"}, True),        # one odd offset
    ({"a": "a", "b": "c"}, False),       # two odd offsets: a gap opens
    ({"a": "c", "b": "b"}, False),       # order reversed
    ({"x": "y", "a": "b", "b": "c"}, True),
    ({"x": "y", "a": "a", "b": "b"}, True),  # one offset per parity
    ({"x": "x", "y": "x"}, False),       # a merge
], ids=str)
def test_only_a_constant_offset_per_parity_shifts(monkeypatch, name_map, shifted):
    ctx = Context(even=["x", "y"], odd=["a", "b", "c"])
    calls = []
    real = poly._substitute_each

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(poly, "_substitute_each", counted)
    rng = random.Random(3204)
    used = [n for n in ctx.names if n in name_map]
    for _ in range(50):
        p = ctx.scalar(rng.randint(-9, 9))
        for n in rng.sample(used, rng.randint(1, len(used))):
            p = p + rng.randint(1, 9) * ctx.var(n) * ctx.var(rng.choice(used))
        assert p.rename(ctx, name_map) == substitution_rename(p, ctx, name_map)
    assert bool(calls) != shifted

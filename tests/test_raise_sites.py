"""Kernel raise sites that no other test reaches, each pinned to its
exception type and its exact message: operands over another context, a
MIXED parity where a homogeneous one is needed, and shapes that an
operation refuses.  Then the other paths that no other test takes, each
pinned to its value: equal values hash equal, a float operand is met by
NotImplemented (so the operator raises TypeError and == is False), a
field called on a polynomial applies it, the free functions agree with
the methods, a rational stands for a constant image or generator, and
the reprs.
"""

from fractions import Fraction

import pytest

from supergeom import (
    Context,
    ContextMismatch,
    GroupLaw,
    LinearForm,
    Morphism,
    Parity,
    ParityError,
    PointedVariety,
    RationalPoint,
    SuperDerivation,
    SuperMatrix,
    TangentVector,
    classify_at,
    differential_at,
    differential_of_function,
    is_left_invariant,
    product_context,
)
from supergeom.groups import primed

T = Context(even=["t"], odd=["a", "b"])
S = Context(even=["s"], odd=["c", "d"])
t, a, b = T.var("t"), T.var("a"), T.var("b")
s = S.var("s")
EVEN, ODD, MIXED = Parity.EVEN, Parity.ODD, Parity.MIXED


def field(ctx, parity, coeffs):
    return SuperDerivation(ctx, parity, coeffs[:1], coeffs[1:])


def line_group(target=None):
    """The 1|0 additive group law over t, its mu landing in target."""
    g = Context(even=["t"])
    double = product_context(g)
    mu = Morphism(double, target or g, [double.var("t") + double.var(primed("t"))])
    return GroupLaw(g, mu, RationalPoint(g, [0]))


TALL = [[t], [1]]  # 1|0 -> 2|0

CASES = [
    # poly
    ("poly: + across contexts", lambda: t + s,
     ContextMismatch, "operands live in different contexts"),
    ("poly: ** a negative exponent", lambda: t ** -1,
     ValueError, "exponent must be a non-negative integer"),
    ("poly: at a point over another context", lambda: t.at(RationalPoint(S, [1])),
     ContextMismatch, "point context differs from polynomial context"),
    ("poly: RationalPoint with two values for one", lambda: RationalPoint(T, [1, 2]),
     ValueError, "expected 1 even values, got 2"),
    # derivation
    ("derivation: a coefficient over another context",
     lambda: field(T, EVEN, [s, 0, 0]),
     ContextMismatch, "coefficient on d/dt lives in a different context"),
    ("derivation: MIXED parity", lambda: SuperDerivation(T, MIXED),
     ParityError, "a derivation's parity must be EVEN or ODD"),
    ("derivation: + across contexts",
     lambda: field(T, EVEN, [1, 0, 0]) + field(S, EVEN, [1, 0, 0]),
     ContextMismatch, "derivations live in different contexts"),
    ("derivation: + across parities",
     lambda: field(T, EVEN, [1, 0, 0]) + field(T, ODD, [a, 0, 0]),
     ParityError, "cannot add derivations of different parities"),
    ("derivation: times a MIXED scalar", lambda: (1 + a) * field(T, EVEN, [1, 0, 0]),
     ParityError, "scalar must be homogeneous"),
    # matrix
    ("matrix: MIXED parity", lambda: SuperMatrix(T, (1, 0), (1, 0), [[1]], MIXED),
     ParityError, "matrix parity must be even or odd"),
    ("matrix: an entry that is not a polynomial", lambda: SuperMatrix(T, (1, 0), (1, 0), [["1"]]),
     TypeError, "entry (0,0) is not a polynomial"),
    ("matrix: + across contexts",
     lambda: SuperMatrix(T, (1, 0), (1, 0), [[t]]) + SuperMatrix(S, (1, 0), (1, 0), [[s]]),
     ContextMismatch, "matrices live in different contexts"),
    ("matrix: + across shapes",
     lambda: SuperMatrix(T, (1, 0), (1, 0), [[t]]) + SuperMatrix(T, (1, 0), (2, 0), TALL),
     ValueError, "matrix shapes differ"),
    ("matrix: times a scalar over another context",
     lambda: s * SuperMatrix(T, (1, 0), (1, 0), [[t]]),
     ContextMismatch, "scalar built over a different context"),
    ("matrix: invert a non-square matrix", lambda: SuperMatrix(T, (1, 0), (2, 0), TALL).invert(),
     ValueError, "cannot invert a non-square matrix"),
    ("matrix: berezinian of a non-square matrix",
     lambda: SuperMatrix(T, (1, 0), (2, 0), TALL).berezinian(),
     ValueError, "the Berezinian needs a square matrix"),
    ("matrix: decompose a non-square matrix",
     lambda: SuperMatrix(T, (1, 0), (2, 0), TALL).elementary_decomposition(),
     ValueError, "decomposition needs a square matrix"),
    ("matrix: decompose an odd matrix",
     lambda: SuperMatrix(T, (1, 1), (1, 1), [[a, 1], [1, b]], ODD).elementary_decomposition(),
     ParityError, "decomposition is defined for even matrices"),
    ("matrix: srank of an odd matrix",
     lambda: SuperMatrix(T, (1, 1), (1, 1), [[a, 1], [1, b]], ODD).srank(),
     ParityError, "srank is defined for even matrices"),
    # groups
    ("groups: mu landing in another context", lambda: line_group(Context(even=["u"])),
     ContextMismatch, "mu must land in the group context"),
    ("groups: a field over another context",
     lambda: is_left_invariant(field(T, EVEN, [1, 0, 0]), line_group()),
     ContextMismatch, "field must live in the group context"),
    # morphism
    ("morphism: image_point of a point over another context",
     lambda: Morphism(T, T, [t, a, b]).image_point(RationalPoint(S, [0])),
     ContextMismatch, "point is not in the morphism's source"),
    ("morphism: the jacobian at a point over another context",
     lambda: Morphism(T, T, [t, a, b]).differential_at(RationalPoint(S, [0])),
     ContextMismatch, "point is not in the morphism's source"),
    # variety
    ("variety: pairing with a vector over another context",
     lambda: LinearForm(T, [1], [0, 0]).pairing(TangentVector(S, [1], [0, 0])),
     ContextMismatch, "tangent vector lives in a different context"),
    ("variety: differential at a point over another context",
     lambda: differential_of_function(t, RationalPoint(S, [0])),
     ContextMismatch, "point context differs from polynomial context"),
    ("variety: a point over another context", lambda: PointedVariety(T, [t], RationalPoint(S, [0])),
     ContextMismatch, "point is not in the ambient context"),
    ("variety: a generator over another context",
     lambda: PointedVariety(T, [s], RationalPoint(T, [0])),
     ContextMismatch, "generator is not over the ambient context"),
]


@pytest.mark.parametrize("call,kind,message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_each_raise_site_keeps_its_message(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


def one_value(make):
    """How many values two equal objects from make() give in a set: 1
    when they hash equal."""
    return len({make(), make()})


def type_error(call):
    with pytest.raises(TypeError):
        call()
    return TypeError


M = SuperMatrix(T, (1, 0), (1, 0), [[t]])
D = field(T, EVEN, [t, 0, 0])
P = RationalPoint(T, [2])
PHI = Morphism(T, T, [t * t, a, t * b])

PATHS = [
    # equal values hash equal
    ("hash: SuperMatrix", lambda: one_value(lambda: SuperMatrix(T, (1, 0), (1, 0), [[t]])), 1),
    ("hash: Morphism", lambda: one_value(lambda: Morphism(T, T, [t, a, b])), 1),
    ("hash: SuperDerivation", lambda: one_value(lambda: field(T, EVEN, [t, 0, 0])), 1),
    ("hash: RationalPoint", lambda: one_value(lambda: RationalPoint(T, [2])), 1),
    ("hash: TangentVector", lambda: one_value(lambda: TangentVector(T, [1], [0, 0])), 1),
    ("hash: LinearForm", lambda: one_value(lambda: LinearForm(T, [1], [0, 0])), 1),
    # a float operand
    ("poly: +", lambda: type_error(lambda: t + 0.5), TypeError),
    ("poly: -", lambda: type_error(lambda: t - 0.5), TypeError),
    ("poly: *", lambda: type_error(lambda: 0.5 * t), TypeError),
    ("poly: ==", lambda: t == 0.5, False),
    ("matrix: ==", lambda: M == 0.5, False),
    ("matrix: +", lambda: type_error(lambda: M + 0.5), TypeError),
    ("matrix: -", lambda: type_error(lambda: M - 0.5), TypeError),
    ("matrix: @", lambda: type_error(lambda: M @ 0.5), TypeError),
    ("matrix: *", lambda: type_error(lambda: 0.5 * M), TypeError),
    ("derivation: +", lambda: type_error(lambda: D + 0.5), TypeError),
    ("derivation: -", lambda: type_error(lambda: D - 0.5), TypeError),
    ("derivation: *", lambda: type_error(lambda: 0.5 * D), TypeError),
    ("Parity: +", lambda: type_error(lambda: EVEN + 0.5), TypeError),
    # wrappers and rational inputs
    ("derivation: called", lambda: D(t * t), D.apply(t * t)),
    ("morphism: differential_at", lambda: differential_at(PHI, P), PHI.differential_at(P)),
    ("morphism: classify_at", lambda: classify_at(PHI, P), PHI.classify_at(P)),
    ("morphism: a rational image",
     lambda: Morphism(T, Context(even=["u"]), [Fraction(1, 2)]).images, (T.scalar(Fraction(1, 2)),)),
    ("variety: a rational generator", lambda: PointedVariety(T, [0], P).generators, (T.zero(),)),
    # reprs
    ("repr: Context", lambda: repr(T), "Context(even=['t'], odd=['a', 'b'])"),
    ("repr: SuperPoly", lambda: repr(t - a), "SuperPoly(t - a)"),
    ("repr: SuperMatrix", lambda: repr(M), "SuperMatrix(1|0 -> 1|0, even)"),
    ("repr: Morphism", lambda: repr(PHI), "Morphism((t -> t^2, a -> a, b -> t*b))"),
    ("repr: SuperDerivation", lambda: repr(D), "SuperDerivation(t*d/dt)"),
    ("repr: RationalPoint", lambda: repr(P), "RationalPoint(2)"),
]


@pytest.mark.parametrize("call,expected", [c[1:] for c in PATHS], ids=[c[0] for c in PATHS])
def test_each_remaining_path_gives_its_value(call, expected):
    assert call() == expected

"""Acceptance gate: fourteen checks, one test and one verdict line each.

Every check is exact rational arithmetic; there are no tolerances
anywhere.  Random corpora are seeded so reruns see the same cases.
The corpus sizes are part of the contract: shrinking them to save time
would weaken the gate.
"""

import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from helpers import random_invertible, random_poly, random_supermatrix
from oracles import brute_srank
from supergeom import (
    Context,
    Distribution,
    GroupLaw,
    Involutivity,
    MatrixGroupSpec,
    Morphism,
    Parity,
    PointedVariety,
    RationalPoint,
    SuperDerivation,
    SuperDim,
    SuperMatrix,
    SuperPoly,
    TangentVector,
    adjoint_bracket,
    bracket,
    commutator_bracket,
    involutive,
    is_left_invariant,
    left_invariant_field,
    lie_algebra,
    product_context,
    pullback,
    superbracket,
    tangent_space,
)

GR6 = Context(even=[], odd=[f"theta{i}" for i in range(1, 7)])
SIZES = [(p, q) for p in range(3) for q in range(3) if p + q]


def verdict(num, name, ok):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name}"


_PAIRS = None


def invertible_pairs():
    """Shared corpus for the two Berezinian criteria: 200 invertible
    pairs of matching square dims up to 2|2 over six odd generators."""
    global _PAIRS
    if _PAIRS is None:
        rng = random.Random(101)
        pairs = []
        for _ in range(200):
            d = SuperDim(*rng.choice(SIZES))
            pairs.append(
                (random_invertible(rng, GR6, d), random_invertible(rng, GR6, d))
            )
        _PAIRS = pairs
    return _PAIRS


def test_criterion_01_berezinian_multiplicativity():
    for k, (s, t) in enumerate(invertible_pairs()):
        assert (s @ t).berezinian() == s.berezinian() * t.berezinian(), f"pair {k}"
    verdict(1, "berezinian multiplicativity", True)


def test_criterion_02_berezinian_formula_agreement():
    # products of invertibles are invertible, so both diagonal blocks of
    # every matrix here have invertible bodies and both formulas apply
    for k, (s, t) in enumerate(invertible_pairs()):
        for m in (s, t, s @ t):
            assert m.berezinian("primary") == m.berezinian("alternate"), f"pair {k}"
    verdict(2, "berezinian formula agreement", True)


def test_criterion_03_berezinian_trace_expansion():
    eps = GR6.var("theta1") * GR6.var("theta2")
    rng = random.Random(103)
    for k in range(100):
        d = SuperDim(*rng.choice(SIZES))
        t = random_supermatrix(rng, GR6, d, d)
        lhs = (SuperMatrix.identity(GR6, d) + eps * t).berezinian()
        assert lhs == GR6.one() + eps * t.supertrace(), f"case {k}"
    verdict(3, "berezinian trace expansion", True)


def test_criterion_04_supertrace_identities():
    rng = random.Random(104)
    for k in range(100):
        d = SuperDim(*rng.choice(SIZES))
        a = random_supermatrix(rng, GR6, d, d)
        b = random_supermatrix(rng, GR6, d, d)
        assert (a @ b).supertrace() == (b @ a).supertrace(), f"pair {k}"
    for p in range(5):
        for q in range(5):
            i = SuperMatrix.identity(GR6, SuperDim(p, q))
            assert i.supertrace() == GR6.scalar(p - q), f"identity {p}|{q}"
    verdict(4, "supertrace identities", True)


SHAPES = [
    (Context(even=["t", "u"], odd=["rho1", "rho2"]), Context(even=["x"], odd=["xi1", "xi2"])),
    (Context(even=["t"], odd=["rho1", "rho2"]), Context(even=["x", "y"], odd=["xi1"])),
    (Context(even=["t", "u"], odd=["rho1"]), Context(even=["x"], odd=["xi1"])),
]


def random_morphism(rng, src, dst):
    images = [
        random_poly(rng, src, parity=Parity.EVEN, max_even_deg=3) for _ in dst.even
    ] + [random_poly(rng, src, parity=Parity.ODD, max_even_deg=3) for _ in dst.odd]
    return Morphism(src, dst, images)


def test_criterion_05_pullback_homomorphism():
    rng = random.Random(105)
    for k in range(100):
        src, dst = SHAPES[k % len(SHAPES)]
        phi = random_morphism(rng, src, dst)
        f = random_poly(rng, dst, max_even_deg=3)
        g = random_poly(rng, dst, max_even_deg=3)
        assert phi.pullback(f * g) == phi.pullback(f) * phi.pullback(g), f"case {k}"

    # the first-order Taylor shift: t |-> t + theta1*theta2 pulls f back
    # to f + theta1*theta2 * f'
    m = Context(even=["t"], odd=["theta1", "theta2"])
    t, th1, th2 = m.var("t"), m.var("theta1"), m.var("theta2")
    chart = Morphism(m, m, [t + th1 * th2, th1, th2])
    for f in (t, t**2, t**3):
        assert pullback(chart, f) == f + th1 * th2 * f.partial("t")
    verdict(5, "pullback homomorphism", True)


def r11_group():
    g = Context(even=["t"], odd=["theta"])
    d = product_context(g)
    mu = Morphism(
        d, g,
        [d.var("t") + d.var("tp") + d.var("theta") * d.var("thetap"),
         d.var("theta") + d.var("thetap")],
    )
    return g, GroupLaw(g, mu, RationalPoint(g, [Fraction(0)]))


def test_criterion_06_left_invariant_fields():
    g, law = r11_group()
    dt = left_invariant_field(law, TangentVector.coordinate(g, "t"))
    dtheta = left_invariant_field(law, TangentVector.coordinate(g, "theta"))
    assert str(dt) == "d/dt"
    assert str(dtheta) == "-theta*d/dt + d/dtheta"
    assert is_left_invariant(dt, law)
    assert is_left_invariant(dtheta, law)
    assert not is_left_invariant(SuperDerivation.coordinate(g, "theta"), law)
    verdict(6, "left-invariant fields", True)


def test_criterion_07_chart_differential():
    m = Context(even=["t"], odd=["theta1", "theta2"])
    t, th1, th2 = m.var("t"), m.var("theta1"), m.var("theta2")
    chart = Morphism(m, m, [t + th1 * th2, th1, th2])
    eye = SuperMatrix.identity(m, SuperDim(1, 2))
    for t0 in (0, 1, -2):
        point = RationalPoint(m, [Fraction(t0)])
        assert chart.differential_at(point) == eye, f"t0 = {t0}"
    verdict(7, "chart differential", True)


def test_criterion_08_variety_tangent_space():
    p = Context(even=["x", "y"], odd=["xi", "eta"])
    w = PointedVariety(
        p,
        [p.var("x") * p.var("xi") + p.var("y") * p.var("eta")],
        RationalPoint(p, [Fraction(1), Fraction(1)]),
    )
    res = tangent_space(w)
    assert [str(r) for r in res.relations] == ["Xi + Eta"]
    assert res.dimension == SuperDim(2, 1)
    verdict(8, "variety tangent space", True)


def test_criterion_09_matrix_group_lie_algebras():
    expected = {
        (1, 1): "p11 - s11",
        (2, 1): "p11 + p22 - s11",
        (2, 2): "p11 + p22 - s11 - s22",
    }
    for (m, n), text in expected.items():
        res = lie_algebra(MatrixGroupSpec.SL(m, n))
        assert [str(c) for c in res.constraints] == [text], f"SL({m}|{n})"
        assert res.constraints == (res.element.supertrace(),)
    for m, n in expected:
        assert lie_algebra(MatrixGroupSpec.GL(m, n)).constraints == ()
    verdict(9, "matrix group lie algebras", True)


CTX4 = Context(even=["t"], odd=["theta1", "theta2", "theta3", "theta4"])


def random_homogeneous_matrix(rng, d):
    parity = Parity.EVEN if rng.random() < 0.5 else Parity.ODD
    return random_supermatrix(rng, CTX4, d, d, parity=parity, max_even_deg=1)


def test_criterion_10_group_commutator_bracket():
    rng = random.Random(110)
    for k in range(100):
        d = SuperDim(*rng.choice(SIZES))
        x = random_homogeneous_matrix(rng, d)
        y = random_homogeneous_matrix(rng, d)
        expect = superbracket(x, y)
        assert commutator_bracket(x, y) == expect, f"pair {k}"
        assert adjoint_bracket(x, y) == expect, f"pair {k}"
    verdict(10, "group commutator bracket", True)


R22 = Context(even=["t", "u"], odd=["rho1", "rho2"])


def random_derivation(rng, ctx):
    parity = Parity.EVEN if rng.random() < 0.5 else Parity.ODD
    evens = [random_poly(rng, ctx, parity=parity, max_even_deg=2) for _ in ctx.even]
    odds = [
        random_poly(rng, ctx, parity=parity.flipped(), max_even_deg=2)
        for _ in ctx.odd
    ]
    return SuperDerivation(ctx, parity, evens, odds)


def antisymmetry_holds(x, y, bra, scale):
    sign = 1 if (x.parity is Parity.ODD and y.parity is Parity.ODD) else -1
    return bra(x, y) == scale(sign, bra(y, x))


def jacobi_holds(x, y, z, bra, scale):
    # [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]]
    sign = -1 if (x.parity is Parity.ODD and y.parity is Parity.ODD) else 1
    lhs = bra(x, bra(y, z))
    return lhs == bra(bra(x, y), z) + scale(sign, bra(y, bra(x, z)))


def test_criterion_11_bracket_axioms():
    rng = random.Random(111)
    scale_der = lambda s, v: R22.scalar(s) * v
    for k in range(100):
        x, y, z = (random_derivation(rng, R22) for _ in range(3))
        assert antisymmetry_holds(x, y, bracket, scale_der), f"derivations {k}"
        assert jacobi_holds(x, y, z, bracket, scale_der), f"derivations {k}"

    rng = random.Random(112)
    scale_mat = lambda s, m: m * CTX4.scalar(s)
    for k in range(100):
        d = SuperDim(*rng.choice(SIZES))
        x, y, z = (random_homogeneous_matrix(rng, d) for _ in range(3))
        assert antisymmetry_holds(x, y, superbracket, scale_mat), f"matrices {k}"
        assert jacobi_holds(x, y, z, superbracket, scale_mat), f"matrices {k}"
    verdict(11, "bracket axioms", True)


def test_criterion_12_rank_against_brute_force():
    rng = random.Random(113)
    sizes = [(p, q) for p in range(4) for q in range(4) if p + q]
    for k in range(50):
        d = SuperDim(*rng.choice(sizes))
        # entries over a purely odd context have constant bodies; small
        # coefficient range plus occasional copied rows gives rank drops
        mat = random_supermatrix(rng, GR6, d, d, n_terms=1, lo=-2, hi=2)
        rows = [list(row) for row in mat.rows]
        for block in (range(d.even), range(d.even, d.total)):
            idx = list(block)
            if len(idx) >= 2 and rng.random() < 0.4:
                i, j = rng.sample(idx, 2)
                c = GR6.scalar(rng.randint(-2, 2))
                rows[i] = [c * e for e in rows[j]]
        mat = SuperMatrix(GR6, d, d, rows)
        assert mat.srank() == brute_srank(mat), f"case {k}"
    verdict(12, "rank against brute force", True)


def test_criterion_13_involutivity_verdicts():
    r11 = Context(even=["t"], odd=["theta1"])
    r21 = Context(even=["t1", "t2"], odd=["theta1"])
    flat = [
        SuperDerivation.coordinate(r11, "t"),
        SuperDerivation.coordinate(r11, "theta1"),
    ]
    chi = SuperDerivation(r11, Parity.ODD, [r11.var("theta1")], [r11.one()])
    contact = [SuperDerivation.coordinate(r11, "t"), chi]
    lone = [
        SuperDerivation(r21, Parity.ODD, [r21.zero(), r21.var("theta1")], [r21.one()])
    ]
    examples = [
        (flat, Involutivity.INTEGRABLE),
        (contact, Involutivity.INTEGRABLE),
        (lone, Involutivity.NOT_INTEGRABLE),
    ]
    for fields, want in examples:
        assert involutive(Distribution(fields)) is want
        assert involutive(list(reversed(fields))) is want
    verdict(13, "involutivity verdicts", True)


def test_criterion_14_session_determinism():
    script = Path(__file__).resolve().parent.parent / "demos" / "golden_session.sg"

    def run():
        return subprocess.run(
            [sys.executable, "-m", "supergeom", "--script", str(script)],
            capture_output=True, timeout=300,
        )

    first, second = run(), run()
    assert first.returncode == 0 and second.returncode == 0
    assert first.stderr == b"" and second.stderr == b""
    assert first.stdout == second.stdout
    text = first.stdout.decode()
    for landmark in (
        "t^3 + 3*t^2*theta1*theta2",
        "[1, 0, 0]",
        "-theta*d/dt + d/dtheta",
        "Xi + Eta = 0",
        "dim 2|1",
        "p11 + p22 - s11 - s22 = 0",
        "no constraints",
    ):
        assert landmark in text
    verdict(14, "session determinism", True)

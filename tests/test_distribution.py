"""Involutivity verdicts.

The three worked distributions: constant commuting fields (integrable by
inspection), the odd contact-like field chi = theta1*d/dt + d/dtheta1
together with d/dt (integrable, [chi,chi] = 2 d/dt lies in the span),
and the lone field d/dtheta1 + theta1*d/dt2 in R^{2|1} whose self
bracket 2 d/dt2 escapes the span.  {d/dt1, t1*d/dt2} has no constant
pivot pair, which is exactly the indeterminate case.

involutive takes the brackets one pair at a time, the pairs of distinct
fields before the self-brackets, and decides each as it comes; the edge
tests count the brackets it takes and pin the two shortcuts it must not
take: normalising before a nonzero bracket needs it, and skipping an odd
field's bracket with itself.
"""

import itertools
import random

import pytest

from oracles import leibniz
from supergeom import (
    Context,
    ContextMismatch,
    Distribution,
    Involutivity,
    Parity,
    SuperDerivation,
    bracket,
    involutive,
)
from supergeom import distribution
from supergeom.distribution import _pivot_columns

R11 = Context(even=["t"], odd=["theta1"])
R21 = Context(even=["t1", "t2"], odd=["theta1"])
R20 = Context(even=["t1", "t2"], odd=[])


def d_dt(ctx, name):
    return SuperDerivation.coordinate(ctx, name)


def chi_r11():
    # theta1 d/dt + d/dtheta1
    return SuperDerivation(
        R11, Parity.ODD, [R11.var("theta1")], [R11.one()]
    )


def chi_r21():
    # d/dtheta1 + theta1 d/dt2
    return SuperDerivation(
        R21, Parity.ODD, [R21.zero(), R21.var("theta1")], [R21.one()]
    )


class TestVerdicts:
    def test_constant_fields_integrable(self):
        assert involutive([d_dt(R11, "t"), d_dt(R11, "theta1")]) is Involutivity.INTEGRABLE

    def test_contact_pair_integrable(self):
        assert involutive([d_dt(R11, "t"), chi_r11()]) is Involutivity.INTEGRABLE

    def test_lone_odd_field_not_integrable(self):
        assert involutive([chi_r21()]) is Involutivity.NOT_INTEGRABLE

    def test_no_pivot_is_indeterminate(self):
        t1 = R20.var("t1")
        scaled = SuperDerivation(R20, Parity.EVEN, [R20.zero(), t1], [])
        assert involutive([d_dt(R20, "t1"), scaled]) is Involutivity.INDETERMINATE

    def test_three_fields_integrable(self):
        chi = SuperDerivation(
            R21, Parity.ODD, [R21.var("theta1"), R21.zero()], [R21.one()]
        )
        fields = [d_dt(R21, "t1"), d_dt(R21, "t2"), chi]
        assert involutive(fields) is Involutivity.INTEGRABLE


class TestEdges:
    @pytest.fixture
    def brackets(self, monkeypatch):
        """The pairs distribution.bracket is called with, in order."""
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return bracket(a, b)

        monkeypatch.setattr(distribution, "bracket", counted)
        return calls

    def test_a_lone_even_field_takes_only_its_zero_self_bracket(self, brackets):
        t1 = R20.var("t1")
        x = SuperDerivation(R20, Parity.EVEN, [t1, t1 * t1], [])
        assert involutive([x]) is Involutivity.INTEGRABLE
        assert brackets == [(x, x)]

    def test_no_pivot_is_decided_at_the_first_nonzero_bracket(self, brackets):
        # five more pairs follow (x, y), two of them nonzero, and none is taken
        t1, t2 = R20.var("t1"), R20.var("t2")
        x = d_dt(R20, "t1")
        y = SuperDerivation(R20, Parity.EVEN, [R20.zero(), t1], [])
        z = SuperDerivation(R20, Parity.EVEN, [t2, t1 * t1], [])
        assert _pivot_columns([f.coefficients() for f in (x, y, z)]) is None
        assert not bracket(x, y).is_zero()
        assert not bracket(x, z).is_zero() and not bracket(y, z).is_zero()
        assert involutive([x, y, z]) is Involutivity.INDETERMINATE
        assert brackets == [(x, y)]

    def test_thirteen_coordinate_fields_normalize_nothing(self):
        # every bracket is zero, so no 13 x 13 pivot submatrix is inverted
        ctx = Context(even=[f"t{i}" for i in range(13)], odd=[])
        fields = [d_dt(ctx, n) for n in ctx.even]
        assert involutive(fields) is Involutivity.INTEGRABLE

    def test_an_odd_field_is_bracketed_with_itself(self):
        # [X, X] = 2 d/dt, outside the span of X = theta1 d/dt + d/dtheta1
        assert 2 * d_dt(R11, "t") == bracket(chi_r11(), chi_r11())
        assert involutive([chi_r11()]) is Involutivity.NOT_INTEGRABLE


class TestOrderIndependence:
    def test_pair_permutations(self):
        cases = [
            [d_dt(R11, "t"), chi_r11()],
            [d_dt(R20, "t1"),
             SuperDerivation(R20, Parity.EVEN, [R20.zero(), R20.var("t1")], [])],
        ]
        for fields in cases:
            verdicts = {
                involutive(list(p)) for p in itertools.permutations(fields)
            }
            assert len(verdicts) == 1

    def test_triple_permutations(self):
        chi = SuperDerivation(
            R21, Parity.ODD, [R21.var("theta1"), R21.zero()], [R21.one()]
        )
        fields = [d_dt(R21, "t1"), d_dt(R21, "t2"), chi]
        verdicts = {involutive(list(p)) for p in itertools.permutations(fields)}
        assert verdicts == {Involutivity.INTEGRABLE}

    def test_not_integrable_with_companion_field(self):
        fields = [chi_r21(), d_dt(R21, "t1")]
        for p in itertools.permutations(fields):
            assert involutive(list(p)) is Involutivity.NOT_INTEGRABLE


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Distribution([])

    def test_mixed_contexts_rejected(self):
        with pytest.raises(ContextMismatch):
            Distribution([d_dt(R11, "t"), d_dt(R21, "t1")])

    @pytest.mark.parametrize("fields", [[1], [1, "field"], ["field", 1]])
    def test_a_field_that_is_not_a_derivation_is_a_type_error(self, fields):
        fields = [d_dt(R11, "t") if f == "field" else f for f in fields]
        with pytest.raises(TypeError, match="distribution fields must be derivations"):
            Distribution(fields)
        with pytest.raises(TypeError, match="distribution fields must be derivations"):
            involutive(fields)

    def test_distribution_object_accepted(self):
        d = Distribution([d_dt(R11, "t")])
        assert involutive(d) is Involutivity.INTEGRABLE


class TestRendering:
    def test_verdict_strings(self):
        assert str(Involutivity.INTEGRABLE) == "Integrable"
        assert str(Involutivity.NOT_INTEGRABLE) == "NotIntegrable"
        assert str(Involutivity.INDETERMINATE) == "Indeterminate"


# -- pivot rule against the exhaustive search ---------------------------------


def pivot_oracle(grid, k):
    """First k-subset of columns, in lexicographic order, whose entries
    all have constant bodies and whose body submatrix is invertible."""
    for cols in itertools.combinations(range(len(grid[0])), k):
        sub = [[grid[a][c] for c in cols] for a in range(k)]
        if not all(e.body().is_constant() for row in sub for e in row):
            continue
        if leibniz([[e.body().constant_term() for e in row] for row in sub]):
            return list(cols)
    return None


def _random_entry(rng, ctx):
    kind = rng.randrange(5)
    if kind == 0:
        return ctx.zero()
    c = ctx.scalar(rng.choice([-2, -1, 1, 1, 2]))
    if kind == 1:
        return c
    if kind == 2 and len(ctx.odd) >= 2:
        # constant body plus a nilpotent tail
        return c + ctx.var(ctx.odd[0]) * ctx.var(ctx.odd[-1])
    if kind == 3 and ctx.even:
        # non-constant body
        return c * ctx.var(rng.choice(ctx.even))
    return c


def test_pivot_columns_match_exhaustive_search():
    rng = random.Random(20070)
    found = missing = 0
    for _ in range(600):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        if m + n == 0:
            continue
        ctx = Context(even=[f"t{i}" for i in range(m)],
                      odd=[f"theta{j}" for j in range(n)])
        k = rng.randint(1, m + n + 1)
        grid = tuple(
            tuple(_random_entry(rng, ctx) for _ in range(m + n))
            for _ in range(k)
        )
        want = pivot_oracle(grid, k)
        assert _pivot_columns(grid) == want
        if want is None:
            missing += 1
        else:
            found += 1
    # both outcomes must be exercised for the comparison to mean anything
    assert found > 100 and missing > 100

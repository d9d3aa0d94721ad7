"""The three benchmark workloads.

Each workload builds its corpus from a seed as rounds of operations with a
fixed mix, runs one operation at a time, and checks every result outside
the timed region.  A round always holds the same kinds of operation in the
same order, so a corpus of any size measures the same mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import time
from pathlib import Path

import corpus
from supergeom import Context, Parity, RationalPoint, SuperMatrix
from supergeom import liealg, matrix, script

# Kernel functions are looked up on their modules at call time, never bound
# here by value, so that the layer tracer's wrappers see every call.

# sha256 of the report of demos/golden_session.sg; a speed change must not
# change one byte of it
GOLDEN_SHA256 = "7898d4bdd2031dd836fdea14b9c8bdeabecfe55c342d7293d9c34d5084cb39db"


class Workload:
    """Interface of a workload; subclasses fill in the class attributes.

    ``round_s`` is about the time one pass over one round's operations
    took, in reference seconds (``pace.py``), when the benchmark was
    defined.  It only sizes the corpus for a run of a given length; it is
    never measured again.  ``passes`` is how often the run goes over the
    corpus; each sample keeps its best latency.
    """

    name: str
    round_s: float
    passes = 1

    def build(self, seed: int, n_rounds: int):
        """Inputs for one seed: a list of n_rounds rounds."""
        raise NotImplementedError

    def ops(self, rnd):
        """The round's operations as (label, op) pairs; run_op runs an op."""
        raise NotImplementedError

    def run_op(self, op):
        """Run one operation; return (result, [(start, end)] of each timed
        sample on the ``time.perf_counter`` clock)."""
        t0 = time.perf_counter()
        result = op()
        return result, [(t0, time.perf_counter())]

    def check(self, rnd, results) -> int:
        """Number of operations of the round whose results are wrong;
        results maps each label to its result."""
        raise NotImplementedError

    def render(self, rnd) -> str:
        """Canonical text of a round's inputs, for the corpus digest."""
        raise NotImplementedError

    def result_text(self, result) -> str:
        """Canonical text of one result, for the result digest."""
        return str(result)

    def instrument(self):
        """Context manager active around the loop; none by default."""
        return contextlib.nullcontext()


# -- grassmann_matrix ---------------------------------------------------------


class GrassmannMatrix(Workload):
    name = "grassmann_matrix"
    round_s = 3.4
    SIZES = (2, 3, 4)
    # with S4 these make three 4|4 inverses a round, more than ten a run,
    # so that the tail falls inside the slowest kind
    EXTRA_INVERSES = ("T4", "U4")
    # with S3 @ T3 these make all six 3|3 products of S3, T3 and U3, six
    # of the 26 samples a round, so that the median falls inside one kind
    # rather than on the edge between two
    EXTRA_PRODUCTS = (("T3", "S3"), ("S3", "U3"), ("U3", "S3"), ("T3", "U3"),
                      ("U3", "T3"))
    BRACKET_SIZES = (1, 2)

    def build(self, seed, n_rounds):
        rng = random.Random(seed)
        ctx = Context(odd=[f"theta{i}" for i in range(1, 7)])
        bctx = Context(even=["t"], odd=[f"theta{i}" for i in range(1, 5)])
        rounds = []
        for _ in range(n_rounds):
            rnd = {}
            for n in self.SIZES:
                rnd[f"S{n}"] = corpus.random_invertible(rng, ctx, (n, n))
                rnd[f"T{n}"] = corpus.random_invertible(rng, ctx, (n, n))
            for n in (3, 4):
                rnd[f"U{n}"] = corpus.random_invertible(rng, ctx, (n, n))
            for d in self.BRACKET_SIZES:
                for key in ("X", "Y"):
                    parity = rng.choice([Parity.EVEN, Parity.ODD])
                    rnd[f"{key}{d}"] = corpus.random_supermatrix(
                        rng, bctx, (d, d), parity
                    )
            rounds.append(rnd)
        return rounds

    def ops(self, rnd):
        out = []
        for n in self.SIZES:
            s, t = rnd[f"S{n}"], rnd[f"T{n}"]
            out += [
                (f"matmul{n}", lambda s=s, t=t: s @ t),
                (f"ber{n}", s.berezinian),
                (f"alt{n}", lambda s=s: s.berezinian("alternate")),
                (f"inv{n}", s.invert),
                (f"srank{n}", s.srank),
            ]
        out += [(f"inv{key}", rnd[key].invert) for key in self.EXTRA_INVERSES]
        out += [(f"matmul{a}{b}", lambda a=rnd[a], b=rnd[b]: a @ b)
                for a, b in self.EXTRA_PRODUCTS]
        for d in self.BRACKET_SIZES:
            x, y = rnd[f"X{d}"], rnd[f"Y{d}"]
            out += [
                (f"superbracket{d}", lambda x=x, y=y: matrix.superbracket(x, y)),
                (f"commutator{d}", lambda x=x, y=y: liealg.commutator_bracket(x, y)),
            ]
        return out

    def check(self, rnd, results):
        bad = 0
        for n in self.SIZES:
            s, t = rnd[f"S{n}"], rnd[f"T{n}"]
            eye = SuperMatrix.identity(s.ctx, s.source)
            inv, ber = results[f"inv{n}"], results[f"ber{n}"]
            bad += not (s @ inv == eye and inv @ s == eye)
            bad += ber != results[f"alt{n}"]
            # the bodies are invertible by construction
            bad += results[f"srank{n}"] != (n, n)
            if n < 4:
                # on the 4|4 pair this costs more than a round's inverses
                bad += results[f"matmul{n}"].berezinian() != ber * t.berezinian()
        products = [(f"S{n}", f"T{n}", f"matmul{n}") for n in self.SIZES]
        products += [(a, b, f"matmul{a}{b}") for a, b in self.EXTRA_PRODUCTS]
        for a, b, label in products:
            got = results[label]
            n = got.source.total
            entries = [[corpus.odd_terms(got.entry(i, j)) for j in range(n)]
                       for i in range(n)]
            bad += entries != corpus.grassmann_product(rnd[a], rnd[b])
        for key in self.EXTRA_INVERSES:
            t, inv = rnd[key], results[f"inv{key}"]
            eye = SuperMatrix.identity(t.ctx, t.source)
            bad += not (t @ inv == eye and inv @ t == eye)
        for d in self.BRACKET_SIZES:
            bad += results[f"superbracket{d}"] != results[f"commutator{d}"]
        return bad

    def render(self, rnd):
        return "\n".join(f"{k}: {v}" for k, v in rnd.items())


# -- even_det -----------------------------------------------------------------


class EvenDet(Workload):
    name = "even_det"
    round_s = 0.59
    SIZES = (5, 6, 7)
    POINTS = 2

    def build(self, seed, n_rounds):
        rng = random.Random(seed)
        ctx = Context(even=["x1", "x2", "x3"])
        rounds = []
        for _ in range(n_rounds):
            rnd = {}
            for n in self.SIZES:
                mat, coeffs = corpus.linear_matrix(rng, ctx, n)
                points = [corpus.rational_point(rng, 3) for _ in range(self.POINTS)]
                rnd[n] = (mat, coeffs, points)
            rounds.append(rnd)
        return rounds

    def ops(self, rnd):
        return [(f"det{n}", rnd[n][0].berezinian) for n in self.SIZES]

    def check(self, rnd, results):
        bad = 0
        for n in self.SIZES:
            mat, coeffs, points = rnd[n]
            det = results[f"det{n}"]
            for pt in points:
                evaluated = [
                    [c[0] + sum(ck * v for ck, v in zip(c[1:], pt)) for c in row]
                    for row in coeffs
                ]
                if det.at(RationalPoint(mat.ctx, pt)) != corpus.frac_det(evaluated):
                    bad += 1
                    break
        return bad

    def render(self, rnd):
        return "\n".join(
            f"{n}: {mat} at {points}" for n, (mat, _, points) in rnd.items()
        )


# -- geometry_session ---------------------------------------------------------


class _StatementTimer:
    """Records (start, end) of each script statement by wrapping
    Interpreter.execute."""

    def __init__(self):
        self.samples = []

    def __enter__(self):
        cls = script.Interpreter
        self._orig = inner = cls.__dict__["execute"]
        samples = self.samples
        clock = time.perf_counter

        def execute(interp, lineno, statement):
            t0 = clock()
            try:
                return inner(interp, lineno, statement)
            finally:
                samples.append((t0, clock()))

        cls.execute = execute
        return self

    def __exit__(self, *exc):
        script.Interpreter.execute = self._orig
        return False


class GeometrySession(Workload):
    name = "geometry_session"
    round_s = 0.27
    # statements take 0.1-10 ms, so one preemption of the host or one
    # collector pause sets a tail sample; each keeps its best of two
    passes = 2
    SCRIPTS_PER_ROUND = 10

    def __init__(self, root: Path):
        self.golden_path = root / "demos" / "golden_session.sg"
        self._timer = None

    def build(self, seed, n_rounds):
        rng = random.Random(seed)
        golden = self.golden_path.read_text(encoding="utf-8")
        return [
            {"golden": golden} | {
                f"script{k}": corpus.geometry_script(rng)
                for k in range(self.SCRIPTS_PER_ROUND)
            }
            for _ in range(n_rounds)
        ]

    def ops(self, rnd):
        return list(rnd.items())

    def instrument(self):
        self._timer = _StatementTimer()
        return self._timer

    def run_op(self, text):
        samples = self._timer.samples
        start = len(samples)
        result = script.run_script(text)
        return result, samples[start:]

    def check(self, rnd, results):
        bad = 0
        for label, result in results.items():
            bad += len(result.errors)
            if label == "golden":
                digest = hashlib.sha256(result.output.encode()).hexdigest()
                bad += digest != GOLDEN_SHA256
            else:
                # the generated group laws are groups by construction
                bad += ": FAIL (" in result.output
        return bad

    def render(self, rnd):
        return "\n".join(rnd.values())

    def result_text(self, result):
        return result.output + "".join(f"{e}\n" for e in result.errors)


def all_workloads(root: Path):
    return {w.name: w for w in (GrassmannMatrix(), EvenDet(), GeometrySession(root))}

"""Tests for the benchmark's own code.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import corpus
import pace
import run
import spans
import workloads
from supergeom import derivation, distribution, matrix, poly, script

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
ALL = workloads.all_workloads(ROOT)


def _wrapped_attributes():
    """(holder, key) -> value for every attribute holding an entry point."""
    originals = {id(vars(owner)[attr]) for _, owner, attr, _ in spans.ENTRY_POINTS}
    return {
        (holder, key): value
        for holder, ns in spans.package_namespaces()
        for key, value in ns.items()
        if id(value) in originals
    }


def test_restore_puts_every_original_back():
    before = _wrapped_attributes()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (holder, key), value in before.items():
            assert getattr(holder, key) is not value, f"{holder}.{key} not wrapped"
        # by-value bindings and the __radd__ alias share one wrapper each
        assert script.bracket is derivation.bracket
        assert distribution._gmul is matrix._gmul
        assert vars(poly.SuperPoly)["__radd__"] is vars(poly.SuperPoly)["__add__"]
    finally:
        tracer.restore()
    for (holder, key), value in before.items():
        assert getattr(holder, key) is value, f"{holder}.{key} not restored"


def test_tracer_sees_calls_through_by_value_bindings():
    text = (
        "context M even=[x] odd=[theta]\n"
        "field X = [x, theta]\n"
        "field Y = [theta, x]\n"
        "bracket X Y\n"
        "involutive X Y\n"
        "export X\n"
    )
    with spans.Tracer() as tracer:
        result = script.run_script(text)
        ctx = poly.Context(even=["x"])
        1 + ctx.var("x")  # reaches __radd__
    assert result.ok
    assert tracer.calls("derivation.bracket", parent="script.execute") == 1
    assert tracer.calls("distribution.involutive") == 1
    assert tracer.calls("derivation.bracket", parent="distribution.involutive") == 3
    assert tracer.calls("serialize.to_json") == 1
    assert tracer.calls("poly.add", parent=spans.ROOT) == 1
    assert tracer.calls("script.execute") == 6


def test_self_time_excludes_children():
    with spans.Tracer() as tracer:
        ctx = poly.Context(even=["x", "y"])
        m = matrix.SuperMatrix(ctx, (2, 0), (2, 0),
                               [[ctx.var("x"), 1], [2, ctx.var("y")]])
        m.berezinian()
    ber = tracer.total_s("matrix.berezinian")
    assert 0 < tracer.self_s("matrix.berezinian") < ber
    assert tracer.total_s("matrix._det") <= ber


@pytest.mark.parametrize("name", sorted(ALL))
def test_smoke_round_has_no_failures(name):
    w = ALL[name]
    loop = run.run_passes(w, w.build(3, 1), 2)
    assert loop.attempted > 0
    assert loop.failed == 0
    assert all(len(per_pass) == 2 for per_pass in loop.spans.values())


@pytest.mark.parametrize("name", sorted(ALL))
def test_same_seed_same_corpus(name):
    w = ALL[name]

    def corpus_digest(seed):
        return run.digest(w.render(r) for r in w.build(seed, 2))

    assert corpus_digest(5) == corpus_digest(5)
    assert corpus_digest(5) != corpus_digest(6)


@pytest.mark.parametrize("name", sorted(ALL))
def test_traced_and_untraced_digests_agree(name):
    w = ALL[name]
    rounds = w.build(4, 1)
    plain = run.run_passes(w, rounds, 1)
    with spans.Tracer():
        under = run.run_passes(w, rounds, 1)
    assert plain.op_digests and plain.op_digests == under.op_digests


def test_corpus_size_depends_only_on_seconds():
    w = ALL["grassmann_matrix"]
    assert run.n_rounds(w, 0.1) == 1
    assert run.n_rounds(w, 4 * w.passes * w.round_s) == 4


def test_product_oracle_agrees_with_the_kernel_and_catches_a_wrong_entry():
    rnd = ALL["grassmann_matrix"].build(2, 1)[0]
    s, t = rnd["S2"], rnd["T2"]
    got = s @ t
    n = got.source.total

    def entries(m):
        return [[corpus.odd_terms(m.entry(i, j)) for j in range(n)] for i in range(n)]

    assert entries(got) == corpus.grassmann_product(s, t)
    assert entries(t @ s) != corpus.grassmann_product(s, t)


def test_pace_scales_by_the_pace_around_a_span():
    p = pace.Pace()
    ref = pace.UNIT_REF_S
    # units 10 ms apart: ten at the reference pace, then ten at half of it
    for k in range(20):
        p.record(k * 0.01, ref if k < 10 else 2 * ref)
    # a span over units 12..16; it and its neighbours ran at half pace
    own = 0.05 - 5 * 2 * ref
    assert p.reference_s(0.1195, 0.1695) == pytest.approx(own / 2)
    # a span between units at the reference pace is its own wall time
    assert p.reference_s(0.0401, 0.0499) == pytest.approx(0.0098)


def test_pace_samples_while_the_program_runs_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with pace.Pace() as p:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(p.walls) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_check_catches_a_wrong_result():
    w = ALL["even_det"]
    rnd = w.build(1, 1)[0]
    results = {label: op() for label, op in w.ops(rnd)}
    assert w.check(rnd, results) == 0
    results["det6"] = results["det6"] + 1
    assert w.check(rnd, results) == 1


class _Drifting(workloads.Workload):
    """Two operations per round; the second answers differently each call."""

    name = "drifting"
    round_s = 1.0

    def __init__(self):
        self.calls = 0

    def build(self, seed, n_rounds):
        return [seed] * n_rounds

    def ops(self, rnd):
        def drift():
            self.calls += 1
            return self.calls

        return [("steady", lambda: rnd), ("drift", drift)]

    def check(self, rnd, results):
        return 0


def test_later_passes_must_repeat_the_first():
    loop = run.run_passes(_Drifting(), [7, 7], 3)
    assert loop.attempted == 12
    assert loop.failed == 4  # the drifting op, in both rounds of passes 2 and 3
    assert set(loop.latency) == {(0, "steady"), (0, "drift"), (1, "steady"), (1, "drift")}


def test_tail_percentile_has_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    pct, value, beyond = run.tail_latency(samples)
    assert (value, beyond) == (90.0, 10)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 89 / 99)
    # too few samples: the median
    assert run.tail_latency(samples[:5]) == (50.0, 3.0, 2)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_end_to_end_output_contract():
    proc = _run("--workload", "geometry_session", "--seed", "2", "--seconds", "0.2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_output_contract():
    proc = _run("--workload", "even_det", "--seed", "2", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("poly.mul.calls", "poly.add.calls", "matrix._det.calls",
                 "cli.golden_wall_s", "trace.overhead_ratio"):
        assert metrics[name] > 0, name


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "even_det", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(ALL)


def test_layer_map_covers_the_per_layer_metrics():
    design = json.loads((ROOT / "perfbench" / "design.json").read_text())
    assert list(design["workloads"]) == list(run.WORKLOADS)
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    mapped = [m for row in design["layer_map"] for m in row["metrics"]]
    assert sorted(mapped) == sorted(per_layer)

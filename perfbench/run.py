"""supergeom benchmark: seeded closed-loop workloads, checked for exactness.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grassmann_matrix --seed 1 --seconds 20
    python3 perfbench/run.py --workload even_det --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1

One process runs one workload as a closed loop with one client: the next
operation starts when the previous one returns, with no threads or pools.
The package is imported from ``src/`` of the checkout; the benchmark fails
when it is missing rather than measure some other installed copy.

``--seconds`` sizes the corpus: ``workloads.py`` records about how long
one round of each workload takes, in reference seconds, and the run takes
as many rounds as fill about ``--seconds`` over its passes.  The size
depends on nothing measured, so a faster program runs the same inputs,
the same number of times.

With ``--trace 0`` the run builds the corpus BUILDS times and makes the
workload's passes over it, all under the pace sampler of ``pace.py``:
the host's speed moves by up to 2x from second to second, so every
timing is converted to reference seconds, wall time at the pace of a
fixed calibration unit.  Each operation is timed alone, each sample's
latency is its best over the passes, and the end-to-end metrics are
printed.  With ``--trace 1`` it makes one pass untraced twice and once
under the layer tracer of ``spans.py``, requires the traced and
untraced result digests to agree, probes the CLI in subprocesses,
prints the per-layer metrics (wall seconds) and writes the aggregated
spans to ``perfbench/out/``.  Either way the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILDS = 5
CLI_REPEATS = 5
TAIL_BEYOND = 10
WORKLOADS = ("grassmann_matrix", "even_det", "geometry_session")


def import_package():
    """Import supergeom from src/ of this checkout, or exit with an error."""
    src = ROOT / "src"
    if not (src / "supergeom" / "__init__.py").is_file():
        sys.exit(f"error: no package at {src / 'supergeom'}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import supergeom

    if Path(supergeom.__file__).resolve().parent != (src / "supergeom").resolve():
        sys.exit(f"error: supergeom imported from {supergeom.__file__}, not {src}")


def git_rev():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def n_rounds(w, seconds):
    """Corpus size for a run of about ``seconds`` at the speed recorded in
    ``round_s``.  It depends on nothing measured, so every version of the
    program runs the same inputs."""
    return max(1, round(seconds / (w.passes * w.round_s)))


def tail_latency(samples):
    """(percentile, value, samples beyond): the highest percentile that
    still has TAIL_BEYOND samples beyond it, never below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, (n - 1) // 2)
    pct = 100 * (n - 1 - beyond) / (n - 1) if n > 1 else 100.0
    return pct, ordered[n - 1 - beyond], beyond


class Loop:
    """Passes of the closed loop over a corpus."""

    def __init__(self):
        self.spans = {}  # (round, label) -> per pass, [(start, end)] of its samples
        self.latency = {}  # (round, label) -> per-sample best over the passes, seconds
        self.attempted = 0
        self.failed = 0
        self.op_digests = {}  # (round, label) -> result digest of the first pass

    def samples(self):
        return [s for value in self.latency.values() for s in value]

    def wall_s(self):
        return sum(t1 - t0 for value in self.spans.values()
                   for spans in value for t0, t1 in spans)


def run_passes(w, rounds, passes=1, pace=None):
    """Run every operation of the corpus once per pass, timing each alone.
    The first pass checks every result; each later pass must reproduce the
    first pass's results exactly.  Checks and digests are not timed.  With
    a ``pace`` running, latencies are in its reference seconds, else wall
    seconds; each sample's latency is its best over the passes."""
    loop = Loop()
    with w.instrument():
        for p in range(passes):
            for i, rnd in enumerate(rounds):
                results = {}
                errors = 0
                for label, op in w.ops(rnd):
                    key = (i, label)
                    try:
                        result, spans = w.run_op(op)
                    except Exception:
                        traceback.print_exc()
                        errors += 1
                        continue
                    loop.spans.setdefault(key, []).append(spans)
                    loop.attempted += len(spans)
                    results[label] = result
                    text = sha256(w.result_text(result))
                    if p == 0:
                        loop.op_digests[key] = text
                    elif text != loop.op_digests.get(key):
                        loop.failed += len(spans)
                if p == 0 and errors:
                    # the round's check needs every result: count it all failed
                    loop.failed += len(results)
                elif p == 0:
                    loop.failed += w.check(rnd, results)
                loop.attempted += errors
                loop.failed += errors
    measure = pace.reference_s if pace else (lambda t0, t1: t1 - t0)
    loop.latency = {
        key: [min(best) for best in zip(*([measure(*s) for s in spans]
                                          for spans in per_pass))]
        for key, per_pass in loop.spans.items()
    }
    return loop


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest(parts):
    return sha256("\n".join(parts))


def result_digest(loop):
    return digest(loop.op_digests[key] for key in sorted(loop.op_digests))


def end_to_end(w, seed, seconds):
    """Build the corpus BUILDS times, then make the workload's passes over
    it, all under a Pace.  setup_s is the median build."""
    from pace import UNIT_REF_S, Pace

    size = n_rounds(w, seconds)
    builds = []
    clock = time.perf_counter
    with Pace() as pace:
        for _ in range(BUILDS):
            t0 = clock()
            rounds = w.build(seed, size)
            t1 = clock()
            builds.append((t0, t1, digest(w.render(r) for r in rounds)))
        loop = run_passes(w, rounds, w.passes, pace)
    builds = [(pace.reference_s(t0, t1), t1 - t0, d) for t0, t1, d in builds]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = loop.samples()
    ops_per_s = len(samples) / sum(samples)
    p50 = statistics.median(samples)
    pct, tail, beyond = tail_latency(samples)
    setup_s = statistics.median(t for t, _, _ in builds)
    corpus_digests = [d for _, _, d in builds]
    # every build after the first is one more attempt to reproduce the corpus
    attempted = loop.attempted + len(builds) - 1
    failed = loop.failed + sum(d != corpus_digests[0] for d in corpus_digests)

    print(f"corpus digest {corpus_digests[0]} ({size} rounds)"
          + ("" if len(set(corpus_digests)) == 1 else "  MISMATCH between builds"))
    print(f"result digest {result_digest(loop)} ({len(loop.op_digests)} results)")
    print(f"pace         {len(pace.walls)} calibration units, median "
          f"{pace.median_unit_s() * 1e6:.1f} us (reference {UNIT_REF_S * 1e6:g} us)")
    print(f"inside ops   {loop.wall_s():.3f} wall s in {w.passes} passes; "
          f"best of each sample {sum(samples):.3f} reference s")
    print(f"ops_per_s    {ops_per_s:.4f} op/s  ({len(samples)} ops in "
          f"{sum(samples):.3f} reference s)")
    print(f"op_p50_ms    {p50 * 1e3:.4f} ms")
    print(f"op_tail_ms   {tail * 1e3:.4f} ms  (p{pct:.4g}, {beyond} of "
          f"{len(samples)} samples beyond)")
    print(f"setup_s      {setup_s:.6f} s  (median of {len(builds)} builds; wall "
          + ", ".join(f"{t:.3f}" for _, t, _ in builds) + " s)")
    print(f"peak_rss_mb  {rss_mb:.3f} MB")
    print(f"fail_ratio   {failed / attempted:g} ratio  ({failed} failed / "
          f"{attempted} attempted)")
    metrics = {
        "ops_per_s": (ops_per_s, "op/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return attempted, failed, metrics


def cli_probe():
    """Median wall time of the CLI on the golden session, of importing the
    package, and of a bare interpreter; plus the count of failed runs."""
    from workloads import GOLDEN_SHA256

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    commands = {
        "cli.golden_wall_s": [sys.executable, "-m", "supergeom",
                              "--script", "demos/golden_session.sg"],
        "cli.import_s": [sys.executable, "-c", "import supergeom"],
        "cli.python_start_s": [sys.executable, "-c", "pass"],
    }
    times = {k: [] for k in commands}
    failed = 0
    for _ in range(CLI_REPEATS):
        for key, cmd in commands.items():
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  timeout=120)
            times[key].append(time.perf_counter() - t0)
            ok = proc.returncode == 0
            if key == "cli.golden_wall_s":
                ok = ok and sha256(proc.stdout.decode()) == GOLDEN_SHA256
            failed += not ok
    return {k: statistics.median(v) for k, v in times.items()}, failed


def layer_metrics(tracer, overhead, cli):
    """The per-layer metrics, in BENCHMARK.json order, as name -> (value, unit)."""
    t = tracer
    pairs = t.counters["poly.mul.term_pairs"]
    out_terms = t.counters["poly.mul.out_terms"]
    m = {}

    def calls(name):
        m[f"{name}.calls"] = (t.calls(name), "count")

    def self_s(name):
        m[f"{name}.self_s"] = (t.self_s(name), "s")

    def total(name):
        m[f"{name}.s"] = (t.total_s(name), "s")

    calls("poly.mul")
    self_s("poly.mul")
    m["poly.mul.term_pairs"] = (pairs, "count")
    m["poly.mul.out_terms"] = (out_terms, "count")
    m["poly.mul.yield"] = (out_terms / pairs if pairs else 0.0, "ratio")
    for name in ("poly.add", "poly.substitute", "poly.partial", "matrix._gmul",
                 "matrix._series_inverse"):
        calls(name)
        self_s(name)
    series = t.calls("matrix._series_inverse")
    m["matrix.neumann_steps"] = (
        t.calls("matrix._gmul", parent="matrix._series_inverse") - 2 * series,
        "count",
    )
    calls("matrix._det")
    self_s("matrix._det")
    for name in ("matrix.matmul", "matrix.invert", "matrix.berezinian",
                 "matrix.srank", "matrix.superbracket", "liealg.commutator_bracket",
                 "morphism.pullback", "morphism.differential_at",
                 "derivation.bracket"):
        total(name)
    calls("derivation.apply")
    for name in ("groups.check_group_axioms", "groups.left_invariant_field",
                 "variety.tangent_space", "distribution.involutive",
                 "liealg.lie_algebra"):
        total(name)
    calls("linalg.rref")
    total("linalg.rref")
    calls("expr.parse_poly")
    self_s("expr.parse_poly")
    m["script.statements"] = (t.calls("script.execute"), "count")
    self_s("script.execute")
    total("serialize.to_json")
    for key, value in cli.items():
        m[key] = (value, "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def traced(w, seed, seconds):
    """One pass over the corpus three times: untraced to warm up and for the
    reference digest, untraced again for the reference time, then traced.
    The corpus is sized so that the three passes take about ``seconds``."""
    from spans import Tracer

    rounds = w.build(seed, n_rounds(w, seconds / 3))
    plain = run_passes(w, rounds)
    reference = run_passes(w, rounds)
    with Tracer() as tracer:
        under = run_passes(w, rounds)
    mismatched = sum(under.op_digests.get(k) != v for k, v in plain.op_digests.items())
    mismatched += len(under.op_digests.keys() - plain.op_digests.keys())
    cli, cli_failed = cli_probe()
    metrics = layer_metrics(tracer, under.wall_s() / reference.wall_s(), cli)

    print(f"result digest untraced {result_digest(plain)}")
    print(f"result digest traced   {result_digest(under)}"
          + ("" if not mismatched else f"  MISMATCH in {mismatched} results"))
    pairs = tracer.counters["poly.mul.term_pairs"]
    for name, (value, unit) in metrics.items():
        note = f"  (base {pairs} term pairs)" if name == "poly.mul.yield" else ""
        print(f"{name:32s} {value:.6g} {unit}{note}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{w.name}-{seed}.json"
    path.write_text(json.dumps({"workload": w.name, "seed": seed,
                                "spans": tracer.spans(),
                                "counters": tracer.counters}, indent=1))
    print(f"spans written to {path.relative_to(ROOT)}")
    passes = (plain, reference, under)
    attempted = sum(p.attempted for p in passes) + 3 * CLI_REPEATS
    failed = sum(p.failed for p in passes) + mismatched + cli_failed
    return attempted, failed, metrics


def run_one(name, seed, seconds, trace):
    import workloads

    w = workloads.all_workloads(ROOT)[name]
    print(f"supergeom benchmark: workload {name}, seed {seed}, closed loop, "
          f"1 client, trace {trace}")
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
          f"git rev {git_rev()}")
    if trace:
        attempted, failed, metrics = traced(w, seed, seconds)
    else:
        attempted, failed, metrics = end_to_end(w, seed, seconds)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed, seconds, trace):
    """Each workload in its own process, so peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
        print()
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="sizes the corpus to about this long (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_package()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Line traffic of the kernel under one benchmark workload.

    python mutants/traffic.py WORKLOAD [--seed S] [--rounds N] [--build]

Builds N rounds (default 10) of the workload's corpus from seed S
(default 101) with perfbench/workloads.py, then runs every operation of
every round once, as the benchmark does, under a sys.settrace line
tracer, and prints the hit count of each line of src/supergeom that ran:
`file:line  count  source`, by file and line.  With --build the corpus
build is traced as well, and its counts are printed first, under their
own heading.  A count is the number of times a line began to run, so a
loop header counts once per pass and a call's def line counts none.

One process, the standard library only, and nothing is timed.
perfbench/ is only read: no bytecode is written while it is imported.
"""

from __future__ import annotations

import argparse
import linecache
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    """perfbench's workloads module, with src/ and perfbench/ on the path."""
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
    return workloads


def line_counts(fn, package: str) -> Counter:
    """Counter of (file, line) -> line events of the files under package
    while fn() runs; no other frame is traced line by line."""
    counts = Counter()

    def local(frame, event, arg):
        if event == "line":
            counts[frame.f_code.co_filename, frame.f_lineno] += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    old = sys.gettrace()
    sys.settrace(calls)
    try:
        fn()
    finally:
        sys.settrace(old)
    return counts


def traffic(name: str, seed: int = 101, rounds: int = 10, build: bool = False) -> dict:
    """{"build": counts, "ops": counts} of one workload (see line_counts);
    "build" only with build=True."""
    workloads = _workloads()
    import supergeom

    package = str(Path(supergeom.__file__).parent) + "/"
    w = workloads.all_workloads(ROOT)[name]
    out = {}
    corpus = []
    if build:
        out["build"] = line_counts(lambda: corpus.extend(w.build(seed, rounds)), package)
    else:
        corpus = w.build(seed, rounds)

    def run():
        with w.instrument():
            for rnd in corpus:
                for _, op in w.ops(rnd):
                    w.run_op(op)

    out["ops"] = line_counts(run, package)
    return out


def report(counts: Counter) -> str:
    """One line per counted line, `file:line  count  source`, sorted by
    path and line, each file named by its name in the package."""
    lines = []
    for (path, lineno), n in sorted(counts.items()):
        source = linecache.getline(path, lineno).strip()
        lines.append(f"{Path(path).name}:{lineno}\t{n}\t{source}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(_workloads().all_workloads(ROOT)))
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--build", action="store_true", help="trace the corpus build too")
    args = parser.parse_args(argv)
    for part, counts in traffic(args.workload, args.seed, args.rounds, args.build).items():
        print(f"== {args.workload} {part}: seed {args.seed}, {args.rounds} rounds")
        print(report(counts))


if __name__ == "__main__":
    main()

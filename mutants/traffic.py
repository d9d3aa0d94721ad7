"""Line traffic of the kernel under one benchmark workload.

    python mutants/traffic.py WORKLOAD [--seed S] [--rounds N] [--build] [--functions]

Builds N rounds (default 10) of the workload's corpus from seed S
(default 101) with perfbench/workloads.py, then runs every operation of
every round once, as the benchmark does, under a sys.settrace line
tracer, and prints the hit count of each line of src/supergeom that ran:
`file:line  count  source`, by file and line.  With --build the corpus
build is traced as well, and its counts are printed first, under their
own heading.  A count is the number of times a line began to run, so a
loop header counts once per pass and a call's def line counts none.

With --functions it prints the counts summed per function instead,
`module.qualname  count`, largest first.  A line belongs to the innermost
def or class whose body holds it, named as Python's __qualname__ names
it (a nested def is `outer.<locals>.inner`); a lambda or comprehension
counts toward the def it is written in, and a def line toward the scope
that runs it.  The per-function counts sum to the per-line ones.

One process, the standard library only, and nothing is timed.
perfbench/ is only read: no bytecode is written while it is imported.
"""

from __future__ import annotations

import argparse
import ast
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


def _scopes(path: str) -> list:
    """(first, last, qualname) of the body lines of every def and class in
    the file at path, each after the scopes that hold it."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                out.append((child.body[0].lineno, child.end_lineno, name))
                visit(child, name + ("." if isinstance(child, ast.ClassDef) else ".<locals>."))
            else:
                visit(child, prefix)

    visit(ast.parse(Path(path).read_text()), "")
    return out


def function_counts(counts: Counter) -> Counter:
    """Counter of `module.qualname` -> the line events of counts summed over
    the lines of each function (see the module docstring); a line outside
    every def and class counts toward `module.<module>`."""
    out = Counter()
    scopes = {}
    for (path, lineno), n in counts.items():
        if path not in scopes:
            scopes[path] = _scopes(path)
        # the last scope that holds the line is the innermost one
        name = "<module>"
        for first, last, qualname in scopes[path]:
            if first <= lineno <= last:
                name = qualname
        out[f"{Path(path).stem}.{name}"] += n
    return out


def report_functions(counts: Counter) -> str:
    """One line per function, `module.qualname  count`, largest count
    first, ties by name."""
    ranked = sorted(function_counts(counts).items(), key=lambda item: (-item[1], item[0]))
    return "\n".join(f"{name}\t{n}" for name, n in ranked)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(_workloads().all_workloads(ROOT)))
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--build", action="store_true", help="trace the corpus build too")
    parser.add_argument("--functions", action="store_true",
                        help="sum the counts per function, largest first")
    args = parser.parse_args(argv)
    for part, counts in traffic(args.workload, args.seed, args.rounds, args.build).items():
        print(f"== {args.workload} {part}: seed {args.seed}, {args.rounds} rounds")
        print(report_functions(counts) if args.functions else report(counts))


if __name__ == "__main__":
    main()

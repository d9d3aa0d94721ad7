"""Line traffic of the kernel under one benchmark workload.

    python mutants/traffic.py WORKLOAD [--seed S] [--rounds N] [--build] [--functions]
                              [--against DIR]

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

With --functions --against DIR it counts the same corpus in this tree
and in the checkout at DIR, each in a subprocess of its own, and prints
one line per function that ran in either, `module.qualname  DIR  this
this-DIR`, largest count first, then the totals: the work one change
saves or adds, function by function, with nothing timed.

The standard library only, and nothing is timed.  perfbench/ is only
read: no bytecode is written while it is imported, nor by the
subprocesses of --against.
"""

from __future__ import annotations

import argparse
import ast
import json
import linecache
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _workloads(root: Path = ROOT):
    """The workloads module of root's perfbench/, with root's src/ and
    perfbench/ on the path."""
    for path in (root / "perfbench", root / "src"):
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


def traffic(name: str, seed: int = 101, rounds: int = 10, build: bool = False,
            root: Path = ROOT) -> dict:
    """{"build": counts, "ops": counts} of one workload (see line_counts)
    in the tree at root; "build" only with build=True."""
    workloads = _workloads(root)
    import supergeom

    package = str(Path(supergeom.__file__).parent) + "/"
    if not package.startswith(str(root.resolve()) + "/"):
        raise RuntimeError(f"supergeom imported from {package}, not from {root}")
    w = workloads.all_workloads(root)[name]
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


def tree_functions(tree: Path, name: str, seed: int, rounds: int, build: bool) -> dict:
    """{part: function_counts} of traffic() in the tree at tree, run in a
    subprocess of its own with this file's code, so no module of one tree
    meets the other's."""
    child = ("import json, sys; from pathlib import Path; import traffic; "
             "a = sys.argv[1:]; "
             "parts = traffic.traffic(a[1], int(a[2]), int(a[3]), a[4] == '1', Path(a[0])); "
             "print(json.dumps({k: traffic.function_counts(v) for k, v in parts.items()}))")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(HERE))
    proc = subprocess.run(
        [sys.executable, "-c", child, str(tree.resolve()), name, str(seed), str(rounds),
         "1" if build else "0"],
        env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"traffic in {tree} failed:\n{proc.stderr}")
    return {part: Counter(counts) for part, counts in json.loads(proc.stdout).items()}


def report_against(this: Counter, other: Counter) -> str:
    """One line per function counted in either tree, `module.qualname
    other  this  this-other`, the larger of the two counts first, ties by
    name, then a line of the totals."""
    names = sorted(this.keys() | other.keys(),
                   key=lambda f: (-max(this[f], other[f]), f))
    lines = [f"{f}\t{other[f]}\t{this[f]}\t{this[f] - other[f]:+d}" for f in names]
    total, against = sum(this.values()), sum(other.values())
    lines.append(f"total\t{against}\t{total}\t{total - against:+d}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(_workloads().all_workloads(ROOT)))
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--build", action="store_true", help="trace the corpus build too")
    parser.add_argument("--functions", action="store_true",
                        help="sum the counts per function, largest first")
    parser.add_argument("--against", metavar="DIR", type=Path,
                        help="with --functions: the counts of the checkout at DIR, "
                             "this tree's and their difference")
    args = parser.parse_args(argv)
    if args.against is not None:
        if not args.functions:
            parser.error("--against needs --functions")
        trees = [tree_functions(tree, args.workload, args.seed, args.rounds, args.build)
                 for tree in (args.against, ROOT)]
        for part in trees[1]:
            print(f"== {args.workload} {part}: seed {args.seed}, {args.rounds} rounds; "
                  f"columns: function, {args.against}, this tree, difference")
            print(report_against(trees[1][part], trees[0][part]))
        return
    for part, counts in traffic(args.workload, args.seed, args.rounds, args.build).items():
        print(f"== {args.workload} {part}: seed {args.seed}, {args.rounds} rounds")
        print(report_functions(counts) if args.functions else report(counts))


if __name__ == "__main__":
    main()

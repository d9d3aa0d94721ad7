"""traffic.py over one even_det round: the image determinant's lines run
and no line of ** does, since no operation of the round takes a power,
and the per-function counts sum to the per-line ones.  --against on two
copies of the tree that differ in one function shows that function's
difference alone.  Nothing here gates on timing."""

import inspect
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from traffic import ROOT, function_counts, report, report_functions, traffic  # noqa: E402


def counts_of(counts, fn):
    """The count of each line of fn, 0 for a line that did not run."""
    source, first = inspect.getsourcelines(fn)
    path = fn.__code__.co_filename
    return [counts[path, line] for line in range(first, first + len(source))]


def test_one_even_det_round_runs_the_image_det_and_no_power():
    counts = traffic("even_det", seed=101, rounds=1)
    assert list(counts) == ["ops"]
    from supergeom import matrix
    from supergeom.poly import SuperPoly

    ops = counts["ops"]
    assert any(counts_of(ops, matrix._image_det))
    assert not any(counts_of(ops, SuperPoly.__pow__))
    assert len(report(ops).splitlines()) == len(ops)


def test_per_function_counts_sum_to_the_line_counts():
    ops = traffic("even_det", seed=101, rounds=1)["ops"]
    from supergeom import matrix

    functions = function_counts(ops)
    assert sum(functions.values()) == sum(ops.values())
    # _image_det holds no nested def, so its total is its lines' sum
    assert functions["matrix._image_det"] == sum(counts_of(ops, matrix._image_det))
    lines = report_functions(ops).splitlines()
    assert [line.split("\t")[0] for line in lines] == sorted(functions, key=lambda f: (-functions[f], f))
    assert sum(int(line.split("\t")[1]) for line in lines) == sum(ops.values())


def copy_tree(dest):
    """src/, perfbench/ and mutants/traffic.py of this tree under dest."""
    ignore = shutil.ignore_patterns("__pycache__", "out", "tests")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    (dest / "mutants").mkdir()
    shutil.copy(ROOT / "mutants" / "traffic.py", dest / "mutants")
    return dest


def test_against_shows_the_one_function_that_differs(tmp_path):
    this, other = copy_tree(tmp_path / "this"), copy_tree(tmp_path / "other")
    # one line more per call of _image_det in the other tree
    matrix = other / "src" / "supergeom" / "matrix.py"
    old = "    n = _det_size(ints)\n"
    text = matrix.read_text()
    assert text.count(old) == 1
    matrix.write_text(text.replace(old, old + "    n += 0\n"))
    proc = subprocess.run(
        [sys.executable, str(this / "mutants" / "traffic.py"), "even_det", "--rounds", "1",
         "--functions", "--against", str(other)],
        capture_output=True, text=True, check=True)
    header, *lines = proc.stdout.splitlines()
    assert header.startswith("== even_det ops: seed 101, 1 rounds")
    rows = {name: (int(a), int(b), int(d)) for name, a, b, d in
            (line.split("\t") for line in lines)}
    # the columns are the other tree, this tree and this minus the other
    extra = rows["matrix._image_det"][0] - rows["matrix._image_det"][1]
    assert extra > 0
    assert {name: d for name, (_, _, d) in rows.items() if d} == {
        "matrix._image_det": -extra, "total": -extra}
    # this tree's column is the in-process count of the same code
    expect = function_counts(traffic("even_det", seed=101, rounds=1)["ops"])
    assert {name: b for name, (_, b, _) in rows.items() if name != "total"} == expect
    assert rows["total"][1] == sum(expect.values())


def test_against_needs_functions():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "mutants" / "traffic.py"), "even_det", "--against", str(ROOT)],
        capture_output=True, text=True)
    assert proc.returncode == 2 and "--against needs --functions" in proc.stderr

"""traffic.py over one even_det round: the image determinant's lines run
and no line of ** does, since no operation of the round takes a power,
and the per-function counts sum to the per-line ones.  Nothing here
gates on timing."""

import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from traffic import function_counts, report, report_functions, traffic  # noqa: E402


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

"""traffic.py over one even_det round: the image determinant's lines run
and no line of ** does, since no operation of the round takes a power.
Nothing here gates on timing."""

import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from traffic import report, traffic  # noqa: E402


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

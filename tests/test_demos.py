"""Every demo script runs to completion and prints something.

The demos exercise public entry points no other test imports together
(left-invariant fields, the three renderers, the chart and Lie algebra
tours), so a demo that raises is a broken public path.
"""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    if path.name == "group_fields.py":
        livf = re.findall(r"^LIVF from .*\n  left invariant: (\w+)$", out, re.M)
        assert livf == ["True", "True"]

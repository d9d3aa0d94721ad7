"""Run the mutation catalogue: each mutant must be killed by its tests.

    python mutants/run.py

The repository is copied once to a temporary directory, without .git and
caches.  The killing tests of every mutant are first run together on the
unmutated copy, and must all be found and pass there.  Then each mutant
in turn is written into the copy, its tests run as one
`python -m pytest -x` subprocess with src/ on PYTHONPATH, and the file
is restored.  A mutant is killed when pytest exits nonzero (a test or
its collection fails) or the run passes TIMEOUT_S, and survives when its
tests pass.  An entry is stale when one of its old texts does not occur
exactly once in its file.

One line per mutant gives its verdict, the killing test and the wall
time; the exit status is 1 when any mutant survives, any entry is stale
or the unmutated tree fails, else 0.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# per mutant; every catalogued mutant dies in a few seconds, so only a
# mutant that makes the code loop reaches it
TIMEOUT_S = 300
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache")


def pytest(tree: Path, tests, timeout: float):
    """(returncode or None on timeout, output) of pytest -x on tests."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout + proc.stderr


def first_failure(output: str) -> str:
    """The node id of the first FAILED or ERROR line of pytest's summary,
    with its whole parametrized id: that id may hold blanks, brackets and
    " - ", so it runs to the first ']' that ends the line or is followed
    by the " - " before pytest's message."""
    found = re.search(r"^(?:FAILED|ERROR) (\S+?(?:\[.*?\])?)(?: - |$)", output, re.M)
    return found.group(1) if found else "collection"


def mutate(text: str, edits):
    """text with every edit applied, or the error of the first edit whose
    old text does not occur exactly once."""
    for k, (old, new) in enumerate(edits):
        if old == new:
            return None, f"edit {k} changes nothing"
        if (n := text.count(old)) != 1:
            return None, f"edit {k} matches {n} times"
        text = text.replace(old, new)
    return text, None


def run(catalogue, root: Path) -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=IGNORE)
        tests = list(dict.fromkeys(t for m in catalogue for t in m.tests))
        code, output = pytest(tree, tests, TIMEOUT_S * len(catalogue))
        if code != 0:
            print(f"UNMUTATED tree fails its killing tests (exit {code}):\n{output}")
            return 1
        for m in catalogue:
            target = tree / m.path
            original = target.read_text()
            text, error = mutate(original, m.edits)
            if error:
                print(f"STALE     {m.name}: {m.path}, {error}")
                failed += 1
                continue
            target.write_text(text)
            start = time.perf_counter()
            try:
                code, output = pytest(tree, m.tests, TIMEOUT_S)
            finally:
                target.write_text(original)
            wall = time.perf_counter() - start
            if code is None:
                print(f"KILLED    {m.name}: timeout after {wall:.1f} s")
            elif code:
                print(f"KILLED    {m.name}: {first_failure(output)} ({wall:.1f} s)")
            else:
                print(f"SURVIVED  {m.name}: {' '.join(m.tests)} pass ({wall:.1f} s)")
                failed += 1
    print(f"{len(catalogue) - failed} of {len(catalogue)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    from catalogue import CATALOGUE

    sys.exit(run(CATALOGUE, HERE.parent))

"""run.py over a toy tree: a killed mutant passes the run, and a surviving
or stale one fails it.  Nothing here gates on timing."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from catalogue import Mutant  # noqa: E402
from run import run as run_catalogue  # noqa: E402

TOY = '''
def add(a, b):
    return a + b


def double(a):
    return add(a, a)
'''

TOY_TEST = '''
import pytest

from toy import add


def test_add():
    assert add(2, 3) == 5


@pytest.mark.parametrize("a, b", [(2, 3)], ids=["add(2, 3) - [5]"])
def test_sums(a, b):
    assert add(a, b) == 5
'''

TEST = ("tests/test_toy.py::test_add",)
KILLED = Mutant("add subtracts", "src/toy.py", (("a + b", "a - b"),), TEST)
SURVIVING = Mutant("double triples", "src/toy.py", (("add(a, a)", "add(a, add(a, a))"),), TEST)
STALE = Mutant("gone", "src/toy.py", (("a * b", "a / b"),), TEST)
AMBIGUOUS = Mutant("twice", "src/toy.py", (("add(", "sub("),), TEST)
# pytest's id holds a blank, a ')', brackets and the " - " that ends it
KILLED_BY_ID = Mutant("add subtracts", "src/toy.py", (("a + b", "a - b"),),
                      ("tests/test_toy.py::test_sums",))
MISSING_TEST = Mutant("no such test", "src/toy.py", (("a + b", "a - b"),),
                      ("tests/test_toy.py::test_gone",))


def run(tmp_path, capsys, *catalogue):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "toy.py").write_text(TOY)
    (tmp_path / "tests" / "test_toy.py").write_text(TOY_TEST)
    code = run_catalogue(catalogue, tmp_path)
    # the run works on a copy: the toy tree is left as it was
    assert (tmp_path / "src" / "toy.py").read_text() == TOY
    return code, capsys.readouterr().out


def test_a_killed_mutant_passes_and_names_its_killing_test(tmp_path, capsys):
    code, out = run(tmp_path, capsys, KILLED)
    assert code == 0, out
    assert "KILLED    add subtracts: tests/test_toy.py::test_add (" in out
    assert "1 of 1 mutants killed" in out


def test_a_killing_test_is_named_by_its_whole_parametrized_id(tmp_path, capsys):
    code, out = run(tmp_path, capsys, KILLED_BY_ID)
    assert code == 0, out
    assert "KILLED    add subtracts: tests/test_toy.py::test_sums[add(2, 3) - [5]] (" in out


def test_a_surviving_mutant_fails_the_run(tmp_path, capsys):
    code, out = run(tmp_path, capsys, KILLED, SURVIVING)
    assert code == 1, out
    assert "SURVIVED  double triples" in out
    assert "KILLED    add subtracts" in out


def test_an_old_text_that_is_gone_fails_the_run(tmp_path, capsys):
    code, out = run(tmp_path, capsys, STALE, KILLED)
    assert code == 1, out
    assert "STALE     gone: src/toy.py, edit 0 matches 0 times" in out


def test_an_old_text_that_matches_twice_fails_the_run(tmp_path, capsys):
    code, out = run(tmp_path, capsys, AMBIGUOUS)
    assert code == 1, out
    assert "STALE     twice: src/toy.py, edit 0 matches 2 times" in out


def test_a_killing_test_that_is_gone_fails_the_run(tmp_path, capsys):
    code, out = run(tmp_path, capsys, MISSING_TEST)
    assert code == 1, out
    assert "UNMUTATED tree fails its killing tests" in out

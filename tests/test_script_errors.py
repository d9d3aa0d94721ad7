"""Script error paths, each pinned to the exact bytes run_script reports,
and the set of statement heads the interpreter accepts.

A kernel ValueError raised inside a statement (a repeated generator name,
an odd OSp block) reaches run_script's own handler, which reports it as
"error: line N: <message>" like any ScriptError without a column.
"""

import re

import pytest

from supergeom import script
from supergeom.errors import ScriptError
from supergeom.script import Interpreter, run_script

ERRORS = [
    ("context even=[t] odd=[t]",
     "error: line 1: generator names must be distinct"),
    ("morphism f : A -> B [t]", "error: line 1: unknown context 'A'"),
    ("context even=[t, 2t] odd=[a]", "error: line 1: bad generator name '2t'"),
    ("ber", "error: line 1: expected: COMMAND MATRIXNAME"),
    ("involutive", "error: line 1: expected: involutive FIELD [FIELD ...]"),
    ("lie OSp 1|1", "error: line 1: OSp needs an even number of odd dimensions"),
    # a bracket still open at the end of the text closes the last statement
    ("context even=[t] odd=[a]\nlet p = (t + a",
     "error: line 2, column 7: expected ')'"),
    ("context even=[t] odd=[a]\n\nlet p = (t +\n  a",
     "error: line 3, column 7: expected ')'"),
    ("context even=[t] odd=[a]\nber X", "error: line 2: name 'X' is not bound"),
    ("context even=[t] odd=[a]\nlet p = t\nber p",
     "error: line 3: 'p' is a poly, expected a matrix"),
]


# an id drops "error: line N: ", and keeps "line N, column C: " so that
# the two column faults have ids of their own
@pytest.mark.parametrize("text,error", ERRORS,
                         ids=[re.sub(r"^error: (line \d+: )?", "", e) for _, e in ERRORS])
def test_each_error_path_reports_its_line(text, error):
    result = run_script(text, keep_going=True)
    assert result.errors == (error,)
    assert result.output == ""


def test_execute_raises_without_a_line():
    # run_script names the line; the statement's own error carries none
    with pytest.raises(ScriptError) as info:
        Interpreter().execute(5, "ber")
    assert str(info.value) == "expected: COMMAND MATRIXNAME"


def documented_heads():
    """The heads listed in the module docstring's two parenthesised lists."""
    lists = re.findall(r"statements\s+\(([^)]*)\)", script.__doc__)
    assert len(lists) == 2
    return {head for text in lists for head in re.split(r",\s*", text)}


def test_the_interpreter_accepts_exactly_the_documented_heads():
    heads = documented_heads()
    assert len(heads) == 22
    for head in sorted(heads):
        (error,) = run_script(head).errors
        assert "unknown statement" not in error, head
    # every attribute name of the interpreter, with and without the part up
    # to its first '_', is refused unless it is a documented head
    names = {n for attr in dir(Interpreter) for n in (attr, attr.partition("_")[2]) if n}
    for name in sorted(names - heads):
        assert run_script(name).errors == (f"error: line 1: unknown statement {name!r}",), name

"""The code-line rule of tests/code_lines.py on a canned module."""

from code_lines import code_lines

SOURCE = '''\
"""Module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class C:
    """Class docstring."""

    total = 1 + \\
        2


def f(a,
      b):
    """Function
    docstring."""
    text = """a string
that is not a docstring"""
    return (a +
            b)
'''


def test_counts_code_lines_only():
    # import, class, both lines of the backslash continuation, both lines
    # of the def, both of the string and both of the return
    assert code_lines(SOURCE) == 10


def test_empty_and_docstring_only_modules_have_no_code():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0

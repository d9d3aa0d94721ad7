"""poly.py is the only module that reads the monomial code.

A SuperPoly keys int numerators by one int code per monomial over one
denominator (see poly.py).  Every other module goes through ring
operations, the public views (terms and len) and _from_terms, so a
change of encoding touches poly.py alone.  This scans the other modules
of the package for the private fields and constructors of that format,
and for the odd-word sign table and words, so every Koszul sign rule is
counted in poly.py.
"""

import pathlib
import re

import pytest

import supergeom

PACKAGE = pathlib.Path(supergeom.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "poly.py")
PRIVATE = re.compile(
    r"\.nums\b|\.den\b|\._shift\b|\._guard\b|\b_raw\(|\b_reduced\("
    # the odd-word sign rule and its words, so no module re-derives a sign
    r"|\b_SWAP_PARITY\b|\b_odd_word\b"
)


def test_the_scan_sees_the_package():
    assert {"liealg.py", "derivation.py", "matrix.py"} <= {p.name for p in MODULES}
    assert PRIVATE.search((PACKAGE / "poly.py").read_text())
    assert PRIVATE.search("from .poly import Context, _SWAP_PARITY")
    assert PRIVATE.search("word = _odd_word(mask)")
    # the public sorter only contains the private name
    assert not PRIVATE.search("from .poly import normalize_odd_word")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_does_not_read_monomial_codes(path):
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if PRIVATE.search(line)
    ]
    assert not hits, "\n".join(hits)

"""The byte-identity surface: one sha256 per output a speed change must
not move.

- "lie": the report and errors of run_script(..., keep_going=True) over
  `lie GL|SL|OSp m|n` for every m|n <= 3|3, so OSp with odd n adds its
  error text;
- "corpus": the report, errors and exports of run_script(...,
  keep_going=True) over helpers.session_script for seeds
  0..CORPUS_SEEDS - 1;
- "fields": the report, errors and exports of run_script(...,
  keep_going=True) over helpers.fields_script for seeds
  0..FIELDS_SEEDS - 1: brackets of even and odd fields (odd with odd,
  each with itself and with the zero field) and their involutivity;
- "distributions": the report and errors of run_script(...,
  keep_going=True) over helpers.distributions_script for seeds
  0..DISTRIBUTIONS_SEEDS - 1: involutive over every subset of three or
  four fields of mixed parity, all three verdicts among them;
- "laws": the axiom reports of helpers.broken_law for seeds
  0..LAWS_SEEDS - 1, which fail associativity, the unit on either side
  and the inversion, and str(compose(psi, phi)) of
  helpers.random_chain; the script corpus reaches neither unit nor
  inversion failures, nor compose;
- "matrices": the report, errors and exports of run_script(...,
  keep_going=True) over helpers.matrix_script for seeds
  0..MATRICES_SEEDS - 1: ber, inv, srank, strace and export of even
  supermatrices over Lambda(theta1..theta4) and k[t | theta1..theta3],
  the determinants of p|0 blocks that take the Kronecker image, and the
  NeitherBlockInvertible and NonConstantBody errors;
- "demo/NAME": the stdout of each demo script, run in process.

tests/test_identity.py compares these with tests/identity.json.  A change
that moves output on purpose regenerates the file and names each changed
surface in CHANGES.md:

    PYTHONPATH=src python tests/identity.py

With --check it recomputes every surface and compares it with the file,
which it does not rewrite, and runs demos/golden_session.sg through
run_script and compares the sha256 of its report, key "golden", with
GOLDEN_SHA256, the digest tests/test_cli.py pins for the CLI's stdout:
it prints each key that differs and exits 1 on any difference, else 0.
It needs only the standard library, so it runs under any interpreter
the package supports, pytest or not:

    PYTHONPATH=src python tests/identity.py --check
"""

import contextlib
import hashlib
import io
import json
import random
import runpy
import sys
from pathlib import Path

from helpers import (broken_law, distributions_script, fields_script, matrix_script,
                     random_chain, session_script)
from supergeom import check_group_axioms, compose
from supergeom.script import run_script

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = Path(__file__).resolve().parent / "identity.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN_PATH = ROOT / "demos" / "golden_session.sg"
GOLDEN_SHA256 = "7898d4bdd2031dd836fdea14b9c8bdeabecfe55c342d7293d9c34d5084cb39db"

LIE_SCRIPT = "".join(f"lie {kind} {m}|{n}\n" for kind in ("GL", "SL", "OSp")
                     for m in range(4) for n in range(4))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def lie_digest():
    result = run_script(LIE_SCRIPT, keep_going=True)
    return sha256(result.output + "\n".join(result.errors))


CORPUS_SEEDS = 150


def scripts_digest(script, seeds):
    h = hashlib.sha256()
    for seed in range(seeds):
        result = run_script(script(random.Random(seed)), keep_going=True)
        h.update(result.output.encode())
        h.update("\n".join(result.errors).encode())
        h.update(json.dumps(result.exports, sort_keys=True).encode())
    return h.hexdigest()


def corpus_digest():
    return scripts_digest(session_script, CORPUS_SEEDS)


FIELDS_SEEDS = 100


def fields_digest():
    return scripts_digest(fields_script, FIELDS_SEEDS)


DISTRIBUTIONS_SEEDS = 100


def distributions_digest():
    return scripts_digest(distributions_script, DISTRIBUTIONS_SEEDS)


MATRICES_SEEDS = 60


def matrices_digest():
    return scripts_digest(matrix_script, MATRICES_SEEDS)


LAWS_SEEDS = 200

def laws_digest():
    h = hashlib.sha256()
    for seed in range(LAWS_SEEDS):
        rng = random.Random(seed)
        lines = [str(r) for r in check_group_axioms(broken_law(rng))]
        lines.append(str(compose(*random_chain(rng))))
        h.update(("\n".join(lines) + "\n").encode())
    return h.hexdigest()


def demo_digest(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return sha256(out.getvalue())


def golden_digest():
    """The sha256 of the golden session's report, any errors appended, so
    an error differs from GOLDEN_SHA256 too."""
    result = run_script(GOLDEN_PATH.read_text())
    return sha256(result.output + "\n".join(result.errors))


def surfaces():
    digests = {"lie": lie_digest(), "corpus": corpus_digest(),
               "fields": fields_digest(), "distributions": distributions_digest(),
               "laws": laws_digest(), "matrices": matrices_digest()}
    digests.update((f"demo/{p.name}", demo_digest(p)) for p in DEMOS)
    return digests


def check():
    """1 when a recomputed surface differs from tests/identity.json, or
    the golden session from GOLDEN_SHA256, each differing key printed with
    both digests, else 0."""
    pinned = dict(json.loads(JSON_PATH.read_text()), golden=GOLDEN_SHA256)
    got = dict(surfaces(), golden=golden_digest())
    keys = sorted(pinned.keys() | got.keys())
    differ = [key for key in keys if pinned.get(key) != got.get(key)]
    for key in differ:
        print(f"differs: {key}: pinned {pinned.get(key)}, recomputed {got.get(key)}")
    print(f"{len(keys) - len(differ)} of {len(keys)} surfaces equal")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    JSON_PATH.write_text(json.dumps(surfaces(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {JSON_PATH}")

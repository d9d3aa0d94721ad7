"""Every surface in tests/identity.json keeps its bytes (see identity.py)."""

import json
import random

import pytest

import identity
from helpers import matrix_script
from identity import (DEMOS, GOLDEN_SHA256, JSON_PATH, MATRICES_SEEDS, corpus_digest,
                      demo_digest, distributions_digest, fields_digest, golden_digest,
                      laws_digest, lie_digest, matrices_digest, sha256)
from supergeom import matrix
from supergeom.script import run_script

PINNED = json.loads(JSON_PATH.read_text())


def test_every_demo_is_pinned():
    surfaces = ["lie", "corpus", "fields", "distributions", "laws", "matrices"]
    surfaces += [f"demo/{p.name}" for p in DEMOS]
    assert sorted(PINNED) == sorted(surfaces)


def test_lie_constraints_and_errors_keep_their_bytes():
    assert lie_digest() == PINNED["lie"]


def test_session_corpus_keeps_its_bytes():
    assert corpus_digest() == PINNED["corpus"]


def test_field_brackets_keep_their_bytes():
    assert fields_digest() == PINNED["fields"]


def test_involutivity_verdicts_keep_their_bytes():
    assert distributions_digest() == PINNED["distributions"]


def test_axiom_reports_and_composites_keep_their_bytes():
    assert laws_digest() == PINNED["laws"]


def test_matrix_reports_keep_their_bytes():
    assert matrices_digest() == PINNED["matrices"]


def test_every_block_of_four_rows_or_more_takes_the_image(monkeypatch):
    # the surface pins the image determinant: each script's p|0 block over
    # k[x1, x2, x3] is expanded over its Kronecker image, and no other
    # grid of the surface reaches the rule
    taken = []
    image = matrix._kronecker_image

    def spy(ctx, grid):
        result = image(ctx, grid)
        taken.append((len(grid), result is not None))
        return result

    monkeypatch.setattr(matrix, "_kronecker_image", spy)
    for seed in range(MATRICES_SEEDS):
        run_script(matrix_script(random.Random(seed)), keep_going=True)
    blocks = [taken for rows, taken in taken if rows >= 4]
    assert len(blocks) == MATRICES_SEEDS and all(blocks)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_stdout_keeps_its_bytes(path):
    assert demo_digest(path) == PINNED[f"demo/{path.name}"]


def test_check_prints_each_differing_key_and_leaves_the_file(tmp_path, monkeypatch, capsys):
    # identity.py --check: a changed, a missing and an extra key each
    # differ, and so does a golden session report off GOLDEN_SHA256; the
    # pinned file is not rewritten, and equal surfaces pass
    path = tmp_path / "identity.json"
    path.write_text(json.dumps({"a": "1", "b": "2", "gone": "3"}))
    monkeypatch.setattr(identity, "JSON_PATH", path)
    monkeypatch.setattr(identity, "surfaces", lambda: {"a": "1", "b": "9", "new": "4"})
    monkeypatch.setattr(identity, "golden_digest", lambda: identity.GOLDEN_SHA256)

    def differ():
        return [line.split(":")[1].strip() for line in capsys.readouterr().out.splitlines()
                if line.startswith("differs:")]

    assert identity.check() == 1
    assert differ() == ["b", "gone", "new"]
    assert json.loads(path.read_text()) == {"a": "1", "b": "2", "gone": "3"}
    monkeypatch.setattr(identity, "surfaces", lambda: {"a": "1", "b": "2", "gone": "3"})
    assert identity.check() == 0
    assert differ() == []
    monkeypatch.setattr(identity, "golden_digest", lambda: sha256("another report\n"))
    assert identity.check() == 1
    assert differ() == ["golden"]


def test_the_golden_session_keeps_its_bytes_in_process():
    assert golden_digest() == GOLDEN_SHA256

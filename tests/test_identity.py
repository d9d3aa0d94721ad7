"""Every surface in tests/identity.json keeps its bytes (see identity.py)."""

import json

import pytest

from identity import (DEMOS, JSON_PATH, corpus_digest, demo_digest,
                      distributions_digest, fields_digest, laws_digest, lie_digest)

PINNED = json.loads(JSON_PATH.read_text())


def test_every_demo_is_pinned():
    surfaces = ["lie", "corpus", "fields", "distributions", "laws"]
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


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_stdout_keeps_its_bytes(path):
    assert demo_digest(path) == PINNED[f"demo/{path.name}"]

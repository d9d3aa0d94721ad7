"""Every surface in tests/identity.json keeps its bytes (see identity.py)."""

import json

import pytest

from identity import DEMOS, JSON_PATH, demo_digest, lie_digest

PINNED = json.loads(JSON_PATH.read_text())


def test_every_demo_is_pinned():
    assert sorted(PINNED) == sorted(["lie"] + [f"demo/{p.name}" for p in DEMOS])


def test_lie_constraints_and_errors_keep_their_bytes():
    assert lie_digest() == PINNED["lie"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_stdout_keeps_its_bytes(path):
    assert demo_digest(path) == PINNED[f"demo/{path.name}"]

"""Fixtures shared by the test modules."""

import pytest

from odelim import interp


@pytest.fixture
def pool_for_every_support(monkeypatch):
    """The pool gate lowered to one column: every CRT-phase solve of a run
    with threads > 1 goes to the pool, however narrow its support."""
    monkeypatch.setattr(interp, "_POOL_MIN_COLS", 1)

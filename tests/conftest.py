"""Fixtures shared by the test modules."""

import pytest

from isograd import core


@pytest.fixture
def eval_calls(monkeypatch):
    """A one-element list counting ``core._eval`` calls (one per probe
    point) made during the test."""
    calls = [0]
    real = core._eval

    def counting(f, x):
        calls[0] += 1
        return real(f, x)

    monkeypatch.setattr(core, "_eval", counting)
    return calls

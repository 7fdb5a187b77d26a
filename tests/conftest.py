"""Shared test helpers: seeded count generators and fixture paths."""

from pathlib import Path

import numpy as np
import pytest

from greechie_mle import GreechieDiagram

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def random_counts(
    diagram: GreechieDiagram, rng: np.random.Generator, low: int = 1, high: int = 50
) -> dict[str, int]:
    """Positive integer counts for every outcome, from a seeded generator."""
    draws = rng.integers(low, high + 1, size=len(diagram.outcomes))
    return {x: int(v) for x, v in zip(diagram.outcomes, draws)}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(20240817))


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap module.name so that each call appends its arguments to the
    returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls

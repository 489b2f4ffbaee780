"""Fixtures for the test suite; its shared builders are in builders.py."""

from __future__ import annotations

import numpy as np
import pytest

from gnnbound.data import GraphSample
from builders import sample_from_edges


@pytest.fixture
def triangle() -> GraphSample:
    return sample_from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path4() -> GraphSample:
    return sample_from_edges(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260826)

"""Shared fixtures.

Electrical simulations dominate test runtime, so expensive artefacts
(reference paths, transfer curves, calibrations) are session-scoped and
computed at a coarser-but-adequate time step.
"""

import numpy as np
import pytest

from repro.cells import build_path, default_technology
from repro.montecarlo import sample_population

#: coarse-but-adequate step for tests (stimulus edges are >= 50 ps)
TEST_DT = 4e-12


@pytest.fixture(scope="session")
def tech():
    return default_technology()


@pytest.fixture(scope="session")
def test_dt():
    return TEST_DT


@pytest.fixture()
def fresh_path(tech):
    """A fresh nominal 7-inverter sensitized path (mutable stimulus)."""
    return build_path(tech=tech)


@pytest.fixture(scope="session")
def small_population():
    """Three MC instances — enough to exercise population plumbing."""
    return sample_population(3, base_seed=11)


@pytest.fixture(scope="session")
def nominal_transfer_curve(tech):
    """Transfer curve of the reference path, shared across tests."""
    from repro.core import characterize_transfer

    grid = np.linspace(0.15e-9, 0.60e-9, 10)
    return characterize_transfer(build_path(tech=tech), grid, dt=TEST_DT)

"""Shared Monte-Carlo fixtures.

The heavy ensembles are generated once per session and shared between the
module suites and the acceptance suite; every fixture is seeded, so the
whole run is reproducible.
"""

import numpy as np
import pytest

from wignerlab.generate import generate_archive


@pytest.fixture(scope="session")
def gue2000():
    """50 GUE spectra at N=2000 (semicircle / counting / window statistics)."""
    return generate_archive("gue", 2000, 50, seed=20250809)


@pytest.fixture(scope="session")
def gue400():
    """2000 GUE spectra at N=400 (two-point estimator)."""
    return generate_archive("gue", 400, 2000, seed=41)


@pytest.fixture(scope="session")
def wigner400_uniform():
    """2000 uniform-entry Wigner spectra at N=400 with s^2 = N^(-1/4)."""
    return generate_archive("wigner", 400, 2000, seed=42, beta_exponent=0.5, entry_law="uniform")


@pytest.fixture(scope="session")
def gue400_small():
    """20 GUE spectra at N=400 (log-gas energy statistic)."""
    return generate_archive("gue", 400, 20, seed=123)


@pytest.fixture(scope="session")
def gue200():
    """20000 GUE spectra at N=200 (level repulsion)."""
    return generate_archive("gue", 200, 20000, seed=77)


@pytest.fixture(scope="session")
def poisson200():
    """20000 independent-point control spectra at N=200."""
    return generate_archive("poisson", 200, 20000, seed=78)

"""Shared test setup."""

import pytest

from cmphase import tuning


@pytest.fixture(autouse=True)
def _cold_omega_searches():
    """Every test starts with no kept optimal_omega result, so a test that
    counts or patches the golden section sees its own searches."""
    tuning._golden_section.cache_clear()

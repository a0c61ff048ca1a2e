"""Shared test setup."""

import pytest

from cmphase import tuning


def clear_tuning_caches():
    """Drop every kept result in cmphase.tuning: each of its lru_caches,
    the golden sections and the r-keyed closed-form work alike."""
    for value in vars(tuning).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture(autouse=True)
def _cold_tuning_caches():
    """Every test starts with no kept tuning result, so a test that counts
    or patches a kept computation sees its own calls."""
    clear_tuning_caches()

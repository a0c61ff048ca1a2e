"""Shared test setup."""

import pytest

from cmphase import tuning
from cmphase.noise import MODEL_TOKENS, noise_model

# Every registered noise family, in registry order, for tests that run
# the same checks on each; family-specific expectations stay in the tests.
ALL_MODELS = tuple(noise_model(k) for k in MODEL_TOKENS)


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

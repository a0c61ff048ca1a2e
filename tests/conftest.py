"""Shared test setup."""

import math
import os

import pytest

from cmphase import tuning
from cmphase.network import PowerMode
from cmphase.noise import MODEL_TOKENS, noise_model

# Every registered noise family, in registry order, for tests that run
# the same checks on each; family-specific expectations stay in the tests.
ALL_MODELS = tuple(noise_model(k) for k in MODEL_TOKENS)


def resolve_omega(
    model, sigma, P, channel_noise_var, target,
    power_mode=PowerMode.TOTAL, gamma=None, omega_max=2.0 * math.pi,
):
    """rule_omega's resolution of the numeric optimum for a target, called
    with the target and gamma directly and no theta: 'auto:<target>' at
    the given gamma. Returns (omega, substituted)."""
    omega, notes = tuning.rule_omega(
        f"auto:{target}", model, sigma, P, channel_noise_var, power_mode, None, omega_max,
        gamma=gamma,
    )
    return omega, notes["omega_substituted"]


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


@pytest.fixture(autouse=True)
def _no_child_left():
    """A test that forks (a Monte Carlo run on more than one usable CPU
    may) reaps every child before it ends: a child left running or
    unreaped fails it."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

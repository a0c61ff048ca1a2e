"""Every numeric entry point rejects a bad operating point by name.

Each real argument of each entry point gets NaN, +inf, -inf and values
out of its range; the call must raise ValueError (ConfigError for
NetworkConfig) whose message names that argument. All other arguments
are valid, so the error can only come from the one under test.
"""

import math
import re

import pytest

from cmphase.asymptotic import (
    asv_closed_form,
    asv_generic,
    asv_via_sandwich,
    covariance_matrix,
    jacobian,
)
from cmphase.estimators import (
    estimate_location,
    estimate_scale,
    joint_minimum_variance,
    joint_objective,
    simple_estimates,
)
from cmphase.network import ConfigError, NetworkConfig
from cmphase.noise import GAUSSIAN, LAPLACE
from cmphase.tuning import analytic_omega, omega_optima, optimal_omega, rule_omega
from conftest import resolve_omega

Z = 0.5 + 0.1j
NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
# Out-of-range values per argument; every other real argument is positive.
OUT_OF_RANGE = {
    "z": {"0": 0j},
    "channel_noise_var": {"-1e-300": -1e-300, "-1": -1.0},
    "omega_max": {"below-omega_min": 1e-5},
}
POSITIVE_OUT_OF_RANGE = {"0": 0.0, "-1": -1.0}
# (entry point, argument) pairs that take any finite value, so only NaN and
# +-inf are out of range: the objective is defined at z = 0 and every theta.
FINITE_ONLY = {("joint_objective", "z"), ("joint_objective", "theta")}

CONFIG = dict(
    L=10, theta=1.0, theta_R=2.0 * math.pi, sigma=1.0, model="gaussian",
    power_mode="total", P=1.0, channel_noise_var=1.0, omega=0.5,
)

# (label, function, valid keyword arguments, the real arguments to break)
ENTRY_POINTS = [
    ("estimate_location", estimate_location, dict(z=Z, omega=1.0), ["z", "omega"]),
    ("estimate_scale", estimate_scale, dict(z=Z, omega=1.0, P=1.0, model=LAPLACE),
     ["z", "omega", "P"]),
    ("simple_estimates", simple_estimates, dict(z=Z, omega=1.0, P=1.0, model=LAPLACE),
     ["z", "omega", "P"]),
    ("joint_minimum_variance", joint_minimum_variance,
     dict(z=Z, omega=1.0, P=1.0, channel_noise_var=1.0, model=GAUSSIAN,
          theta_R=2.0 * math.pi),
     ["z", "omega", "P", "channel_noise_var", "theta_R"]),
    ("joint_objective", joint_objective,
     dict(z=Z, theta=1.0, sigma=1.0, omega=1.0, P=1.0, channel_noise_var=1.0, model=GAUSSIAN),
     ["z", "theta", "sigma", "omega", "P", "channel_noise_var"]),
    ("asv_generic", asv_generic,
     dict(model=GAUSSIAN, sigma=1.0, omega=1.0, P=1.0, channel_noise_var=1.0, theta=1.0),
     ["sigma", "omega", "P", "channel_noise_var", "theta"]),
    ("jacobian", jacobian, dict(model=GAUSSIAN, theta=1.0, sigma=1.0, omega=1.0, P=1.0),
     ["theta", "sigma", "omega", "P"]),
    ("covariance_matrix", covariance_matrix,
     dict(model=GAUSSIAN, theta=1.0, sigma=1.0, omega=1.0, P=1.0, channel_noise_var=1.0),
     ["theta", "sigma", "omega", "P", "channel_noise_var"]),
    ("asv_via_sandwich", asv_via_sandwich,
     dict(model=GAUSSIAN, theta=1.0, sigma=1.0, omega=1.0, P=1.0, channel_noise_var=1.0),
     ["theta", "sigma", "omega", "P", "channel_noise_var"]),
    ("asv_closed_form", asv_closed_form,
     dict(model=GAUSSIAN, sigma=1.0, omega=1.0, P=1.0, channel_noise_var=1.0, which="gamma",
          gamma=1.0),
     ["sigma", "omega", "P", "channel_noise_var", "gamma"]),
    ("optimal_omega", optimal_omega,
     dict(model=GAUSSIAN, sigma=1.0, P=1.0, channel_noise_var=1.0, target="gamma", gamma=1.0),
     ["sigma", "P", "channel_noise_var", "gamma", "omega_min", "omega_max"]),
    ("omega_optima", omega_optima,
     dict(model=GAUSSIAN, sigma=1.0, P=1.0, channel_noise_var=1.0, gamma=1.0),
     ["sigma", "P", "channel_noise_var", "gamma"]),
    # rule_omega at an explicit gamma with no theta (conftest.resolve_omega).
    ("resolve_omega", resolve_omega,
     dict(model=GAUSSIAN, sigma=1.0, P=1.0, channel_noise_var=1.0, target="gamma", gamma=1.0),
     ["sigma", "P", "channel_noise_var", "gamma", "omega_max"]),
    ("analytic_omega", analytic_omega,
     dict(model=GAUSSIAN, sigma=1.0, P=1.0, channel_noise_var=1.0, target="gamma", gamma=1.0),
     ["sigma", "P", "channel_noise_var", "gamma", "omega_max"]),
    # gamma is omitted, so the gamma target tunes at the SNR (theta / sigma)^2;
    # a gamma given by the test replaces it. theta = -1 was tuned at the SNR
    # of theta = +1, and a non-finite or zero theta was reported as gamma.
    ("rule_omega", rule_omega,
     dict(rule="auto:gamma", model=GAUSSIAN, sigma=1.0, P=1.0, channel_noise_var=1.0,
          power_mode="total", theta=1.0, omega_max=2.0 * math.pi),
     ["sigma", "P", "channel_noise_var", "omega_max", "gamma", "theta"]),
    # The checked noise methods, each a float in, a float out.
    *((name, getattr(LAPLACE, name), dict(sigma=1.0, omega=1.0), ["sigma", "omega"])
      for name in ("char_fn", "phasor_cos_var", "phasor_sin_var", "char_fn_dsigma")),
    ("fisher_location", GAUSSIAN.fisher_location, dict(sigma=1.0), ["sigma"]),
    ("fisher_scale", GAUSSIAN.fisher_scale, dict(sigma=1.0), ["sigma"]),
    ("NetworkConfig", NetworkConfig, CONFIG,
     ["theta", "theta_R", "sigma", "P", "channel_noise_var", "omega"]),
]


# Valid arguments whose derived quantity leaves the float range: (label,
# function, keyword arguments, the name the ValueError must carry).
OVERFLOWS = [
    # (theta / sigma)^2 raised a bare OverflowError.
    ("rule_omega-true-snr", rule_omega,
     dict(rule="auto:gamma", model=GAUSSIAN, sigma=1e-100, P=1.0, channel_noise_var=1.0,
          power_mode="total", theta=1e200, omega_max=2.0 * math.pi),
     "gamma"),
    # theta / sigma is already inf, which squares without an OverflowError:
    # the error named gamma as if it were a given argument.
    ("rule_omega-true-snr-quotient", rule_omega,
     dict(rule="auto:gamma", model=GAUSSIAN, sigma=1e-300, P=1.0, channel_noise_var=1.0,
          power_mode="total", theta=1e300, omega_max=2.0 * math.pi),
     "theta"),
    # (theta / sigma)^2 underflows to 0: the error named gamma, an
    # argument the caller never passed.
    ("rule_omega-true-snr-underflow", rule_omega,
     dict(rule="auto:gamma", model=GAUSSIAN, sigma=1.0, P=1.0, channel_noise_var=1.0,
          power_mode="total", theta=1e-300, omega_max=2.0 * math.pi),
     "theta"),
    # sigma * sigma underflowed to 0 and the quotient raised ZeroDivisionError.
    ("fisher_location-tiny-sigma", GAUSSIAN.fisher_location, dict(sigma=1e-200), "sigma"),
    ("fisher_scale-tiny-sigma", LAPLACE.fisher_scale, dict(sigma=1e-200), "sigma"),
    # sigma * sigma is subnormal: the quotient overflows to inf.
    ("fisher_location-subnormal-square", GAUSSIAN.fisher_location, dict(sigma=1e-160), "sigma"),
]


def _cases():
    for label, fn, kwargs, names in ENTRY_POINTS:
        for name in names:
            out_of_range = OUT_OF_RANGE.get(name, POSITIVE_OUT_OF_RANGE)
            bad = dict(NON_FINITE, **({} if (label, name) in FINITE_ONLY else out_of_range))
            for tag, value in bad.items():
                if name == "z" and tag in NON_FINITE:
                    value = complex(value, 0.1)
                yield pytest.param(fn, kwargs, name, value, id=f"{label}-{name}-{tag}")


@pytest.mark.parametrize("fn, kwargs, name, value", _cases())
def test_bad_argument_is_named(fn, kwargs, name, value):
    error = ConfigError if fn is NetworkConfig else ValueError
    with pytest.raises(error) as info:
        fn(**dict(kwargs, **{name: value}))
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)


@pytest.mark.parametrize(
    "fn, kwargs, name", [pytest.param(*row[1:], id=row[0]) for row in OVERFLOWS]
)
def test_overflow_is_named(fn, kwargs, name):
    with pytest.raises(ValueError) as info:
        fn(**kwargs)
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)


def test_valid_calls_pass():
    """The table's base arguments are valid, so each rejection above is
    caused by the one argument it changes."""
    for _, fn, kwargs, _ in ENTRY_POINTS:
        fn(**kwargs)


def test_joint_names_p_before_the_derived_search_box():
    """P = inf was reported as a bad sigma: the check ran on the sigma
    search box derived from the infinite P."""
    with pytest.raises(ValueError, match=r"^P must be positive and finite, got inf$"):
        joint_minimum_variance(Z, 1.0, math.inf, 1.0, GAUSSIAN, 2.0 * math.pi)

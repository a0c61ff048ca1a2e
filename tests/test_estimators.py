"""Tests for the closed-form inversions and the joint search.

The joint minimizer is checked against the closed-form route on clean
reachable points, where both must recover the generating parameters
exactly: the two implementations are independent, so agreement is a
strong end-to-end check of each.
"""

import cmath
import math

import numpy as np
import pytest

from cmphase.estimators import (
    DegenerateScaleError,
    ZeroMagnitudeError,
    estimate_location,
    estimate_scale,
    estimate_snr,
    joint_minimum_variance,
    joint_objective,
    simple_estimates,
)
from cmphase.noise import CAUCHY, GAUSSIAN, LAPLACE

ALL_MODELS = [GAUSSIAN, LAPLACE, CAUCHY]
TWO_PI = 2.0 * math.pi


def mean_signal(theta, sigma, omega, P, model):
    """Noise-free normalized receive point sqrt(P) e^{j omega theta} phi."""
    return math.sqrt(P) * cmath.exp(1j * omega * theta) * model.char_fn(sigma, omega)


class TestEstimateLocation:
    def test_exact_inversion(self):
        for omega in (0.3, 1.0, 2.0):
            for theta in (0.1, 1.0, TWO_PI / omega):
                z = cmath.exp(1j * omega * theta)
                np.testing.assert_allclose(
                    estimate_location(z, omega), theta, rtol=1e-12
                )

    def test_range_is_half_open_above(self):
        """arg(z) = 0 maps to the top of the period, not to zero."""
        assert estimate_location(1.0 + 0.0j, 0.5) == TWO_PI / 0.5

    def test_negative_angles_wrap(self):
        z = cmath.exp(-0.5j)
        np.testing.assert_allclose(estimate_location(z, 1.0), TWO_PI - 0.5, rtol=1e-12)

    def test_magnitude_invariance(self):
        z = 3.7 * cmath.exp(0.9j)
        np.testing.assert_allclose(estimate_location(z, 1.0), 0.9, rtol=1e-12)

    def test_zero_z(self):
        with pytest.raises(ZeroMagnitudeError):
            estimate_location(0.0j, 1.0)

    def test_bad_omega(self):
        with pytest.raises(ValueError):
            estimate_location(1.0 + 0.0j, 0.0)
        with pytest.raises(ValueError):
            estimate_location(1j, math.nan)


class TestEstimateScale:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("sigma", [0.2, 1.0, 3.0])
    def test_round_trip(self, model, sigma):
        omega, P = 0.8, 2.0
        z = mean_signal(1.0, sigma, omega, P, model)
        sigma_hat, saturated = estimate_scale(z, omega, P, model)
        assert not saturated
        np.testing.assert_allclose(sigma_hat, sigma, rtol=1e-12)

    def test_saturation(self):
        sigma_hat, saturated = estimate_scale(1.5 + 0.0j, 1.0, 1.0, GAUSSIAN)
        assert (sigma_hat, saturated) == (0.0, True)

    def test_boundary_magnitude_not_saturated(self):
        sigma_hat, saturated = estimate_scale(1.0 + 0.0j, 1.0, 1.0, GAUSSIAN)
        assert (sigma_hat, saturated) == (0.0, False)

    def test_zero_z(self):
        with pytest.raises(ZeroMagnitudeError):
            estimate_scale(0.0j, 1.0, 1.0, GAUSSIAN)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            estimate_scale(0.5 + 0.0j, -1.0, 1.0, GAUSSIAN)
        with pytest.raises(ValueError):
            estimate_scale(0.5 + 0.0j, 1.0, 0.0, GAUSSIAN)
        with pytest.raises(ValueError):
            estimate_scale(0.5 + 0.0j, 1.0, math.nan, GAUSSIAN)


class TestEstimateSnr:
    def test_ratio(self):
        np.testing.assert_allclose(estimate_snr(3.0, 1.5), 4.0, rtol=1e-15)

    def test_degenerate_scale(self):
        with pytest.raises(DegenerateScaleError):
            estimate_snr(1.0, 0.0)


class TestSimpleEstimates:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_recovers_generating_point(self, model):
        theta, sigma, omega, P = 2.4, 1.3, 0.6, 1.0
        z = mean_signal(theta, sigma, omega, P, model)
        est = simple_estimates(z, omega, P, model)
        np.testing.assert_allclose(est.theta_hat, theta, rtol=1e-12)
        np.testing.assert_allclose(est.sigma_hat, sigma, rtol=1e-12)
        np.testing.assert_allclose(est.gamma_hat, (theta / sigma) ** 2, rtol=1e-11)
        assert not est.saturated

    def test_saturated_sample(self):
        est = simple_estimates(2.0 + 0.0j, 1.0, 1.0, GAUSSIAN)
        assert est.saturated
        assert est.sigma_hat == 0.0
        assert est.gamma_hat is None

    def test_json_shape(self):
        est = simple_estimates(0.3 + 0.2j, 1.0, 1.0, GAUSSIAN)
        assert set(est.to_json_dict()) == {
            "theta_hat",
            "sigma_hat",
            "gamma_hat",
            "saturated",
        }


class TestJointObjective:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("nv", [0.0, 0.7])
    def test_zero_at_truth_positive_elsewhere(self, model, nv):
        theta, sigma, omega, P = 1.2, 0.9, 0.7, 1.5
        z = mean_signal(theta, sigma, omega, P, model)
        at_truth = joint_objective(z, theta, sigma, omega, P, nv, model)
        np.testing.assert_allclose(at_truth, 0.0, atol=1e-22)
        rng = np.random.default_rng(42)
        for _ in range(50):
            t = float(rng.uniform(0.05, 6.0))
            s = float(rng.uniform(0.1, 4.0))
            if abs(t - theta) < 1e-3 and abs(s - sigma) < 1e-3:
                continue
            assert joint_objective(z, t, s, omega, P, nv, model) > 0.0

    def test_singular_covariance(self):
        """Zero channel noise and an underflowed phasor variance leave no
        invertible covariance."""
        z = 0.5 + 0.1j
        with pytest.raises(ValueError, match="singular"):
            joint_objective(z, 1.0, 1e-170, 1.0, 1.0, 0.0, GAUSSIAN)

    def test_validation(self):
        with pytest.raises(ValueError):
            joint_objective(0.5j, 1.0, -1.0, 1.0, 1.0, 1.0, GAUSSIAN)
        with pytest.raises(ValueError):
            joint_objective(0.5j, 1.0, 1.0, 0.0, 1.0, 1.0, GAUSSIAN)
        with pytest.raises(ValueError):
            joint_objective(0.5j, 1.0, 1.0, 1.0, math.nan, 1.0, GAUSSIAN)


class TestJointMinimumVariance:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("nv", [0.0, 1.0])
    def test_matches_closed_forms_on_reachable_points(self, model, nv):
        """On exact mean-signal points the joint search must land on the
        same (theta, sigma) as the closed-form inversions."""
        omega, P, theta_R = 0.7, 1.0, TWO_PI
        rng = np.random.default_rng(42)
        for _ in range(15):
            theta = float(rng.uniform(0.1, 6.2))
            sigma = float(rng.uniform(0.3, 2.5))
            z = mean_signal(theta, sigma, omega, P, model)
            est = joint_minimum_variance(z, omega, P, nv, model, theta_R)
            assert not est.saturated
            np.testing.assert_allclose(est.theta_hat, theta, rtol=1e-5, atol=1e-7)
            np.testing.assert_allclose(est.sigma_hat, sigma, rtol=1e-5)
            np.testing.assert_allclose(
                est.gamma_hat, (est.theta_hat / est.sigma_hat) ** 2, rtol=1e-12
            )

    def test_saturated_path(self):
        est = joint_minimum_variance(1.3 + 0.0j, 1.0, 1.0, 1.0, GAUSSIAN, TWO_PI)
        assert est.saturated
        assert est.sigma_hat == 0.0 and est.gamma_hat is None
        assert est.theta_hat <= TWO_PI

    def test_grid_floor(self):
        with pytest.raises(ValueError, match="grid"):
            joint_minimum_variance(
                0.5 + 0.1j, 1.0, 1.0, 1.0, GAUSSIAN, TWO_PI, grid=(100, 200)
            )

    def test_zero_z(self):
        with pytest.raises(ZeroMagnitudeError):
            joint_minimum_variance(0.0j, 1.0, 1.0, 1.0, GAUSSIAN, TWO_PI)

    def test_theta_r_validation(self):
        with pytest.raises(ValueError):
            joint_minimum_variance(0.5 + 0.1j, 1.0, 1.0, 1.0, GAUSSIAN, 0.0)

"""Tests for the large-L variance formulas.

The characteristic-function route (asv_generic) is checked against the
independent matrix route (asv_via_sandwich) over a dense grid, and the
bundled distribution-specific closed forms are pinned to their known
agree/disagree status against the generic definition.
"""

import cmath
import math

import numpy as np
import pytest

from cmphase.asymptotic import (
    AsvReport,
    asv_closed_form,
    asv_generic,
    asv_via_sandwich,
    compose_gamma,
    covariance_matrix,
    jacobian,
)
from cmphase.network import PowerMode
from cmphase.noise import CAUCHY, GAUSSIAN, LAPLACE, noise_model

ALL_MODELS = [GAUSSIAN, LAPLACE, CAUCHY]

GRID_SIGMAS = (0.5, 1.0, 2.0)
GRID_OMEGAS = np.linspace(0.1, 2.0, 20)
GRID_RATIOS = (0.0, 0.5, 1.0)  # channel_noise_var / P at P = 1


def mean_signal(model, theta, sigma, omega, P):
    return math.sqrt(P) * cmath.exp(1j * omega * theta) * model.char_fn(sigma, omega)


class TestCovarianceMatrix:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_trace_identity(self, model):
        """trace Sigma = P (1 - phi^2) + nv, independent of theta."""
        sigma, omega, P, nv = 1.2, 0.9, 2.0, 0.6
        phi = model.char_fn(sigma, omega)
        expected = P * (1.0 - phi * phi) + nv
        for theta in (0.3, 2.1, 5.0):
            S = covariance_matrix(model, theta, sigma, omega, P, nv)
            np.testing.assert_allclose(np.trace(S), expected, rtol=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_positive_definite_and_symmetric(self, model):
        S = covariance_matrix(model, 1.0, 0.8, 1.1, 1.5, 0.3)
        assert S[0, 1] == S[1, 0]
        eigs = np.linalg.eigvalsh(S)
        assert np.all(eigs > 0.0)

    def test_rotation_structure(self):
        """At omega * theta = 0 (mod 2 pi) the matrix is diagonal with the
        cos/sin component variances on the diagonal."""
        model, sigma, omega, P = GAUSSIAN, 1.0, 1.0, 1.0
        theta = 2.0 * math.pi  # omega * theta = 2 pi
        S = covariance_matrix(model, theta, sigma, omega, P, 0.0)
        np.testing.assert_allclose(S[0, 0], model.phasor_cos_var(sigma, omega), rtol=1e-10)
        np.testing.assert_allclose(S[1, 1], model.phasor_sin_var(sigma, omega), rtol=1e-10)
        np.testing.assert_allclose(S[0, 1], 0.0, atol=1e-15)


class TestJacobian:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("theta,sigma,omega", [(0.7, 0.6, 0.4), (2.5, 1.4, 1.2)])
    def test_matches_finite_differences(self, model, theta, sigma, omega):
        P = 1.7
        J = jacobian(model, theta, sigma, omega, P)
        h = 1e-7

        def z(t, s):
            return mean_signal(model, t, s, omega, P)

        d_theta = (z(theta + h, sigma) - z(theta - h, sigma)) / (2 * h)
        d_sigma = (z(theta, sigma + h) - z(theta, sigma - h)) / (2 * h)
        expected = np.array(
            [[d_theta.real, d_sigma.real], [d_theta.imag, d_sigma.imag]]
        )
        np.testing.assert_allclose(J, expected, rtol=1e-6, atol=1e-9)


class TestGenericVsSandwich:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_full_grid_agreement(self, model):
        """The scalar formulas and the matrix route are independent
        implementations of the same delta method; their diagonals must
        coincide and the cross-covariance must vanish."""
        theta = 1.1
        for sigma in GRID_SIGMAS:
            for omega in GRID_OMEGAS:
                for nv in GRID_RATIOS:
                    rep = asv_generic(model, sigma, float(omega), 1.0, nv)
                    C = asv_via_sandwich(model, theta, sigma, float(omega), 1.0, nv)
                    np.testing.assert_allclose(C[0, 0], rep.asv_theta, rtol=1e-9)
                    np.testing.assert_allclose(C[1, 1], rep.asv_sigma, rtol=1e-9)
                    scale = math.sqrt(C[0, 0] * C[1, 1])
                    assert abs(C[0, 1]) <= 1e-9 * scale

    def test_sandwich_theta_invariance(self):
        a = asv_via_sandwich(LAPLACE, 0.4, 1.0, 0.8, 1.0, 0.5)
        b = asv_via_sandwich(LAPLACE, 4.0, 1.0, 0.8, 1.0, 0.5)
        np.testing.assert_allclose(np.diag(a), np.diag(b), rtol=1e-9)

    def test_singular_point(self):
        with pytest.raises(ValueError, match="singular"):
            asv_via_sandwich(GAUSSIAN, 1.0, 1e-170, 1.0, 1.0, 0.0)


class TestAsvGeneric:
    def test_per_sensor_ignores_channel_noise(self):
        """Per-sensor normalization (z = y / L) kills the channel term."""
        noisy = asv_generic(
            GAUSSIAN, 1.0, 0.9, 1.0, 5.0, power_mode=PowerMode.PER_SENSOR
        )
        clean = asv_generic(GAUSSIAN, 1.0, 0.9, 1.0, 0.0)
        np.testing.assert_allclose(noisy.asv_theta, clean.asv_theta, rtol=1e-14)
        np.testing.assert_allclose(noisy.asv_sigma, clean.asv_sigma, rtol=1e-14)

    def test_total_noise_inflates(self):
        noisy = asv_generic(GAUSSIAN, 1.0, 0.9, 1.0, 1.0)
        clean = asv_generic(GAUSSIAN, 1.0, 0.9, 1.0, 0.0)
        assert noisy.asv_theta > clean.asv_theta
        assert noisy.asv_sigma > clean.asv_sigma

    def test_gamma_requires_theta(self):
        rep = asv_generic(GAUSSIAN, 1.0, 0.9, 1.0, 0.0)
        assert rep.asv_gamma is None
        rep = asv_generic(GAUSSIAN, 1.0, 0.9, 1.0, 0.0, theta=1.5)
        expected = compose_gamma(rep.asv_theta, rep.asv_sigma, 1.5, 1.0)
        np.testing.assert_allclose(rep.asv_gamma, expected, rtol=1e-14)

    def test_nonpositive_theta_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            asv_generic(GAUSSIAN, 1.0, 0.9, 1.0, 0.0, theta=0.0)

    def test_compose_gamma_formula(self):
        # gamma = 4, sigma = 0.5: prefactor 4 * 4 / 0.25 = 64
        np.testing.assert_allclose(
            compose_gamma(0.25, 0.125, 1.0, 0.5), 64.0 * (0.25 + 4.0 * 0.125), rtol=1e-15
        )

    def test_deep_tail_returns_inf(self):
        """phi underflow far in the tail reports inf, not an exception."""
        rep = asv_generic(GAUSSIAN, 8.0, 6.0, 1.0, 0.0)
        assert math.isinf(rep.asv_theta) and math.isinf(rep.asv_sigma)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma": 0.0},
            {"omega": 0.0},
            {"P": 0.0},
            {"P": math.nan},
            {"channel_noise_var": -1.0},
            {"channel_noise_var": math.nan},
        ],
        ids=str,
    )
    def test_operating_point_validation(self, kwargs):
        base = dict(sigma=1.0, omega=0.9, P=1.0, channel_noise_var=0.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            asv_generic(GAUSSIAN, **base)

    def test_json_shape(self):
        rep = asv_generic(GAUSSIAN, 1.0, 0.9, 1.0, 0.0, theta=1.0)
        data = rep.to_json_dict()
        assert set(data) == {"omega", "asv_theta", "asv_sigma", "asv_gamma", "mode"}
        assert data["mode"] == "total"


# Agreement status of each bundled closed form with the generic
# definition, frozen. False entries are kept as printed anchors; their
# disagreement is itself pinned below.
CLOSED_FORM_AGREES = {
    ("gaussian", "theta", PowerMode.TOTAL): True,
    ("gaussian", "sigma", PowerMode.TOTAL): True,
    ("gaussian", "gamma", PowerMode.TOTAL): False,
    ("laplace", "theta", PowerMode.TOTAL): True,
    ("laplace", "sigma", PowerMode.TOTAL): False,
    ("laplace", "gamma", PowerMode.TOTAL): False,
    ("cauchy", "theta", PowerMode.TOTAL): True,
    ("cauchy", "sigma", PowerMode.TOTAL): True,
    ("cauchy", "gamma", PowerMode.TOTAL): True,
    ("gaussian", "theta", PowerMode.PER_SENSOR): True,
    ("gaussian", "sigma", PowerMode.PER_SENSOR): True,
    ("gaussian", "gamma", PowerMode.PER_SENSOR): False,
    ("laplace", "theta", PowerMode.PER_SENSOR): True,
    ("laplace", "sigma", PowerMode.PER_SENSOR): True,
    ("laplace", "gamma", PowerMode.PER_SENSOR): False,
    ("cauchy", "theta", PowerMode.PER_SENSOR): True,
    ("cauchy", "sigma", PowerMode.PER_SENSOR): True,
    ("cauchy", "gamma", PowerMode.PER_SENSOR): True,
}


class TestClosedForms:
    @pytest.mark.parametrize(
        "kind,which,mode",
        list(CLOSED_FORM_AGREES),
        ids=lambda v: v.value if isinstance(v, PowerMode) else str(v),
    )
    def test_verified_flags_frozen(self, kind, which, mode):
        _, verified = asv_closed_form(
            noise_model(kind), 1.0, 0.8, 1.0, 0.5, which, mode, gamma=1.0
        )
        assert verified is CLOSED_FORM_AGREES[(kind, which, mode)]

    @pytest.mark.parametrize(
        "kind,which,mode",
        [key for key, ok in CLOSED_FORM_AGREES.items() if ok],
        ids=lambda v: v.value if isinstance(v, PowerMode) else str(v),
    )
    def test_verified_forms_match_generic(self, kind, which, mode):
        """Forms flagged verified must reproduce asv_generic on a grid
        disjoint from the flag's own internal one."""
        model = noise_model(kind)
        gamma = 1.3
        for sigma in (0.7, 1.6):
            for omega in np.linspace(0.15, 1.9, 7):
                nv = 0.25
                value, _ = asv_closed_form(
                    model, sigma, float(omega), 1.0, nv, which, mode, gamma=gamma
                )
                rep = asv_generic(
                    model,
                    sigma,
                    float(omega),
                    1.0,
                    nv,
                    theta=math.sqrt(gamma) * sigma,
                    power_mode=mode,
                )
                expected = {
                    "theta": rep.asv_theta,
                    "sigma": rep.asv_sigma,
                    "gamma": rep.asv_gamma,
                }[which]
                np.testing.assert_allclose(value, expected, rtol=1e-9)

    @pytest.mark.parametrize(
        "kind,which,mode",
        [key for key, ok in CLOSED_FORM_AGREES.items() if not ok],
        ids=lambda v: v.value if isinstance(v, PowerMode) else str(v),
    )
    def test_unverified_forms_differ_materially(self, kind, which, mode):
        """The False flags are not tolerance noise: each unverified form
        departs from the generic value by more than 0.1% somewhere."""
        model = noise_model(kind)
        gamma = 1.0
        worst = 0.0
        for sigma in (0.5, 1.0, 2.0):
            for omega in (0.3, 0.8, 1.5):
                value, _ = asv_closed_form(
                    model, sigma, omega, 1.0, 0.5, which, mode, gamma=gamma
                )
                rep = asv_generic(
                    model, sigma, omega, 1.0, 0.5, theta=math.sqrt(gamma) * sigma,
                    power_mode=mode,
                )
                expected = {
                    "theta": rep.asv_theta,
                    "sigma": rep.asv_sigma,
                    "gamma": rep.asv_gamma,
                }[which]
                worst = max(worst, abs(value - expected) / expected)
        assert worst > 1e-3

    def test_gamma_requires_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            asv_closed_form(GAUSSIAN, 1.0, 0.8, 1.0, 0.5, "gamma")

    def test_which_validation(self):
        with pytest.raises(ValueError, match="which"):
            asv_closed_form(GAUSSIAN, 1.0, 0.8, 1.0, 0.5, "snr")

"""Tests for the noise-family abstraction.

Characteristic functions, their sigma-derivatives, and the Fisher
constants are checked against quadrature oracles built from the raw
densities, not against re-derived formulas.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from cmphase.noise import CAUCHY, GAUSSIAN, LAPLACE, MODEL_TOKENS, NoiseModel, noise_model
from cmphase.numkit import RandomStream

LAPLACE_B = 1.0 / math.sqrt(2.0)  # unit-variance Laplace scale


def _pdf(kind, sigma):
    """Density of sigma * eta for a standardized draw eta."""
    if kind == "gaussian":
        return lambda x: math.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    if kind == "laplace":
        b = sigma * LAPLACE_B
        return lambda x: math.exp(-abs(x) / b) / (2.0 * b)
    return lambda x: sigma / (math.pi * (x * x + sigma * sigma))


def _char_fn_quad(kind, sigma, omega):
    """E[cos(omega x)] by quadrature; QAWF on the heavy-tailed case."""
    pdf = _pdf(kind, sigma)
    if kind == "cauchy":
        val, _ = integrate.quad(pdf, 0.0, np.inf, weight="cos", wvar=omega, limit=200)
        return 2.0 * val
    val, _ = integrate.quad(lambda x: math.cos(omega * x) * pdf(x), -np.inf, np.inf, limit=200)
    return val


ALL_MODELS = [GAUSSIAN, LAPLACE, CAUCHY]


class TestCharFn:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.3])
    @pytest.mark.parametrize("omega", [0.1, 0.8, 2.0])
    def test_matches_quadrature(self, model, sigma, omega):
        expected = _char_fn_quad(model.kind, sigma, omega)
        np.testing.assert_allclose(model.char_fn(sigma, omega), expected, rtol=1e-8)

    def test_half_points(self):
        """Closed-form half-value points of each family."""
        np.testing.assert_allclose(
            GAUSSIAN.char_fn(1.0, math.sqrt(2.0 * math.log(2.0))), 0.5, rtol=1e-14
        )
        np.testing.assert_allclose(LAPLACE.char_fn(math.sqrt(2.0), 1.0), 0.5, rtol=1e-14)
        np.testing.assert_allclose(CAUCHY.char_fn(1.0, math.log(2.0)), 0.5, rtol=1e-14)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_range_and_monotone_in_omega(self, model):
        omegas = np.linspace(0.01, 8.0, 300)
        vals = model.char_fn(1.3, omegas)
        assert np.all(vals > 0.0) and np.all(vals < 1.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_array_broadcast_matches_scalar(self):
        sigmas = np.array([0.5, 1.0, 2.0])
        for model in ALL_MODELS:
            for kernel in (
                model.char_fn,
                model.char_fn_dsigma,
                model.phasor_cos_var,
                model.phasor_sin_var,
            ):
                arr = kernel(sigmas, 0.7)
                scalars = [kernel(float(s), 0.7) for s in sigmas]
                np.testing.assert_allclose(arr, scalars, rtol=1e-15)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            GAUSSIAN.char_fn(-1.0, 1.0)
        with pytest.raises(ValueError):
            GAUSSIAN.char_fn(1.0, 0.0)
        with pytest.raises(ValueError):
            GAUSSIAN.char_fn(math.nan, 1.0)
        with pytest.raises(ValueError):
            GAUSSIAN.fisher_location(math.nan)


class TestCharFnDsigma:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.3])
    @pytest.mark.parametrize("omega", [0.1, 0.8, 2.0])
    def test_matches_central_difference(self, model, sigma, omega):
        h = 1e-6 * sigma
        fd = (model.char_fn(sigma + h, omega) - model.char_fn(sigma - h, omega)) / (2 * h)
        np.testing.assert_allclose(model.char_fn_dsigma(sigma, omega), fd, rtol=1e-7)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_strictly_negative(self, model):
        omegas = np.linspace(0.01, 8.0, 100)
        assert np.all(model.char_fn_dsigma(0.9, omegas) < 0.0)


class TestPhasorVariances:
    """Var cos(omega(x - theta)) and Var sin(omega(x - theta)) of a single
    standardized observation, used by every asymptotic-variance formula."""

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("omega", [0.3, 0.9, 1.7])
    def test_matches_plain_combination(self, model, sigma, omega):
        """At moderate arguments the stable kernels must agree with the
        textbook combination of characteristic-function values."""
        phi = model.char_fn(sigma, omega)
        phi2 = model.char_fn(sigma, 2.0 * omega)
        np.testing.assert_allclose(
            model.phasor_cos_var(sigma, omega), 0.5 + 0.5 * phi2 - phi * phi, rtol=1e-12
        )
        np.testing.assert_allclose(
            model.phasor_sin_var(sigma, omega), 0.5 * (1.0 - phi2), rtol=1e-12
        )

    def test_small_argument_leading_order(self):
        """The plain combination loses every significant digit at t = 1e-5;
        the kernels must instead land on the series leading terms."""
        t = 1e-5
        np.testing.assert_allclose(GAUSSIAN.phasor_cos_var(1.0, t), 0.5 * t**4, rtol=1e-6)
        np.testing.assert_allclose(GAUSSIAN.phasor_sin_var(1.0, t), t * t, rtol=1e-6)
        np.testing.assert_allclose(LAPLACE.phasor_cos_var(1.0, t), 1.25 * t**4, rtol=1e-6)
        np.testing.assert_allclose(LAPLACE.phasor_sin_var(1.0, t), t * t, rtol=1e-6)
        np.testing.assert_allclose(CAUCHY.phasor_cos_var(1.0, t), t, rtol=1e-5)
        np.testing.assert_allclose(CAUCHY.phasor_sin_var(1.0, t), t, rtol=1e-5)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_variance_sum_identity(self, model):
        """v_cos + v_sin = 1 - phi^2 (total phasor variance)."""
        omegas = np.linspace(0.05, 6.0, 120)
        total = model.phasor_cos_var(1.1, omegas) + model.phasor_sin_var(1.1, omegas)
        phi = model.char_fn(1.1, omegas)
        np.testing.assert_allclose(total, 1.0 - phi * phi, rtol=1e-10)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_bounds(self, model):
        omegas = np.linspace(0.01, 10.0, 200)
        vc = model.phasor_cos_var(0.8, omegas)
        vs = model.phasor_sin_var(0.8, omegas)
        assert np.all(vc >= 0.0) and np.all(vc <= 1.0)
        assert np.all(vs >= 0.0) and np.all(vs <= 0.5)

    def test_cauchy_isotropic(self):
        """Both phasor components of the Cauchy family share one variance."""
        omegas = np.linspace(0.05, 5.0, 50)
        np.testing.assert_allclose(
            CAUCHY.phasor_cos_var(1.0, omegas),
            CAUCHY.phasor_sin_var(1.0, omegas),
            rtol=1e-14,
        )


class TestFisherConstants:
    @staticmethod
    def _fisher_quad(kind, sigma, which):
        """Fisher information by quadrature, differentiating the log
        density numerically in the parameter."""
        h = 1e-5

        def log_pdf(x, s, loc):
            # written out per family so tail underflow cannot poison log()
            z = x - loc
            if kind == "gaussian":
                return -0.5 * (z / s) ** 2 - math.log(s * math.sqrt(2 * math.pi))
            if kind == "laplace":
                b = s * LAPLACE_B
                return -abs(z) / b - math.log(2.0 * b)
            return math.log(s / math.pi) - math.log(z * z + s * s)

        if which == "location":
            def score(x):
                return (log_pdf(x, sigma, h) - log_pdf(x, sigma, -h)) / (2 * h)
        else:
            def score(x):
                return (log_pdf(x, sigma + h, 0.0) - log_pdf(x, sigma - h, 0.0)) / (2 * h)

        pdf = _pdf(kind, sigma)
        val, _ = integrate.quad(
            lambda x: score(x) ** 2 * pdf(x), -np.inf, np.inf, limit=400
        )
        return val

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("sigma", [0.7, 1.3])
    def test_location_information(self, model, sigma):
        expected = self._fisher_quad(model.kind, sigma, "location")
        np.testing.assert_allclose(model.fisher_location(sigma), expected, rtol=1e-4)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("sigma", [0.7, 1.3])
    def test_scale_information(self, model, sigma):
        expected = self._fisher_quad(model.kind, sigma, "scale")
        np.testing.assert_allclose(model.fisher_scale(sigma), expected, rtol=1e-4)

    def test_sigma_scaling(self):
        """Both informations scale as 1/sigma^2."""
        for model in ALL_MODELS:
            np.testing.assert_allclose(
                model.fisher_location(2.0), model.fisher_location(1.0) / 4.0, rtol=1e-14
            )
            np.testing.assert_allclose(
                model.fisher_scale(2.0), model.fisher_scale(1.0) / 4.0, rtol=1e-14
            )


class TestSampling:
    def test_reproducible(self):
        for model in ALL_MODELS:
            a = model.sample(RandomStream(11), 32)
            b = model.sample(RandomStream(11), 32)
            np.testing.assert_array_equal(a, b)

    def test_gaussian_moments(self):
        x = GAUSSIAN.sample(RandomStream(42), 200_000)
        np.testing.assert_allclose(x.mean(), 0.0, atol=1e-2)
        np.testing.assert_allclose(x.var(), 1.0, rtol=1e-2)

    def test_laplace_moments(self):
        x = LAPLACE.sample(RandomStream(42), 200_000)
        np.testing.assert_allclose(x.mean(), 0.0, atol=1e-2)
        np.testing.assert_allclose(x.var(), 1.0, rtol=2e-2)
        # unit-variance Laplace has E[x^4] = 6
        np.testing.assert_allclose((x**4).mean(), 6.0, rtol=0.15)

    def test_cauchy_quantiles(self):
        """No moments exist; check median 0 and quartiles at +-1."""
        x = CAUCHY.sample(RandomStream(42), 200_000)
        np.testing.assert_allclose(np.median(x), 0.0, atol=2e-2)
        np.testing.assert_allclose(np.mean(np.abs(x) > 1.0), 0.5, atol=5e-3)

    def test_laplace_consumes_two_uniforms_each(self):
        s1 = RandomStream(3)
        LAPLACE.sample(s1, 5)  # 10 uniforms
        tail1 = s1.uniform(4)
        s2 = RandomStream(3)
        s2.uniform(10)
        tail2 = s2.uniform(4)
        np.testing.assert_array_equal(tail1, tail2)

    def test_scalar_draw(self):
        for model in ALL_MODELS:
            assert isinstance(model.sample(RandomStream(1)), float)


class TestFactory:
    def test_tokens(self):
        assert MODEL_TOKENS == ("gaussian", "laplace", "cauchy")
        for token in MODEL_TOKENS:
            assert noise_model(token).kind == token
        assert noise_model("gaussian") is GAUSSIAN
        assert noise_model("laplace") is LAPLACE
        assert noise_model("cauchy") is CAUCHY

    def test_case_and_whitespace(self):
        assert noise_model(" Gaussian ").kind == "gaussian"

    def test_unknown_token(self):
        with pytest.raises(ValueError, match="unknown noise model"):
            noise_model("students-t")

    def test_unknown_kind_rejected_at_construction(self):
        """A direct construction must not fall through to another family."""
        with pytest.raises(ValueError, match="unknown noise model"):
            NoiseModel("student-t")

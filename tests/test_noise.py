"""Tests for the noise-family abstraction.

Characteristic functions, their sigma-derivatives, and the Fisher
constants are checked against quadrature oracles built from the raw
densities, not against re-derived formulas.
"""

import math
import sys
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from cmphase import noise
from cmphase.asymptotic import asv_generic
from cmphase.noise import CAUCHY, GAUSSIAN, LAPLACE, MODEL_TOKENS, NoiseModel, noise_model
from cmphase.numkit import RandomStream, real_number
from conftest import ALL_MODELS

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


KERNELS = ("char_fn", "char_fn_dsigma", "phasor_cos_var", "phasor_sin_var")
# The checked methods whose kernels serve numpy arrays too, and those kernels.
ARRAY_KERNELS = {"char_fn": "phi", "phasor_cos_var": "v_c", "phasor_sin_var": "v_s"}
# Largest distance in ulps between a kernel's array and float results.
# Measured: at most 3 (Gaussian phasor_cos_var; 2 for Laplace
# phasor_cos_var) over 540,000 points with
# omega and sigma omega log-uniform in [1e-300, 1e300], and at most 3 over
# 360,000 points with omega and sigma log-uniform there, numpy 2.4 on x86-64.
ARRAY_ULPS = 4


def on_arrays(kernel, sigma, omega):
    """kernel(sigma, omega, np) under the errstate the joint grid holds."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return kernel(sigma, omega, np)


def ulp_distance(a, b):
    """Elementwise count of float64 values between a and b, with -0.0 and
    0.0 as one value."""
    ia, ib = (np.asarray(x, dtype=np.float64).view(np.int64) for x in (a, b))
    key_a, key_b = (np.where(i < 0, np.iinfo(np.int64).min - i, i) for i in (ia, ib))
    return np.abs(key_a - key_b)


# The reference kernels: one method per kernel that branches on kind, the
# form the per-family records were derived from. Every public kernel must
# equal it bit for bit, and raise what it raises.

def _reference_clamped(t, cap, xp):
    return np.minimum(t, cap) if xp is np else (cap if t > cap else t)


def _checked(formula, *xp):
    """The checked method of a reference formula: real_number on sigma and
    omega, then the formula on the floats."""

    def method(self, sigma, omega):
        return formula(self, real_number("sigma", sigma), real_number("omega", omega), *xp)

    return method


class ReferenceNoiseModel:
    def __init__(self, kind):
        self.kind = kind

    def phi(self, s, w, xp):
        t = s * w
        if self.kind == "gaussian":
            return xp.exp(-0.5 * t * t)
        if self.kind == "laplace":
            return 1.0 / (1.0 + 0.5 * t * t)
        return xp.exp(-t)

    def v_c(self, s, w, xp):
        t = s * w
        if self.kind == "gaussian":
            e = xp.expm1(-(t * t))
            return 0.5 * e * e
        if self.kind == "laplace":
            t = _reference_clamped(t, noise._LAPLACE_T_MAX, xp)
            a = 0.5 * t * t
            return a * a * (5.0 + 2.0 * a) / ((1.0 + a) ** 2 * (1.0 + 4.0 * a))
        return -0.5 * xp.expm1(-2.0 * t)

    def v_s(self, s, w, xp):
        t = s * w
        if self.kind == "gaussian":
            return -0.5 * xp.expm1(-2.0 * t * t)
        if self.kind == "laplace":
            t = _reference_clamped(t, noise._LAPLACE_T_MAX, xp)
            a = 0.5 * t * t
            return 2.0 * a / (1.0 + 4.0 * a)
        return -0.5 * xp.expm1(-2.0 * t)

    def phi_s(self, s, w):
        t = s * w
        if self.kind == "gaussian":
            d = -w * w * s * math.exp(-0.5 * t * t)
        elif self.kind == "laplace":
            den = 1.0 + 0.5 * t * t
            d = -w * w * s / (den * den)
        else:
            return -w * math.exp(-t)
        if -math.inf < d < 0.0 and w >= noise._W_SQUARE_NORMAL:
            return d
        if self.kind == "gaussian":
            t = _reference_clamped(t, noise._GAUSS_T_MAX, math)
            e = math.exp(-0.25 * t * t)
            return -(w * e) * (t * e)
        den = 1.0 + 0.5 * t * t
        w2 = 2.0 * w
        if den < math.inf:
            return -(w / den) * (t / den)
        if w2 < math.inf:
            return -(w2 / t / t) * (2.0 / t)
        return -(w / t / t) * (4.0 / t)

    char_fn = _checked(phi, math)
    phasor_cos_var = _checked(v_c, math)
    phasor_sin_var = _checked(v_s, math)
    char_fn_dsigma = _checked(phi_s)

    def inverse_abs_char_fn(self, m, P):
        if self.kind == "gaussian":
            q = m * m  # a subnormal q has lost bits: log m then
            t = math.sqrt(math.log(P / q)) if q >= sys.float_info.min else math.inf
            if t == math.inf:
                t = math.sqrt(math.log(P) - 2.0 * math.log(m))
            return t
        if self.kind == "laplace":
            t = math.sqrt(2.0 * (math.sqrt(P) / m - 1.0))
            if t == math.inf:
                t = math.sqrt(2.0 * math.sqrt(P)) / math.sqrt(m)
            return t
        t = math.log(math.sqrt(P) / m)
        if t == math.inf:
            t = 0.5 * math.log(P) - math.log(m)
        return t


REFERENCE = {kind: ReferenceNoiseModel(kind) for kind in MODEL_TOKENS}


def kernel_outcome(f, *args):
    """f(*args) as bytes of float64, or the type and message it raised."""
    try:
        return np.asarray(f(*args), dtype=np.float64).tobytes()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


LOG_WIDE = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


class TestAgainstTheReference:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(ALL_MODELS),
        kernel=st.sampled_from(KERNELS),
        sigma=st.one_of(LOG_WIDE, st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf])),
        omega=st.one_of(LOG_WIDE, st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf])),
        sigmas=st.lists(LOG_WIDE, max_size=6),
        omegas=st.lists(LOG_WIDE, min_size=1, max_size=6),
    )
    def test_kernels_match_bit_for_bit(self, model, kernel, sigma, omega, sigmas, omegas):
        """For s and w log-uniform in 1e-300..1e300, the checked methods on
        floats and numpy scalars (and out-of-range values and 0-d arrays,
        which both must reject with real_number's message), and the array
        kernels phi, v_c and v_s on arrays and broadcasts under the joint
        grid's errstate, without warnings."""
        got, ref = getattr(model, kernel), getattr(REFERENCE[model.kind], kernel)
        for args in ((sigma, omega), (np.float64(sigma), omega), (np.array(sigma), omega)):
            assert kernel_outcome(got, *args) == kernel_outcome(ref, *args), args
        if kernel not in ARRAY_KERNELS:
            return
        name = ARRAY_KERNELS[kernel]
        got, ref = getattr(model, name), getattr(REFERENCE[model.kind], name)
        s_arr, w_arr = np.array(sigmas), np.resize(np.array(omegas), len(sigmas))
        for args in ((s_arr, omegas[0]), (s_arr, w_arr), (s_arr[:, None], np.array(omegas))):
            assert kernel_outcome(on_arrays, got, *args) == kernel_outcome(on_arrays, ref, *args)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(ALL_MODELS),
        P=LOG_WIDE,
        m=LOG_WIDE,
    )
    def test_inverse_matches_bit_for_bit(self, model, P, m):
        """inverse_abs_char_fn at 0 < m < sqrt(P), its defined range."""
        if m >= math.sqrt(P):
            m = math.sqrt(P) * 0.5
        got = model.inverse_abs_char_fn(m, P)
        assert got.hex() == REFERENCE[model.kind].inverse_abs_char_fn(m, P).hex()


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
        vals = model.phi(1.3, omegas, np)
        assert np.all(vals > 0.0) and np.all(vals < 1.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_array_broadcast_matches_scalar(self):
        """The array kernels against the checked methods on each float."""
        sigmas = np.array([0.5, 1.0, 2.0])
        for model in ALL_MODELS:
            for method, kernel in ARRAY_KERNELS.items():
                arr = getattr(model, kernel)(sigmas, 0.7, np)
                scalars = [getattr(model, method)(float(s), 0.7) for s in sigmas]
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

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "sigma, omega, name",
        [
            (np.array([1.0, -1.0]), 1.0, "sigma"),
            (np.array([1.0, math.nan]), 1.0, "sigma"),
            (np.array(0.0), 1.0, "sigma"),
            (np.array(math.nan), 1.0, "sigma"),
            (np.float64(-1.0), np.array([1.0]), "sigma"),
            (np.array([1.0, 2.0]), np.array([0.5, 0.0]), "omega"),
            (np.array([1.0]), np.array(math.nan), "omega"),
            (1.0, np.array([[1.0, 2.0], [math.nan, 3.0]]), "omega"),
        ],
    )
    def test_rejects_nonpositive_array_elements(self, kernel, sigma, omega, name):
        """The checked methods take real numbers alone: an array, 0-d or
        not, raises real_number's ValueError naming the argument it was
        passed as, whatever its elements, and so does a numpy scalar out
        of range. Each row passes its named argument with the other one
        valid."""
        value = sigma if name == "sigma" else omega
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            getattr(LAPLACE, kernel)(**{"sigma": 1.0, "omega": 1.0, name: value})

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(ALL_MODELS),
        kernel=st.sampled_from(sorted(ARRAY_KERNELS)),
        log_omega=st.floats(-300.0, 300.0),
        log_sigmas=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=8),
    )
    def test_arrays_agree_with_floats_without_warnings(self, model, kernel, log_omega, log_sigmas):
        """For omega and sigma log-uniform in [1e-300, 1e300], so that
        sigma omega runs from below the least subnormal to past the float
        range, the checked method on floats raises no RuntimeWarning, its
        array kernel under the joint grid's errstate gives the same
        finite values within ARRAY_ULPS: t * t, the Laplace den * den and
        sigma omega itself overflow to inf there, silently for floats.

        They need not be equal: numpy's exp, expm1 and power round
        differently from math's, e.g. GAUSSIAN.char_fn(0.001, 1.0) is
        0.999999500000125 and its array value 0.9999995000001249. A scalar
        omega and the same omega broadcast as an array are bit-identical."""
        f, array_kernel = getattr(model, kernel), getattr(model, ARRAY_KERNELS[kernel])
        omega = 10.0**log_omega
        sigmas = [10.0**x for x in log_sigmas]
        scalars = np.array([f(s, omega) for s in sigmas])
        arrays = on_arrays(array_kernel, np.array(sigmas), omega)
        assert np.all(np.isfinite(scalars)) and np.all(np.isfinite(arrays))
        broadcast = on_arrays(array_kernel, np.array(sigmas), np.full(len(sigmas), omega))
        assert arrays.tobytes() == broadcast.tobytes()
        zero_d = np.array([on_arrays(array_kernel, np.array(s), omega) for s in sigmas])
        for got in (arrays, zero_d):
            assert np.max(ulp_distance(got, scalars)) <= ARRAY_ULPS


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
        for omega in np.linspace(0.01, 8.0, 100).tolist():
            assert model.char_fn_dsigma(0.9, omega) < 0.0

    @pytest.mark.parametrize(
        "kind, sigma, omega, expected",
        [
            ("gaussian", 1.0, 1e200, 0.0),
            ("gaussian", 1e-190, 1e180, -1e170),
            ("laplace", 1.0, 1e200, 0.0),
            ("laplace", 1e-250, 1e200, -1e150),
        ],
    )
    def test_large_omega_is_finite(self, kind, sigma, omega, expected):
        """-omega^2 sigma overflows to -inf above omega ~ 1.3e154, which
        made the Gaussian and Laplace derivative nan or -inf; the value is
        -omega t e^{-t^2/2} and -omega t / (1 + t^2/2)^2 with t = sigma
        omega."""
        got = noise_model(kind).char_fn_dsigma(sigma, omega)
        assert math.isfinite(got) and got <= 0.0
        np.testing.assert_allclose(got, expected, rtol=1e-15)

    @pytest.mark.parametrize(
        "kind, sigma, omega",
        [
            ("gaussian", 1e200, 1e200),
            ("laplace", 1e200, 1e200),
            ("laplace", 1e-76, 1e154),
            ("laplace", 2e-146, 1e300),
            ("gaussian", 3.9e-299, 1e300),
            ("gaussian", 1e-170, 1e100),
            ("laplace", 1e-170, 1e100),
            ("gaussian", 1e-300, 1e-300),
            ("gaussian", 1e100, 1.234e-160),
            ("laplace", 1e100, 1.234e-160),
            ("gaussian", 7e20, 1e-155),
            ("laplace", 7e20, 1e-155),
        ],
    )
    def test_past_the_direct_forms_range(self, kind, sigma, omega):
        """Where the direct form is nan, rounds to zero or has lost bits:
        sigma omega past the float range (nan, true value below the float
        range, so -0.0), the Laplace (1 + t^2/2)^2 overflowing while
        omega^2 sigma does not (-0.0 against -4e-80), the Gaussian
        e^{-t^2/2} underflowing while omega t e^{-t^2/2} does not,
        omega^2 underflowing, and omega^2 subnormal (omega < 2^-511:
        -1.52271e-220 against -1.52276e-220 at omega = 1.234e-160).
        Checked against the exact formula in 50-digit decimal
        arithmetic."""
        with localcontext() as ctx:
            ctx.prec = 50
            s, w = Decimal(sigma), Decimal(omega)
            t = s * w
            if kind == "gaussian":
                exact = -w * w * s * (-t * t / 2).exp()
            else:
                exact = -w * w * s / (1 + t * t / 2) ** 2
            expected = float(exact)
        got = noise_model(kind).char_fn_dsigma(sigma, omega)
        assert math.copysign(1.0, got) == -1.0
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("sigma", [1e-150, 1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("omega", [1e308, sys.float_info.max])
    def test_laplace_where_two_omega_overflows(self, sigma, omega):
        """The Laplace tail form -(2 omega / t / t) (2 / t) gave -inf where
        2 omega overflows (omega above ~9e307, with den = 1 + t^2/2 past
        the float range); the value is about -4 / (sigma^3 omega^2),
        -4e-166 at sigma 1e-150, omega 1e308, and -0.0 at sigma 1. Checked
        against 50-digit decimal arithmetic, without warnings."""
        with localcontext() as ctx:
            ctx.prec = 50
            s, w = Decimal(sigma), Decimal(omega)
            t = s * w
            expected = float(-w * w * s / (1 + t * t / 2) ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = LAPLACE.char_fn_dsigma(sigma, omega)
        assert math.copysign(1.0, got) == -1.0 and math.isfinite(got)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-323)

    def test_direct_form_kept_bit_for_bit(self):
        """Wherever the direct derivative is finite and nonzero it is the
        result."""

        def direct(kind, s, w):
            t = s * w
            if kind == "gaussian":
                return -w * w * s * math.exp(-0.5 * t * t)
            den = 1.0 + 0.5 * t * t
            return -w * w * s / (den * den)

        t = np.logspace(-300, 300, 601)
        for omega in (1e-300, 1e-3, 1.0, 1e150, 1e300):
            with np.errstate(all="ignore"):
                s = t / omega
                s = s[np.isfinite(s) & (s > 0.0)]
            for model in (GAUSSIAN, LAPLACE):
                for x in s.tolist():
                    dx = direct(model.kind, x, omega)
                    if math.isfinite(dx) and dx != 0.0:
                        assert model.char_fn_dsigma(x, omega) == dx


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
        total = model.v_c(1.1, omegas, np) + model.v_s(1.1, omegas, np)
        phi = model.phi(1.1, omegas, np)
        np.testing.assert_allclose(total, 1.0 - phi * phi, rtol=1e-10)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_bounds(self, model):
        omegas = np.linspace(0.01, 10.0, 200)
        vc = model.v_c(0.8, omegas, np)
        vs = model.v_s(0.8, omegas, np)
        assert np.all(vc >= 0.0) and np.all(vc <= 1.0)
        assert np.all(vs >= 0.0) and np.all(vs <= 0.5)

    @pytest.mark.parametrize("t", [1e52, 1e100, 1e300])
    def test_laplace_large_argument_limit(self, t):
        """The direct Laplace forms overflow near sigma omega = 2.7e51 (nan
        for floats, OverflowError or RuntimeWarning beyond); both
        variances must stay on their finite 1/2 limit, for floats and
        arrays alike."""
        for method, kernel in ((LAPLACE.phasor_cos_var, LAPLACE.v_c),
                               (LAPLACE.phasor_sin_var, LAPLACE.v_s)):
            scalar = method(t, 1.0)
            array = kernel(np.array([t, 1.0]), 1.0, np)
            assert math.isfinite(scalar) and abs(scalar - 0.5) <= 1e-12
            assert np.all(np.isfinite(array)) and abs(array[0] - 0.5) <= 1e-12
            assert array[1] == method(1.0, 1.0)

    def test_laplace_scale_asv_past_the_overflow_is_not_nan(self):
        """asv_sigma grows as sigma^6 (3.1e298 at sigma omega = 1e50), so
        at 1e52 it overflows to inf; the nan phasor variance made it nan."""
        assert asv_generic(LAPLACE, 1e52, 1.0, 1.0).asv_sigma == math.inf

    def test_laplace_direct_form_kept_bit_for_bit(self):
        """Below 1e50 the Laplace kernels are the direct expressions, for
        arrays and floats alike."""

        def cos_direct(a):
            return a * a * (5.0 + 2.0 * a) / ((1.0 + a) ** 2 * (1.0 + 4.0 * a))

        def sin_direct(a):
            return 2.0 * a / (1.0 + 4.0 * a)

        t = np.logspace(-8, 50, 581)
        np.testing.assert_array_equal(LAPLACE.v_c(t, 1.0, np), cos_direct(0.5 * t * t))
        np.testing.assert_array_equal(LAPLACE.v_s(t, 1.0, np), sin_direct(0.5 * t * t))
        for x in t.tolist():
            assert LAPLACE.phasor_cos_var(x, 1.0) == cos_direct(0.5 * x * x)
            assert LAPLACE.phasor_sin_var(x, 1.0) == sin_direct(0.5 * x * x)

    def test_laplace_clamp_is_where_the_denominator_overflows(self):
        def denominator(t):
            a = 0.5 * t * t
            return (1.0 + a) ** 2 * (1.0 + 4.0 * a)

        t_max = noise._LAPLACE_T_MAX
        assert math.isfinite(denominator(t_max))
        assert denominator(math.nextafter(t_max, math.inf)) == math.inf

    def test_cauchy_isotropic(self):
        """Both phasor components of the Cauchy family share one variance."""
        omegas = np.linspace(0.05, 5.0, 50)
        np.testing.assert_allclose(
            CAUCHY.v_c(1.0, omegas, np), CAUCHY.v_s(1.0, omegas, np), rtol=1e-14
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


def draw(model, seed, n):
    """n standardized draws of model from the first uniforms of a stream."""
    u = RandomStream(seed).uniform(model.uniforms_needed(n))
    return model.from_uniforms(u, n, np.empty((2, u.size)))


class TestSampling:
    def test_reproducible(self):
        for model in ALL_MODELS:
            np.testing.assert_array_equal(draw(model, 11, 32), draw(model, 11, 32))

    def test_gaussian_moments(self):
        x = draw(GAUSSIAN, 42, 200_000)
        np.testing.assert_allclose(x.mean(), 0.0, atol=1e-2)
        np.testing.assert_allclose(x.var(), 1.0, rtol=1e-2)

    def test_laplace_moments(self):
        x = draw(LAPLACE, 42, 200_000)
        np.testing.assert_allclose(x.mean(), 0.0, atol=1e-2)
        np.testing.assert_allclose(x.var(), 1.0, rtol=2e-2)
        # unit-variance Laplace has E[x^4] = 6
        np.testing.assert_allclose((x**4).mean(), 6.0, rtol=0.15)

    def test_cauchy_quantiles(self):
        """No moments exist; check median 0 and quartiles at +-1."""
        x = draw(CAUCHY, 42, 200_000)
        np.testing.assert_allclose(np.median(x), 0.0, atol=2e-2)
        np.testing.assert_allclose(np.mean(np.abs(x) > 1.0), 0.5, atol=5e-3)

    def test_laplace_consumes_two_uniforms_each(self):
        """Draw i is the difference of the exponentials of uniforms i and
        n + i."""
        assert LAPLACE.uniforms_needed(5) == 10
        u = RandomStream(3).uniform(10)
        expected = [LAPLACE_B * (math.log1p(-u[5 + i]) - math.log1p(-u[i])) for i in range(5)]
        np.testing.assert_allclose(
            LAPLACE.from_uniforms(u, 5, np.empty((2, 10))), expected, rtol=1e-14
        )


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
        """A record carries its own formulas: one built from a token alone
        raises, so it cannot fall through to another family's."""
        with pytest.raises(TypeError, match="missing"):
            NoiseModel("student-t")

    def test_repr_names_the_token_alone(self):
        """No kernel, and so no memory address, in the repr."""
        for model in ALL_MODELS:
            assert repr(model) == f"NoiseModel(kind={model.kind!r})"
        assert "0x" not in repr(GAUSSIAN)

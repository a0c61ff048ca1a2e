"""Tests for the closed-form inversions and the joint search.

The joint minimizer is checked against the closed-form route on clean
reachable points, where both must recover the generating parameters
exactly: the two implementations are independent, so agreement is a
strong end-to-end check of each.
"""

import cmath
import dataclasses
import hashlib
import math
import re
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmphase import estimators, numkit
from cmphase.asymptotic import phasor_variances
from cmphase.estimators import (
    _GRID,
    DegenerateScaleError,
    ZeroMagnitudeError,
    _grid_argmin,
    estimate_location,
    estimate_scale,
    estimate_snr,
    joint_minimum_variance,
    joint_objective,
    simple_estimates,
)
from cmphase.network import PowerMode, effective_noise_var
from cmphase.noise import CAUCHY, GAUSSIAN, LAPLACE
from cmphase.numkit import ConvergenceError
from conftest import ALL_MODELS
from test_numkit import WIDE, WIDE_SETTINGS, gn_outcome, numpy_gauss_newton_box

TWO_PI = 2.0 * math.pi
# sha256 of float.hex (theta_hat, sigma_hat) of joint_minimum_variance over
# _joint_points(), recorded from the full-grid search before the grid was
# evaluated on the rows its bound leaves.
JOINT_DIGEST = "56d3433ca1b861421bbe56ad8145c61cd6210badc92414b0267626e9d1f33a07"


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


def _extreme_reals():
    """Signed reals log-uniform in 1e-300..1e300, and 0, +-inf, NaN."""
    mags = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
    return st.one_of(
        mags, mags.map(lambda x: -x), st.sampled_from([0.0, math.inf, -math.inf, math.nan])
    )


class TestExtremeInputs:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(ALL_MODELS),
        re=_extreme_reals(),
        im=_extreme_reals(),
        omega=_extreme_reals(),
        P=_extreme_reals(),
    )
    def test_finite_or_value_error(self, model, re, im, omega, P):
        """Every simple estimator returns finite values or raises
        ValueError, without a RuntimeWarning. estimate_scale returned
        (inf, False) for P = inf or a tiny omega, and NaN for a NaN z."""
        z = complex(re, im)
        calls = (
            lambda: (estimate_location(z, omega),),
            lambda: estimate_scale(z, omega, P, model),
            lambda: dataclasses.astuple(simple_estimates(z, omega, P, model)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for call in calls:
                try:
                    values = call()
                except ValueError:
                    continue
                numbers = [v for v in values if v is not None and not isinstance(v, bool)]
                assert all(math.isfinite(v) for v in numbers), values

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_overflowing_sigma_hat_raises(self, model):
        """Laplace gave (inf, False) and simple_estimates gamma_hat = 0.0."""
        z, omega = 1e-300 + 0j, 1e-300
        if model is LAPLACE:
            with pytest.raises(ValueError, match="sigma_hat overflows"):
                estimate_scale(z, omega, 1.0, model)
            with pytest.raises(ValueError, match="sigma_hat overflows"):
                simple_estimates(z, omega, 1.0, model)
        else:
            # t = sigma omega grows only like sqrt(log) or log of 1/|z|.
            sigma_hat, _ = estimate_scale(z, omega, 1.0, model)
            assert math.isfinite(sigma_hat)

    def test_overflowing_theta_hat_raises(self):
        """arg(z) / omega overflowed to inf once 2 pi / omega did."""
        with pytest.raises(ValueError, match="theta_hat = arg"):
            estimate_location(-1.0 + 0j, 1e-308)
        assert estimate_location(1e-3j, 1e-300) == (math.pi / 2.0) / 1e-300


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

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_tiny_magnitude_finite(self, model):
        """|z| down to the smallest subnormal gives a finite, positive
        sigma_hat that still falls as |z| grows (Gaussian m * m used to
        underflow to a ZeroDivisionError, Laplace and Cauchy gave inf)."""
        tiny = [5e-324, 1e-320, 1e-310, 1e-300, 1e-200, 1e-160, 1e-154, 1e-100]
        sigmas = []
        for m in tiny:
            sigma_hat, saturated = estimate_scale(complex(m, 0.0), 1.0, 1.0, model)
            assert 0.0 < sigma_hat < math.inf and not saturated
            sigmas.append(sigma_hat)
        assert sigmas == sorted(sigmas, reverse=True)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_inversion_unchanged_where_direct_form_finite(self, model):
        """Wherever the direct closed form is finite, and for the Gaussian
        m^2 is normal, the result is that form, bit for bit (the Monte
        Carlo digests rest on it)."""
        direct = {
            "gaussian": lambda m, P: math.sqrt(math.log(P / (m * m))),
            "laplace": lambda m, P: math.sqrt(2.0 * (math.sqrt(P) / m - 1.0)),
            "cauchy": lambda m, P: math.log(math.sqrt(P) / m),
        }[model.kind]
        compared = 0
        for P in (0.5, 1.0, 4.0):
            for m in np.geomspace(sys.float_info.min, 0.999 * math.sqrt(P), 400).tolist():
                if model is GAUSSIAN and m * m < sys.float_info.min:
                    continue  # a subnormal m^2 has lost bits: log m then
                try:
                    expected = direct(m, P)
                except ZeroDivisionError:
                    continue
                if expected < math.inf:
                    assert model.inverse_abs_char_fn(m, P) == expected
                    compared += 1
        assert compared >= 600

    @pytest.mark.parametrize(
        "m, P",
        [(2.488124037682828e-162, 4.507726e-317), (1.8988359028911657e-160, 1.2483624237185962e-268)],
    )
    def test_gaussian_inversion_where_m_squared_is_subnormal(self, m, P):
        """m^2 is subnormal at both points, and log(P / m^2) gave 4.003297
        against 3.975026 and sigma_hat 10.893747932 against 10.893749375."""
        with mpmath.workdps(60):
            exact = mpmath.sqrt(mpmath.log(P) - 2 * mpmath.log(m))
        assert math.isclose(GAUSSIAN.inverse_abs_char_fn(m, P), exact, rel_tol=1e-12)
        sigma_hat, saturated = estimate_scale(complex(m, 0.0), 1.0, P, GAUSSIAN)
        assert math.isclose(sigma_hat, exact, rel_tol=1e-12) and not saturated

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(log2_m=st.floats(-545.0, -511.0, exclude_max=True), log_d=st.floats(-6.0, 3.0))
    def test_gaussian_inversion_where_m_squared_is_subnormal_property(self, log2_m, log_d):
        """m below 2^-511, where m^2 is subnormal or 0, and P = m^2 e^D
        rounded, with D log-uniform in [1e-6, 1e3], against 60-digit
        mpmath. t = sqrt(D) with D = ln P - 2 ln m is computed as
        sqrt(fl(ln P) - 2 fl(ln m)). With u = 2^-53 and each math.log
        within 1 ulp (2u relative), that difference is off by at most
        2u (|ln P| + 2 |ln m|) + u D, so t is off by at most that over 2D,
        plus u for the square root. The bound allows 1% on top for the
        second-order terms (D is at least 1e-6, so they are below 1e-6
        of it) and the reference's own rounding."""
        m = 2.0**log2_m
        P = float(mpmath.mpf(m) ** 2 * mpmath.exp(10.0**log_d))
        with mpmath.workdps(60):
            d = mpmath.log(P) - 2 * mpmath.log(m) if P > 0.0 else 0.0
            assume(d >= 1e-6)
            u = 2.0**-53
            bound = (2 * u * (abs(math.log(P)) + 2 * abs(math.log(m))) + u * d) / (2 * d) + u
            error = abs(GAUSSIAN.inverse_abs_char_fn(m, P) / mpmath.sqrt(d) - 1)
        assert error <= 1.01 * bound, (m, P, error, bound)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(ALL_MODELS),
        fraction=st.floats(0.0, 1.0),
        omega=st.floats(0.2, 2.0),
        P=st.floats(0.25, 4.0),
        alpha=st.floats(-math.pi, math.pi),
    )
    def test_inverts_char_fn_property(self, model, fraction, omega, P, alpha):
        """sigma omega log-uniform on [1e-2, T], with phi(T) >= 1e-80:
        below 1e-2 the inversion is ill-conditioned (|z| near sqrt(P)),
        beyond T phi underflows."""
        t_max = {"gaussian": 18.0, "laplace": 1e6, "cauchy": 180.0}[model.kind]
        sigma_omega = 1e-2 * (t_max / 1e-2) ** fraction
        sigma = sigma_omega / omega
        z = math.sqrt(P) * model.char_fn(sigma, omega) * cmath.exp(1j * alpha)
        sigma_hat, saturated = estimate_scale(z, omega, P, model)
        assert not saturated
        np.testing.assert_allclose(sigma_hat, sigma, rtol=1e-9)

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

    @pytest.mark.parametrize("theta_hat, sigma_hat", [(1.0, 1e-200), (1e300, 1e-300)])
    def test_overflow_raises(self, theta_hat, sigma_hat):
        """The square overflowed with a bare OverflowError (1e-200), and the
        ratio to inf with no error at all (1e-300)."""
        message = re.escape(f"theta_hat={theta_hat!r}, sigma_hat={sigma_hat!r}")
        with pytest.raises(ValueError, match=message):
            estimate_snr(theta_hat, sigma_hat)


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
        assert set(dataclasses.asdict(est)) == {
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

    def test_form_past_the_square_range(self):
        """The numerator s22 r_re^2 overflowed where the form is about 2e4,
        which read inf. The rotated frame keeps it finite."""
        value = joint_objective(0.0, 0.0, 1.0, 0.1, 1e156, 0.0, GAUSSIAN)
        a = 1e156 * GAUSSIAN.phasor_cos_var(1.0, 0.1)
        w = 1e78 * GAUSSIAN.char_fn(1.0, 0.1)
        np.testing.assert_allclose(value, w / a * w, rtol=1e-15)

    def test_covariance_past_the_float_range(self):
        """det Sigma = a b overflows, as does the numerator: the quotient
        was NaN."""
        z = 3.4628806227524484e99 + 3.4448428406981315e-42j
        with pytest.raises(ValueError, match=r"det = inf"):
            joint_objective(
                z, 0.0969672741616056, 1.1993689224305582e96, 3.2701192505164915e-95,
                7.096944489063349e237, 8.55512836605835e-215, GAUSSIAN,
            )

    @WIDE_SETTINGS
    @given(
        model=st.sampled_from(ALL_MODELS),
        mode=st.sampled_from(list(PowerMode)),
        point=st.tuples(*[WIDE] * 7),
    )
    def test_wide_inputs_finite_or_raise(self, capfd, model, mode, point):
        """Over log-uniform 1e-300..1e300 inputs and 0, with the channel
        noise of either power mode, the form is >= 0 (inf past the float
        range) or ValueError; never NaN, a RuntimeWarning or output on
        stdout."""
        re_z, im_z, theta, sigma, omega, P, nv = point
        try:
            value = joint_objective(
                complex(re_z, im_z), theta, sigma, omega, P, effective_noise_var(mode, nv), model
            )
        except ValueError:
            pass
        else:
            assert value >= 0.0, (point, value)  # also fails for NaN
        assert capfd.readouterr().out == ""

    def test_validation(self):
        with pytest.raises(ValueError):
            joint_objective(0.5j, 1.0, -1.0, 1.0, 1.0, 1.0, GAUSSIAN)
        with pytest.raises(ValueError):
            joint_objective(0.5j, 1.0, 1.0, 0.0, 1.0, 1.0, GAUSSIAN)
        with pytest.raises(ValueError):
            joint_objective(0.5j, 1.0, 1.0, 1.0, math.nan, 1.0, GAUSSIAN)
        with pytest.raises(ValueError):
            joint_objective(0.5j, 1.0, 1.0, 1.0, math.inf, 1.0, GAUSSIAN)
        with pytest.raises(ValueError):
            joint_objective(0.5j, 1.0, 1.0, 1.0, 1.0, math.inf, GAUSSIAN)


class TestJointMinimumVariance:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_largest_omega_stops_unconverged(self, capfd, model):
        """The sigma box is (1e-12 S, S] with S = 10 max(sigma_hat, 1e-3 /
        omega) >= 1e-2 / omega, so the grid's least sigma S / 200 is
        smallest at the largest omega: at least 2.8e-313 for any z, about
        3e-310 here, and positive. There the Jacobian's sigma column is
        NaN and the refinement stops with ConvergenceError, quietly."""
        z, omega = 0.5 * cmath.exp(0.1j), sys.float_info.max
        assert 1e-2 / omega / _GRID > 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConvergenceError, match="did not converge in 0 iterations"):
                joint_minimum_variance(z, omega, 1.0, 1.0, model, TWO_PI / omega)
        assert capfd.readouterr().out == ""

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_sigma_box_overflow_names_z_and_omega(self, model):
        """At omega = 1e-308, sigma_hat is about 1e308 and S = 10
        max(sigma_hat, 1e-3 / omega) overflows. The error used to name the
        box's bound as if it were an argument, which the caller never
        passed."""
        with pytest.raises(ValueError, match=r"\bz = .*, omega = 1e-308$"):
            joint_minimum_variance(0.5 * cmath.exp(0.1j), 1e-308, 1.0, 1.0, model, 1.0)

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

    @pytest.mark.parametrize("model", [GAUSSIAN, CAUCHY], ids=lambda m: m.kind)
    def test_underflowing_objective_raises(self, model):
        """At |z| ~ 1e-170 the objective underflows to 0 on the grid; the
        first cell (theta 0.0628, simple 0.1993) used to come back as
        converged."""
        z, omega = 1e-170 + 1e-171j, 0.5
        with pytest.raises(ValueError, match="out of floating-point range"):
            joint_minimum_variance(z, omega, 1.0, 1.0, model, TWO_PI / omega)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_smallest_accepted_z_matches_simple(self, model):
        """Just above the |z| floor the objective still resolves the
        minimum, and the Laplace kernels do not overflow anywhere in the
        sigma search."""
        omega = 0.5
        z = 1.001e-100 * math.sqrt(2.0) * (0.6 + 0.8j)
        simple = simple_estimates(z, omega, 1.0, model)
        joint = joint_minimum_variance(z, omega, 1.0, 1.0, model, TWO_PI / omega)
        np.testing.assert_allclose(joint.theta_hat, simple.theta_hat, rtol=1e-8)
        np.testing.assert_allclose(joint.sigma_hat, simple.sigma_hat, rtol=1e-8)

    def test_sigma_beyond_former_cap_matches_simple(self):
        """The sigma search box used to be capped at 1e3, below the simple
        sigma 4227.1, and the estimate came back as sigma = 1000."""
        z, omega = 0.001 + 0.0005j, 0.01
        simple = simple_estimates(z, omega, 1.0, LAPLACE)
        joint = joint_minimum_variance(z, omega, 1.0, 1.0, LAPLACE, TWO_PI / omega)
        np.testing.assert_allclose(joint.theta_hat, simple.theta_hat, rtol=1e-4)
        np.testing.assert_allclose(joint.sigma_hat, simple.sigma_hat, rtol=1e-4)

    def test_theta_near_phase_zero_in_a_full_period(self):
        """A theta in the first grid cell of a one-period window used to
        come back as the edge theta_R = 34.4745, against the simple 0.0020."""
        z = 0.00024946096274284656 + 9.092401827886052e-08j
        omega, P = 0.18225589798561947, 7.0178074816566625
        simple = simple_estimates(z, omega, P, GAUSSIAN)
        joint = joint_minimum_variance(z, omega, P, 0.0, GAUSSIAN, TWO_PI / omega)
        np.testing.assert_allclose(joint.theta_hat, simple.theta_hat, rtol=1e-4)
        np.testing.assert_allclose(joint.sigma_hat, simple.sigma_hat, rtol=1e-4)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("phase", [1e-6, 1e-3, 0.01, TWO_PI - 0.01, TWO_PI - 1e-6])
    def test_full_period_window_wraps_theta(self, model, phase):
        """With omega theta_R = 2 pi the estimate is the simple one on
        either side of the phase wrap and lies in (0, theta_R]."""
        omega, P = 0.8, 1.0
        theta_R = TWO_PI / omega
        z = 0.5 * (math.cos(phase) + 1j * math.sin(phase))
        simple = simple_estimates(z, omega, P, model)
        joint = joint_minimum_variance(z, omega, P, 1.0, model, theta_R)
        assert 0.0 < joint.theta_hat <= theta_R
        np.testing.assert_allclose(joint.theta_hat, simple.theta_hat, rtol=1e-6)
        np.testing.assert_allclose(joint.sigma_hat, simple.sigma_hat, rtol=1e-6)

    def test_zero_z(self):
        with pytest.raises(ZeroMagnitudeError):
            joint_minimum_variance(0.0j, 1.0, 1.0, 1.0, GAUSSIAN, TWO_PI)

    def test_theta_r_validation(self):
        with pytest.raises(ValueError):
            joint_minimum_variance(0.5 + 0.1j, 1.0, 1.0, 1.0, GAUSSIAN, 0.0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(ALL_MODELS),
        nv=st.sampled_from([0.0, 1.0]),
        omega=st.floats(0.2, 2.0),
        window=st.floats(0.3, 1.0),
        position=st.floats(0.02, 0.98),
        sigma_omega=st.floats(0.05, 3.0),
        P=st.floats(0.25, 4.0),
    )
    def test_agrees_with_simple_route_property(
        self, model, nv, omega, window, position, sigma_omega, P
    ):
        theta_R = window * TWO_PI / omega
        z = mean_signal(position * theta_R, sigma_omega / omega, omega, P, model)
        simple = simple_estimates(z, omega, P, model)
        joint = joint_minimum_variance(z, omega, P, nv, model, theta_R)
        assert not joint.saturated
        np.testing.assert_allclose(joint.theta_hat, simple.theta_hat, rtol=1e-8)
        np.testing.assert_allclose(joint.sigma_hat, simple.sigma_hat, rtol=1e-8)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(ALL_MODELS),
        omega=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        window=st.one_of(
            st.floats(0.05, 1.0), st.floats(-9.0, -1.0).map(lambda e: 1.0 - 10.0**e)
        ),
        position=st.one_of(st.floats(1e-3, 1.0 - 1e-3), st.floats(1e-3, 1e-2)),
        sigma_omega=st.floats(-5.0, 2.0).map(lambda e: 10.0**e),
        P=st.floats(-4.0, 4.0).map(lambda e: 10.0**e),
        ratio=st.one_of(st.just(0.0), st.floats(-3.0, 1.0).map(lambda e: 10.0**e)),
    )
    def test_oracle_pair_with_simple_property(
        self, model, omega, window, position, sigma_omega, P, ratio
    ):
        """On noise-free z with omega in [1e-3, 1e3], sigma omega in [1e-5,
        1e2] and P in [1e-4, 1e4] log-uniform, theta inside a window of
        0.05 to 1 period (often within 1e-9 to 0.1 of one), at least 1e-3
        of it from either end (often near the lower one), and nv / P = 0
        or log-uniform in [1e-3, 10]: the joint estimate is the simple one
        to 1e-4 (the benchmark's check), or a route raises its documented
        error. sigma omega stops at 1e-5: below it z fixes sigma only to about
        eps / (sigma omega)^2 relative, past 1e-4 (flat-scale in
        test_known_disagreements)."""
        theta_R = window * TWO_PI / omega
        z = mean_signal(position * theta_R, sigma_omega / omega, omega, P, model)
        try:
            simple = simple_estimates(z, omega, P, model)
            joint = joint_minimum_variance(z, omega, P, ratio * P, model, theta_R)
        except (ValueError, ConvergenceError):
            return
        assert not joint.saturated
        err = max(
            abs(joint.theta_hat / simple.theta_hat - 1.0),
            abs(joint.sigma_hat / simple.sigma_hat - 1.0),
        )
        assert err <= 1e-4, err

    @pytest.mark.parametrize(
        "theta", [1e-3, TWO_PI - 2e-3], ids=["across-the-wrap", "inside-the-upper-edge"]
    )
    def test_near_wrap_agrees(self, theta):
        """omega theta_R = 2 pi - 1e-3, less than a grid step short of a
        period, and 2 pi exactly, one period. At theta = 1e-3 the grid's
        best cell is in the last row, whose phase is next to the true one
        across the wrap: the refinement from the first row finds the true
        point, where the one from the last row alone ended on theta_R at
        objective 3.4e-6 against 0. Next to theta_R from inside, the
        refinement from the last row stands. Either way the joint
        estimate is the simple one."""
        z = mean_signal(theta, 1.0, 1.0, 1.0, GAUSSIAN)
        simple = simple_estimates(z, 1.0, 1.0, GAUSSIAN)
        assert math.isclose(simple.theta_hat, theta, rel_tol=1e-12)
        for theta_R in (TWO_PI - 1e-3, TWO_PI):
            joint = joint_minimum_variance(z, 1.0, 1.0, 0.0, GAUSSIAN, theta_R)
            assert math.isclose(joint.theta_hat, simple.theta_hat, rel_tol=1e-9)
            assert math.isclose(joint.sigma_hat, simple.sigma_hat, rel_tol=1e-9)

    def test_one_period_edge_row_refines_both_edge_rows(self, monkeypatch):
        """A one-period window whose best cell is in an edge row (the last,
        next to theta = 1e-3 across the wrap) takes the near-wrap rule:
        the refinement from it and the one from the first row's best cell,
        both in the box (1e-12 theta_R, theta_R]."""
        calls = []

        def counted(residual, x0, lo, hi):
            calls.append((float(x0[0]), lo[0], hi[0]))
            return gauss_newton_box(residual, x0, lo, hi)

        gauss_newton_box = estimators.gauss_newton_box
        monkeypatch.setattr(estimators, "gauss_newton_box", counted)
        z = mean_signal(1e-3, 1.0, 1.0, 1.0, GAUSSIAN)
        joint_minimum_variance(z, 1.0, 1.0, 0.0, GAUSSIAN, TWO_PI)
        box = (1e-12 * TWO_PI, TWO_PI)
        assert calls == [(TWO_PI, *box), (TWO_PI / 200, *box)]

    def test_known_disagreements(self):
        """flat-scale: Gaussian at sigma omega = 1.0034e-6, where eps /
        (sigma omega)^2 is 2.2e-4: theta agrees, both sigmas lie within
        that of the generating one, 2.25e-4 apart."""
        omega, sigma_omega, P = 4.045189816709068, 1.0034212427665879e-06, 26.620774950319845
        theta_R = 0.44529115225178795 * TWO_PI / omega
        sigma = sigma_omega / omega
        z = mean_signal(0.2245529451272602 * theta_R, sigma, omega, P, GAUSSIAN)
        simple = simple_estimates(z, omega, P, GAUSSIAN)
        joint = joint_minimum_variance(z, omega, P, 234.28005248863985, GAUSSIAN, theta_R)
        assert math.isclose(joint.theta_hat, simple.theta_hat, rel_tol=1e-12)
        conditioning = sys.float_info.epsilon / sigma_omega**2
        for estimate in (simple, joint):
            assert abs(estimate.sigma_hat / sigma - 1.0) < conditioning
        assert 1e-4 < abs(joint.sigma_hat / simple.sigma_hat - 1.0) < 2.0 * conditioning

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    @pytest.mark.parametrize("beyond", [1.3, 1.8], ids=["near-upper", "near-lower"])
    def test_off_window_matches_brute_force_and_is_stationary(self, model, beyond):
        """arg z / omega beyond theta_R: the minimum lies on a theta face
        of the box (the upper one, or the lower one across the phase
        wrap). The estimate must be at least as good as every point of a
        dense joint_objective grid, lie within one cell of its best point,
        and satisfy the projected first-order conditions."""
        omega, P, nv = 0.8, 1.0, 1.0
        theta_R = math.pi / omega
        z = 0.9 * mean_signal(beyond * theta_R, 0.7, omega, P, model)
        assert estimate_location(z, omega) > theta_R
        est = joint_minimum_variance(z, omega, P, nv, model, theta_R)
        x = np.array([est.theta_hat, est.sigma_hat])
        S = 10.0 * max(estimate_scale(z, omega, P, model)[0], 1e-3 / omega)
        lo = np.array([1e-12 * theta_R, 1e-12 * S])
        hi = np.array([theta_R, S])

        def q(theta, sigma):
            return joint_objective(z, theta, sigma, omega, P, nv, model)

        n = 241
        thetas, sigmas = np.linspace(lo[0], hi[0], n), np.linspace(lo[1], hi[1], n)
        brute = np.array([[q(t, s) for s in sigmas] for t in thetas])
        i, j = np.unravel_index(np.argmin(brute), brute.shape)
        q_hat = q(*x)
        assert q_hat <= brute[i, j] * (1.0 + 1e-12)
        assert abs(x[0] - thetas[i]) <= thetas[1] - thetas[0]
        assert abs(x[1] - sigmas[j]) <= sigmas[1] - sigmas[0]

        h = 1e-6 * (hi - lo)
        for k in range(2):
            up, down = x.copy(), x.copy()
            up[k] = min(x[k] + h[k], hi[k])
            down[k] = max(x[k] - h[k], lo[k])
            slope = (q(*up) - q(*down)) / (up[k] - down[k]) * (hi[k] - lo[k])
            if x[k] == lo[k]:
                assert slope >= 0.0
            elif x[k] == hi[k]:
                assert slope <= 0.0
            else:
                assert abs(slope) <= 1e-6 * q_hat

    @pytest.mark.parametrize(
        "args, error, message",
        [
            pytest.param(
                (82.49440708815082 - 1.1765776711848314e120j, 1.7275711782961176e-23,
                 4.17923788330623e256, 5.423831060547662e-199, GAUSSIAN, 7.513300079782229e-225),
                ConvergenceError, "did not converge in 0 iterations",
                id="gaussian-non-finite-residual",
            ),
            pytest.param(
                (-0.0001365409823311565 - 3.1899576639889487e-145j, 8.480256275421983e99,
                 1.4057702553499298e111, 2.7709037077605715e-14, LAPLACE, 5.437166739500571e173),
                ValueError, "theta_R must satisfy omega theta_R <= 2 pi",
                id="laplace-window-past-one-period",
            ),
            pytest.param(
                (5.0383048494236383e30 - 9.106587849605822e-57j, 2.9492367019240787e155,
                 4.7787842482952236e204, 1.4829994883516026e-96, GAUSSIAN, 5.495740806370145e294),
                ValueError, "theta_R must satisfy omega theta_R <= 2 pi",
                id="gaussian-window-product-overflows",
            ),
        ],
    )
    def test_extreme_points_raise_documented_errors(self, capfd, args, error, message):
        """These raised LinAlgError after six LAPACK DLASCL lines on stdout,
        and an overflow RuntimeWarning from the grid."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(error, match=message):
                joint_minimum_variance(*args)
        assert capfd.readouterr().out == ""

    @settings(WIDE_SETTINGS, max_examples=1000)
    @given(
        model=st.sampled_from(ALL_MODELS),
        z_parts=st.tuples(WIDE, WIDE, st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0])),
        omega=WIDE,
        P=WIDE,
        nv=WIDE,
        window=st.one_of(WIDE.map(lambda v: ("theta_R", v)), st.floats(0.0, 1.0).map(
            lambda v: ("share of the period", v)
        )),
    )
    def test_wide_inputs_finite_or_raise(self, capfd, model, z_parts, omega, P, nv, window):
        """Over log-uniform 1e-300..1e300 inputs and 0 (theta_R drawn as
        such, or as a share of the phase period 2 pi / omega), the estimate
        is finite, or ValueError or ConvergenceError is raised; never NaN,
        a RuntimeWarning or output on stdout."""
        re_z, im_z, re_sign, im_sign = z_parts
        kind, value = window
        theta_R = value if kind == "theta_R" else value * TWO_PI / omega if omega > 0.0 else 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                est = joint_minimum_variance(
                    complex(re_sign * re_z, im_sign * im_z), omega, P, nv, model, theta_R
                )
            except (ValueError, ConvergenceError):
                pass
            else:
                assert math.isfinite(est.theta_hat) and math.isfinite(est.sigma_hat), est
                assert est.gamma_hat is None or math.isfinite(est.gamma_hat), est
        assert capfd.readouterr().out == ""

    @pytest.mark.parametrize(
        "args, error",
        [
            pytest.param(
                (1.2559141511408392e-141 + 3.940429567758407e-142j, 7.375746449669196e57,
                 1.7325902068235254e-282, 0.0, LAPLACE, 3.878496404089838e-58),
                ConvergenceError, id="laplace-variance-underflows-to-zero",
            ),
            pytest.param(
                (5.7020893342241945e-149 + 1.3684003462450426e-148j, 1.9420346902766524e-168,
                 2.1976577354115513e-296, 0.0, GAUSSIAN, 7.173732657315239e167),
                ConvergenceError, id="gaussian-variance-underflows-to-zero",
            ),
            pytest.param(
                (3.502454972329644e-67 - 2.2422379878353365e-67j, 1.3939287049003711e305,
                 1.7294822028203238e-133, 0.0, CAUCHY, 2.713611553145069e-305),
                ConvergenceError, id="cauchy-gradient-overflows",
            ),
            pytest.param(
                (-2.1008171969796348e151 - 1.2227622565800448e151j, 1.4347106820969774e-298,
                 1.2492527489401292e303, 0.0, GAUSSIAN, 4.7452850118762845e297),
                None, id="gaussian-linear-model-is-nan",
            ),
            pytest.param(
                (2.6104946868292383e153 - 6.374511568936568e153j, 6.954366511474637e-184,
                 4.744911540432592e307, 3.3329395954569536e269, LAPLACE, 3.5860238243768335e183),
                None, id="laplace-cells-overflow",
            ),
        ],
    )
    def test_float_range_edges_are_quiet(self, capfd, args, error):
        """Far out in the float range a variance underflows to 0 (the
        residual is NaN there), J^T r overflows, r + J step turns NaN, and
        1/a and the grid's cells overflow. Each class was first seen as a
        RuntimeWarning or a ZeroDivisionError; these points were found
        again by a seeded search of the six arguments, |z| / sqrt(P)
        log-uniform down to the |z| floor. The first three stop with
        ConvergenceError, the last two give finite estimates, and none
        warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if error is None:
                est = joint_minimum_variance(*args)
                assert math.isfinite(est.theta_hat) and math.isfinite(est.sigma_hat)
                assert math.isfinite(est.gamma_hat) and not est.saturated
            else:
                with pytest.raises(error):
                    joint_minimum_variance(*args)
        assert capfd.readouterr().out == ""

    @pytest.mark.parametrize("model", [GAUSSIAN, LAPLACE], ids=lambda m: m.kind)
    def test_residual_is_nan_where_a_variance_is_zero(self, model):
        """With no channel noise, P v_c underflows to 0 at sigma omega =
        1e-10 and P = 1e-300: Sigma is singular, the whitened residual and
        its Jacobian are NaN, and the refinement started there stops
        unconverged, without iterating."""
        omega, P, sigma = 1.0, 1e-300, 1e-10
        a, _ = phasor_variances(model, sigma, omega, P, 0.0, math)
        assert a == 0.0
        residual = estimators._whitened_residual(
            mean_signal(1.0, 0.5, omega, P, model), omega, P, 0.0, model
        )
        r, J = residual(1.0, sigma)
        assert np.isnan(r).all() and np.isnan(J).all()
        outcome = numkit.gauss_newton_box(residual, (1.0, sigma), (1e-12, 1e-22), (TWO_PI, 1.0))
        assert outcome == ((1.0, sigma), 0, False)

    def test_window_at_one_period_is_accepted(self):
        """theta_R = 2 pi / omega, one phase period, is the largest window,
        as in NetworkConfig; a window 1e-9 wider is refused."""
        omega = 0.9
        z = mean_signal(2.0, 0.8, omega, 1.0, GAUSSIAN)
        joint_minimum_variance(z, omega, 1.0, 1.0, GAUSSIAN, TWO_PI / omega)
        with pytest.raises(ValueError, match="theta_R="):
            joint_minimum_variance(z, omega, 1.0, 1.0, GAUSSIAN, TWO_PI / omega * (1.0 + 1e-9))

    def test_non_convergence_raises(self, monkeypatch):
        """A refinement that stops at its cap is an error, not an estimate."""
        monkeypatch.setattr(numkit, "_GN_MAX_ITER", 1)
        z = mean_signal(2.4, 1.3, 0.6, 1.0, LAPLACE)
        with pytest.raises(ConvergenceError):
            joint_minimum_variance(z, 0.6, 1.0, 1.0, LAPLACE, TWO_PI)


def _joint_points():
    """108 fixed (model, z, omega, P, nv, theta_R): three families, nv in
    {0, 0.3, 1}, one-period and edged theta windows, and phases up to
    1.2 theta_R, so some minima lie on a theta face of the box."""
    rng = np.random.default_rng(12)
    for model in ALL_MODELS:
        for nv in (0.0, 0.3, 1.0):
            for periodic in (True, False):
                for _ in range(6):
                    omega = float(rng.uniform(0.2, 2.0))
                    window = 1.0 if periodic else float(rng.uniform(0.3, 0.9))
                    theta_R = window * TWO_PI / omega
                    theta = float(rng.uniform(0.0, 1.2)) * theta_R
                    sigma = float(rng.uniform(0.05, 3.0)) / omega
                    P = float(rng.uniform(0.5, 2.0))
                    gain = float(rng.uniform(0.8, 1.0))
                    z = gain * mean_signal(theta, sigma, omega, P, model)
                    yield model, z, omega, P, nv, theta_R


def _analysis_points():
    """The analysis benchmark's 60 joint points (seed 2024): noise-free z
    at P = 1 on a half-period window, channel noise 1."""
    rng = np.random.default_rng(2024)
    for model in ALL_MODELS:
        for _ in range(20):
            omega = float(rng.uniform(0.3, 1.5))
            theta_R = math.pi / omega
            theta = float(rng.uniform(0.3, 0.9 * theta_R))
            sigma = float(rng.uniform(0.1, 2.0))
            z = cmath.exp(1j * omega * theta) * model.char_fn(sigma, omega)
            yield model, z, omega, 1.0, 1.0, theta_R


def _full_grid_argmin(z, thetas, sigmas, omega, P, nv, model):
    """Oracle: the whole thetas x sigmas grid in one array, as the joint
    search formed it before the row bound, with numpy's argmin."""
    c = np.cos(omega * thetas)
    s = np.sin(omega * thetas)
    a = P * model.v_c(sigmas, omega, np) + 0.5 * nv
    b = P * model.v_s(sigmas, omega, np) + 0.5 * nv
    q = np.subtract.outer(z.real * c + z.imag * s, math.sqrt(P) * model.phi(sigmas, omega, np))
    q *= q
    q *= 1.0 / a
    q += np.multiply.outer(np.square(z.imag * c - z.real * s), 1.0 / b)
    return np.unravel_index(np.argmin(q), q.shape), q


class TestGridArgmin:
    def test_joint_results_are_pinned(self):
        digest = hashlib.sha256()
        for model, z, omega, P, nv, theta_R in _joint_points():
            est = joint_minimum_variance(z, omega, P, nv, model, theta_R)
            digest.update(f"{est.theta_hat.hex()} {est.sigma_hat.hex()}\n".encode())
        assert digest.hexdigest() == JOINT_DIGEST

    def test_refinement_matches_the_numpy_oracle(self, monkeypatch):
        """Every refinement over _joint_points() (one-period windows, where
        theta is periodic, and edged ones) and the analysis benchmark's
        points gives the x bits, iterations and verdict of the numpy
        iteration on the same whitened residual."""
        outcomes = []

        def both(residual, x0, lo, hi):
            outcomes.append(
                (gn_outcome(gauss_newton_box, residual, x0, lo, hi),
                 gn_outcome(numpy_gauss_newton_box, residual, x0, lo, hi))
            )
            return gauss_newton_box(residual, x0, lo, hi)

        gauss_newton_box = estimators.gauss_newton_box
        monkeypatch.setattr(estimators, "gauss_newton_box", both)
        for model, z, omega, P, nv, theta_R in [*_joint_points(), *_analysis_points()]:
            joint_minimum_variance(z, omega, P, nv, model, theta_R)
        assert len(outcomes) == 168
        assert all(got == expected for got, expected in outcomes)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(ALL_MODELS),
        nv=st.sampled_from([0.0, 0.3, 1.0]),
        omega=st.floats(0.1, 2.0),
        P=st.floats(0.25, 4.0),
        exact_z=st.booleans(),
        radius=st.floats(0.0, 1.2),
        phase=st.floats(0.0, TWO_PI),
        theta_pool=st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 10.0)), min_size=1, max_size=200
        ),
        n_theta=st.integers(1, 200),
        sigma_exp=st.floats(-250.0, 2.0),
        n_sigma=st.integers(1, 200),
        sigma_period=st.integers(1, 200),
    )
    def test_matches_the_full_grid(
        self, model, nv, omega, P, exact_z, radius, phase,
        theta_pool, n_theta, sigma_exp, n_sigma, sigma_period,
    ):
        """Same cell as argmin over the whole grid. A repeated theta pool
        or sigma period makes exact ties across rows and columns;
        a tiny sigma at nv = 0 makes 1/a infinite, and z = sqrt(P) with
        theta = 0 then gives NaN cells."""
        root_p = math.sqrt(P)
        z = complex(root_p, 0.0) if exact_z else root_p * radius * cmath.exp(1j * phase)
        thetas = np.resize(np.array(theta_pool), n_theta)
        sigma_top = 10.0**sigma_exp
        sigmas = np.resize(np.linspace(sigma_top / sigma_period, sigma_top, sigma_period), n_sigma)
        with np.errstate(all="ignore"):
            expected, _ = _full_grid_argmin(z, thetas, sigmas, omega, P, nv, model)
            got = _grid_argmin(z, thetas, sigmas, omega, P, nv, model)
        assert got == tuple(int(k) for k in expected)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(ALL_MODELS),
        nv=st.sampled_from([0.0, 0.3, 1.0]),
        omega=st.floats(0.1, 2.0),
        P=st.floats(0.25, 4.0),
        on_cell=st.booleans(),
        column=st.integers(0, 199),
        radius=st.floats(0.0, 1.2),
        phase=st.floats(0.0, TWO_PI),
        theta_pool=st.lists(
            st.one_of(st.sampled_from([0.0, 1e-200, 1e-160, 1e-9]), st.floats(0.0, 10.0)),
            min_size=1,
            max_size=6,
        ),
        n_theta=st.integers(1, 200),
        sigma_exp=st.floats(-250.0, 2.0),
        n_sigma=st.integers(1, 200),
    )
    def test_row_bound_keeps_the_full_grid_cell(
        self, model, nv, omega, P, on_cell, column, radius, phase,
        theta_pool, n_theta, sigma_exp, n_sigma,
    ):
        """The rows skipped by the bound v_i^2 min(1/b) never hold the full
        grid's first least cell. z on a cell's mean (theta = 0, so v = 0,
        and z = w_j) makes the least cell exactly 0, and a short theta
        pool, resized, repeats the row of least bound, so bounds tie at 0
        and across rows. A tiny sigma at nv = 0 makes 1/a or 1/b
        infinite, and every row is formed."""
        thetas = np.resize(np.array(theta_pool), n_theta)
        sigma_top = 10.0**sigma_exp
        sigmas = np.linspace(sigma_top / n_sigma, sigma_top, n_sigma)
        if on_cell:
            w = math.sqrt(P) * model.phi(sigmas, omega, np)
            z = complex(w[column % n_sigma], 0.0)
        else:
            z = math.sqrt(P) * radius * cmath.exp(1j * phase)
        with np.errstate(all="ignore"):
            expected, _ = _full_grid_argmin(z, thetas, sigmas, omega, P, nv, model)
            got = _grid_argmin(z, thetas, sigmas, omega, P, nv, model)
        assert got == tuple(int(k) for k in expected)

    def test_ties_at_zero_keep_the_first_row(self):
        """z on the mean of column 37 at theta = 0 (rows 5, 77 and 150), and
        theta = 1e-200 at row 3, where v^2 underflows to 0 and cos is 1:
        the bound is 0 on all four rows, each holds a least cell of 0 in
        column 37, and the first of them, row 3, wins."""
        omega, P, nv = 0.9, 1.0, 0.5
        thetas = np.linspace(0.05, 3.0, _GRID)
        thetas[[5, 77, 150]] = 0.0
        thetas[3] = 1e-200
        sigmas = np.linspace(0.01, 2.0, _GRID)
        z = complex((math.sqrt(P) * GAUSSIAN.phi(sigmas, omega, np))[37], 0.0)
        (i, j), q = _full_grid_argmin(z, thetas, sigmas, omega, P, nv, GAUSSIAN)
        assert (i, j) == (3, 37) and np.count_nonzero(q == 0.0) == 4
        assert _grid_argmin(z, thetas, sigmas, omega, P, nv, GAUSSIAN) == (3, 37)

    @pytest.mark.parametrize(
        "nan_rows",
        [
            pytest.param([150, 170], id="nan-in-a-later-block-beats-an-earlier-minimum"),
            pytest.param([3, 9], id="first-nan-of-the-first-block"),
            pytest.param([], id="ties-across-rows"),
        ],
    )
    def test_nan_and_tie_cells(self, nan_rows):
        """Hand-built grids that do hold NaN cells or exact ties: the first
        NaN wins over any number, and the first of equal minima wins."""
        omega, P, nv = 1.0, 1.0, 0.0
        z = complex(math.sqrt(P), 0.0)
        if nan_rows:
            # theta = 0 puts u on sqrt(P) phi(0+) exactly, and sigma = 1e-170
            # underflows a: those cells are 0 * inf. The others are finite.
            thetas = np.full(_GRID, 1.0)
            thetas[nan_rows] = 0.0
            sigmas = np.resize([1e-170, 0.5], _GRID)
        else:
            thetas = np.resize([0.3, 0.7, 1.1], _GRID)
            sigmas = np.linspace(0.01, 2.0, _GRID)
        with np.errstate(all="ignore"):
            (i, j), q = _full_grid_argmin(z, thetas, sigmas, omega, P, nv, GAUSSIAN)
            got = _grid_argmin(z, thetas, sigmas, omega, P, nv, GAUSSIAN)
        assert got == (i, j)
        if nan_rows:
            assert math.isnan(q[i, j]) and i == nan_rows[0]
            assert np.isfinite(q).any()
        else:
            assert np.count_nonzero(q == q[i, j]) > 1 and i == 0

    def test_row_bound_overflow_keeps_the_full_grid_cell(self):
        """A sigma grid far below any search box (sigma omega ~ 1e-195,
        where S omega >= 1e-2): b is about P (sigma omega)^2, the row bound
        v^2 min(1/b) overflows on finite operands, and the grid's cell is
        still the full grid's. The joint search cannot reach this: there
        v^2 <= 2 |z|^2 <= 2 P and b >= P v_s(1e-2), so the bound stays
        below about 1e9."""
        z = 1.753110730807359e-43 - 1.3735893549805875e68j
        omega, P, nv = 5.182943384309274e-140, 6.106217849661867e196, 1.714528993278682e-214
        thetas = np.linspace(6.114465804456207e-168 / _GRID, 6.114465804456207e-168, _GRID)
        sigmas = np.linspace(1.40563254854839e-55 / _GRID, 1.40563254854839e-55, _GRID)
        with warnings.catch_warnings(), np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            warnings.simplefilter("error", RuntimeWarning)
            vsq = np.square(z.imag * np.cos(omega * thetas) - z.real * np.sin(omega * thetas))
            rb = 1.0 / phasor_variances(GAUSSIAN, sigmas, omega, P, nv, np)[1]
            assert np.isfinite(vsq).all() and np.isfinite(rb).all()
            assert (vsq * rb.min() == math.inf).any()
            (i, j), _ = _full_grid_argmin(z, thetas, sigmas, omega, P, nv, GAUSSIAN)
            assert _grid_argmin(z, thetas, sigmas, omega, P, nv, GAUSSIAN) == (i, j)

    def test_least_cell_in_the_last_of_190_rows(self):
        """190 theta rows, fewer than the joint search's 200; the phase of
        z lies just past the last theta, so the least cell is in the last
        row."""
        z, omega, P = 0.5 * cmath.exp(0.7j), 1.0, 1.0
        thetas = np.linspace(0.0, 0.69, 190)
        sigmas = np.linspace(0.01, 2.0, _GRID)
        (i, j), _ = _full_grid_argmin(z, thetas, sigmas, omega, P, 1.0, LAPLACE)
        assert i == 189
        assert _grid_argmin(z, thetas, sigmas, omega, P, 1.0, LAPLACE) == (i, j)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_peak_memory_below_one_row_block(self, model):
        """On a clean point the row bound leaves one or two rows to form, so
        a warm call peaks below 40 rows of the grid (64 KB), where forming
        every row peaked at about 280 KB."""
        z, omega = mean_signal(1.3, 0.8, 0.8, 1.0, model), 0.8
        joint_minimum_variance(z, omega, 1.0, 1.0, model, math.pi / omega)
        tracemalloc.start()
        try:
            joint_minimum_variance(z, omega, 1.0, 1.0, model, math.pi / omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 200 * 8, peak

    def test_peak_memory_below_one_grid(self):
        """A warm call allocates less than one 200 x 200 float64 grid; the
        full-grid search peaked at about 780 KB."""
        z, omega = mean_signal(1.3, 0.8, 0.8, 1.0, LAPLACE), 0.8
        joint_minimum_variance(z, omega, 1.0, 1.0, LAPLACE, math.pi / omega)
        tracemalloc.start()
        try:
            joint_minimum_variance(z, omega, 1.0, 1.0, LAPLACE, math.pi / omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _GRID * _GRID * 8, peak

"""Tests for the large-L variance formulas.

The characteristic-function route (asv_generic) is checked against the
independent matrix route (asv_via_sandwich) over a dense grid, and the
bundled distribution-specific closed forms are pinned to their known
agree/disagree status against the generic definition.
"""

import cmath
import dataclasses
import hashlib
import itertools
import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmphase import tuning
from cmphase.asymptotic import (
    AsvReport,
    asv_closed_form,
    asv_curves,
    asv_generic,
    asv_via_sandwich,
    covariance_matrix,
    jacobian,
    phasor_variances,
)
from cmphase.network import PowerMode, effective_noise_var
from cmphase.noise import CAUCHY, GAUSSIAN, LAPLACE, MODEL_TOKENS, noise_model
from cmphase.tuning import OMEGA_TARGETS
from conftest import ALL_MODELS
from test_noise import REFERENCE
from test_numkit import WIDE, WIDE_SETTINGS


NORMAL = sys.float_info.min


def reference_quotient(num, den, v, d, P, nv):
    """(2 P v + nv) / (2 P d^2) from its numerator num and denominator den:
    num / den where both are normal floats; elsewhere v + nv / 2P divided
    by d twice, nv / (2 P d^2) on frexp parts where nv / 2P overflows, and
    inf where d is 0 or v + nv / 2P is below the normal range."""
    if NORMAL <= den < math.inf and NORMAL <= num < math.inf:
        return num / den
    if d == 0.0:
        return math.inf
    half_r = 0.5 * nv / P
    if half_r == math.inf:
        (m_nv, e_nv), (m_p, e_p), (m_d, e_d) = math.frexp(nv), math.frexp(P), math.frexp(d)
        try:
            return math.ldexp(0.5 * m_nv / m_p / m_d / m_d, e_nv - e_p - 2 * e_d)
        except OverflowError:
            return math.inf
    s = v + half_r
    return s / d / d if s >= NORMAL else math.inf


def reference_components(kind, sigma, omega, P, nv):
    """(asv_theta, asv_sigma), each formed from two kernels of the
    reference model (test_noise.REFERENCE) by reference_quotient."""
    model = REFERENCE[kind]
    phi, v_s = model.char_fn(sigma, omega), model.phasor_sin_var(sigma, omega)
    den_t = 0.0  # omega^2 not a normal float: reference_quotient's fallback
    if 2.0**-511 <= omega < 2.0**512:
        den_t = 2.0 * P * omega**2 * phi * phi
    asv_t = reference_quotient(2.0 * P * v_s + nv, den_t, v_s, omega * phi, P, nv)
    dphi, v_c = model.char_fn_dsigma(sigma, omega), model.phasor_cos_var(sigma, omega)
    den_s = 2.0 * P * dphi * dphi
    return asv_t, reference_quotient(2.0 * P * v_c + nv, den_s, v_c, dphi, P, nv)


def reference_gamma(asv_t, asv_s, theta, sigma):
    """asv_gamma composed from the two components by the delta method,
    4 gamma / sigma^2 (asv_theta + gamma asv_sigma), or the gamma curve's
    ValueError where gamma or the prefactor leaves the float range or the
    result is NaN."""
    try:
        gamma = (theta / sigma) ** 2
        scale = 4.0 * gamma / sigma**2
    except (OverflowError, ZeroDivisionError):
        gamma = scale = math.nan
    value = scale * (asv_t + gamma * asv_s)
    if gamma < math.inf and value == value:
        return value
    raise ValueError(
        f"asv_gamma is out of floating-point range at theta={theta!r}, sigma={sigma!r}"
    )


def mp_components(kind, sigma, omega, P, nv):
    """(asv_theta, asv_sigma) at 60 digits, from the family's characteristic
    function phi, phi at 2 omega and the sigma-derivative of phi."""
    with mpmath.workdps(60):
        s, w, P, nv = (mpmath.mpf(x) for x in (sigma, omega, P, nv))
        t = s * w
        if kind == "gaussian":
            phi, phi2 = mpmath.exp(-t * t / 2), mpmath.exp(-2 * t * t)
            dphi = -w * t * phi
        elif kind == "laplace":
            phi, phi2 = 1 / (1 + t * t / 2), 1 / (1 + 2 * t * t)
            dphi = -w * t * phi * phi
        else:
            phi, phi2 = mpmath.exp(-t), mpmath.exp(-2 * t)
            dphi = -w * phi
        v_s, v_c = (1 - phi2) / 2, (1 + phi2) / 2 - phi * phi
        return (
            (2 * P * v_s + nv) / (2 * P * w * w * phi * phi),
            (2 * P * v_c + nv) / (2 * P * dphi * dphi),
        )


def gamma_outcome(curve, omega):
    """curve(omega)'s bits, or the type and message of its ValueError."""
    try:
        return curve(omega).hex()
    except ValueError as exc:
        return type(exc), str(exc)



GRID_SIGMAS = (0.5, 1.0, 2.0)
GRID_OMEGAS = np.linspace(0.1, 2.0, 20)
GRID_RATIOS = (0.0, 0.5, 1.0)  # channel_noise_var / P at P = 1


def numpy_sandwich(model, theta, sigma, omega, P, nv):
    """[J^T Sigma^-1 J]^-1 on numpy 2x2 matrices through np.linalg.inv,
    as asv_via_sandwich formed it before it moved to Python floats: the
    oracle for the float route at ordinary operating points."""
    J = jacobian(model, theta, sigma, omega, P)
    a, b = phasor_variances(model, sigma, omega, P, nv, math)
    c, s = math.cos(omega * theta), math.sin(omega * theta)
    W = np.array([[c, s], [-s, c]]) @ J / np.array([[math.sqrt(a)], [math.sqrt(b)]])
    return np.linalg.inv(W.T @ W)


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

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_float_route_matches_numpy_on_the_grid(self, model):
        """On the grid the float route is numpy_sandwich's to 1e-12:
        relative on the diagonal, in correlation units off it."""
        for sigma, omega, nv in itertools.product(GRID_SIGMAS, GRID_OMEGAS.tolist(), GRID_RATIOS):
            (c00, c01), (c10, c11) = asv_via_sandwich(model, 1.1, sigma, omega, 1.0, nv).tolist()
            (n00, n01), (_, n11) = numpy_sandwich(model, 1.1, sigma, omega, 1.0, nv).tolist()
            assert abs(c00 / n00 - 1.0) <= 1e-12 and abs(c11 / n11 - 1.0) <= 1e-12
            assert c01 == c10 and abs(c01 - n01) <= 1e-12 * math.sqrt(n00 * n11)

    def test_calls_no_linalg(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.inv was called")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        C = asv_via_sandwich(LAPLACE, 0.4, 1.0, 0.8, 1.0, 0.5)
        rep = asv_generic(LAPLACE, 1.0, 0.8, 1.0, 0.5)
        assert math.isclose(C[0, 0], rep.asv_theta, rel_tol=1e-12)
        assert math.isclose(C[1, 1], rep.asv_sigma, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "theta,sigma,omega,P",
        [
            # LAPACK's inverse of J^T Sigma^-1 J read [[-4.7e-57, -4.9e-29],
            # [-4.9e-29, -0.5]]: negative variances, and no error.
            (2.4003201147164128e42, 1.3129787569506606e-08, 1.6393744509293111e-37,
             9.57305374325404e118),
            (1.486192229344248e299, 3.814129831657133e-61, 0.3640848240076418,
             2.976295075385744e267),
            # sigma omega ~ 19.4: an unscaled adjugate's m00 m11 - m01^2
            # underflows to 1e-323 and puts both variances 13% low.
            (0.5002811595069393, 34.78589703644102, 0.556263947144768, 0.020584013772512635),
        ],
        ids=["negative-variances", "negative-variances-wide", "adjugate-underflow"],
    )
    def test_diagonal_matches_generic_at_float_range_points(self, theta, sigma, omega, P):
        C = asv_via_sandwich(GAUSSIAN, theta, sigma, omega, P, 0.0)
        rep = asv_generic(GAUSSIAN, sigma, omega, P)
        assert math.isclose(C[0, 0], rep.asv_theta, rel_tol=1e-9), (C, rep)
        assert math.isclose(C[1, 1], rep.asv_sigma, rel_tol=1e-9), (C, rep)

    def test_sandwich_theta_invariance(self):
        a = asv_via_sandwich(LAPLACE, 0.4, 1.0, 0.8, 1.0, 0.5)
        b = asv_via_sandwich(LAPLACE, 4.0, 1.0, 0.8, 1.0, 0.5)
        np.testing.assert_allclose(np.diag(a), np.diag(b), rtol=1e-9)

    def test_singular_point(self):
        with pytest.raises(ValueError, match="singular"):
            asv_via_sandwich(GAUSSIAN, 1.0, 1e-170, 1.0, 1.0, 0.0)

    def test_overflowing_determinant_raises(self):
        """det Sigma overflows to inf here; the numpy-scalar product used to
        raise an overflow RuntimeWarning instead."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"out of floating-point range .*det = inf"):
                asv_via_sandwich(
                    CAUCHY, 183230561.54516667, 1.4448136191454214e-64, 22.03611651852593,
                    2.0600791112257162e162, 1.4923385312024212e216,
                )

    @pytest.mark.parametrize(
        "point",
        [
            # J is NaN (inf * 0 where phi underflows): the result was all NaN.
            (GAUSSIAN, 1.2854757021298693e-143, 4.820855566657087e263, 3.827294612773737e287,
             2.5824243026244386e146, 3.6790575718709664e84),
            # J^T Sigma^-1 J overflowed with a RuntimeWarning from matmul.
            (LAPLACE, 1.8316204029874502e263, 7.669107840939936e-215, 4.0179318492568368e-28,
             1.5159863268707909e215, 6.336375792850059e-152),
        ],
        ids=["nan-jacobian", "matmul-overflow"],
    )
    def test_information_past_the_float_range_raises(self, point):
        with pytest.raises(ValueError, match=r"J\^T Sigma\^-1 J or its inverse is out of"):
            asv_via_sandwich(*point)

    def test_documented_disagreement_where_a_is_far_below_b(self):
        """Outside the oracle's domain, named in asv_via_sandwich's
        docstring: a / b is about 2e-39 here, and at theta 2.0 the rounding
        residual of the rotated R^T J's exact-zero entry, whitened by
        1/sqrt(a), puts the sandwich's C[1,1] at 2.315e-35 against
        asv_generic's 9.155e-42. At theta 1.1 that entry rounds to 0 and
        the two agree."""
        sigma, omega = 4.279111465014103e-21, 15.149866015298576
        P, nv = 2.273551850763549e159, 1.4632321964860432e-211
        a, b = phasor_variances(GAUSSIAN, sigma, omega, P, nv, math)
        assert a < 1e-38 * b
        rep = asv_generic(GAUSSIAN, sigma, omega, P, nv)
        assert math.isclose(rep.asv_sigma, 9.155e-42, rel_tol=1e-3)
        far = asv_via_sandwich(GAUSSIAN, 2.0, sigma, omega, P, nv)
        assert math.isclose(far[1, 1], 2.315e-35, rel_tol=1e-3)
        near = asv_via_sandwich(GAUSSIAN, 1.1, sigma, omega, P, nv)
        assert math.isclose(near[0, 0], rep.asv_theta, rel_tol=1e-9)
        assert math.isclose(near[1, 1], rep.asv_sigma, rel_tol=1e-9)

    @WIDE_SETTINGS
    @given(
        model=st.sampled_from(ALL_MODELS),
        mode=st.sampled_from(list(PowerMode)),
        point=st.tuples(*[WIDE] * 5),
    )
    def test_wide_inputs_finite_or_raise(self, capfd, model, mode, point):
        """Over log-uniform 1e-300..1e300 inputs and 0, with the channel
        noise of either power mode, every entry is finite and both
        variances positive, or the call raises ValueError; never NaN, a
        RuntimeWarning or output on stdout."""
        theta, sigma, omega, P, nv = point
        try:
            C = asv_via_sandwich(model, theta, sigma, omega, P, effective_noise_var(mode, nv))
        except ValueError:
            pass
        else:
            assert np.isfinite(C).all() and C[0, 0] > 0.0 and C[1, 1] > 0.0, (point, C)
        assert capfd.readouterr().out == ""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(ALL_MODELS),
        phase=st.floats(0.01, 6.28),
        sigma=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
        u=st.floats(-6.0, 2.0).map(lambda e: 10.0**e),
        P=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        ratio=st.one_of(st.just(0.0), st.floats(-12.0, 1.0).map(lambda e: 10.0**e)),
    )
    def test_oracle_pair_property(self, model, phase, sigma, u, P, ratio):
        """omega theta in [0.01, 6.28], and sigma in [1e-2, 1e2], sigma
        omega in [1e-6, 1e2] and P in [1e-3, 1e3] log-uniform, with nv / P
        0 or log-uniform in [1e-12, 10]: the sandwich's diagonal is
        asv_generic's to 1e-9 and its correlation below 1e-9, or it raises
        its documented ValueError."""
        omega, nv = u / sigma, ratio * P
        try:
            C = asv_via_sandwich(model, phase / omega, sigma, omega, P, nv)
        except ValueError:
            return
        rep = asv_generic(model, sigma, omega, P, nv)
        (c00, c01), (_, c11) = C.tolist()
        diag = max(abs(c00 / rep.asv_theta - 1.0), abs(c11 / rep.asv_sigma - 1.0))
        correlation = abs(c01) / math.sqrt(c00) / math.sqrt(c11)
        assert diag <= 1e-9 and correlation <= 1e-9

    @pytest.mark.parametrize("model", [GAUSSIAN, LAPLACE], ids=lambda m: m.kind)
    def test_noise_free_small_scale_agreement(self, model):
        """sigma omega = 1e-5, omega theta = 0.7, nv = 0: the covariance's
        entries are of order (sigma omega)^2 and (sigma omega)^4, and the
        sandwich, whitened in the frame where Sigma is diagonal, keeps
        asv_generic's diagonal to 1e-12. Inverting the rotated Sigma lost
        about eps / (sigma omega)^2 relative here. For the Gaussian,
        asv_generic matches the cancellation-free form (1 - e^{-2u}) /
        (2 omega^2 e^{-u}), u = (sigma omega)^2, to 1e-15."""
        omega = 1e-5
        rep = asv_generic(model, 1.0, omega, 1.0)
        if model is GAUSSIAN:
            u = omega * omega
            exact = -math.expm1(-2.0 * u) / (2.0 * omega * omega * math.exp(-u))
            assert math.isclose(rep.asv_theta, exact, rel_tol=1e-15)
        C = asv_via_sandwich(model, 0.7 / omega, 1.0, omega, 1.0, 0.0)
        assert math.isclose(C[0, 0], rep.asv_theta, rel_tol=1e-12)
        assert math.isclose(C[1, 1], rep.asv_sigma, rel_tol=1e-12)


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
        expected = 4.0 * 2.25 * (rep.asv_theta + 2.25 * rep.asv_sigma)
        np.testing.assert_allclose(rep.asv_gamma, expected, rtol=1e-14)

    def test_nonpositive_theta_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            asv_generic(GAUSSIAN, 1.0, 0.9, 1.0, 0.0, theta=0.0)

    def test_compose_gamma_formula(self):
        # gamma = 4, sigma = 0.5: prefactor 4 * 4 / 0.25 = 64
        curves = asv_curves(LAPLACE, 0.5, 1.0, 0.25, 1.0)
        asv_t, asv_s = curves["theta"](0.8), curves["sigma"](0.8)
        np.testing.assert_allclose(
            curves["gamma"](0.8), 64.0 * (asv_t + 4.0 * asv_s), rtol=1e-15
        )

    def test_underflowing_sigma_squared_raises(self):
        """sigma^2 underflows to 0 in the gamma curve's prefactor, which
        raised a bare ZeroDivisionError."""
        with pytest.raises(ValueError, match=r"asv_gamma .*sigma=7\.59545573258183e-249"):
            asv_generic(
                CAUCHY, 7.59545573258183e-249, 5.737956565607304e-236, 9.352426153029314e203,
                4.565468525855855e139, theta=1.311161403989803e-115,
            )
        with pytest.raises(ValueError, match="asv_gamma"):
            asv_curves(GAUSSIAN, 1e-200, 1.0, 0.0, 1.0)["gamma"](1.0)

    @pytest.mark.parametrize(
        "model, sigma, omega, P, nv, expected",
        [
            # 2 P overflows: asv_sigma was inf / inf = NaN. Its value at P = 1e300.
            (GAUSSIAN, 1.0, 1.0, 1e308, 1.0, 0.5430806348152438),
            # 2 P dphi^2 overflows while the quotient does not: asv_sigma
            # read 0.0; the sandwich gives 7.590663237167288e-273.
            (LAPLACE, 7.79264434153327e-137, 6.924036987890994e87, 3.514540825745785e285,
             7.812834272813973e83, 7.590663237167291e-273),
        ],
        ids=["two-P-overflows", "denominator-overflows"],
    )
    def test_asv_sigma_past_the_denominator_range(self, model, sigma, omega, P, nv, expected):
        assert asv_generic(model, sigma, omega, P, nv).asv_sigma == expected

    @pytest.mark.parametrize(
        "model, sigma, omega, P, nv",
        [
            # omega^2 overflows, and nv / 2P with it: asv_theta read inf.
            (GAUSSIAN, 1e-155, 1e155, 1e-300, 1e300),
            (GAUSSIAN, 3.4152965063239704e-168, 7.328986571265788e166, 2.4641564391096757e-279,
             5.482561608385198e227),
            # 2 P phi_s^2 is subnormal: asv_sigma was 2.4% off.
            (LAPLACE, 1.7258069063395868e89, 2.944654142383797e-91, 1.1349519945633713e-140,
             1.0753754167487477e-65),
            # omega^2 is subnormal and 2 P omega^2 phi^2 normal: asv_theta was 3.6e-11 off.
            (GAUSSIAN, 1e-3 / 1e-157, 1e-157, 1e300, 1e-300),
        ],
        ids=["omega-squared-overflows", "nv-over-2P-overflows", "subnormal-denominator",
             "subnormal-omega-squared"],
    )
    def test_quotient_out_of_the_direct_range(self, model, sigma, omega, P, nv):
        rep = asv_generic(model, sigma, omega, P, nv)
        exacts = mp_components(model.kind, sigma, omega, P, nv)
        for got, exact in zip((rep.asv_theta, rep.asv_sigma), exacts):
            assert abs(got / exact - 1) <= 1e-11, (got, exact)

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(ALL_MODELS),
        exponents=st.tuples(*[st.floats(-300.0, 300.0)] * 3),
        log_u=st.floats(-3.0, 1.0),
    )
    def test_components_match_mpmath(self, model, exponents, log_u):
        """P, nv and omega log-uniform in 1e+-300 and sigma omega in
        [1e-3, 10]: each component is within 1e-11 relative of its
        60-digit value wherever that value is a normal float. The
        out-of-range quotient read inf for about 4% of such components,
        and was 2.4% off on a few more."""
        P, nv, omega = (10.0**e for e in exponents)
        sigma = 10.0**log_u / omega
        rep = asv_generic(model, sigma, omega, P, nv)
        exacts = mp_components(model.kind, sigma, omega, P, nv)
        for got, exact in zip((rep.asv_theta, rep.asv_sigma), exacts):
            if NORMAL <= exact <= sys.float_info.max:
                assert abs(got / exact - 1) <= 1e-11, (sigma, omega, P, nv, got, exact)

    @pytest.mark.parametrize("model", [GAUSSIAN, LAPLACE], ids=lambda m: m.kind)
    def test_underflowed_numerator_reads_inf(self, model):
        """v_s underflows to 0 at sigma omega = 1e-170 while 2 P omega^2
        phi^2 is normal at P = 1e300: asv_theta read 0.0, a zero variance.
        Its value is about sigma^2 = 1e-20, which the kernels cannot give."""
        rep = asv_generic(model, 1e-10, 1e-160, 1e300)
        assert rep.asv_theta == math.inf

    def test_deep_tail_returns_inf(self):
        """phi underflow far in the tail reports inf, not an exception."""
        rep = asv_generic(GAUSSIAN, 8.0, 6.0, 1.0, 0.0)
        assert math.isinf(rep.asv_theta) and math.isinf(rep.asv_sigma)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(ALL_MODELS),
        mode=st.sampled_from(list(PowerMode)),
        exponents=st.tuples(*[st.floats(-300.0, 300.0)] * 5),
    )
    def test_finite_inf_or_value_error(self, model, mode, exponents):
        """Over log-uniform 1e-300..1e300 operating points every component
        is finite or inf (not estimable here), or asv_generic raises
        ValueError; never NaN, and no RuntimeWarning."""
        sigma, omega, P, nv, theta = (10.0**e for e in exponents)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                rep = asv_generic(model, sigma, omega, P, nv, theta=theta, power_mode=mode)
            except ValueError:
                return
        for value in (rep.asv_theta, rep.asv_sigma, rep.asv_gamma):
            assert value >= 0.0, (sigma, omega, P, nv, theta, rep)  # also fails for NaN

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_omega_past_the_square_range(self, model):
        """omega^2 leaves the float range above ~1.34e154 (asv_generic
        raised OverflowError) and 2 P omega^2 above ~9.5e153 at P = 1
        (asv_theta read 0.0). At sigma = 1 both variances are past the
        float range, inf; where phi = 1, asv_theta * omega^2 = nv / 2P
        across both points."""
        for omega in (2e154, 1e300):
            rep = asv_generic(model, 1.0, omega, 1.0)
            assert math.isinf(rep.asv_theta) and math.isinf(rep.asv_sigma)
        omegas = (9e153, 1e154, 1.4e154, 1e155)
        scaled = [asv_generic(model, 1e-300, w, 1.0, 1e10).asv_theta * w * w for w in omegas]
        np.testing.assert_allclose(scaled, 5e9, rtol=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_components_one_at_a_time(self, model):
        """The curves of asv_curves, which asv_generic and the tuning
        probes evaluate, give the two-kernel components of
        reference_components bit for bit, from omega = 1e-300 to 1e300,
        past the omega^2 range and deep in the tail where phi underflows
        to 0; the gamma curve at theta = sqrt(gamma) sigma, as tuning
        builds it, gives reference_gamma of them, or raises its error."""
        omegas = np.logspace(-300, 300, 61).tolist() + [38.0, 1.4e154, 2e154]
        underflowed = 0
        for sigma in (1e-300, 1e-3, 1.0, 8.0, 1e3):
            for omega in omegas:
                underflowed += model.char_fn(sigma, omega) == 0.0
                for P, nv in ((1.0, 0.0), (2.0, 0.5), (1e-3, 1e10)):
                    asv_t, asv_s = reference_components(model.kind, sigma, omega, P, nv)
                    curves = asv_curves(model, sigma, P, nv)
                    assert [f(omega).hex() for f in curves.values()] == [asv_t.hex(), asv_s.hex()]
                    rep = asv_generic(model, sigma, omega, P, nv)
                    assert (rep.asv_theta.hex(), rep.asv_sigma.hex()) == (asv_t.hex(), asv_s.hex())
                    for gamma in (1e-300, 0.5, 1e300):
                        theta = math.sqrt(gamma) * sigma
                        curve = asv_curves(model, sigma, P, nv, theta)["gamma"]
                        assert gamma_outcome(curve, omega) == gamma_outcome(
                            lambda _: reference_gamma(asv_t, asv_s, theta, sigma), omega
                        )
        assert underflowed

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma": 0.0},
            {"omega": 0.0},
            {"P": 0.0},
            {"P": math.nan},
            {"channel_noise_var": -1.0},
            {"channel_noise_var": math.nan},
            {"P": math.inf},
            {"sigma": math.inf},
            {"omega": math.inf},
            {"channel_noise_var": math.inf},
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
        data = dataclasses.asdict(rep)
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
CLOSED_FORM_DIGEST = "6f706ba7afe8768e3440510dccfc288ddce44faa25ae753ef5c997ab81959871"


class TestClosedForms:
    @pytest.mark.parametrize(
        "kind,which,mode",
        list(CLOSED_FORM_AGREES),
        ids=lambda v: v.value if isinstance(v, PowerMode) else str(v),
    )
    def test_verified_flags_frozen(self, kind, which, mode):
        """Each verified flag, frozen in src, is what the oracle finds: the
        form matches asv_generic (through its gamma curve for gamma) to 1e-9
        relative at every point of a 3 sigma x 20 omega x noise ratio x 3
        gamma grid at P = 1. CLOSED_FORM_AGREES keeps a second copy."""
        model = noise_model(kind)
        ratios = GRID_RATIOS if mode is PowerMode.TOTAL else (0.0,)
        gammas = (0.5, 1.0, 2.0) if which == "gamma" else (1.0,)  # theta, sigma ignore gamma
        agrees, flags = True, set()
        for sigma, omega, nv, gamma in itertools.product(
            GRID_SIGMAS, GRID_OMEGAS.tolist(), ratios, gammas
        ):
            value, verified = asv_closed_form(model, sigma, omega, 1.0, nv, which, mode, gamma=gamma)
            rep = asv_generic(
                model, sigma, omega, 1.0, nv, theta=math.sqrt(gamma) * sigma, power_mode=mode
            )
            expected = getattr(rep, f"asv_{which}")
            agrees = agrees and math.isclose(value, expected, rel_tol=1e-9, abs_tol=0.0)
            flags.add(verified)
        assert flags == {agrees}
        assert agrees is CLOSED_FORM_AGREES[(kind, which, mode)]

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

    def test_values_flags_and_errors_are_pinned(self):
        """sha256 of every closed form's (value, verified) as float.hex, or
        of its ValueError text, over all 18 (family, mode, which) keys at
        P = 2, recorded before the forms moved into one table: values past
        the float range (omega = 38, 746, 1e78), per-sensor forms and a
        missing gamma included."""
        digest = hashlib.sha256()
        for kind, mode, which in itertools.product(MODEL_TOKENS, PowerMode, OMEGA_TARGETS):
            model = noise_model(kind)
            for sigma, omega, nv, gamma in itertools.product(
                (0.5, 1.0, 2.0), (0.3, 1.1, 38.0, 746.0, 1e78), (0.0, 0.5, 1e10),
                (None, 0.5, 2.0),
            ):
                try:
                    value, verified = asv_closed_form(
                        model, sigma, omega, 2.0, nv, which, mode, gamma=gamma
                    )
                    out = f"{value.hex()} {verified}"
                except ValueError as exc:
                    out = f"ValueError: {exc}"
                line = f"{kind} {mode.value} {which} {sigma!r} {omega!r} {nv!r} {gamma!r} {out}\n"
                digest.update(line.encode())
        assert digest.hexdigest() == CLOSED_FORM_DIGEST

    def test_gamma_requires_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            asv_closed_form(GAUSSIAN, 1.0, 0.8, 1.0, 0.5, "gamma")

    def test_which_validation(self):
        with pytest.raises(ValueError, match="which"):
            asv_closed_form(GAUSSIAN, 1.0, 0.8, 1.0, 0.5, "snr")

    def test_unhashable_which_is_a_value_error(self):
        """The table lookup hashes which; a list must not escape as a
        TypeError."""
        with pytest.raises(ValueError, match=r"which=\['theta'\]"):
            asv_closed_form(GAUSSIAN, 1.0, 0.8, 1.0, 0.5, ["theta"])

    @pytest.mark.parametrize(
        "kind, which, mode, sigma, omega",
        [
            ("gaussian", "theta", PowerMode.TOTAL, 1.0, 38.0),  # was ZeroDivisionError
            ("gaussian", "gamma", PowerMode.PER_SENSOR, 1.0, 38.0),
            ("cauchy", "theta", PowerMode.TOTAL, 0.5, 746.0),  # was ZeroDivisionError
            ("cauchy", "sigma", PowerMode.TOTAL, 1.0, 372.0),  # was (inf, True)
            ("cauchy", "gamma", PowerMode.PER_SENSOR, 1.0, 372.0),
            ("laplace", "sigma", PowerMode.TOTAL, 1.0, 1e78),  # was OverflowError
            ("laplace", "theta", PowerMode.PER_SENSOR, 1.0, 1e78),
        ],
        ids=lambda v: v.value if isinstance(v, PowerMode) else str(v),
    )
    def test_past_the_float_range_raises(self, kind, which, mode, sigma, omega):
        """A closed form is finite or raises ValueError naming the point."""
        with pytest.raises(ValueError, match=re.escape(f"sigma={sigma!r}, omega={omega!r}")):
            asv_closed_form(noise_model(kind), sigma, omega, 1.0, 1.0, which, mode, gamma=1.0)

    @settings(WIDE_SETTINGS, max_examples=500)
    @given(
        model=st.sampled_from(ALL_MODELS),
        mode=st.sampled_from(list(PowerMode)),
        which=st.sampled_from(OMEGA_TARGETS),
        point=st.tuples(*[WIDE] * 5),
    )
    def test_wide_inputs_finite_or_raise(self, capfd, model, mode, which, point):
        """Over log-uniform 1e-300..1e300 inputs and 0, each closed form is
        finite with its frozen flag, or the call raises ValueError; never
        NaN, a RuntimeWarning or output on stdout."""
        sigma, omega, P, nv, gamma = point
        try:
            value, verified = asv_closed_form(model, sigma, omega, P, nv, which, mode, gamma=gamma)
        except ValueError:
            pass
        else:
            assert math.isfinite(value), (point, value)
            assert verified is CLOSED_FORM_AGREES[(model.kind, which, mode)]
        assert capfd.readouterr().out == ""


class TestDisagreementLedger:
    """How each unverified closed form relates to the generic route (the
    ledger in README.md)."""

    @pytest.mark.parametrize("nv", [0.0, 0.5, 2.0])
    def test_gaussian_total_gamma_location_term(self, nv):
        """The bundled Gaussian total-budget gamma form is 2 g (L + g S) /
        (P w^4 s^4 e^{-u}) with location term L = w^2 (P + nv - 2 P e^{-2u}).
        The delta method on asv_generic (4 g / s^2 (asv_theta + g
        asv_sigma)) has the same scale term g S but the location term
        w^2 s^2 (P + nv - P e^{-2u}): the bundled one drops the s^2 factor
        and doubles the P e^{-2u} term. At s = 1 the two differ by
        -2 g w^2 P e^{-2u} / (P w^4 e^{-u}) alone."""
        P = 1.5
        for s, w, g in itertools.product((0.5, 1.0, 2.0), (0.3, 0.9, 1.7), (0.1, 1.0, 10.0)):
            u = (w * s) ** 2
            den = P * w**4 * s**4 * math.exp(-u)
            bundled, verified = asv_closed_form(GAUSSIAN, s, w, P, nv, "gamma", gamma=g)
            rep = asv_generic(GAUSSIAN, s, w, P, nv, theta=math.sqrt(g) * s)
            location = 4.0 * g / s**2 * rep.asv_theta
            scale = rep.asv_gamma - location
            assert not verified
            assert math.isclose(
                location, 2.0 * g * w**2 * s**2 * (P + nv - P * math.exp(-2.0 * u)) / den,
                rel_tol=1e-12,
            )
            bundled_location = 2.0 * g * w**2 * (P + nv - 2.0 * P * math.exp(-2.0 * u)) / den
            assert abs(bundled - (bundled_location + scale)) <= 1e-12 * (
                abs(bundled_location) + scale
            )
            if s == 1.0:
                shift = -2.0 * g * w**2 * P * math.exp(-2.0 * u) / den
                assert math.isclose(bundled - rep.asv_gamma, shift, rel_tol=1e-9)

    @pytest.mark.parametrize("r", [0.1, 0.3, 1.0, 3.0, 10.0])
    def test_gaussian_scale_tuning_display(self, r):
        """The printed Gaussian scale tuning equation in beta = (omega
        sigma)^2, b ((r+1) e^{2b} - 1) - G with G = (r+1) e^{2b} - 2 e^b + 1,
        has G once; the stationarity condition of asv_sigma has it twice.
        G = r e^{2b} + (e^b - 1)^2 > 0, so at the printed root the direct
        condition reads -G < 0 and the printed root lies below the direct
        one. The direct root is optimal_omega's minimizer to 1e-7 (about
        1e-8 measured); the printed one is 30-48% low."""
        printed = tuning._gaussian_sigma_equation(r)
        direct = tuning._gaussian_sigma_equation_fixed(r)
        for b in np.linspace(0.01, 5.0, 50).tolist():
            e1, e2 = math.exp(b), math.exp(2.0 * b)
            g = (r + 1.0) * e2 - 2.0 * e1 + 1.0
            assert math.isclose(g, r * e2 + (e1 - 1.0) ** 2, rel_tol=1e-12)
            assert math.isclose(printed(b, e1, e2) - direct(b, e1, e2), g, rel_tol=1e-9)
        for sigma in (0.5, 1.0, 2.0):
            an = tuning.analytic_omega(GAUSSIAN, sigma, 1.0, r, "sigma")
            numeric = an.details["numeric_omega"]
            assert not an.agrees_with_numeric and an.details["numeric_flag"] == "interior"
            assert math.isclose(an.details["stationarity_root_omega"], numeric, rel_tol=1e-7)
            assert 0.30 < 1.0 - an.value / numeric < 0.48

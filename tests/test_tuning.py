"""Tests for modulation-frequency selection.

Frozen anchors were computed independently at 40-digit precision from
the defining minimization problems (Lambert-W expressions and
polynomial/transcendental stationarity conditions), then rounded to
float. Golden-section outputs are compared at 1e-6: near a quadratic
minimum the objective is flat to machine precision within ~1e-8
relative of the true minimizer, so tighter demands would test noise.
"""

import dataclasses
import decimal
import hashlib
import itertools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmphase import asymptotic, noise, numkit, tuning
from cmphase.asymptotic import asv_curves
from cmphase.network import PowerMode
from cmphase.noise import CAUCHY, GAUSSIAN, LAPLACE, MODEL_TOKENS, NoiseModel
from cmphase.numkit import ConvergenceError, find_root_bracketed
from cmphase.tuning import (
    OMEGA_TARGETS,
    AnalyticOmega,
    analytic_omega,
    omega_optima,
    optimal_omega,
    rule_omega,
)
from conftest import ALL_MODELS, clear_tuning_caches, resolve_omega
from test_numkit import WIDE, WIDE_SETTINGS, sign_change_brackets

TOTAL = PowerMode.TOTAL
PER_SENSOR = PowerMode.PER_SENSOR

# 40-dps anchors, sigma = 1, P = 1.
CAUCHY_TPC_R1 = 0.9207028302184803  # (2 + W0(-1/e^2)) / 2
CAUCHY_PSPC = 0.7968121300200200  # (2 + W0(-2/e^2)) / 2
LAPLACE_PSPC_SIGMA = 0.7274688944908646  # sqrt((3 sqrt(33) - 13) / 8)
LAPLACE_PSPC_GAMMA1 = 0.8216414641502834  # numeric minimizer at gamma = 1
LAPLACE_PSPC_GAMMA1_PRINTED = 0.6123724356957945  # sqrt(6)/4 radical
GAUSS_TPC_R1_THETA = 0.9081137742012796  # sqrt of transcendental root
GAUSS_TPC_R1_SIGMA = 1.3019622
LAPLACE_TPC_R1_THETA = 1.2769597038217232  # true minimizer
LAPLACE_TPC_R1_THETA_CARDANO = 0.9029468658743058  # as-printed mapping
ANALYTIC_DIGEST = "2f7d6652b776bbb0e6f7fa9126ba3eeb81ab0b2a7c647fdfc0e2182b52171e0a"
NOTE_DIGEST = "af9a3fc8bb8fa4aa9744edfcd04d37bf037a574bf416f53d3966d3b1bc801cc8"


def numeric(model, mode, nv, target, gamma=None, sigma=1.0):
    return optimal_omega(model, sigma, 1.0, nv, target, power_mode=mode, gamma=gamma)


class TestOptimalOmega:
    def test_cauchy_total_power_all_targets_coincide(self):
        """The Cauchy curves share one minimizer across targets."""
        for target, gamma in (("theta", None), ("sigma", None), ("gamma", 1.7)):
            w, flag = numeric(CAUCHY, TOTAL, 1.0, target, gamma)
            assert flag == "interior"
            np.testing.assert_allclose(w, CAUCHY_TPC_R1, rtol=1e-6)

    def test_cauchy_per_sensor(self):
        w, flag = numeric(CAUCHY, PER_SENSOR, 1.0, "theta")
        assert flag == "interior"
        np.testing.assert_allclose(w, CAUCHY_PSPC, rtol=1e-6)

    def test_laplace_per_sensor(self):
        w_t, _ = numeric(LAPLACE, PER_SENSOR, 0.0, "theta")
        np.testing.assert_allclose(w_t, 1.0, rtol=1e-6)
        w_s, _ = numeric(LAPLACE, PER_SENSOR, 0.0, "sigma")
        np.testing.assert_allclose(w_s, LAPLACE_PSPC_SIGMA, rtol=1e-6)
        w_g, _ = numeric(LAPLACE, PER_SENSOR, 0.0, "gamma", 1.0)
        np.testing.assert_allclose(w_g, LAPLACE_PSPC_GAMMA1, rtol=1e-6)

    def test_gaussian_total_power(self):
        w, flag = numeric(GAUSSIAN, TOTAL, 1.0, "theta")
        assert flag == "interior"
        np.testing.assert_allclose(w, GAUSS_TPC_R1_THETA, rtol=1e-6)

    def test_laplace_total_power(self):
        w, flag = numeric(LAPLACE, TOTAL, 1.0, "theta")
        assert flag == "interior"
        np.testing.assert_allclose(w, LAPLACE_TPC_R1_THETA, rtol=1e-6)

    def test_anchors_are_local_minima(self):
        """Each frozen interior anchor beats its neighborhood on the
        authoritative curve (guards the anchor, not just the search)."""
        from cmphase.asymptotic import asv_generic

        cases = [
            (CAUCHY, 1.0, "asv_theta", CAUCHY_TPC_R1),
            (GAUSSIAN, 1.0, "asv_theta", GAUSS_TPC_R1_THETA),
            (LAPLACE, 0.0, "asv_theta", 1.0),
        ]
        for model, nv, attr, w_star in cases:
            mode = TOTAL if nv > 0.0 else PER_SENSOR
            at = getattr(asv_generic(model, 1.0, w_star, 1.0, nv, power_mode=mode), attr)
            for w in (0.9 * w_star, 1.1 * w_star):
                near = getattr(asv_generic(model, 1.0, w, 1.0, nv, power_mode=mode), attr)
                assert at < near

    def test_gaussian_per_sensor_hits_lower_boundary(self):
        """Clean-channel Gaussian curves increase from omega -> 0, so the
        infimum is the boundary and must be flagged, not reported as an
        interior point."""
        for target in ("theta", "sigma"):
            w, flag = numeric(GAUSSIAN, PER_SENSOR, 1.0, target)
            assert flag == "lower"
            assert w <= 1e-3

    def test_sigma_scaling_law(self):
        """omega* scales exactly as 1/sigma (the curves depend on omega
        only through u = sigma * omega up to an omega-free prefactor)."""
        w1, _ = numeric(CAUCHY, TOTAL, 1.0, "theta", sigma=1.0)
        w2, _ = numeric(CAUCHY, TOTAL, 1.0, "theta", sigma=2.0)
        np.testing.assert_allclose(w2, w1 / 2.0, rtol=1e-6)

    def test_channel_noise_shifts_optimum_up(self):
        """More channel noise pushes the Cauchy optimum toward larger
        omega (stronger signal curvature is worth more)."""
        w0, _ = numeric(CAUCHY, TOTAL, 0.5, "theta")
        w1, _ = numeric(CAUCHY, TOTAL, 2.0, "theta")
        assert w1 > w0 > CAUCHY_PSPC

    def test_validation(self):
        with pytest.raises(ValueError, match="target"):
            numeric(CAUCHY, TOTAL, 1.0, "phase")
        with pytest.raises(ValueError, match="gamma"):
            numeric(CAUCHY, TOTAL, 1.0, "gamma")
        with pytest.raises(ValueError):
            optimal_omega(CAUCHY, 1.0, 1.0, 1.0, "theta", omega_min=1.0, omega_max=0.5)
        with pytest.raises(ValueError):
            optimal_omega(CAUCHY, -1.0, 1.0, 1.0, "theta")

    def test_omega_optima_bundle(self):
        opt = omega_optima(CAUCHY, 1.0, 1.0, 1.0, gamma=1.0)
        np.testing.assert_allclose(
            [opt.omega_theta, opt.omega_sigma, opt.omega_gamma],
            [CAUCHY_TPC_R1] * 3,
            rtol=1e-6,
        )
        assert opt.flags == {"theta": "interior", "sigma": "interior", "gamma": "interior"}
        data = dataclasses.asdict(opt)
        assert set(data) == {"omega_theta", "omega_sigma", "omega_gamma", "flags", "method"}
        assert data["method"] == "golden-section"


    def test_curve_with_no_finite_probe_raises(self):
        """On [1e-4, 1e20] the theta curve is finite only below ~40, far
        narrower than the final bracket (4 ulps of 1e20, 65536): every
        probe is inf, and the search used to return 21180.05 flagged
        "lower"."""
        with pytest.raises(ConvergenceError, match=r"\[0\.0001, 1e\+20\]"):
            optimal_omega(GAUSSIAN, 1.0, 1.0, 1.0, "theta", omega_max=1e20)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from(ALL_MODELS),
        mode=st.sampled_from([TOTAL, PER_SENSOR]),
        target=st.sampled_from(OMEGA_TARGETS),
        log_omega_max=st.floats(0.0, 300.0),
    )
    def test_finite_or_raises(self, model, mode, target, log_omega_max):
        """With omega_max log-uniform over 1..1e300 the optimum is finite
        at a finite curve value, or the search raises ConvergenceError."""
        omega_max = 10.0**log_omega_max
        try:
            w, _ = optimal_omega(
                model, 1.0, 1.0, 1.0, target, power_mode=mode, gamma=2.0, omega_max=omega_max
            )
        except ConvergenceError:
            return
        assert 1e-4 <= w <= omega_max
        nv = 1.0 if mode is TOTAL else 0.0
        curve = asv_curves(model, 1.0, 1.0, nv, math.sqrt(2.0))[target]
        assert math.isfinite(curve(w))


class TestTargetCurves:
    @pytest.mark.parametrize(
        "target, kernels",
        [("theta", ["phi", "v_s"]), ("sigma", ["phi_s", "v_c"])],
    )
    def test_one_probe_calls_two_kernels(self, target, kernels):
        """A probe calls two of the model's kernels, once each."""
        calls = []

        def counted(name):
            kernel = getattr(GAUSSIAN, name)

            def call(*args):
                calls.append(name)
                return kernel(*args)

            return call

        names = ("phi", "phi_s", "v_c", "v_s")
        counting = dataclasses.replace(GAUSSIAN, **{name: counted(name) for name in names})
        curve = asv_curves(counting, 1.0, 1.0, 0.5)[target]
        curve(0.9)
        assert sorted(calls) == kernels

    def test_one_probe_calls_no_model_method(self, monkeypatch):
        """A probe calls the model's kernels alone: no NoiseModel
        method (its checks included) and no real_number, at any target."""
        calls = []

        def refuse(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"a probe called {name}")

            return call

        curves = [
            asv_curves(model, 1.0, 1.0, nv, math.sqrt(2.0))[target]
            for model in ALL_MODELS
            for nv in (0.0, 0.5)
            for target in OMEGA_TARGETS
        ]
        for name in ("char_fn", "char_fn_dsigma", "phasor_cos_var", "phasor_sin_var"):
            monkeypatch.setattr(NoiseModel, name, refuse(name))
        for module in (noise, numkit, tuning, asymptotic):
            monkeypatch.setattr(module, "real_number", refuse("real_number"))
        for omega in (1e-4, 0.9, 6.0, 1e200):
            for curve in curves:
                assert curve(omega) > 0.0
        assert calls == []


def _lazy_scan_root(f):
    """The scalar route _scan_root must reproduce: the first bracket of a
    lazy sign_change_brackets scan of f, bisected."""
    for a, b in sign_change_brackets(f, tuning._BETA_LO, tuning._BETA_HI, tuning._SCAN_STEPS):
        return find_root_bracketed(f, a, b, tol=1e-13)
    return None


# The Gaussian tuning equations as scalar functions of beta, written with
# math.exp inside, as the lazy scan evaluated them.
_SCALAR_GAUSSIAN_EQUATIONS = {
    "theta": lambda r, g: lambda b: (r + 1.0) * (b - 1.0) * math.exp(2.0 * b) + (b + 1.0),
    "sigma": lambda r, g: lambda b: (
        b * ((r + 1.0) * math.exp(2.0 * b) - 1.0) - (r + 1.0) * math.exp(2.0 * b)
        + 2.0 * math.exp(b) - 1.0
    ),
    "sigma_fixed": lambda r, g: lambda b: (
        b * ((r + 1.0) * math.exp(2.0 * b) - 1.0)
        - 2.0 * ((r + 1.0) * math.exp(2.0 * b) - 2.0 * math.exp(b) + 1.0)
    ),
    "gamma": lambda r, g: lambda b: (
        b * (b * ((r + 1.0) * math.exp(2.0 * b) + 1.0) - (r + 1.0) * math.exp(2.0 * b) + 1.0)
        + g * (
            b * ((r + 1.0) * math.exp(2.0 * b) - 1.0)
            - 2.0 * ((r + 1.0) * math.exp(2.0 * b) - 2.0 * math.exp(b) + 1.0)
        )
    ),
}

_ARRAY_GAUSSIAN_EQUATIONS = {
    "theta": lambda r, g: tuning._gaussian_theta_equation(r),
    "sigma": lambda r, g: tuning._gaussian_sigma_equation(r),
    "sigma_fixed": lambda r, g: tuning._gaussian_sigma_equation_fixed(r),
    "gamma": lambda r, g: tuning._gaussian_gamma_equation(r, g),
}


def _root_outcome(route, *args):
    """The root's bit pattern, None, or the type and message of the error."""
    try:
        root = route(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None if root is None else root.hex()


class TestGaussianScan:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        r=st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(lambda e: 10.0**e)),
        gamma=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    )
    def test_matches_the_lazy_scalar_scan(self, r, gamma):
        """Bit for bit the scalar route for all four equations: the first
        bracket of the lazy scan over 2000 steps, bisected, or None,
        including any error it raises."""
        for name, scalar in _SCALAR_GAUSSIAN_EQUATIONS.items():
            expected = _root_outcome(_lazy_scan_root, scalar(r, gamma))
            got = _root_outcome(tuning._scan_root, _ARRAY_GAUSSIAN_EQUATIONS[name](r, gamma))
            assert got == expected, name

    def test_both_outcomes_are_reached(self):
        """r = 1 has an interior root for every equation; per-sensor power
        (r = 0) has none for the location target."""
        for make in _ARRAY_GAUSSIAN_EQUATIONS.values():
            assert tuning._scan_root(make(1.0, 2.0)) is not None
        assert tuning._scan_root(tuning._gaussian_theta_equation(0.0)) is None

    def test_tables_are_the_scalar_grid_and_exponentials(self):
        lo, hi, n = tuning._BETA_LO, tuning._BETA_HI, tuning._SCAN_STEPS
        grid = [lo + (hi - lo) * i / n for i in range(n + 1)]
        b, e1, e2 = tuning._scan_tables()
        assert b.tolist() == grid
        assert e1.tolist() == [math.exp(x) for x in grid]
        assert e2.tolist() == [math.exp(2.0 * x) for x in grid]


class TestGammaBetweenness:
    @pytest.mark.parametrize(
        "model,mode,nv,gamma",
        [
            (LAPLACE, PER_SENSOR, 0.0, 0.5),
            (LAPLACE, PER_SENSOR, 0.0, 1.0),
            (LAPLACE, PER_SENSOR, 0.0, 2.0),
            (GAUSSIAN, TOTAL, 1.0, 0.5),
            (GAUSSIAN, TOTAL, 1.0, 2.0),
            (CAUCHY, TOTAL, 0.5, 1.0),
        ],
        ids=lambda v: getattr(v, "kind", None) or getattr(v, "value", None) or str(v),
    )
    def test_gamma_optimum_between_component_optima(self, model, mode, nv, gamma):
        """The gamma curve is a positive combination of the location and
        scale curves, so its minimizer cannot escape their interval."""
        w_t, f_t = numeric(model, mode, nv, "theta")
        w_s, f_s = numeric(model, mode, nv, "sigma")
        w_g, f_g = numeric(model, mode, nv, "gamma", gamma)
        assert f_t == f_s == f_g == "interior"
        lo, hi = min(w_t, w_s), max(w_t, w_s)
        assert lo - 1e-6 <= w_g <= hi + 1e-6


class TestAnalyticOmega:
    def test_cauchy_lambert_w_closed_form(self):
        for mode, nv, expected in ((TOTAL, 1.0, CAUCHY_TPC_R1), (PER_SENSOR, 1.0, CAUCHY_PSPC)):
            for target in ("theta", "sigma", "gamma"):
                a = analytic_omega(CAUCHY, 1.0, 1.0, nv, target, power_mode=mode, gamma=1.0)
                np.testing.assert_allclose(a.value, expected, rtol=1e-9)
                assert a.agrees_with_numeric
                assert "Lambert" in a.note

    def test_cauchy_sigma_scaling(self):
        a1 = analytic_omega(CAUCHY, 1.0, 1.0, 1.0, "theta")
        a2 = analytic_omega(CAUCHY, 2.0, 1.0, 1.0, "theta")
        np.testing.assert_allclose(a2.value, a1.value / 2.0, rtol=1e-12)

    def test_gaussian_total_theta_agrees(self):
        a = analytic_omega(GAUSSIAN, 1.0, 1.0, 1.0, "theta")
        np.testing.assert_allclose(a.value, GAUSS_TPC_R1_THETA, rtol=1e-9)
        np.testing.assert_allclose(a.details["beta"], GAUSS_TPC_R1_THETA**2, rtol=1e-9)
        assert a.agrees_with_numeric

    def test_gaussian_total_sigma_disagrees_with_details(self):
        """The bundled scale display's root does not minimize the scale
        curve; the direct stationarity root (carried in details) does."""
        a = analytic_omega(GAUSSIAN, 1.0, 1.0, 1.0, "sigma")
        assert not a.agrees_with_numeric
        np.testing.assert_allclose(a.details["beta"], 0.7162664813932516, rtol=1e-9)
        np.testing.assert_allclose(
            a.details["stationarity_root_beta"], 1.6951057682620228, rtol=1e-9
        )
        np.testing.assert_allclose(
            a.details["stationarity_root_omega"],
            a.details["numeric_omega"],
            rtol=1e-6,
        )
        assert "not the curve minimizer" in a.note

    def test_gaussian_total_gamma_agrees(self):
        a = analytic_omega(GAUSSIAN, 1.0, 1.0, 1.0, "gamma", gamma=1.0)
        assert a.agrees_with_numeric
        np.testing.assert_allclose(a.value, a.details["numeric_omega"], rtol=1e-4)

    def test_gaussian_per_sensor_no_root(self):
        """Clean-channel Gaussian equations have no root in range; the
        verdict must recognize the numeric boundary infimum as agreement."""
        for target in ("theta", "sigma", "gamma"):
            a = analytic_omega(GAUSSIAN, 1.0, 1.0, 0.7, target, power_mode=PER_SENSOR, gamma=1.0)
            assert a.value is None
            assert a.agrees_with_numeric
            assert a.details["numeric_flag"] == "lower"
            assert "lower omega boundary" in a.note

    def test_laplace_total_theta_convention_mismatch(self):
        """The Cardano beta is exactly half the squared numeric minimizer
        (a beta vs beta/2 convention slip in the printed
        omega = sqrt(beta)/sigma mapping), so the verdict is negative."""
        a = analytic_omega(LAPLACE, 1.0, 1.0, 1.0, "theta")
        np.testing.assert_allclose(a.value, LAPLACE_TPC_R1_THETA_CARDANO, rtol=1e-12)
        assert not a.agrees_with_numeric
        np.testing.assert_allclose(a.details["numeric_omega"], LAPLACE_TPC_R1_THETA, rtol=1e-6)
        np.testing.assert_allclose(
            2.0 * a.details["beta"], a.details["numeric_omega"] ** 2, rtol=1e-6
        )

    def test_laplace_total_sigma_quintic(self):
        a = analytic_omega(LAPLACE, 1.0, 1.0, 1.0, "sigma")
        assert not a.agrees_with_numeric
        roots = a.details["beta_roots"]
        assert roots and all(b > 0.0 for b in roots)
        # the reported omega comes from one of the quintic roots
        assert any(abs(a.value - math.sqrt(b)) < 1e-9 for b in roots)

    def test_laplace_total_gamma_quintic(self):
        a = analytic_omega(LAPLACE, 1.0, 1.0, 1.0, "gamma", gamma=1.0)
        assert not a.agrees_with_numeric
        assert a.details["beta_roots"]

    def test_laplace_per_sensor_values(self):
        a_t = analytic_omega(LAPLACE, 1.0, 1.0, 0.0, "theta", power_mode=PER_SENSOR)
        np.testing.assert_allclose(a_t.value, 1.0, rtol=1e-12)
        assert a_t.agrees_with_numeric
        a_s = analytic_omega(LAPLACE, 1.0, 1.0, 0.0, "sigma", power_mode=PER_SENSOR)
        np.testing.assert_allclose(a_s.value, LAPLACE_PSPC_SIGMA, rtol=1e-12)
        assert a_s.agrees_with_numeric

    def test_laplace_per_sensor_gamma_radical_out_of_range(self):
        """The printed gamma radical lands below both component optima,
        violating the betweenness the true minimizer must satisfy; the
        numeric route pins the actual optimum and the verdict is False."""
        a = analytic_omega(LAPLACE, 1.0, 1.0, 0.0, "gamma", power_mode=PER_SENSOR, gamma=1.0)
        np.testing.assert_allclose(a.value, LAPLACE_PSPC_GAMMA1_PRINTED, rtol=1e-12)
        assert not a.agrees_with_numeric
        np.testing.assert_allclose(a.details["numeric_omega"], LAPLACE_PSPC_GAMMA1, rtol=1e-6)
        assert a.value < LAPLACE_PSPC_SIGMA < a.details["numeric_omega"] < 1.0

    def test_laplace_per_sensor_gamma_radicand_cancels(self):
        """-13 g - 16 + sqrt((9 g + 16)(33 g + 16)) cancels to 0 at
        g = 1e-16, and the radical read omega = 0; the cancellation-free
        form gives the g -> 0 limit sqrt(1/2) / sigma."""
        a = analytic_omega(LAPLACE, 1.0, 1.0, 0.0, "gamma", power_mode=PER_SENSOR, gamma=1e-16)
        assert a.value == math.sqrt(0.5)

    def test_laplace_per_sensor_gamma_quotient_underflow(self):
        """4 sigma sqrt(g) underflows to 0 here, and analytic_omega raised a
        bare ZeroDivisionError. The closed form now takes the
        cancellation-free route; the numeric route's gamma curve raises the
        documented ValueError, as theta = sqrt(g) sigma underflows."""
        sigma, g = 3.0629478524513262e-226, 3.701996232805073e-293
        equation = tuning._EQUATIONS["laplace", PER_SENSOR, "gamma"]
        value, _, _ = equation(sigma, 1.0, 0.0, 0.0, g, None)
        np.testing.assert_allclose(value * sigma, math.sqrt(0.5), rtol=1e-15)
        with pytest.raises(ValueError, match="asv_gamma is out of floating-point range"):
            analytic_omega(LAPLACE, sigma, 1.0, 0.0, "gamma", power_mode=PER_SENSOR, gamma=g)

    @pytest.mark.parametrize("exponent", range(9, 16))
    @pytest.mark.parametrize("sigma", [1.0, 0.3])
    def test_laplace_per_sensor_gamma_small_snr_matches_decimal(self, sigma, exponent):
        """At g = 1e-9..1e-15 the printed radical's radicand has cancelled
        (4e-5 relative off at 1e-12, 6% at 1e-15); the value is within 2
        ulps of the radical evaluated in 50-digit decimal arithmetic."""
        g = 10.0**-exponent
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            d, s = decimal.Decimal(g), decimal.Decimal(sigma)
            inner = ((9 * d + 16) * (33 * d + 16)).sqrt()
            expected = float((inner - 13 * d - 16).sqrt() / (4 * s * d.sqrt()))
        value, _, _ = tuning._EQUATIONS["laplace", PER_SENSOR, "gamma"](
            sigma, 1.0, 0.0, 0.0, g, None
        )
        assert abs(value - expected) <= 2.0 * math.ulp(expected), (value, expected)

    @pytest.mark.parametrize("g", [1e153, 1e200, 1e300, 1e307, sys.float_info.max])
    @pytest.mark.parametrize("sigma", [1.0, 0.3])
    def test_laplace_per_sensor_gamma_large_snr(self, sigma, g):
        """Above g = 7.8e152 the radical's (9 g + 16)(33 g + 16) overflows,
        and analytic_omega raised "tuning equation overflows" (at g =
        1e300 too); the value, about 0.51440 / sigma, is within 2 ulps of
        the radical evaluated in 50-digit decimal arithmetic, up to the
        largest float, where 33 g and 8 (g + 2) overflow too."""
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            d, s = decimal.Decimal(g), decimal.Decimal(sigma)
            inner = ((9 * d + 16) * (33 * d + 16)).sqrt()
            expected = float((inner - 13 * d - 16).sqrt() / (4 * s * d.sqrt()))
        value, _, _ = tuning._EQUATIONS["laplace", PER_SENSOR, "gamma"](
            sigma, 1.0, 0.0, 0.0, g, None
        )
        assert abs(value - expected) <= 2.0 * math.ulp(expected), (value, expected)
        assert abs(value * sigma - 0.51440) < 1e-5

    def test_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            analytic_omega(LAPLACE, 1.0, 1.0, 1.0, "gamma")
        with pytest.raises(ValueError, match="target"):
            analytic_omega(LAPLACE, 1.0, 1.0, 1.0, "snr")

    @pytest.mark.parametrize(
        "nv, target, mode, gamma",
        [
            (1e100, "theta", TOTAL, None),  # the Cardano form gave value inf
            (1e103, "theta", TOTAL, None),  # r**3 raised OverflowError
        ],
        ids=str,
    )
    def test_past_the_float_range_raises(self, nv, target, mode, gamma):
        """A closed form is finite, None or a ValueError naming the point."""
        with pytest.raises(ValueError, match=f"laplace {target} tuning equation overflows"):
            analytic_omega(LAPLACE, 1.0, 1.0, nv, target, power_mode=mode, gamma=gamma)

    def test_tables_hold_every_key(self):
        """Both closed-form tables hold exactly one entry per family, power
        mode and target, so no family falls through to another's."""
        keys = set(itertools.product(MODEL_TOKENS, PowerMode, OMEGA_TARGETS))
        assert set(tuning._EQUATIONS) == keys
        assert set(asymptotic._CLOSED_FORMS) == keys

    def test_unknown_family_raises(self):
        """A family with no entry raises ValueError naming it from both
        tables; it used to get Cauchy's variance forms and Laplace's tuning
        equations."""
        model = dataclasses.replace(GAUSSIAN, kind="students-t")
        with pytest.raises(ValueError, match="'students-t' family"):
            asymptotic.asv_closed_form(model, 1.0, 0.8, 1.0, 0.5, "theta")
        with pytest.raises(ValueError, match="'students-t' family"):
            analytic_omega(model, 1.0, 1.0, 1.0, "theta")

    def test_numeric_route_takes_omega_min(self):
        """details carry optimal_omega's result on [omega_min, omega_max]."""
        for omega_min in (1e-4, 0.5, 1.2):
            a = analytic_omega(GAUSSIAN, 1.0, 1.0, 1.0, "theta", omega_min=omega_min)
            w, flag = optimal_omega(GAUSSIAN, 1.0, 1.0, 1.0, "theta", omega_min=omega_min)
            assert (a.details["numeric_omega"], a.details["numeric_flag"]) == (w, flag)
        assert flag == "lower"

    def test_result_type(self):
        a = analytic_omega(CAUCHY, 1.0, 1.0, 1.0, "theta")
        assert isinstance(a, AnalyticOmega)
        assert {"numeric_omega", "numeric_flag"} <= a.details.keys()

    def test_results_are_pinned(self):
        """sha256 of every result's (value, verdict, details) over the
        three families, four budgets, three targets, three SNRs and three
        scales, recorded before the polynomial scan was vectorized: the
        quintic roots and everything derived from them keep their bits."""
        digest = hashlib.sha256()
        for model in ALL_MODELS:
            for mode, nv in ((TOTAL, 0.5), (TOTAL, 1.0), (TOTAL, 2.0), (PER_SENSOR, 0.0)):
                for target in ("theta", "sigma", "gamma"):
                    for gamma in (0.1, 1.0, 10.0):
                        for sigma in (0.5, 1.0, 2.0):
                            a = analytic_omega(
                                model, sigma, 1.0, nv, target, power_mode=mode, gamma=gamma
                            )
                            line = repr((a.value, a.agrees_with_numeric, a.details)) + "\n"
                            digest.update(line.encode())
        assert digest.hexdigest() == ANALYTIC_DIGEST

    def test_notes_are_pinned(self):
        """sha256 of every result's note over test_results_are_pinned's
        grid, which ANALYTIC_DIGEST leaves out, recorded before the
        equations moved into one table."""
        digest = hashlib.sha256()
        for model in ALL_MODELS:
            for mode, nv in ((TOTAL, 0.5), (TOTAL, 1.0), (TOTAL, 2.0), (PER_SENSOR, 0.0)):
                for target in ("theta", "sigma", "gamma"):
                    for gamma in (0.1, 1.0, 10.0):
                        for sigma in (0.5, 1.0, 2.0):
                            a = analytic_omega(
                                model, sigma, 1.0, nv, target, power_mode=mode, gamma=gamma
                            )
                            line = f"{model.kind} {mode.value} {nv!r} {target} {gamma!r} "
                            digest.update(f"{line}{sigma!r} {a.note}\n".encode())
        assert digest.hexdigest() == NOTE_DIGEST

    @pytest.mark.parametrize("mode", [TOTAL, PER_SENSOR], ids=lambda m: m.value)
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_float32_gamma_gives_the_float_bits(self, model, mode):
        """The closed forms take the checked gamma: given the float32 one,
        the Laplace per-sensor form ran in float32 (0.68928296 against
        0.68928277) and said nothing."""
        gamma = np.float32(0.1)
        single = analytic_omega(model, 1.0, 1.0, 0.5, "gamma", power_mode=mode, gamma=gamma)
        clear_tuning_caches()  # a kept result would answer the float call
        double = analytic_omega(
            model, 1.0, 1.0, 0.5, "gamma", power_mode=mode, gamma=float(gamma)
        )
        assert repr(dataclasses.astuple(single)) == repr(dataclasses.astuple(double))


class TestResolveOmega:
    """How rule_omega turns the numeric optimum into the rule's omega."""

    def test_interior_passthrough(self):
        w, notes = rule_omega("auto:theta", CAUCHY, 1.0, 1.0, 1.0, TOTAL, None, 2.0 * math.pi)
        assert notes["omega_substituted"] is False
        assert (w, "interior") == optimal_omega(CAUCHY, 1.0, 1.0, 1.0, "theta")
        np.testing.assert_allclose(w, CAUCHY_TPC_R1, rtol=1e-6)

    def test_boundary_substitution(self):
        w, notes = rule_omega(
            "auto:theta", GAUSSIAN, 1.0, 1.0, 1.0, PER_SENSOR, None, 2.0 * math.pi
        )
        assert notes["omega_substituted"] is True and w == 0.01

    def test_substitute_respects_omega_max(self):
        w, notes = rule_omega("auto:theta", GAUSSIAN, 1.0, 1.0, 1.0, PER_SENSOR, None, 0.005)
        assert notes["omega_substituted"] is True and w == 0.005

    def test_upper_edge_is_the_last_probe(self):
        """An infimum on the upper edge is not mapped to omega_max: the
        omega is the golden section's last probe, within twice its final
        bracket (1e-10) below the edge. The laplace-total-auto-theta
        golden z digest and the omega-rule stdout digests pin these bits,
        so the behaviour is kept."""
        w, notes = rule_omega("auto:theta", GAUSSIAN, 1.0, 1.0, 1.0, TOTAL, None, 0.5)
        assert notes["omega_substituted"] is False
        assert (w, "upper") == optimal_omega(GAUSSIAN, 1.0, 1.0, 1.0, "theta", omega_max=0.5)
        assert 0.5 - 2e-10 <= w < 0.5


class TestRuleOmega:
    def test_gamma_defaults_to_the_true_snr(self):
        w, notes = rule_omega("auto:gamma", GAUSSIAN, 2.0, 1.0, 1.0, TOTAL, 1.0, math.pi)
        assert notes == {
            "omega_rule": "auto:gamma", "omega_substituted": False, "omega_rule_gamma": 0.25,
        }
        assert w == optimal_omega(GAUSSIAN, 2.0, 1.0, 1.0, "gamma", gamma=0.25,
                                  omega_max=math.pi)[0]

    def test_given_gamma_wins(self):
        w, notes = rule_omega(
            "auto:gamma", LAPLACE, 1.0, 1.0, 0.0, PER_SENSOR, 1.0, 2.0 * math.pi, gamma=1.0
        )
        assert notes["omega_rule_gamma"] == 1.0
        np.testing.assert_allclose(w, LAPLACE_PSPC_GAMMA1, rtol=1e-6)

    def test_gamma_ignored_by_the_other_targets(self):
        w, notes = rule_omega("auto:theta", CAUCHY, 1.0, 1.0, 1.0, TOTAL, None, 2.0 * math.pi,
                              gamma=9.0)
        assert notes == {"omega_rule": "auto:theta", "omega_substituted": False}
        np.testing.assert_allclose(w, CAUCHY_TPC_R1, rtol=1e-6)

    def test_boundary_substitution_is_noted(self):
        w, notes = rule_omega("auto:sigma", GAUSSIAN, 1.0, 1.0, 1.0, PER_SENSOR, 1.0, 0.005)
        assert w == 0.005 and notes["omega_substituted"] is True

    @pytest.mark.parametrize("rule", ["fastest", "auto:", "auto:snr", "theta", None, 0.9])
    def test_bad_rule(self, rule):
        with pytest.raises(ValueError, match="omega_rule"):
            rule_omega(rule, GAUSSIAN, 1.0, 1.0, 1.0, TOTAL, 1.0, 2.0 * math.pi)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_snr_rejected(self, theta):
        """The SNR (theta / sigma)^2 is only formed from a valid theta: a
        non-finite or zero theta was reported as a bad gamma, and theta =
        -1 was tuned at the SNR of theta = +1."""
        with pytest.raises(ValueError, match=r"^theta must be positive"):
            rule_omega("auto:gamma", GAUSSIAN, 1.0, 1.0, 1.0, TOTAL, theta, 2.0 * math.pi)

    def test_point_checked_before_the_snr(self):
        with pytest.raises(ValueError, match="sigma"):
            rule_omega("auto:gamma", GAUSSIAN, 0.0, 1.0, 1.0, TOTAL, 1.0, 2.0 * math.pi)


@pytest.mark.parametrize("solver", [optimal_omega, resolve_omega, analytic_omega],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0], ids=str)
def test_gamma_target_needs_positive_finite_gamma(solver, gamma):
    """A NaN gamma used to give a NaN curve, and golden section returned
    its upper edge as the optimum."""
    with pytest.raises(ValueError, match="gamma"):
        solver(GAUSSIAN, 1.0, 1.0, 1.0, "gamma", gamma=gamma)


@pytest.mark.parametrize(
    "solver", [optimal_omega, resolve_omega, analytic_omega], ids=lambda f: f.__name__
)
@pytest.mark.parametrize(
    "P, nv", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)], ids=str
)
def test_non_finite_power_or_channel_noise_rejected(solver, P, nv):
    """A NaN power used to slip through the <= checks and come back as
    the lower edge of the omega interval."""
    with pytest.raises(ValueError, match="finite"):
        solver(GAUSSIAN, 1.0, P, nv, "theta")


@pytest.mark.parametrize("P", [0.0, math.nan], ids=str)
def test_analytic_rejects_a_bad_power(P):
    """P = 0 raised ZeroDivisionError in nv / P before any check."""
    with pytest.raises(ValueError, match="P must be positive"):
        analytic_omega(GAUSSIAN, 1.0, P, 1.0, "theta")


class TestWideInputs:
    """Over log-uniform 1e-300..1e300 inputs and 0, for every family and
    power mode, each omega is finite and > 0, or the call raises
    ValueError (ConvergenceError among them); never NaN, a RuntimeWarning
    (an error under pytest) or output on stdout."""

    @settings(WIDE_SETTINGS, max_examples=1000)  # 300 miss the Laplace gamma radical's defects
    @given(
        model=st.sampled_from(ALL_MODELS),
        mode=st.sampled_from([TOTAL, PER_SENSOR]),
        target=st.sampled_from(OMEGA_TARGETS),
        point=st.tuples(WIDE, WIDE, WIDE, WIDE),
    )
    def test_analytic_omega(self, capfd, model, mode, target, point):
        """The closed form's value is None or an omega, and the numeric
        route's an omega."""
        sigma, P, nv, gamma = point
        try:
            a = analytic_omega(model, sigma, P, nv, target, power_mode=mode, gamma=gamma)
        except ValueError:
            pass
        else:
            assert a.value is None or 0.0 < a.value < math.inf, (point, a)
            assert 0.0 < a.details["numeric_omega"] < math.inf, (point, a)
        assert capfd.readouterr().out == ""

    @WIDE_SETTINGS
    @given(
        model=st.sampled_from(ALL_MODELS),
        mode=st.sampled_from([TOTAL, PER_SENSOR]),
        point=st.tuples(WIDE, WIDE, WIDE, WIDE),
    )
    def test_omega_optima(self, capfd, model, mode, point):
        sigma, P, nv, gamma = point
        try:
            optima = omega_optima(model, sigma, P, nv, power_mode=mode, gamma=gamma)
        except ValueError:
            pass
        else:
            for w in (optima.omega_theta, optima.omega_sigma, optima.omega_gamma):
                assert 0.0 < w < math.inf, (point, optima)
        assert capfd.readouterr().out == ""


def _cold(*args, **kwargs):
    """optimal_omega with nothing kept from an earlier search."""
    tuning._golden_section.cache_clear()
    return optimal_omega(*args, **kwargs)


class TestKeptSearches:
    """optimal_omega keeps the last len(OMEGA_TARGETS) search results."""

    def test_analytic_after_optima_reuses_every_search(self):
        cache = tuning._golden_section
        assert cache.cache_info().maxsize == len(OMEGA_TARGETS)
        omega_optima(LAPLACE, 0.8, 1.0, 0.5, gamma=2.0)
        results = [
            analytic_omega(LAPLACE, 0.8, 1.0, 0.5, target, gamma=2.0) for target in OMEGA_TARGETS
        ]
        info = cache.cache_info()
        assert (info.hits, info.misses) == (3, 3)
        for target, a in zip(OMEGA_TARGETS, results):
            w, flag = _cold(LAPLACE, 0.8, 1.0, 0.5, target, gamma=2.0)
            assert (a.details["numeric_omega"].hex(), a.details["numeric_flag"]) == (w.hex(), flag)

    def test_alternating_points_never_hit(self):
        """One operating point's three curves fill the cache, so no search
        is served from the point before last."""
        for sigma in (0.8, 1.2, 0.8, 1.2):
            omega_optima(GAUSSIAN, sigma, 1.0, 0.5, gamma=2.0)
        assert tuning._golden_section.cache_info().hits == 0

    def test_a_replaced_record_misses(self):
        """The key is the model: a record with another kernel is searched
        afresh, and its kernel is the one probed."""
        calls = []

        def phi(s, w, xp):
            calls.append(w)
            return GAUSSIAN.phi(s, w, xp)

        w, flag = optimal_omega(GAUSSIAN, 1.0, 1.0, 1.0, "theta")
        replaced = dataclasses.replace(GAUSSIAN, phi=phi)
        assert optimal_omega(replaced, 1.0, 1.0, 1.0, "theta") == (w, flag)
        assert tuning._golden_section.cache_info().misses == 2 and calls

    def test_other_targets_ignore_an_unhashable_gamma(self):
        w, flag = optimal_omega(CAUCHY, 1.0, 1.0, 1.0, "theta", gamma=[1])
        assert (w, flag) == optimal_omega(CAUCHY, 1.0, 1.0, 1.0, "theta")
        assert analytic_omega(CAUCHY, 1.0, 1.0, 1.0, "theta", gamma=[1]).agrees_with_numeric
        with pytest.raises(ValueError, match="gamma must be a real number"):
            optimal_omega(CAUCHY, 1.0, 1.0, 1.0, "gamma", gamma=[1])

    def test_a_failed_search_raises_every_time(self):
        for _ in range(3):
            with pytest.raises(ConvergenceError, match=r"\[0\.0001, 1e\+20\]"):
                optimal_omega(GAUSSIAN, 1.0, 1.0, 1.0, "theta", omega_max=1e20)
        info = tuning._golden_section.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 0)

    def test_checks_come_before_the_family(self):
        """The order of the errors: ValueErrors for the target, then gamma
        for the gamma target, then the family with no entry in
        analytic_omega's table. optimal_omega looks nothing up: it runs
        the record's own kernels."""
        model = dataclasses.replace(GAUSSIAN, kind="students-t")
        for solver in (optimal_omega, analytic_omega):
            with pytest.raises(ValueError, match="target"):
                solver(model, 1.0, 1.0, 1.0, "snr", gamma=math.nan)
            with pytest.raises(ValueError, match="gamma"):
                solver(model, 1.0, 1.0, 1.0, "gamma", gamma=math.nan)
        with pytest.raises(ValueError, match="'students-t'"):
            analytic_omega(model, 1.0, 1.0, 1.0, "theta", gamma=math.nan)
        assert optimal_omega(model, 1.0, 1.0, 1.0, "theta", gamma=math.nan) == optimal_omega(
            GAUSSIAN, 1.0, 1.0, 1.0, "theta"
        )

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_signed_zero_noise_shares_bits(self, model):
        """nv = +0.0 and -0.0 are one key; cold, they give the same bits."""
        for mode in (TOTAL, PER_SENSOR):
            for target in OMEGA_TARGETS:
                plus, minus = (
                    _cold(model, 0.7, 1.0, nv, target, power_mode=mode, gamma=3.0)
                    for nv in (0.0, -0.0)
                )
                assert (plus[0].hex(), plus[1]) == (minus[0].hex(), minus[1])
        minus = _cold(model, 0.7, 1.0, -0.0, "theta")
        assert optimal_omega(model, 0.7, 1.0, 0.0, "theta") == minus
        assert tuning._golden_section.cache_info().hits == 1


_KEPT = {
    "_golden_section": len(OMEGA_TARGETS),
    "_gaussian_record": 1,
    "_quintic_roots": 2,
}


def _counts(*names):
    """(hits, misses) of the named kept computations."""
    infos = [getattr(tuning, name).cache_info() for name in names]
    return [(info.hits, info.misses) for info in infos]


def _bits(a):
    """An AnalyticOmega with every float as float.hex."""

    def hexed(x):
        if isinstance(x, float):
            return x.hex()
        return [hexed(v) for v in x] if isinstance(x, list) else x

    details = {key: hexed(v) for key, v in a.details.items()}
    return hexed(a.value), a.agrees_with_numeric, a.note, details


class TestKeptClosedForms:
    """analytic_omega keeps the r = nv / P part of the closed forms: the
    Gaussian record of one r (its three r-only roots and the gamma
    equation's two r-only terms) and the Laplace quintic roots per
    coefficient tuple."""

    def test_maxsizes(self):
        for name, maxsize in _KEPT.items():
            assert getattr(tuning, name).cache_info().maxsize == maxsize, name
        assert {name for name, v in vars(tuning).items() if hasattr(v, "cache_info")} == {
            *_KEPT, "_scan_tables", "_quintic_grid"
        }

    def test_three_points_at_one_r_share_the_work(self):
        """r = 0.5 reached through three (P, nv) pairs, at three (sigma,
        gamma): the r-only work runs at the first point alone."""
        points = ((1.0, 0.5, 0.7, 0.1), (2.0, 1.0, 1.3, 1.0), (4.0, 2.0, 0.9, 10.0))
        for model in (GAUSSIAN, LAPLACE):
            for P, nv, sigma, gamma in points:
                for target in OMEGA_TARGETS:
                    analytic_omega(model, sigma, P, nv, target, gamma=gamma)
        assert _counts("_gaussian_record", "_quintic_roots") == [(8, 1), (2, 4)]

    def test_alternating_r_never_hits(self):
        """Each target at r cycling through three values: the record keeps
        one r and the quintics two, so no call is served."""
        for target in OMEGA_TARGETS:
            for model in (GAUSSIAN, LAPLACE):
                for nv in (0.5, 1.0, 2.0, 0.5, 1.0, 2.0):
                    analytic_omega(model, 1.0, 1.0, nv, target, gamma=2.0)
        counts = _counts("_gaussian_record", "_quintic_roots")
        assert [hits for hits, _ in counts] == [0, 0]

    def test_an_analysis_pass_shares_the_work(self):
        """The benchmark's analysis tuning pass: 3 families x 4 (power
        mode, nv) x 3 gammas, each point at its own sigma running
        omega_optima and then analytic_omega for the three targets."""
        modes = ((TOTAL, 0.5), (TOTAL, 1.0), (TOTAL, 2.0), (PER_SENSOR, 0.0))
        points = [
            (model, mode, nv, gamma)
            for model in (GAUSSIAN, LAPLACE, CAUCHY)
            for mode, nv in modes
            for gamma in (0.1, 1.0, 10.0)
        ]
        for k, (model, mode, nv, gamma) in enumerate(points):
            sigma = 0.5 + k / 24.0
            omega_optima(model, sigma, 1.0, nv, power_mode=mode, gamma=gamma)
            for target in OMEGA_TARGETS:
                analytic_omega(model, sigma, 1.0, nv, target, power_mode=mode, gamma=gamma)
        assert _counts("_golden_section", "_gaussian_record", "_quintic_roots") == [
            (108, 108), (32, 4), (6, 12)
        ]

    def test_the_direct_sigma_grid_is_formed_once_per_r(self, monkeypatch):
        """The direct-sigma equation meets the scan grid once per r: its
        values serve both its own scan and the gamma equation's term."""
        grid_passes = []
        direct = tuning._gaussian_sigma_equation_fixed

        def counted(r):
            equation = direct(r)

            def on_grid(b, e1, e2):
                if isinstance(b, np.ndarray):
                    grid_passes.append(r)
                return equation(b, e1, e2)

            return on_grid

        monkeypatch.setattr(tuning, "_gaussian_sigma_equation_fixed", counted)
        for nv in (0.5, 1.0):
            for target in OMEGA_TARGETS:
                analytic_omega(GAUSSIAN, 1.0, 1.0, nv, target, gamma=2.0)
        assert grid_passes == [0.5, 1.0]

    def test_a_nearby_r_is_not_served(self):
        """r = 0.5 + 1e-9 after r = 0.5 gets its own roots and terms."""
        for model in (GAUSSIAN, LAPLACE):
            for target in OMEGA_TARGETS:
                before = analytic_omega(model, 1.0, 1.0, 0.5, target, gamma=2.0)
                warm = analytic_omega(model, 1.0, 1.0, 0.5 + 1e-9, target, gamma=2.0)
                clear_tuning_caches()
                cold = analytic_omega(model, 1.0, 1.0, 0.5 + 1e-9, target, gamma=2.0)
                assert _bits(warm) == _bits(cold) and warm.value != before.value

    def test_a_raising_scan_is_not_kept(self, monkeypatch):
        """A scan of the record that raises (here a NaN at a bisection
        probe) raises on every call, and nothing is kept."""

        def nan_between(r):
            return lambda b, e1, e2: b - 1.0 if isinstance(b, np.ndarray) else math.nan

        monkeypatch.setattr(tuning, "_gaussian_theta_equation", nan_between)
        for _ in range(3):
            with pytest.raises(ValueError, match="is nan"):
                tuning._gaussian_record(1.0)
        info = tuning._gaussian_record.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 0)

    def test_results_do_not_share_kept_state(self):
        """Kept roots are a tuple and kept terms read-only: a caller that
        mutates its result's beta_roots leaves the next result unchanged."""
        first = analytic_omega(LAPLACE, 1.0, 1.0, 0.5, "sigma")
        cold = list(first.details["beta_roots"])
        first.details["beta_roots"].append(1.0)
        first.details["beta_roots"][0] = -1.0
        again = analytic_omega(LAPLACE, 1.0, 1.0, 0.5, "sigma")
        assert again.details["beta_roots"] == cold and cold
        assert _counts("_quintic_roots") == [(1, 1)]
        assert isinstance(tuning._quintic_roots(tuple(tuning._laplace_sigma_quintic(0.5))), tuple)
        for term in tuning._gaussian_record(0.5)[3:]:
            with pytest.raises(ValueError, match="read-only"):
                term[0] = 0.0

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(ALL_MODELS),
                st.sampled_from([TOTAL, PER_SENSOR]),
                st.sampled_from(OMEGA_TARGETS),
                st.one_of(
                    st.sampled_from([0.0, 0.5, 0.5 + 1e-9, 2.0]),
                    st.floats(0.0, 4.0),
                ),
                st.sampled_from([0.5, 1.0, 2.0]),
                st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
                st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_warm_and_cold_give_the_same_bits(self, steps):
        """Over a random sequence of (family, budget, target, r, P, sigma,
        gamma), P a power of two so that nv / P is r exactly and r often
        repeated or 1e-9 away, each result with whatever the steps
        before it kept equals the result with nothing kept, bit for bit."""
        calls = [
            (model, sigma, P, r * P, target, mode, gamma)
            for model, mode, target, r, P, sigma, gamma in steps
        ]

        def run(model, sigma, P, nv, target, mode, gamma):
            return _bits(analytic_omega(model, sigma, P, nv, target, power_mode=mode, gamma=gamma))

        warm = [run(*call) for call in calls]
        for call, got in zip(calls, warm):
            clear_tuning_caches()
            assert got == run(*call), call


# The (family, power mode, target) triples whose closed form agrees with
# the numeric minimizer at every point of test_results_are_pinned's grid.
AGREEING = [
    (GAUSSIAN, TOTAL, "theta"),
    (GAUSSIAN, TOTAL, "gamma"),
    (GAUSSIAN, PER_SENSOR, "theta"),
    (GAUSSIAN, PER_SENSOR, "sigma"),
    (GAUSSIAN, PER_SENSOR, "gamma"),
    (LAPLACE, PER_SENSOR, "theta"),
    (LAPLACE, PER_SENSOR, "sigma"),
] + [(CAUCHY, mode, target) for mode in (TOTAL, PER_SENSOR) for target in OMEGA_TARGETS]


class TestAnalyticAgainstNumeric:
    """The closed-form and numeric omegas as an oracle pair."""

    def test_agreeing_triples_agree_on_the_pinned_grid(self):
        agreeing = []
        for model in ALL_MODELS:
            for mode, nvs in ((TOTAL, (0.5, 1.0, 2.0)), (PER_SENSOR, (0.0,))):
                for target in OMEGA_TARGETS:
                    if all(
                        analytic_omega(
                            model, sigma, 1.0, nv, target, power_mode=mode, gamma=gamma
                        ).agrees_with_numeric
                        for nv in nvs
                        for gamma in (0.1, 1.0, 10.0)
                        for sigma in (0.5, 1.0, 2.0)
                    ):
                        agreeing.append((model, mode, target))
        assert agreeing == AGREEING

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(
        triple=st.sampled_from(AGREEING),
        sigma=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
        nv=st.floats(0.0, 4.0),
        gamma=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
    )
    def test_verdict_holds_off_the_grid(self, triple, sigma, nv, gamma):
        """sigma log-uniform in [0.1, 10], nv in [0, 4], gamma log-uniform
        in [0.01, 100]: the verdict is True outside one class of points,
        pinned in test_known_disagreements: the Gaussian total-budget scan
        at r = nv / P below 1e-10 (seen up to 3e-12), where the equation's
        terms of order 1 cancel to order r, and the scanned root is off."""
        model, mode, target = triple
        a = analytic_omega(model, sigma, 1.0, nv, target, power_mode=mode, gamma=gamma)
        cancelled = model is GAUSSIAN and mode is TOTAL and nv < 1e-10
        assert a.agrees_with_numeric or cancelled, a

    @pytest.mark.parametrize(
        "model, target, sigma, nv, gamma, value",
        [
            # the minimizer is past omega_max = 2 pi
            (CAUCHY, "sigma", 0.10433016088770077, 3.5249354356886218, 5.571028968320553,
             9.279409416576629),
            # an interior minimizer 3e-5 relative below omega_max, within
            # the golden section's plateau, so the search returns the edge
            (CAUCHY, "gamma", 0.15404330987894205, 3.4895817412134265, 0.045806701757724035,
             6.282999312101623),
        ],
        ids=["past-the-edge", "edge-plateau"],
    )
    def test_upper_edge_agrees(self, model, target, sigma, nv, gamma, value):
        """A search that ends on the upper edge agrees with a closed form at
        or past omega_max, or within 1e-4 of the edge's last probe."""
        a = analytic_omega(model, sigma, 1.0, nv, target, gamma=gamma)
        assert math.isclose(a.value, value, rel_tol=1e-9)
        assert math.isclose(a.details["numeric_omega"], 2.0 * math.pi, rel_tol=1e-9)
        assert (a.details["numeric_flag"], a.agrees_with_numeric) == ("upper", True)

    @pytest.mark.parametrize(
        "model, target, sigma, nv, gamma, value, numeric, flag",
        [
            # the scan's beta is 1.2208e-5; the series root (1.5 r)^(1/3)
            # is 1.1447e-5, omega 0.0033834
            (GAUSSIAN, "theta", 1.0, 1e-15, None, 0.003493999320228305, 0.0033811456675619115,
             "interior"),
        ],
        ids=["cancelled-scan"],
    )
    def test_known_disagreements(self, model, target, sigma, nv, gamma, value, numeric, flag):
        a = analytic_omega(model, sigma, 1.0, nv, target, gamma=gamma)
        assert math.isclose(a.value, value, rel_tol=1e-9)
        assert math.isclose(a.details["numeric_omega"], numeric, rel_tol=1e-9)
        assert (a.details["numeric_flag"], a.agrees_with_numeric) == (flag, False)

    @pytest.mark.parametrize(
        "nv, pinned, low, high",
        [(1e-15, 3.429735897535335e-4, 0.03, 0.04), (1e-12, 1.8617253662529833e-3, 4e-5, 5e-5)],
        ids=["r-1e-15", "r-1e-12"],
    )
    def test_known_disagreements_of_the_direct_sigma_root(self, nv, pinned, low, high):
        """The Gaussian total-budget direct-sigma stationarity root
        (details["stationarity_root_beta"]) is off at small r = nv / P:
        the equation's r-free part, b (e^{2b} - 1) - 2 (e^b - 1)^2, is
        about b^4 / 6 and cancels from order b^2. Against the root of the
        same equation in 60-digit mpmath it is 3.6% off at r = 1e-15 and
        4.5e-5 at r = 1e-12."""
        a = analytic_omega(GAUSSIAN, 1.0, 1.0, nv, "sigma")
        beta = a.details["stationarity_root_beta"]
        assert math.isclose(beta, pinned, rel_tol=1e-9)
        with mpmath.workdps(60):
            r = mpmath.mpf(nv)
            root = mpmath.findroot(
                lambda b: b * ((r + 1) * mpmath.exp(2 * b) - 1)
                - 2 * ((r + 1) * mpmath.exp(2 * b) - 2 * mpmath.exp(b) + 1),
                (12 * r) ** 0.25,  # b^4 / 6 = 2 r to leading order
            )
            assert low < abs(beta / root - 1) < high

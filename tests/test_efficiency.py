"""Tests for the asymptotic-relative-efficiency computation.

Frozen expectations: the Gaussian scheme attains its Cramer-Rao bound in
the omega -> 0 limit for both parameters; Laplace location reaches
exactly 2/3; Laplace scale and both Cauchy parameters have interior
optima whose values were frozen from 40-digit evaluations of the
variance curves.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmphase import efficiency, tuning
from cmphase.asymptotic import asv_generic
from cmphase.efficiency import (
    REFERENCE_ARE,
    EfficiencyReport,
    asymptotic_relative_efficiency,
)
from cmphase.noise import CAUCHY, GAUSSIAN, LAPLACE
from cmphase.tuning import optimal_omega
from conftest import ALL_MODELS
from test_numkit import WIDE, WIDE_SETTINGS

CAUCHY_INF_ASV = 3.0882773047417402  # shared by theta and sigma, sigma = 1
CAUCHY_ARE = 0.6476102378919149  # 2 / CAUCHY_INF_ASV
LAPLACE_SIGMA_INF_ASV = 1.0739372089914696
LAPLACE_SIGMA_ARE = 0.9311531359818478


class TestAreValues:
    def test_gaussian_attains_the_bound(self):
        for parameter in ("theta", "sigma"):
            rep = asymptotic_relative_efficiency(GAUSSIAN, parameter)
            np.testing.assert_allclose(rep.are, 1.0, atol=1e-6)
            assert rep.matches_reference

    def test_laplace_location_two_thirds(self):
        rep = asymptotic_relative_efficiency(LAPLACE, "theta")
        np.testing.assert_allclose(rep.are, 2.0 / 3.0, rtol=1e-6)
        np.testing.assert_allclose(rep.inf_asv, 0.75, rtol=1e-6)
        np.testing.assert_allclose(rep.fisher_bound, 0.5, rtol=1e-12)
        assert rep.matches_reference

    def test_laplace_scale(self):
        rep = asymptotic_relative_efficiency(LAPLACE, "sigma")
        np.testing.assert_allclose(rep.are, LAPLACE_SIGMA_ARE, rtol=1e-6)
        np.testing.assert_allclose(rep.inf_asv, LAPLACE_SIGMA_INF_ASV, rtol=1e-6)
        np.testing.assert_allclose(rep.fisher_bound, 1.0, rtol=1e-12)

    def test_cauchy_both_parameters(self):
        for parameter in ("theta", "sigma"):
            rep = asymptotic_relative_efficiency(CAUCHY, parameter)
            np.testing.assert_allclose(rep.are, CAUCHY_ARE, rtol=1e-6)
            np.testing.assert_allclose(rep.inf_asv, CAUCHY_INF_ASV, rtol=1e-6)
            np.testing.assert_allclose(rep.fisher_bound, 2.0, rtol=1e-12)
            assert rep.matches_reference

    def test_reference_match_pattern(self):
        """Exactly one bundled reference entry (Laplace scale, 0.50) fails
        to match the curve value; everything else agrees to 0.01."""
        pattern = {
            key: asymptotic_relative_efficiency(
                {"gaussian": GAUSSIAN, "laplace": LAPLACE, "cauchy": CAUCHY}[key[0]],
                key[1],
            ).matches_reference
            for key in REFERENCE_ARE
        }
        assert pattern == {
            ("gaussian", "theta"): True,
            ("gaussian", "sigma"): True,
            ("laplace", "theta"): True,
            ("laplace", "sigma"): False,
            ("cauchy", "theta"): True,
            ("cauchy", "sigma"): True,
        }

    def test_are_below_one(self):
        """A decentralized one-sample statistic cannot beat the
        centralized bound."""
        for model in ALL_MODELS:
            for parameter in ("theta", "sigma"):
                rep = asymptotic_relative_efficiency(model, parameter)
                assert rep.are <= 1.0 + 1e-9

    def test_no_row_ends_on_the_upper_edge(self):
        """Over u = omega sigma in [1e-4, 2 pi], at sigma = 1 and 2, every
        search ends on the lower edge (Gaussian) or inside, so no row reads
        its infimum at the upper edge's last probe."""
        flags = {
            (model.kind, parameter, sigma): optimal_omega(
                model, sigma, 1.0, 0.0, parameter,
                omega_max=efficiency._MAX_U / sigma, omega_min=efficiency._BOUNDARY_U / sigma,
            )[1]
            for model in ALL_MODELS
            for parameter in ("theta", "sigma")
            for sigma in (1.0, 2.0)
        }
        assert {key for key, flag in flags.items() if flag == "lower"} == {
            ("gaussian", parameter, sigma) for parameter in ("theta", "sigma") for sigma in (1, 2)
        }
        assert set(flags.values()) == {"lower", "interior"}


class TestReportShape:
    def test_fields_and_json(self):
        rep = asymptotic_relative_efficiency(CAUCHY, "theta")
        assert isinstance(rep, EfficiencyReport)
        assert rep.model == "cauchy" and rep.parameter == "theta"
        assert rep.reference_are == 0.65
        data = dataclasses.asdict(rep)
        assert set(data) == {
            "model",
            "parameter",
            "inf_asv",
            "fisher_bound",
            "are",
            "reference_are",
            "matches_reference",
        }

    def test_consistency(self):
        rep = asymptotic_relative_efficiency(LAPLACE, "sigma")
        np.testing.assert_allclose(rep.are, rep.fisher_bound / rep.inf_asv, rtol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="parameter"):
            asymptotic_relative_efficiency(GAUSSIAN, "gamma")

    def test_family_without_reference_is_named_before_any_search(self):
        """A family outside REFERENCE_ARE ran both golden sections and then
        raised a bare KeyError: ('students-t', 'theta')."""
        family = dataclasses.replace(GAUSSIAN, kind="students-t")
        with pytest.raises(ValueError, match="^no reference ARE for the 'students-t' family$"):
            asymptotic_relative_efficiency(family, "theta")
        info = tuning._golden_section.cache_info()
        assert info.hits + info.misses == 0

    def test_omega_range_insensitivity(self, monkeypatch):
        """Doubling the search range must not move an interior optimum."""
        a = asymptotic_relative_efficiency(CAUCHY, "theta")
        monkeypatch.setattr(efficiency, "_MAX_U", 4.0 * math.pi)
        b = asymptotic_relative_efficiency(CAUCHY, "theta")
        np.testing.assert_allclose(a.are, b.are, rtol=1e-9)

    @pytest.mark.parametrize("model", [LAPLACE, CAUCHY], ids=lambda m: m.kind)
    @pytest.mark.parametrize("parameter", ["theta", "sigma"])
    @pytest.mark.parametrize("omega_max", [2e-4, 0.01, 0.5])
    def test_upper_edge_infimum(self, monkeypatch, model, parameter, omega_max):
        """A window whose upper end u = omega_max lies below the interior
        optimum puts the infimum on that edge, which the window in use
        never does (test_no_row_ends_on_the_upper_edge). It is read at the
        last golden-section probe, 1e-10 inside the edge at both scales:
        the value is the edge's to 1e-9, or the ratio moves by about 1e-8
        between sigma = 1 and 2 and the scale check raises RuntimeError
        (Cauchy at omega_max = 2e-4 and 0.01)."""
        monkeypatch.setattr(efficiency, "_MAX_U", omega_max)
        if model is CAUCHY and omega_max < 0.5:
            with pytest.raises(RuntimeError, match="not scale-free"):
                asymptotic_relative_efficiency(model, parameter)
            return
        rep = asymptotic_relative_efficiency(model, parameter)
        clean = asv_generic(model, 1.0, omega_max, 1.0)
        assert math.isclose(rep.inf_asv, getattr(clean, f"asv_{parameter}"), rel_tol=1e-9)
        assert 0.0 < rep.are < 1.0


class TestWideInputs:
    @settings(WIDE_SETTINGS, max_examples=150)
    @given(
        model=st.sampled_from(ALL_MODELS),
        parameter=st.sampled_from(["theta", "sigma"]),
        omega_max=st.one_of(WIDE, st.floats(-4.1, 1.0).map(lambda e: 10.0**e)),
    )
    def test_finite_or_raise(self, capfd, model, parameter, omega_max):
        """Over a window whose upper end u = omega_max is log-uniform in
        1e-300..1e300, 0, or 10^-4.1..10 (around the interior optima), the
        ARE is finite and in (0, 1], or the call raises ValueError
        (ConvergenceError where no probe of the curve is finite) or, where
        the infimum is on that edge, the scale check's RuntimeError; never
        NaN, a RuntimeWarning or output on stdout."""
        try:
            with mock.patch.object(efficiency, "_MAX_U", omega_max):
                rep = asymptotic_relative_efficiency(model, parameter)
        except (ValueError, RuntimeError):
            pass
        else:
            assert 0.0 < rep.are <= 1.0 + 1e-9, (omega_max, rep)
            assert math.isfinite(rep.inf_asv) and math.isfinite(rep.fisher_bound)
        assert capfd.readouterr().out == ""

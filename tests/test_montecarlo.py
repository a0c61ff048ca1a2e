"""Tests for the Monte Carlo driver, sweeps, and CSV output.

Statistical checks run at fixed seeds with tolerances wide enough that
they are deterministic pass/fail properties of those seeds, not flaky
near-misses; the tight asymptotic comparisons live in the acceptance
suite at its stated sample sizes.
"""

import io
import math

import numpy as np
import pytest

from cmphase.asymptotic import asv_generic
from cmphase.montecarlo import (
    CSV_HEADER,
    AllTrialsSaturatedError,
    run_experiment,
    sweep,
    write_sweep_csv,
)
from cmphase.network import NetworkConfig
from cmphase.tuning import resolve_omega


def make_config(**overrides):
    base = dict(
        L=200,
        theta=1.0,
        theta_R=2.0 * math.pi,
        sigma=1.0,
        model="gaussian",
        power_mode="total",
        P=1.0,
        channel_noise_var=1.0,
        omega=0.9,
        seed=0,
    )
    base.update(overrides)
    return NetworkConfig(**base)


class TestRunExperiment:
    def test_reproducible(self):
        cfg = make_config()
        a = run_experiment(cfg, 64)
        b = run_experiment(cfg, 64)
        assert a.theta.mean == b.theta.mean
        assert a.sigma.variance_l == b.sigma.variance_l
        assert a.saturated == b.saturated

    def test_base_seed_overrides_config_seed(self):
        cfg = make_config(seed=3)
        assert (
            run_experiment(cfg, 32, base_seed=3).theta.mean
            == run_experiment(cfg, 32).theta.mean
        )
        assert (
            run_experiment(cfg, 32, base_seed=4).theta.mean
            != run_experiment(cfg, 32).theta.mean
        )

    def test_location_wrap_at_period_edge(self):
        """Truth on the phase-period edge: raw location estimates split
        between ~0 and ~2 pi, and only the wrapped deviation statistics
        are meaningful."""
        cfg = make_config(
            theta=2.0 * math.pi, omega=1.0, sigma=0.1, channel_noise_var=0.0, L=100
        )
        summary = run_experiment(cfg, 400)
        # unwrapped variance sits at the asymptotic scale (~0.01), while
        # the raw split across the edge would give roughly L * pi^2
        assert summary.theta.variance_l < 0.1
        assert abs(summary.theta.bias) < 0.05

    def test_matches_asymptote_at_moderate_size(self):
        cfg = make_config(L=5000, seed=11)
        summary = run_experiment(cfg, 300)
        asv = asv_generic(
            cfg.model, cfg.sigma, cfg.omega, cfg.P,
            channel_noise_var=cfg.channel_noise_var, theta=cfg.theta,
        )
        np.testing.assert_allclose(summary.theta.variance_l, asv.asv_theta, rtol=0.25)
        np.testing.assert_allclose(summary.sigma.variance_l, asv.asv_sigma, rtol=0.25)

    def test_saturation_accounting(self):
        """L = 1 with unit channel noise saturates roughly half the
        trials; the SNR sample must shrink accordingly."""
        cfg = make_config(L=1, sigma=0.05, omega=0.2, seed=5)
        summary = run_experiment(cfg, 400)
        assert 0 < summary.saturated < 400
        assert summary.gamma_trials == 400 - summary.saturated
        assert summary.gamma is not None
        assert math.isfinite(summary.gamma_trimmed_variance_l)
        # the SNR ratio is heavy-tailed at L = 1, so the two-sided trim
        # actually bites here
        assert summary.gamma_trimmed_variance_l < 0.9 * summary.gamma.variance_l

    def test_all_trials_saturated(self):
        cfg = make_config(L=1, channel_noise_var=1e6, seed=2)
        with pytest.raises(AllTrialsSaturatedError, match="saturated"):
            run_experiment(cfg, 20)

    def test_trials_validation(self):
        with pytest.raises(ValueError, match="trials"):
            run_experiment(make_config(), 0)

    def test_json_shape(self):
        data = run_experiment(make_config(), 16).to_json_dict()
        assert set(data) == {
            "trials", "L", "theta", "sigma", "gamma",
            "gamma_trimmed_variance_l", "gamma_trials", "saturated", "wall_time_s",
        }
        assert set(data["theta"]) == {"mean", "variance_l", "bias"}


class TestSweep:
    def test_rows_depend_only_on_index_and_seed(self):
        """Editing one grid value must not disturb the other rows."""
        cfg = make_config(L=100)
        rows_a = sweep(cfg, "omega", [0.5, 0.9], trials=32)
        rows_b = sweep(cfg, "omega", [0.2, 0.9], trials=32)
        assert rows_a[1].summary.theta.mean == rows_b[1].summary.theta.mean
        assert rows_a[1].summary.sigma.variance_l == rows_b[1].summary.sigma.variance_l
        assert rows_a[0].summary.theta.mean != rows_b[0].summary.theta.mean

    def test_rerun_identical(self):
        cfg = make_config(L=100)
        rows_a = sweep(cfg, "sigma", [0.8, 1.2], trials=32)
        rows_b = sweep(cfg, "sigma", [0.8, 1.2], trials=32)
        for a, b in zip(rows_a, rows_b):
            assert a.summary.theta.mean == b.summary.theta.mean

    def test_error_row_does_not_abort(self):
        """An invalid grid point yields an error row; later rows are fine."""
        cfg = make_config(L=100)  # omega cap is 1.0 at theta_R = 2 pi
        rows = sweep(cfg, "omega", [0.5, 1.2, 0.9], trials=16)
        assert rows[1].error is not None and "omega" in rows[1].error
        assert rows[1].summary is None
        assert rows[0].error is None and rows[2].error is None
        assert rows[2].summary is not None

    def test_saturated_row_keeps_asymptote(self):
        """A point whose trials all saturate still reports its asymptotic
        variance; only the empirical half is missing."""
        cfg = make_config(L=1, channel_noise_var=1e6)
        rows = sweep(cfg, "sigma", [1.0], trials=8)
        assert rows[0].error is not None
        assert rows[0].asv is not None
        assert rows[0].summary is None

    def test_sigma_axis_callable_omega_rule(self):
        cfg = make_config(L=100)
        rows = sweep(cfg, "sigma", [0.5, 2.0], trials=8, omega_rule=lambda s: 0.3 / s)
        np.testing.assert_allclose([r.omega for r in rows], [0.6, 0.15], rtol=1e-12)

    def test_sigma_axis_auto_rule(self):
        cfg = make_config(L=100, theta_R=math.pi, theta=1.0)
        rows = sweep(cfg, "sigma", [0.8], trials=8, omega_rule="auto:theta")
        expected, _ = resolve_omega(
            cfg.model, 0.8, cfg.P, cfg.channel_noise_var, "theta",
            power_mode=cfg.power_mode, omega_max=2.0 * math.pi / cfg.theta_R,
        )
        np.testing.assert_allclose(rows[0].omega, expected, rtol=1e-12)

    def test_omega_rule_rejected_on_omega_axis(self):
        with pytest.raises(ValueError, match="sigma sweeps"):
            sweep(make_config(), "omega", [0.5], trials=4, omega_rule="auto:theta")

    def test_bad_omega_rule_token_errors_rows(self):
        rows = sweep(make_config(L=50), "sigma", [1.0], trials=4, omega_rule="fastest")
        assert rows[0].error is not None and "omega_rule" in rows[0].error

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="axis"):
            sweep(make_config(), "theta", [1.0], trials=4)


class TestWriteSweepCsv:
    def test_header_and_formatting(self):
        cfg = make_config(L=100)
        rows = sweep(cfg, "omega", [0.5], trials=16)
        buf = io.StringIO()
        write_sweep_csv(rows, buf, manifest={"b": 1, "a": [2, 3]})
        lines = buf.getvalue().splitlines()
        assert lines[0] == '# manifest: {"a": [2, 3], "b": 1}'
        assert lines[1] == CSV_HEADER
        fields = lines[2].split(",")
        assert fields[0] == "omega" and fields[1] == "0.5"
        assert fields[9] == "16" and fields[10] == "100"
        for cell in fields[2:9]:
            float(cell)  # every numeric cell parses

    def test_nine_significant_digits(self):
        cfg = make_config(L=100)
        rows = sweep(cfg, "omega", [0.123456789012], trials=8)
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        assert buf.getvalue().splitlines()[1].split(",")[1] == "0.123456789"

    def test_error_row_cells_are_nan(self):
        cfg = make_config()
        rows = sweep(cfg, "omega", [1.2], trials=8)  # invalid: cap is 1.0
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        fields = buf.getvalue().splitlines()[1].split(",")
        assert fields[2:9] == ["nan"] * 7
        assert fields[9] == "0" and fields[10] == "0"

    def test_reruns_are_byte_identical(self):
        """Separate sweep + write passes produce the same bytes: no
        timestamps or run-dependent state may leak into the file."""
        cfg = make_config(L=100)
        manifest = {"seed": 0, "trials": 24}
        out = []
        for _ in range(2):
            rows = sweep(cfg, "sigma", [0.7, 1.4], trials=24)
            buf = io.StringIO()
            write_sweep_csv(rows, buf, manifest=manifest)
            out.append(buf.getvalue())
        assert out[0] == out[1]

    def test_path_destination(self, tmp_path):
        cfg = make_config(L=50)
        rows = sweep(cfg, "omega", [0.5], trials=8)
        path = tmp_path / "rows.csv"
        write_sweep_csv(rows, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith(CSV_HEADER)
        assert text.endswith("\n")

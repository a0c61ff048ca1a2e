"""Tests for the Monte Carlo driver, sweeps, and CSV output.

Statistical checks run at fixed seeds with tolerances wide enough that
they are deterministic pass/fail properties of those seeds, not flaky
near-misses; the tight asymptotic comparisons live in the acceptance
suite at its stated sample sizes.
"""

import dataclasses
import io
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmphase import estimators, montecarlo
from cmphase.asymptotic import asv_generic
from cmphase.montecarlo import (
    CSV_HEADER,
    AllTrialsSaturatedError,
    run_experiment,
    sweep,
    write_sweep_csv,
)
from cmphase.network import NetworkConfig, snapshot_uniforms
from cmphase.numkit import RandomStream
from cmphase.tuning import rule_omega


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
    def test_non_finite_samples_raise(self):
        """sigma = 1e308 puts the phases beyond the float range: the run
        returned NaN means with no saturation and numpy warnings."""
        cfg = make_config(sigma=1e308, omega=1.0)
        with pytest.raises(ValueError, match=r"non-finite z at sigma=1e\+308, omega=1.0"):
            run_experiment(cfg, 16)

    def test_overflowing_estimates_raise(self):
        """arg(z) / omega is beyond the float range at a subnormal omega,
        which the config admits; the run returned inf means."""
        with pytest.raises(ValueError, match="theta_hat or sigma_hat overflows"):
            run_experiment(make_config(omega=1e-309), 16)

    def test_overflowing_snr_truth_raises(self):
        """The true SNR (theta / sigma)^2 overflows at sigma = 1e-200: the
        run raised a bare OverflowError from it after every trial ran, then
        an error naming theta_hat and sigma_hat, estimates never made."""
        cfg = NetworkConfig(
            L=10, sigma=1e-200, theta=1.0, omega=1.0, model="gaussian", seed=1,
            theta_R=3.0, power_mode="total", P=1.0, channel_noise_var=1.0,
        )
        match = r"the true SNR gamma = \(theta / sigma\)\^2 overflows at theta = 1\.0, sigma = 1e-200"
        with pytest.raises(ValueError, match=match):
            run_experiment(cfg, 8)

    def test_underflowing_snr_truth_raises_before_any_estimate(self, monkeypatch):
        """The true SNR (theta / sigma)^2 underflows to 0 at theta = 1e-200,
        sigma = 1e-30: the run computed the SNR bias against 0.0."""

        def no_estimate(*args):
            raise AssertionError("an estimate was made")

        monkeypatch.setattr(montecarlo, "_location", no_estimate)
        match = r"^the true SNR gamma = \(theta / sigma\)\^2 underflows to 0 at theta = 1e-200"
        with pytest.raises(ValueError, match=match + r", sigma = 1e-30$"):
            run_experiment(make_config(theta=1e-200, sigma=1e-30), 8)

    def test_reproducible(self):
        cfg = make_config()
        a = run_experiment(cfg, 64)
        b = run_experiment(cfg, 64)
        assert a.theta.mean == b.theta.mean
        assert a.sigma.variance_l == b.sigma.variance_l
        assert a.saturated == b.saturated

    def test_stream_defaults_to_config_seed(self):
        cfg = make_config(seed=3)
        assert (
            run_experiment(cfg, 32, RandomStream(3)).theta.mean
            == run_experiment(cfg, 32).theta.mean
        )
        assert (
            run_experiment(cfg, 32, RandomStream(4)).theta.mean
            == run_experiment(dataclasses.replace(cfg, seed=4), 32).theta.mean
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

    @pytest.mark.parametrize("trials", [0, -1, 2.5, True, math.nan, math.inf, "8"])
    def test_bad_trial_counts_rejected(self, trials):
        """2.5 and True used to raise raw numpy TypeErrors."""
        with pytest.raises(ValueError, match="trials must be an integer"):
            run_experiment(make_config(), trials)

    @pytest.mark.parametrize("trials", [2**32, 10**15, 2.0**64])
    def test_trial_count_is_bounded(self, trials):
        """The error named n, the substream count, not trials."""
        with pytest.raises(ValueError, match=r"^trials must be below 2\*\*32"):
            run_experiment(make_config(), trials)

    def test_integral_float_trial_count(self):
        cfg = make_config(L=10)
        assert dataclasses.asdict(run_experiment(cfg, 8.0)) | {"wall_time_s": 0} == (
            dataclasses.asdict(run_experiment(cfg, 8)) | {"wall_time_s": 0}
        )

    def test_builds_no_per_trial_objects(self, monkeypatch):
        """The engine works on arrays and lists: no EstimateSet is built,
        in a saturating run either."""

        def forbidden(*args, **kwargs):
            raise AssertionError("per-trial object built")

        monkeypatch.setattr(estimators, "EstimateSet", forbidden)
        summary = run_experiment(make_config(L=1, sigma=0.05, omega=0.2, seed=5), 100)
        assert 0 < summary.saturated < 100

    def test_json_shape(self):
        data = dataclasses.asdict(run_experiment(make_config(), 16))
        assert set(data) == {
            "trials", "L", "theta", "sigma", "gamma",
            "gamma_trimmed_variance_l", "gamma_trials", "saturated",
        }
        assert set(data["theta"]) == {"mean", "variance_l", "bias"}


class TestPhaseDeviation:
    """run_experiment compares location estimates through the wrapped
    phase deviation delta and the unwrapped estimate theta + delta / omega."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        theta=st.floats(1e-6, 1e3),
        omega=st.floats(1e-3, 1e3),
        periods=st.integers(-3, 3),
        half=st.sampled_from([-1.0, 0.0, 1.0]),
        nudge=st.one_of(st.just(0.0), st.floats(-1e-12, 1e-12), st.floats(-4.0, 4.0)),
    )
    # x = omega (theta_hat - theta) + pi is exactly 0: delta = -pi.
    @example(theta=math.pi, omega=1.0, periods=0, half=-1.0, nudge=0.0)
    def test_within_half_a_period(self, theta, omega, periods, half, nudge):
        """|delta| <= pi and the unwrapped estimate lies within pi / omega
        of theta (to rounding), for estimates whole periods plus about a
        half period from theta, where the wrap changes sides."""
        theta_hat = theta + ((2 * periods + half) * math.pi + nudge) / omega
        delta = montecarlo._phase_deviation(np.array([theta_hat]), theta, omega)[0]
        assert abs(delta) <= math.pi
        bound = math.pi / omega * (1.0 + 2.0**-50) + math.ulp(theta)
        assert abs((theta + delta / omega) - theta) <= bound

    def test_both_ends_reached(self):
        """x exactly 0 gives -pi; x = -ulp(pi), whose np.mod rounds to 2 pi,
        gives +pi: the range is [-pi, pi], not (-pi, pi]."""
        low = montecarlo._phase_deviation(np.array([0.0]), math.pi, 1.0)
        high = montecarlo._phase_deviation(np.array([4.0 - np.nextafter(math.pi, 4.0)]), 4.0, 1.0)
        assert (low[0], high[0]) == (-math.pi, math.pi)


def block_bound(cfg: NetworkConfig, per_block: int) -> int:
    """Bytes a process may hold at its traced peak besides z: one block's
    uniforms, three (B, L) float64 arrays and 16 KB of small arrays. The
    serial peaks measured at the shapes below (Laplace L = 100: 320 KB;
    Gaussian L = 101: 261 KB; Cauchy L = 100: 197 KB) sit 14, 13 and
    73 KB under it, at 4 blocks and at 40 alike."""
    return per_block * (snapshot_uniforms(cfg) + 3 * cfg.L) * 8 + 16 * 1024


class TestBlockLoopAllocations:
    @pytest.mark.parametrize("blocks", [4, 40])
    @pytest.mark.parametrize("model, L", [("laplace", 100), ("gaussian", 101), ("cauchy", 100)])
    def test_blocks_reuse_their_buffers(self, monkeypatch, model, L, blocks):
        """A warm run at the mc-small-L shape (Laplace, L = 100, a noisy
        channel), and Gaussian pairs at odd L, holds at its traced peak z
        and at most block_bound, at 4 blocks and at 40 alike: memory does
        not grow with the number of blocks. The substream states are
        derived before tracing, since their derivation allocates about
        100 B per trial."""
        cfg = make_config(model=model, L=L, channel_noise_var=1.0, omega=0.8)
        per_block = montecarlo._BLOCK_SAMPLES // cfg.L
        trials = blocks * per_block
        root = RandomStream(cfg.seed)
        states = root.substream_states(trials)
        monkeypatch.setattr(RandomStream, "substream_states", lambda self, n: states)
        montecarlo._received_z(cfg, trials, root)
        tracemalloc.start()
        try:
            z = montecarlo._received_z(cfg, trials, root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - z.nbytes <= block_bound(cfg, per_block), (peak, z.nbytes)

    @pytest.mark.parametrize("model, L", [("laplace", 1000), ("gaussian", 1001), ("cauchy", 1000)])
    def test_concurrent_blocks_reuse_their_buffers(self, monkeypatch, tmp_path, model, L):
        """A warm run on two CPUs at L = 1000 forks one trial range, and
        each process holds at its traced peak z and at most block_bound,
        however many blocks it runs: after every block a process logs its
        traced peak (a child inherits the tracing)."""
        cfg = make_config(model=model, L=L, channel_noise_var=1.0, omega=0.8)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        per_block = montecarlo._BLOCK_SAMPLES // L
        trials = 12 * per_block + 5
        root = RandomStream(cfg.seed)
        states = root.substream_states(trials)
        monkeypatch.setattr(RandomStream, "substream_states", lambda self, n: states)
        montecarlo._received_z(cfg, trials, root)
        simulate_block = montecarlo.simulate_block
        log = os.open(tmp_path / "peaks", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def logged(*args):
            result = simulate_block(*args)
            os.write(log, f"{os.getpid()} {tracemalloc.get_traced_memory()[1]}\n".encode())
            return result

        monkeypatch.setattr(montecarlo, "simulate_block", logged)
        tracemalloc.start()
        try:
            z = montecarlo._received_z(cfg, trials, root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            os.close(log)
        peaks = {}
        for line in (tmp_path / "peaks").read_text().splitlines():
            pid, value = map(int, line.split())
            peaks[pid] = max(peaks.get(pid, 0), value)
        assert len(peaks) == 2, peaks
        bound = block_bound(cfg, per_block) + z.nbytes
        assert max(peaks.values()) <= bound and peak <= bound, (peaks, peak, bound)

    def test_no_block_allocates(self, monkeypatch):
        """No block keeps what it allocates, at the mc-small-L shape: the
        traced memory as each block from the second on draws its uniforms
        (the previous block's are alive there) is the same to 1 KB, the
        records this test appends, and what one block adds, from its
        uniforms to its z, stays within block_bound. A peak over the run
        would not tell memory held across blocks from memory allocated
        and freed by every block."""
        cfg = make_config(model="laplace", L=100, channel_noise_var=1.0, omega=0.8)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)  # every block here
        per_block = montecarlo._BLOCK_SAMPLES // cfg.L
        trials = 8 * per_block + 5
        montecarlo._received_z(cfg, trials, RandomStream(cfg.seed))
        held, grown = [], []
        fill, simulate = montecarlo.uniforms_from_states, montecarlo.simulate_block

        def traced_fill(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return fill(*args, **kwargs)

        def traced_simulate(*args, **kwargs):
            result = simulate(*args, **kwargs)
            grown.append(tracemalloc.get_traced_memory()[1] - held[-1])
            return result

        monkeypatch.setattr(montecarlo, "uniforms_from_states", traced_fill)
        monkeypatch.setattr(montecarlo, "simulate_block", traced_simulate)
        tracemalloc.start()
        try:
            montecarlo._received_z(cfg, trials, RandomStream(cfg.seed))
        finally:
            tracemalloc.stop()
        assert len(grown) == 9 and max(held[1:]) - min(held[1:]) <= 1024, held
        assert max(grown) <= block_bound(cfg, per_block), grown


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

    def test_underflowing_snr_truth_is_a_row_error(self):
        """A sigma row where (theta / sigma)^2 underflows to 0 wrote 0.0 for
        asv_gamma, against a true 2.0e-280; the row now carries the error."""
        cfg = make_config(L=20, theta=1e-200, omega=1.0)
        (row,) = sweep(cfg, "sigma", [1e-30], trials=4)
        assert row.summary is None and row.asv is None
        assert row.error == "asv_gamma is out of floating-point range at theta=1e-200, sigma=1e-30"

    def test_error_row_does_not_abort(self):
        """An invalid grid point yields an error row; later rows are fine."""
        cfg = make_config(L=100)  # omega cap is 1.0 at theta_R = 2 pi
        rows = sweep(cfg, "omega", [0.5, 1.2, 0.9], trials=16)
        assert rows[1].error is not None and "omega" in rows[1].error
        assert rows[1].summary is None
        assert rows[0].error is None and rows[2].error is None
        assert rows[2].summary is not None

    def test_overflowing_asv_gamma_is_an_error_row(self):
        """sigma^2 = inf raised a bare OverflowError that aborted the
        sweep; the row records it and the other rows are unchanged."""
        cfg = make_config(L=50)
        rows = sweep(cfg, "sigma", [1.0, 1e200, 2.0], trials=8)
        assert rows[1].error is not None and "asv_gamma" in rows[1].error
        assert rows[1].summary is None and rows[1].asv is None
        alone = sweep(cfg, "sigma", [1.0], trials=8)[0]
        assert rows[0].error is None and rows[2].error is None
        assert rows[0].summary.theta == alone.summary.theta
        assert rows[0].asv == alone.asv

    def test_saturated_row_keeps_asymptote(self):
        """A point whose trials all saturate still reports its asymptotic
        variance; only the empirical half is missing."""
        cfg = make_config(L=1, channel_noise_var=1e6)
        rows = sweep(cfg, "sigma", [1.0], trials=8)
        assert rows[0].error is not None
        assert rows[0].asv is not None
        assert rows[0].summary is None

    def test_sigma_axis_auto_rule(self):
        cfg = make_config(L=100, theta_R=math.pi, theta=1.0)
        rows = sweep(cfg, "sigma", [0.8], trials=8, omega_rule="auto:theta")
        expected, _ = rule_omega(
            "auto:theta", cfg.model, 0.8, cfg.P, cfg.channel_noise_var, cfg.power_mode,
            cfg.theta, 2.0 * math.pi / cfg.theta_R,
        )
        np.testing.assert_allclose(rows[0].omega, expected, rtol=1e-12)

    def test_omega_rule_rejected_on_omega_axis(self):
        with pytest.raises(ValueError, match="sigma sweeps"):
            sweep(make_config(), "omega", [0.5], trials=4, omega_rule="auto:theta")

    def test_zero_sigma_row_under_auto_gamma(self):
        """The true SNR (theta / sigma)^2 of a sigma = 0 row raised
        ZeroDivisionError out of the sweep; it is an error row now."""
        rows = sweep(make_config(L=20), "sigma", [0.0, 1.0], trials=4, omega_rule="auto:gamma")
        assert rows[0].error is not None and "sigma" in rows[0].error
        assert rows[1].error is None

    def test_bad_omega_rule_token_errors_rows(self):
        """A bad token is wrong for the whole call: it raises once instead
        of turning every row into an all-NaN error row."""
        with pytest.raises(ValueError, match="omega_rule"):
            sweep(make_config(L=50), "sigma", [1.0, 2.0], trials=4, omega_rule="fastest")

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="axis"):
            sweep(make_config(), "theta", [1.0], trials=4)

    @pytest.mark.parametrize("trials", [0, 2.5, False])
    def test_bad_trial_count_rejected_before_rows(self, trials):
        """Used to return one error row per grid point (0) or raise a raw
        numpy TypeError (2.5)."""
        with pytest.raises(ValueError, match="trials must be an integer"):
            sweep(make_config(), "omega", [0.5, 0.9], trials=trials)

    def test_trial_count_bounded_before_rows(self, monkeypatch):
        """trials = 2**32 used to reach every row, each failing on the
        substream bound with an error naming n, not trials."""

        def forbidden(*args):
            raise AssertionError("a row ran")

        monkeypatch.setattr(montecarlo, "run_experiment", forbidden)
        with pytest.raises(ValueError, match=r"^trials must be below 2\*\*32"):
            sweep(make_config(L=1), "omega", [0.5, 0.9], trials=2**32)


    def test_empty_grid_gives_no_rows(self, monkeypatch):
        """_processes(0) was 0, which _forked used as a range step: a sweep
        over no grid values raised "range() arg 3 must not be zero". It
        returns no rows and forks nothing, as _forked(task, 0) does."""

        def forbidden():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", forbidden)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        assert montecarlo._forked(lambda i: i, 0) == []
        assert sweep(make_config(L=20), "sigma", [], 10) == []

    def test_bad_grid_value_rejected_before_rows(self, monkeypatch):
        """A grid value that is not a number raised ValueError only after
        the rows before it had run."""
        calls = []
        run = montecarlo.run_experiment

        def counted(*args):
            calls.append(1)
            return run(*args)

        monkeypatch.setattr(montecarlo, "run_experiment", counted)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        with pytest.raises(ValueError, match="grid value must be a real number, got 'fast'"):
            sweep(make_config(L=20), "omega", [0.5, 0.9, "fast"], trials=4)
        assert calls == []

    @pytest.mark.parametrize(
        "raw", [True, "0.5", b"0.5", math.nan, -math.inf], ids=["bool", "str", "bytes", "nan", "-inf"]
    )
    def test_wrongly_typed_grid_value_rejected(self, raw):
        """A bool, a str or bytes of a number, NaN or an infinity is not a
        grid value: True ran a row at 1.0 and "0.5" and b"0.5" at 0.5, as
        float() read them; real_number rejects them at every other entry."""
        with pytest.raises(ValueError, match="^grid value must be"):
            sweep(make_config(L=20), "omega", [0.5, raw], trials=4)


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

    def test_empty_sweep_writes_manifest_and_header(self):
        """A sweep over no grid values gives a file of its manifest and
        header alone."""
        buf = io.StringIO()
        write_sweep_csv(sweep(make_config(L=20), "omega", [], 10), buf, manifest={"grid": []})
        assert buf.getvalue() == '# manifest: {"grid": []}\n' + CSV_HEADER + "\n"

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

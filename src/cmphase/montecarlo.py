"""Monte Carlo experiments: repeated snapshots, estimator statistics,
parameter sweeps, and a deterministic CSV emitter.

Empirical variances are reported L-scaled (sample variance times the
sensor count) so they sit on the same scale as the asymptotic variance
expressions and the two can be overlaid directly.

Reproducibility contract: trial t of row i always draws from the
substream keyed (i, t) of the base stream, so results are independent
of which rows of a sweep are run. CSV output carries no timestamps; a
rerun with the same inputs is byte-identical.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .asymptotic import AsvReport, asv_generic
from .estimators import simple_estimates
from .network import ConfigError, NetworkConfig, simulate_snapshot
from .numkit import RandomStream
from .tuning import resolve_omega

__all__ = [
    "EstimandStats",
    "McSummary",
    "SweepRow",
    "AllTrialsSaturatedError",
    "run_experiment",
    "sweep",
    "write_sweep_csv",
    "CSV_HEADER",
]

CSV_HEADER = (
    "axis,value,emp_var_theta,emp_var_sigma,emp_var_gamma,"
    "asv_theta,asv_sigma,asv_gamma,saturated_frac,trials,L"
)

_TRIM_FRACTION = 0.01  # two-sided trim on the SNR sample before its variance


class AllTrialsSaturatedError(RuntimeError):
    """Every trial saturated: no scale or SNR information in the run."""


@dataclass(frozen=True)
class EstimandStats:
    mean: float
    variance_l: float  # L * sample variance (ddof=1); nan for < 2 samples
    bias: float

    def to_json_dict(self) -> dict:
        return {"mean": self.mean, "variance_l": self.variance_l, "bias": self.bias}


@dataclass(frozen=True)
class McSummary:
    trials: int
    L: int
    theta: EstimandStats
    sigma: EstimandStats
    gamma: EstimandStats | None  # over non-saturated trials; None if none
    gamma_trimmed_variance_l: float  # trimmed variant of gamma.variance_l
    gamma_trials: int
    saturated: int
    wall_time_s: float

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "L": self.L,
            "theta": self.theta.to_json_dict(),
            "sigma": self.sigma.to_json_dict(),
            "gamma": None if self.gamma is None else self.gamma.to_json_dict(),
            "gamma_trimmed_variance_l": self.gamma_trimmed_variance_l,
            "gamma_trials": self.gamma_trials,
            "saturated": self.saturated,
            "wall_time_s": self.wall_time_s,
        }


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    omega: float | None
    summary: McSummary | None
    asv: AsvReport | None
    error: str | None = None


def _stats(values: np.ndarray, truth: float, L: int) -> EstimandStats:
    mean = float(np.mean(values))
    var = float(np.var(values, ddof=1)) * L if values.size >= 2 else math.nan
    return EstimandStats(mean=mean, variance_l=var, bias=mean - truth)


def _trimmed_variance_l(values: np.ndarray, L: int) -> float:
    k = int(math.floor(_TRIM_FRACTION * values.size))
    kept = np.sort(values)[k : values.size - k]
    if kept.size < 2:
        return math.nan
    return float(np.var(kept, ddof=1)) * L


def run_experiment(
    cfg: NetworkConfig,
    trials: int,
    base_seed: int | None = None,
    root_stream: RandomStream | None = None,
) -> McSummary:
    """Run repeated snapshots of cfg and summarize the simple estimators.

    Location estimates are compared to the truth modulo the phase period
    2*pi/omega: the reported deviation is the wrapped one nearest zero,
    so a truth near the interval edge does not show a spurious O(theta_R)
    error. Scale statistics include saturated trials (sigma_hat = 0);
    SNR statistics cover only non-saturated trials.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if root_stream is None:
        root_stream = RandomStream(cfg.seed if base_seed is None else base_seed)

    t0 = time.perf_counter()
    theta_hat = np.empty(trials)
    sigma_hat = np.empty(trials)
    gamma_hat = np.full(trials, math.nan)
    saturated = np.zeros(trials, dtype=bool)

    for t in range(trials):
        snap = simulate_snapshot(cfg, root_stream.substream(t))
        est = simple_estimates(snap.z, cfg.omega, cfg.P, cfg.model)
        theta_hat[t] = est.theta_hat
        sigma_hat[t] = est.sigma_hat
        if est.gamma_hat is not None:
            gamma_hat[t] = est.gamma_hat
        saturated[t] = est.saturated

    n_sat = int(np.count_nonzero(saturated))
    if n_sat == trials:
        raise AllTrialsSaturatedError(
            f"all {trials} trials saturated (|z| > sqrt(P)); "
            "omega is likely too large for this sigma"
        )

    # Wrap location deviations into (-pi, pi] in phase before comparing.
    delta = np.mod(cfg.omega * (theta_hat - cfg.theta) + math.pi, 2.0 * math.pi) - math.pi
    theta_unwrapped = cfg.theta + delta / cfg.omega

    usable = ~np.isnan(gamma_hat)
    gamma_vals = gamma_hat[usable]
    gamma_truth = (cfg.theta / cfg.sigma) ** 2
    gamma_stats = _stats(gamma_vals, gamma_truth, cfg.L) if gamma_vals.size else None
    trimmed = _trimmed_variance_l(gamma_vals, cfg.L) if gamma_vals.size else math.nan

    return McSummary(
        trials=trials,
        L=cfg.L,
        theta=_stats(theta_unwrapped, cfg.theta, cfg.L),
        sigma=_stats(sigma_hat, cfg.sigma, cfg.L),
        gamma=gamma_stats,
        gamma_trimmed_variance_l=trimmed,
        gamma_trials=int(gamma_vals.size),
        saturated=n_sat,
        wall_time_s=time.perf_counter() - t0,
    )


def _resolve_sweep_omega(
    cfg: NetworkConfig, sigma: float, omega_rule
) -> float:
    """Omega for one sigma-axis point. omega_rule is None (keep cfg.omega),
    a callable sigma -> omega, or an 'auto:<target>' token resolved with
    the true SNR of the point."""
    if omega_rule is None:
        return cfg.omega
    if callable(omega_rule):
        return float(omega_rule(sigma))
    token = str(omega_rule)
    if not token.startswith("auto:"):
        raise ValueError(f"omega_rule must be None, callable, or 'auto:<target>', got {token!r}")
    target = token[len("auto:") :]
    gamma = (cfg.theta / sigma) ** 2 if target == "gamma" else None
    omega, _ = resolve_omega(
        cfg.model, sigma, cfg.P, cfg.channel_noise_var, target,
        power_mode=cfg.power_mode, gamma=gamma,
        omega_max=2.0 * math.pi / cfg.theta_R,
    )
    return omega


def sweep(
    cfg: NetworkConfig,
    axis: str,
    grid,
    trials: int,
    base_seed: int | None = None,
    omega_rule=None,
) -> list[SweepRow]:
    """Monte Carlo sweep along omega or sigma.

    Row i of the sweep draws from substream (i,) of the base stream, so
    a row's result depends only on its index and the seed: editing one
    grid value or appending points never changes the other rows. A point
    that fails validation or saturates entirely yields a row with the
    error message instead of aborting the sweep.
    """
    if axis not in ("omega", "sigma"):
        raise ValueError(f"axis must be 'omega' or 'sigma', got {axis!r}")
    if axis == "omega" and omega_rule is not None:
        raise ValueError("omega_rule applies only to sigma sweeps")
    root = RandomStream(cfg.seed if base_seed is None else base_seed)

    rows: list[SweepRow] = []
    for i, raw in enumerate(grid):
        value = float(raw)
        omega: float | None = None
        asv: AsvReport | None = None
        try:
            if axis == "omega":
                cfg_i = cfg.with_updates(omega=value)
            else:
                omega = _resolve_sweep_omega(cfg, value, omega_rule)
                cfg_i = cfg.with_updates(sigma=value, omega=omega)
            omega = cfg_i.omega
            asv = asv_generic(
                cfg_i.model, cfg_i.sigma, cfg_i.omega, cfg_i.P,
                channel_noise_var=cfg_i.channel_noise_var,
                theta=cfg_i.theta, power_mode=cfg_i.power_mode,
            )
            summary = run_experiment(cfg_i, trials, root_stream=root.substream(i))
        except (ConfigError, ValueError, AllTrialsSaturatedError) as exc:
            rows.append(SweepRow(axis, value, omega, None, asv, str(exc)))
            continue
        rows.append(SweepRow(axis, value, omega, summary, asv, None))
    return rows


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return f"{float(x):.9g}"


def write_sweep_csv(rows: list[SweepRow], destination, manifest: dict | None = None) -> None:
    """Write sweep rows as CSV to a path or file-like object.

    The optional manifest dict is embedded as a single '# manifest: ...'
    comment line above the header, serialized with sorted keys so equal
    inputs produce byte-identical files. emp_var_gamma is the trimmed
    variant (the SNR ratio has heavy tails at finite L).
    """
    lines = []
    if manifest is not None:
        lines.append("# manifest: " + json.dumps(manifest, sort_keys=True))
    lines.append(CSV_HEADER)
    for row in rows:
        s = row.summary
        a = row.asv
        lines.append(
            ",".join(
                [
                    row.axis,
                    _fmt(row.value),
                    _fmt(s.theta.variance_l if s else None),
                    _fmt(s.sigma.variance_l if s else None),
                    _fmt(s.gamma_trimmed_variance_l if s else None),
                    _fmt(a.asv_theta if a else None),
                    _fmt(a.asv_sigma if a else None),
                    _fmt(a.asv_gamma if a and a.asv_gamma is not None else None),
                    _fmt(s.saturated / s.trials if s else None),
                    str(s.trials if s else 0),
                    str(s.L if s else 0),
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)

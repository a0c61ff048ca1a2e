"""Monte Carlo experiments: repeated snapshots, estimator statistics,
parameter sweeps, and a deterministic CSV emitter.

Empirical variances are reported L-scaled (sample variance times the
sensor count) so they sit on the same scale as the asymptotic variance
expressions and the two can be overlaid directly.

Reproducibility contract: trial t of row i always draws the first
uniforms of RandomStream(cfg.seed, (i, t)), so results are independent
of which rows of a sweep are run. cfg.seed is the one seed; another run
is dataclasses.replace(cfg, seed=...). CSV output carries no
timestamps; a rerun with the same inputs is byte-identical.

Trials run in blocks. The substream seeds of all trials of a run are
derived in one vectorized pass; a block's uniforms are drawn into one
array, and the draw transforms, phasor sums and channel noise run over
the whole block, giving z as a complex array, checked finite once. Each
process allocates its uniform array and scratch (network.block_work)
once per run and forms every block it runs in them: no block allocates.
The inversions then run per trial over z.tolist() through the unchecked
scalar steps of estimate_location and estimate_scale (numpy's arctan2,
abs and log on arrays may differ from math's in the last bit); no
per-trial object is built.

Work is spread over the usable CPUs one way, by _forked: tasks run in
this process and in children made by os.fork, which send their results
back pickled through a pipe. A sweep of more than one row forks its
rows; a one-row sweep or a direct run_experiment forks contiguous
ranges of its trials, each run in blocks in its own process. A process
running a share of forked tasks forks nothing more, so forks never
nest. A process with one usable CPU, one item (one row, or one block of
trials), no os.fork or another live thread runs serially. A task writes
only its own results, so the samples do not depend on the block size,
the process count or the scheduling, and there is no setting for any of
this.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import threading
from dataclasses import dataclass, replace

import numpy as np

from .asymptotic import AsvReport, asv_generic
from .estimators import _location, _scale, estimate_snr
from .network import ConfigError, NetworkConfig, block_work, simulate_block, snapshot_uniforms
from .numkit import RandomStream, real_number, uniforms_from_states, whole_number
from .tuning import rule_omega, rule_target

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
# Sensor samples per block of trials (at least one trial per block), which
# sizes a process's buffers. At L = 100, 2^13 ran 3-6% faster than 2^12 or
# 2^14; every run maps the 256 KB buffers of 2^14 afresh (about 770 minor
# page faults per 8-row sweep against 3).
_BLOCK_SAMPLES = 1 << 13
# True while this process runs a share of tasks spread by _forked.
_sharing = False


class AllTrialsSaturatedError(RuntimeError):
    """Every trial saturated: no scale or SNR information in the run."""


@dataclass(frozen=True)
class EstimandStats:
    mean: float
    variance_l: float  # L * sample variance (ddof=1); nan for < 2 samples
    bias: float


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


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    omega: float | None
    summary: McSummary | None
    asv: AsvReport | None
    error: str | None = None


def _stats(values: np.ndarray, truth: float, L: int) -> EstimandStats:
    with np.errstate(over="ignore"):  # an overflowing variance reads inf
        mean = float(np.mean(values))
        var = float(np.var(values, ddof=1)) * L if values.size >= 2 else math.nan
    return EstimandStats(mean=mean, variance_l=var, bias=mean - truth)


def _trimmed_variance_l(values: np.ndarray, L: int) -> float:
    k = int(math.floor(_TRIM_FRACTION * values.size))
    kept = np.sort(values)[k : values.size - k]
    if kept.size < 2:
        return math.nan
    with np.errstate(over="ignore"):  # an overflowing variance reads inf
        return float(np.var(kept, ddof=1)) * L


def _phase_deviation(theta_hats: np.ndarray, theta: float, omega: float) -> np.ndarray:
    """omega (theta_hat - theta) wrapped into [-pi, pi], both ends
    included: np.mod(x, 2 pi) rounds a tiny negative x to exactly 2 pi."""
    return np.mod(omega * (theta_hats - theta) + math.pi, 2.0 * math.pi) - math.pi


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _processes(items: int) -> int:
    """The processes that items of work may use: min(usable CPUs, items),
    or 1 where os.fork is missing, another thread is alive (forking a
    process with threads is unsafe) or this process runs a forked share."""
    if _sharing or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(_usable_cpus(), items)


def _received_z(cfg: NetworkConfig, trials: int, root: RandomStream) -> np.ndarray:
    """Normalized received samples z of trials 0, ..., trials - 1, trial t
    drawn from root.substream(t), simulated block by block.

    A block holds _BLOCK_SAMPLES sensor samples and at least one trial.
    The trials are cut into P = _processes(blocks) contiguous ranges, one
    per process of _forked. Each range allocates one uniform array and
    one block_work of min(its trials, per_block) rows and refills them
    for every block, a shorter last block their first rows. A phase past
    the float range gives a NaN z without a warning, for run_experiment
    to reject.
    """
    per_block = max(1, _BLOCK_SAMPLES // cfg.L)
    n = snapshot_uniforms(cfg)
    states = root.substream_states(trials)
    procs = _processes(-(-trials // per_block))

    def share(k: int) -> np.ndarray:
        lo, hi = trials * k // procs, trials * (k + 1) // procs
        # Filled in place: per-block arrays kept alive until one concatenate
        # fragmented the heap (5x the page faults at L = 10^4).
        z = np.empty(hi - lo, dtype=complex)
        rows = min(per_block, hi - lo)
        u, work = np.empty((rows, n)), block_work(cfg, rows)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(lo, hi, per_block):
                m = min(per_block, hi - start)
                uniforms_from_states(states[start : start + m], n, out=u[:m])
                z[start - lo : start - lo + m] = simulate_block(cfg, u[:m], work)[1]
        return z

    return np.concatenate(_forked(share, procs))


def run_experiment(
    cfg: NetworkConfig, trials: int, stream: RandomStream | None = None
) -> McSummary:
    """Run repeated snapshots of cfg and summarize the simple estimators.

    Trial t draws from stream.substream(t); stream defaults to
    RandomStream(cfg.seed).

    Location estimates are compared to the truth modulo the phase period
    2*pi/omega: the reported deviation is the wrapped one nearest zero,
    so a truth near the interval edge does not show a spurious O(theta_R)
    error. Scale statistics include saturated trials (sigma_hat = 0);
    SNR statistics cover only non-saturated trials. A non-finite z or
    estimate raises ValueError.
    """
    trials = whole_number("trials", trials, 1)
    if trials >= 2**32:  # substream_states' bound
        raise ValueError(f"trials must be below 2**32, got {trials!r}")
    if stream is None:
        stream = RandomStream(cfg.seed)

    omega, P, inverse = cfg.omega, cfg.P, cfg.model.inverse_abs_char_fn
    thetas: list[float] = []
    sigmas: list[float] = []
    gammas: list[float] = []  # trials with sigma_hat > 0 only, in trial order
    n_sat = 0
    zs = _received_z(cfg, trials, stream)
    if not np.isfinite(zs).all():
        raise ValueError(f"non-finite z at sigma={cfg.sigma!r}, omega={cfg.omega!r}")
    for z in zs.tolist():
        theta_t = _location(z, omega)
        sigma_t, saturated = _scale(z, omega, P, inverse)
        thetas.append(theta_t)
        sigmas.append(sigma_t)
        if sigma_t > 0.0:
            gammas.append(estimate_snr(theta_t, sigma_t))
        n_sat += saturated

    if n_sat == trials:
        phi = cfg.model.char_fn(cfg.sigma, omega)
        raise AllTrialsSaturatedError(
            f"all {trials} trials saturated (|z| > sqrt(P)) at phi(sigma omega) = {phi:.6g}; "
            "saturation grows as sigma * omega or L falls, or as the channel noise grows"
        )

    theta_hats, sigma_hats = np.array(thetas), np.array(sigmas)
    if not (np.isfinite(theta_hats).all() and np.isfinite(sigma_hats).all()):
        raise ValueError(f"theta_hat or sigma_hat overflows at omega={cfg.omega!r}")
    theta_unwrapped = cfg.theta + _phase_deviation(theta_hats, cfg.theta, cfg.omega) / cfg.omega

    gamma_vals = np.array(gammas)
    gamma_truth = estimate_snr(cfg.theta, cfg.sigma)
    gamma_stats = _stats(gamma_vals, gamma_truth, cfg.L) if gamma_vals.size else None
    trimmed = _trimmed_variance_l(gamma_vals, cfg.L) if gamma_vals.size else math.nan

    return McSummary(
        trials=trials,
        L=cfg.L,
        theta=_stats(theta_unwrapped, cfg.theta, cfg.L),
        sigma=_stats(sigma_hats, cfg.sigma, cfg.L),
        gamma=gamma_stats,
        gamma_trimmed_variance_l=trimmed,
        gamma_trials=int(gamma_vals.size),
        saturated=n_sat,
    )


def sweep(
    cfg: NetworkConfig,
    axis: str,
    grid,
    trials: int,
    omega_rule: str | None = None,
) -> list[SweepRow]:
    """Monte Carlo sweep along omega or sigma.

    Row i of the sweep draws from RandomStream(cfg.seed).substream(i), so
    a row's result depends only on its index and the seed: editing one
    grid value or appending points never changes the other rows. A point
    that fails validation or saturates entirely yields a row with the
    error message instead of aborting the sweep; a bad axis, trial count
    (at least 2, so that every sample variance is defined), grid value or
    omega_rule raises ValueError before any row runs.

    The rows run through _forked, which spreads them over forked
    processes where it can; a one-row sweep runs its row here, and that
    row's run_experiment spreads its trials instead. There is no setting
    for this, and the rows are the same bits either way. A row error
    other than those above propagates, the lowest row's first.
    """
    if axis not in ("omega", "sigma"):
        raise ValueError(f"axis must be 'omega' or 'sigma', got {axis!r}")
    if omega_rule is not None:
        if axis == "omega":
            raise ValueError("omega_rule applies only to sigma sweeps")
        rule_target(omega_rule)
    trials = whole_number("trials", trials, 2)
    if trials >= 2**32:  # substream_states' bound, checked before any row
        raise ValueError(f"trials must be below 2**32, got {trials!r}")
    values = [real_number("grid value", raw, -math.inf) for raw in grid]
    root = RandomStream(cfg.seed)

    def row(i: int) -> SweepRow:
        value = values[i]
        omega: float | None = None
        asv: AsvReport | None = None
        try:
            if axis == "omega":
                cfg_i = replace(cfg, omega=value)
            else:
                omega = cfg.omega
                if omega_rule is not None:
                    omega, _ = rule_omega(
                        omega_rule, cfg.model, value, cfg.P, cfg.channel_noise_var,
                        cfg.power_mode, cfg.theta, 2.0 * math.pi / cfg.theta_R,
                    )
                cfg_i = replace(cfg, sigma=value, omega=omega)
            omega = cfg_i.omega
            asv = asv_generic(
                cfg_i.model, cfg_i.sigma, cfg_i.omega, cfg_i.P,
                channel_noise_var=cfg_i.channel_noise_var,
                theta=cfg_i.theta, power_mode=cfg_i.power_mode,
            )
            summary = run_experiment(cfg_i, trials, root.substream(i))
        except (ConfigError, ValueError, AllTrialsSaturatedError) as exc:
            return SweepRow(axis, value, omega, None, asv, str(exc))
        return SweepRow(axis, value, omega, summary, asv, None)

    return _forked(row, len(values))


def _tasks_of(task, start: int, n: int, step: int) -> list[tuple]:
    """(i, task(i)) for i in range(start, n, step), up to the first (i, exception)."""
    out = []
    for i in range(start, n, step):
        try:
            out.append((i, task(i)))
        except Exception as exc:
            out.append((i, exc))
            break
    return out


def _forked(task, n: int) -> list:
    """[task(i) for i in range(n)]: process k of this one and P - 1 forked
    children, P = _processes(n), gives _tasks_of(task, k, n, P), a child's
    through a pipe (an exception that does not survive pickling as a
    RuntimeError naming it); with P = 1 the tasks run here in turn. While
    P > 1 every process is flagged as running a share, so a task forks
    nothing more. Every child is reaped before this returns, and killed
    first if this process failed outside a task. The lowest failed task's
    exception is raised."""
    global _sharing
    procs, outer = _processes(n), _sharing
    children, payloads, done = [], [], False  # children: (pid, pipe read end)
    try:
        _sharing = outer or procs > 1
        for k in range(1, procs):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # the child: leaves by os._exit, never returns
                try:
                    out = _tasks_of(task, k, n, procs)
                    i, last = out[-1]
                    try:
                        pickle.loads(pickle.dumps(last))
                    except Exception:
                        name = type(last).__qualname__
                        out[-1] = i, RuntimeError(f"forked task {i} raised {name}: {last}")
                    with open(w, "wb") as pipe:
                        pipe.write(pickle.dumps(out))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children.append((pid, r))
        outcomes = _tasks_of(task, 0, n, procs)
        done = True
    finally:
        _sharing = outer
        for pid, r in children:
            if not done:
                os.kill(pid, 9)  # SIGKILL, without importing signal
            with open(r, "rb") as pipe:
                payloads.append((pipe.read(), os.waitpid(pid, 0)[1]))
    for (pid, _), (payload, status) in zip(children, payloads):
        code = os.waitstatus_to_exitcode(status)  # 0 only once its results are written
        if code != 0:
            raise RuntimeError(f"forked child {pid} exited with status {code} before its results")
        outcomes += pickle.loads(payload)
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, out in outcomes:
        if isinstance(out, Exception):
            raise out
    return [out for _, out in outcomes]


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return f"{float(x):.9g}"


def write_sweep_csv(rows: list[SweepRow], destination, manifest: dict | None = None) -> None:
    """Write sweep rows as CSV to a path or file-like object.

    The optional manifest dict is embedded as a single '# manifest: ...'
    comment line above the header, serialized with sorted keys so equal
    inputs produce byte-identical files; a non-finite float in it raises
    ValueError before anything is written. emp_var_gamma is the trimmed
    variant (the SNR ratio has heavy tails at finite L); it reads nan
    where fewer than two trials escape saturation (sigma_hat > 0), the
    only ones with an SNR estimate. An emp_var_* value reads inf where
    the L-scaled sample variance overflows, as an asv_* value reads inf
    where the component is not estimable.
    """
    lines = []
    if manifest is not None:
        lines.append("# manifest: " + json.dumps(manifest, sort_keys=True, allow_nan=False))
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

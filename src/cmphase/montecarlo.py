"""Monte Carlo experiments: repeated snapshots, estimator statistics,
parameter sweeps, and a deterministic CSV emitter.

Empirical variances are reported L-scaled (sample variance times the
sensor count) so they sit on the same scale as the asymptotic variance
expressions and the two can be overlaid directly.

Reproducibility contract: trial t of row i always draws the first
uniforms of RandomStream(cfg.seed, (i, t)), so results are independent
of which rows of a sweep are run. cfg.seed is the one seed; another run
is cfg.with_updates(seed=...). CSV output carries no timestamps; a
rerun with the same inputs is byte-identical.

Trials run in blocks. The substream seeds of all trials of a run are
derived in one vectorized pass; a block's uniforms are drawn into one
array, and the draw transforms, phasor sums and channel noise run over
the whole block, giving z as a complex array, checked finite once. Each
thread allocates its uniform array and scratch (network.block_work) once
per run and forms every block it takes in them: no block allocates. The
inversions then run per trial over z.tolist() through the unchecked
scalar steps of estimate_location and estimate_scale (numpy's arctan2,
abs and log on arrays may differ from math's in the last bit); no
per-trial object is built.

Blocks run concurrently on the CPUs this process may use: the calling
thread and a pool of one thread per further CPU, built for the run and
joined when it ends, each take the next block. A block reads its own
substream states and writes only its own slice of z, so the samples do
not depend on the block size, the worker count or the scheduling. The
kernels that take a block's time (the PCG64 fill, the draw transforms,
cos, sin and the sums) release the GIL, but every numpy call also hands
the GIL over, so concurrent blocks are _CONCURRENT_BLOCK_FACTOR times
larger: fewer calls per trial. A process with one usable CPU or trials
of fewer than _CONCURRENT_MIN_L sensor samples (where the GIL-bound
per-trial generator construction dominates) run every block on the
calling thread, in blocks of _BLOCK_SAMPLES, and build no pool; nor does
a run whose trials fit in one concurrent block. A sweep of such trials
spreads its rows over forked processes instead (see sweep).
"""

from __future__ import annotations

import json
import math
import os
import pickle
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .asymptotic import AsvReport, asv_generic
from .estimators import _location, _scale, estimate_snr
from .network import ConfigError, NetworkConfig, block_work, simulate_block, snapshot_uniforms
from .numkit import RandomStream, uniforms_from_states, whole_number
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
# Sensor samples per block of trials on the calling thread alone (at least
# one trial per block), which sizes its buffers. At L = 100, 2^13 ran 3-6%
# faster than 2^12 or 2^14; every run maps the 256 KB buffers of 2^14
# afresh (about 770 minor page faults per 8-row sweep against 3).
_BLOCK_SAMPLES = 1 << 13
# Blocks run concurrently hold this many times _BLOCK_SAMPLES. Each block
# makes a few dozen numpy calls, each releasing and retaking the GIL; with
# one trial per block at L = 10^4 two threads spent much of a block on
# that handoff. On two CPUs 2^15-sample blocks (three trials at L = 10^4)
# cut the acceptance points' time by 23% (bench mc-large-L wall_s 0.442 s
# to 0.340 s, medians of ten pairs) for 0.96 MB more peak RSS; 2^16 ran
# 4% faster again but cost 1.9 MB more, +7% peak RSS over one-trial
# blocks.
_CONCURRENT_BLOCK_FACTOR = 4
# Sensor samples per trial from which blocks run concurrently. Below it
# the per-trial PCG64 construction, which holds the GIL, is a large share
# of a block, and a second thread contending for the GIL made L = 100
# sweeps 15-40% slower on two CPUs; from L = 1000 on they ran 35-40%
# faster.
_CONCURRENT_MIN_L = 1000


class AllTrialsSaturatedError(RuntimeError):
    """Every trial saturated: no scale or SNR information in the run."""


@dataclass(frozen=True)
class EstimandStats:
    mean: float
    variance_l: float  # L * sample variance (ddof=1); nan for < 2 samples
    bias: float

    def to_json_dict(self) -> dict:
        return asdict(self)


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

    def to_json_dict(self) -> dict:
        return asdict(self)


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


def _received_z(cfg: NetworkConfig, trials: int, root: RandomStream) -> np.ndarray:
    """Normalized received samples z of trials 0, ..., trials - 1, trial t
    drawn from root.substream(t), simulated block by block, the blocks
    spread over the usable CPUs.

    A block holds _BLOCK_SAMPLES sensor samples, _CONCURRENT_BLOCK_FACTOR
    times as many where blocks may run concurrently (L of at least
    _CONCURRENT_MIN_L and more than one usable CPU), and at least one
    trial. The calling thread and, for a concurrent run, workers - 1
    threads of a pool built for this run each take the next block start
    under a lock. Each thread allocates one uniform array and one
    block_work of min(trials, per_block) rows and refills them for every
    block it takes, a shorter last block their first rows. The pool is
    joined before the first exception raised by any block is re-raised.
    Each thread sets its own numpy errstate, which pool threads do not
    inherit: a phase past the float range gives a NaN z without a
    warning, for run_experiment to reject.
    """
    threaded = cfg.L >= _CONCURRENT_MIN_L and _usable_cpus() > 1
    block_samples = _BLOCK_SAMPLES * (_CONCURRENT_BLOCK_FACTOR if threaded else 1)
    per_block = max(1, block_samples // cfg.L)
    n = snapshot_uniforms(cfg)
    states = root.substream_states(0, trials)
    # Filled in place: per-block arrays kept alive until one concatenate
    # fragmented the heap (5x the page faults at L = 10^4).
    z = np.empty(trials, dtype=complex)
    starts = range(0, trials, per_block)
    workers = min(_usable_cpus(), len(starts)) if threaded else 1
    lock = threading.Lock()
    pending = iter(starts)

    def drain() -> None:
        rows = min(per_block, trials)
        u, work = np.empty((rows, n)), block_work(cfg, rows)
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                with lock:
                    start = next(pending, None)
                if start is None:
                    return
                m = min(per_block, trials - start)
                uniforms_from_states(states[start : start + m], n, out=u[:m])
                z[start : start + m] = simulate_block(cfg, u[:m], work)[1]

    if workers == 1:
        drain()
        return z
    # Imported here so that importing cmphase does not import it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1, thread_name_prefix="cmphase-block") as pool:
        futures = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
    for future in futures:
        future.result()
    return z


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
    if stream is None:
        stream = RandomStream(cfg.seed)

    omega, P, inverse = cfg.omega, cfg.P, cfg.model.family.inverse_abs_char_fn
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
        raise AllTrialsSaturatedError(
            f"all {trials} trials saturated (|z| > sqrt(P)); "
            "omega is likely too large for this sigma"
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
    error message instead of aborting the sweep; a bad axis, trial count,
    grid value or omega_rule raises ValueError before any row runs.

    With more than one row and usable CPU, L below _CONCURRENT_MIN_L (so
    no row runs block threads), os.fork and no other thread alive, row i
    runs in process i mod P of this one and P - 1 forked children, P =
    min(CPUs, rows); otherwise the rows run here in turn. There is no
    setting for this, and the rows are the same bits either way. A row
    error other than those above propagates, the lowest row's first.
    """
    if axis not in ("omega", "sigma"):
        raise ValueError(f"axis must be 'omega' or 'sigma', got {axis!r}")
    if omega_rule is not None:
        if axis == "omega":
            raise ValueError("omega_rule applies only to sigma sweeps")
        rule_target(omega_rule)
    trials = whole_number("trials", trials, 1)
    values = [float(raw) for raw in grid]
    root = RandomStream(cfg.seed)

    def row(i: int) -> SweepRow:
        value = values[i]
        omega: float | None = None
        asv: AsvReport | None = None
        try:
            if axis == "omega":
                cfg_i = cfg.with_updates(omega=value)
            else:
                omega = cfg.omega
                if omega_rule is not None:
                    omega, _ = rule_omega(
                        omega_rule, cfg.model, value, cfg.P, cfg.channel_noise_var,
                        cfg.power_mode, cfg.theta, 2.0 * math.pi / cfg.theta_R,
                    )
                cfg_i = cfg.with_updates(sigma=value, omega=omega)
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

    procs = min(_usable_cpus(), len(values))
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    if cfg.L < _CONCURRENT_MIN_L and procs > 1 and forkable:
        return _forked_rows(row, len(values), procs)
    return [row(i) for i in range(len(values))]


def _rows_of(row, start: int, n: int, step: int) -> list[tuple]:
    """(i, row(i)) for i in range(start, n, step), up to the first (i, exception)."""
    out = []
    for i in range(start, n, step):
        try:
            out.append((i, row(i)))
        except Exception as exc:
            out.append((i, exc))
            break
    return out


def _forked_rows(row, n: int, procs: int) -> list[SweepRow]:
    """row(i) for i in range(n), process k of this one and procs - 1 forked
    children giving _rows_of(row, k, n, procs), a child's through a pipe
    (an exception that does not survive pickling as a RuntimeError naming
    it). Every child is reaped before this returns, and killed first if
    this process failed outside a row. The lowest row's exception, the
    serial loop's, is raised."""
    children, payloads, done = [], [], False  # children: (pid, pipe read end)
    try:
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
                    out = _rows_of(row, k, n, procs)
                    i, last = out[-1]
                    try:
                        pickle.loads(pickle.dumps(last))
                    except Exception:
                        name = type(last).__qualname__
                        out[-1] = i, RuntimeError(f"sweep row {i} raised {name}: {last}")
                    with open(w, "wb") as pipe:
                        pipe.write(pickle.dumps(out))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children.append((pid, r))
        outcomes = _rows_of(row, 0, n, procs)
        done = True
    finally:
        for pid, r in children:
            if not done:
                os.kill(pid, 9)  # SIGKILL, without importing signal
            with open(r, "rb") as pipe:
                payloads.append((pipe.read(), os.waitpid(pid, 0)[1]))
    for (pid, _), (payload, status) in zip(children, payloads):
        code = os.waitstatus_to_exitcode(status)  # 0 only once its rows are written
        if code != 0:
            raise RuntimeError(f"sweep child {pid} exited with status {code} before its rows")
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
    inputs produce byte-identical files. emp_var_gamma is the trimmed
    variant (the SNR ratio has heavy tails at finite L). An emp_var_*
    value reads inf where the L-scaled sample variance overflows, as an
    asv_* value reads inf where the component is not estimable.
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

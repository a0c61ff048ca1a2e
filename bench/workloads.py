"""Workloads of the cmphase benchmark.

Each workload makes its inputs from a seed, runs one fixed pass of work
through the package's public entry points, and checks what the pass
returned. A pass is a list of operations (a sweep command, a joint
estimate, a tuning point, ...), each timed on its own; the worker repeats
the pass. Its work does not depend on how long the run lasts, so every
pass returns the same bytes.

Why these three:

- ``mc-small-L``: a sigma sweep at L = 100 through ``cmphase.cli.main``.
  Per-trial fixed costs dominate here: the (i, t) substream, the
  per-trial Python loop and the simple inversions. Each row's
  ``auto:theta`` also runs a little tuning.
- ``mc-large-L``: the six operating points of the acceptance Monte Carlo
  check at L = 10^4. The per-sensor draw transforms and the cos/sin
  phasor sum are nearly all the time.
- ``analysis``: the non-Monte-Carlo pipeline: the joint minimum-variance
  estimator, omega tuning, the ARE table and the sandwich covariance.
  It evaluates the noise kernels one point at a time and runs the
  bracketed minimizers; the Monte Carlo workloads bypass all of it.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# A row's emp_var_theta / asv_theta must lie within STAT_Z standard
# errors of 1, the standard error of a sample variance from n trials
# being sqrt(2 / (n - 1)). Six is wide enough for the finite-L bias
# (about 3% at L = 100) and for the heavier-tailed families, and narrow
# enough to catch a variance that is off by a factor of two.
STAT_Z = 6.0

# Location-optimal frequencies of the acceptance Monte Carlo operating
# points (theta = sigma = P = 1, theta_R = pi); the Gaussian per-sensor
# curve has no interior minimum, so its boundary substitute 0.01 stands in.
MC_LARGE_POINTS = (
    ("gaussian", "total", 1.0, 0.9081137742012796),
    ("laplace", "total", 1.0, 1.2769597038217232),
    ("cauchy", "total", 1.0, 0.9207028302184803),
    ("gaussian", "per-sensor", 0.0, 0.01),
    ("laplace", "per-sensor", 0.0, 1.0),
    ("cauchy", "per-sensor", 0.0, 0.7968121300200200),
)

MODELS = ("gaussian", "laplace", "cauchy")
JOINT_POINTS_PER_MODEL = 20
JOINT_OP = "joint"  # label prefix of the joint_minimum_variance calls
TUNING_MODES = (("total", 0.5), ("total", 1.0), ("total", 2.0), ("per-sensor", 0.0))
TUNING_GAMMAS = (0.1, 1.0, 10.0)
SANDWICH_POINTS_PER_MODEL = 60

# Frozen anchors of the acceptance tuning and efficiency checks. The
# location and scale curves depend on omega only through omega * sigma,
# so the optimal omega times sigma is the anchor at every sigma.
CAUCHY_PS_OMEGA = 0.7968121300200200  # 1 + W0(-2 e^-2) / 2
ARE_EXPECTED = {
    ("gaussian", "theta"): 1.0,
    ("gaussian", "sigma"): 1.0,
    ("laplace", "theta"): 0.667,
    ("laplace", "sigma"): 0.931,
    ("cauchy", "theta"): 0.648,
    ("cauchy", "sigma"): 0.648,
}


# The calibration kernel: a fixed mix of interpreted scalar math and
# vectorised numpy transcendentals, the two kinds of work cmphase does,
# that never calls cmphase. It takes about CALIB_REF_S on this project's
# 2-vCPU reference host at its fast moments.
CALIB_REF_S = 1.0e-3
_CALIB_X = np.linspace(-3.0, 3.0, 4096)


def calibrate() -> float:
    """Seconds the calibration kernel takes now."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(7000):
        s += math.sin(i * 1e-3)
    for _ in range(8):
        s += float((np.cos(_CALIB_X) + np.sin(_CALIB_X) * np.exp(-_CALIB_X * _CALIB_X)).sum())
    return time.perf_counter() - t0


@dataclass
class PassLog:
    """What one pass did: the seconds each operation took, and the same
    time as a multiple of the calibration kernel's time around it; the
    work items (Monte Carlo trials, tuning points) each completed; the
    operations and output checks attempted and failed; and the output
    bytes by label, which are the same on every pass."""

    op_s: dict = field(default_factory=dict)
    op_calib: dict = field(default_factory=dict)
    calib_s: float | None = None
    items: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


@contextlib.contextmanager
def untraced(tracer):
    """Calls made by the checks are not part of the measured work."""
    if tracer is None:
        yield
        return
    tracer.recording = False
    try:
        yield
    finally:
        tracer.recording = True


def timed(tracer, log: PassLog, label: str, items: int, call, *args):
    """Run one operation of the pass and log its time; return its result,
    or None if it raised.

    label names the operation and is the same on every pass. The
    calibration kernel runs right before and right after the operation
    (the run after one operation serves as the run before the next), and
    the operation's time is also logged in units of their mean: the
    shared host's CPU speed swings for all code alike, and the ratio
    cancels the swing. The operation gets its own id in the trace. One
    that raises is counted as failed and the pass goes on.
    """
    before = log.calib_s if log.calib_s is not None else calibrate()
    if tracer is not None:
        tracer.op_id += 1
    t0 = time.perf_counter()
    try:
        result = call(*args)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        result, error = None, exc
    else:
        error = None
    seconds = time.perf_counter() - t0
    log.calib_s = calibrate()
    log.op_s[label] = seconds
    log.op_calib[label] = seconds / (0.5 * (before + log.calib_s))
    if error is not None:
        log.check(False, f"{label}: raised {error!r}")
        return None
    log.attempted += 1
    if items:
        log.items[label] = items
    return result


def recorded_digests(workload: str, seed: int) -> dict | None:
    """The CSV sha256 digests recorded for (workload, seed), if any."""
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        entry = json.load(fh).get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["sha256"]


def run_cli(cm, argv: list[str]) -> bytes:
    """cmphase's CLI in this process, its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cm.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"cmphase {argv[0]} exited with {rc}")
    return buf.getvalue().encode()


def check_sweep_csv(
    data: bytes, label: str, trials: int, L: int, rows: int, digest: str | None, log: PassLog
) -> None:
    """Digest check when one is recorded; otherwise and in addition, no
    error rows and emp_var_theta / asv_theta within STAT_Z standard errors."""
    if digest is not None:
        log.check(hashlib.sha256(data).hexdigest() == digest, f"{label}: sha256 differs")
    lines = data.decode().splitlines()
    if not log.check(
        bool(lines) and lines[0].startswith("# manifest: "), f"{label}: no manifest line"
    ):
        return
    parsed = list(csv.DictReader(lines[1:]))
    log.check(len(parsed) == rows, f"{label}: {len(parsed)} rows, expected {rows}")
    bound = STAT_Z * math.sqrt(2.0 / (trials - 1))
    for row in parsed:
        where = f"{label} {row.get('axis')}={row.get('value')}"
        try:
            ok = int(row["trials"]) == trials and int(row["L"]) == L
            ratio = float(row["emp_var_theta"]) / float(row["asv_theta"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            ok, ratio = False, math.nan
        if log.check(ok and math.isfinite(ratio), f"{where}: error row"):
            log.check(
                abs(ratio - 1.0) <= bound,
                f"{where}: emp/asv theta {ratio:.4f} outside 1 +- {bound:.4f}",
            )


class MonteCarlo:
    """Sweeps through cmphase.cli.main; each command writes one CSV."""

    name: str
    default_seed: int
    trials: int
    L: int
    rows: int

    def __init__(self, cm, seed: int):
        self.cm = cm
        self.commands = self.make_commands(seed)
        self.digests = recorded_digests(self.name, seed)

    def make_commands(self, seed: int) -> dict:
        raise NotImplementedError

    def run_pass(self, tracer) -> PassLog:
        log = PassLog()
        for label, argv in self.commands.items():
            out = timed(tracer, log, label, self.rows * self.trials, run_cli, self.cm, argv)
            if out is None:
                continue
            log.outputs[label] = out
            if tracer is not None:
                tracer.counters["montecarlo.csv_bytes"] += len(out)
            digest = self.digests[label] if self.digests else None
            check_sweep_csv(out, label, self.trials, self.L, self.rows, digest, log)
        return log


class McSmallL(MonteCarlo):
    name = "mc-small-L"
    default_seed = 0
    trials = 500
    L = 100
    rows = 8

    def make_commands(self, seed: int) -> dict:
        return {"sweep": [
            "sweep", "--axis", "sigma", "--grid", "0.5:2.0:8", "--omega", "auto:theta",
            "--L", str(self.L), "--model", "laplace", "--power-mode", "total",
            "--channel-noise-var", "1", "--P", "1", "--theta", "1",
            "--theta-R", repr(math.pi), "--trials", str(self.trials),
            "--seed", str(seed), "--out", "-",
        ]}


class McLargeL(MonteCarlo):
    name = "mc-large-L"
    default_seed = 16
    trials = 300
    L = 10_000
    rows = 1

    def make_commands(self, seed: int) -> dict:
        return {
            f"{model}-{mode}": [
                "sweep", "--axis", "sigma", "--grid", "1.0",
                "--trials", str(self.trials), "--L", str(self.L),
                "--theta", "1.0", "--theta-R", str(math.pi), "--sigma", "1.0",
                "--P", "1.0", "--model", model, "--power-mode", mode,
                "--channel-noise-var", str(nv), "--omega", repr(omega),
                "--seed", str(seed), "--out", "-",
            ]
            for model, mode, nv, omega in MC_LARGE_POINTS
        }


class Analysis:
    name = "analysis"
    default_seed = 2024

    def __init__(self, cm, seed: int):
        self.cm = cm
        self.digests = None
        rng = np.random.default_rng(seed)
        models = {m: cm.noise.noise_model(m) for m in MODELS}
        # (a) noise-free receive points, drawn as in the acceptance check.
        self.joint_points = []
        for m in MODELS:
            model = models[m]
            for _ in range(JOINT_POINTS_PER_MODEL):
                omega = float(rng.uniform(0.3, 1.5))
                theta_R = math.pi / omega
                theta = float(rng.uniform(0.3, 0.9 * theta_R))
                sigma = float(rng.uniform(0.1, 2.0))
                z = cmath.exp(1j * omega * theta) * model.char_fn(sigma, omega)
                self.joint_points.append((model, z, omega, theta_R))
        # (b) tuning points over family, power mode, channel noise and SNR.
        self.tuning_points = [
            (models[m], cm.network.PowerMode(mode), nv, gamma,
             float(np.exp(rng.uniform(math.log(0.5), math.log(2.0)))))
            for m in MODELS
            for mode, nv in TUNING_MODES
            for gamma in TUNING_GAMMAS
        ]
        # (c) operating points for the generic-vs-sandwich comparison.
        self.sandwich_points = [
            (models[m], float(rng.uniform(0.3, 1.5)), float(rng.uniform(0.5, 2.0)),
             float(rng.uniform(0.1, 2.0)), float(rng.choice((0.0, 0.5, 1.0))))
            for m in MODELS
            for _ in range(SANDWICH_POINTS_PER_MODEL)
        ]

    def run_pass(self, tracer) -> PassLog:
        log = PassLog()
        log.outputs["joint"] = self._joint(tracer, log)
        log.outputs["tuning"] = self._tuning(tracer, log)
        log.outputs["tables"] = self._tables(tracer, log)
        return log

    def _joint(self, tracer, log: PassLog) -> bytes:
        est = self.cm.estimators
        text = []
        for model, z, omega, theta_R in self.joint_points:
            joint = timed(
                tracer, log, f"{JOINT_OP} at z={z!r}", 0,
                est.joint_minimum_variance, z, omega, 1.0, 1.0, model, theta_R,
            )
            if joint is None:
                continue
            with untraced(tracer):
                simple = est.simple_estimates(z, omega, 1.0, model)
            err = max(
                abs(joint.theta_hat / simple.theta_hat - 1.0),
                abs(joint.sigma_hat / simple.sigma_hat - 1.0),
            )
            log.check(err <= 1e-4, f"joint vs simple at z={z!r}: {err:.3e}")
            text.append(f"{joint.theta_hat!r} {joint.sigma_hat!r} {joint.gamma_hat!r}")
        return "\n".join(text).encode()

    def _tuning(self, tracer, log: PassLog) -> bytes:
        tun = self.cm.tuning

        def tune(model, mode, nv, gamma, sigma):
            opt = tun.omega_optima(model, sigma, 1.0, nv, power_mode=mode, gamma=gamma)
            analytic = {
                target: tun.analytic_omega(
                    model, sigma, 1.0, nv, target, power_mode=mode, gamma=gamma
                )
                for target in ("theta", "sigma", "gamma")
            }
            return opt, analytic

        text = []
        for point in self.tuning_points:
            model, mode, nv, gamma, sigma = point
            where = f"tuning at {model.kind} {mode.value} nv={nv} gamma={gamma} sigma={sigma!r}"
            result = timed(tracer, log, where, 1, tune, *point)
            if result is None:
                continue
            opt, analytic = result
            _check_tuning(model.kind, mode.value, nv, sigma, opt, analytic, where, log)
            text.append(
                f"{opt.omega_theta!r} {opt.omega_sigma!r} {opt.omega_gamma!r} "
                f"{sorted(opt.flags.items())} "
                + " ".join(f"{a.value!r}:{a.agrees_with_numeric}" for a in analytic.values())
            )
        return "\n".join(text).encode()

    def _tables(self, tracer, log: PassLog) -> bytes:
        asy, eff = self.cm.asymptotic, self.cm.efficiency
        text = []
        for (kind, parameter), expected in ARE_EXPECTED.items():
            model = self.cm.noise.noise_model(kind)
            where = f"ARE {kind}/{parameter}"
            rep = timed(tracer, log, where, 0, eff.asymptotic_relative_efficiency, model, parameter)
            if rep is None:
                continue
            log.check(abs(rep.are - expected) <= 1e-3, f"{where} = {rep.are!r}, expected {expected}")
            if (kind, parameter) == ("laplace", "sigma"):
                # The bundled reference says 0.5; the report must keep
                # flagging the disagreement.
                log.check(
                    rep.reference_are == 0.5 and rep.matches_reference is False,
                    "Laplace scale ARE row is no longer flagged",
                )
            text.append(f"{kind} {parameter} {rep.are!r} {rep.matches_reference}")

        def sandwich(model, theta, sigma, omega, nv):
            rep = asy.asv_generic(model, sigma, omega, 1.0, channel_noise_var=nv)
            return rep, asy.asv_via_sandwich(model, theta, sigma, omega, 1.0, nv)

        for point in self.sandwich_points:
            model, _, sigma, omega, nv = point
            where = f"sandwich at {model.kind} sigma={sigma!r} omega={omega!r} nv={nv}"
            result = timed(tracer, log, where, 0, sandwich, *point)
            if result is None:
                continue
            rep, cov = result
            diag = max(
                abs(cov[0, 0] / rep.asv_theta - 1.0), abs(cov[1, 1] / rep.asv_sigma - 1.0)
            )
            off = max(abs(cov[0, 1]), abs(cov[1, 0]))
            log.check(
                diag <= 1e-9 and off < 1e-9,
                f"{where}: diagonal {diag:.2e}, off-diagonal {off:.2e}",
            )
            text.append(f"{rep.asv_theta!r} {rep.asv_sigma!r} {cov.tolist()!r}")
        return "\n".join(text).encode()


def _check_tuning(kind, mode, nv, sigma, opt, analytic, where, log: PassLog) -> None:
    """Betweenness of the SNR optimum, Cauchy isotropy, and the acceptance
    anchors, scaled by sigma, at the points where they apply."""
    lo = min(opt.omega_theta, opt.omega_sigma)
    hi = max(opt.omega_theta, opt.omega_sigma)
    log.check(
        lo - 1e-6 <= opt.omega_gamma <= hi + 1e-6,
        f"{where}: omega_gamma {opt.omega_gamma!r} not between {lo!r} and {hi!r}",
    )
    if kind == "cauchy":
        log.check(
            hi - lo <= 1e-6 and abs(opt.omega_gamma - opt.omega_theta) <= 1e-6,
            f"{where}: Cauchy optima differ",
        )

    def anchor(target, expected, tol):
        w = getattr(opt, f"omega_{target}")
        log.check(
            opt.flags[target] == "interior" and abs(w * sigma - expected) <= tol,
            f"{where}: omega_{target} * sigma = {w * sigma!r}, anchor {expected}",
        )

    if mode == "per-sensor" and kind == "laplace":
        anchor("theta", 1.0, 1e-6)
        anchor("sigma", 0.72747, 1e-4)
    if mode == "per-sensor" and kind == "cauchy":
        anchor("theta", 0.7968, 5e-4)
        closed = analytic["theta"].value
        log.check(
            closed is not None and abs(closed * sigma - CAUCHY_PS_OMEGA) <= 1e-10,
            f"{where}: Lambert-W closed form {closed!r}",
        )
    if mode == "total" and kind == "cauchy" and nv == 1.0:
        anchor("theta", 0.9207, 1e-3)


WORKLOADS = {w.name: w for w in (McSmallL, McLargeL, Analysis)}

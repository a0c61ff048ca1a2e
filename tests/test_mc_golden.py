"""Byte-for-byte gate on the Monte Carlo engine.

The CSVs under tests/golden/ were written by the per-trial engine (one
RandomStream and one simulate_snapshot call per trial) before the block
engine replaced it. Every case must still reproduce its file exactly:
the (i, t) substream contract, the uniforms, the variate transforms and
the summation order are all frozen.

z_sha256.json holds, per case and valid row, the sha256 of the complex128
bytes of every trial's normalized received sample z from that engine,
so a last-bit change anywhere before the CSV's nine digits shows too.

The contract differs by layer. The uniforms are bit-identical on any
platform. z is bit-identical per numpy build and SIMD dispatch level
(conftest.simd_level): numpy's log1p and tan loops round differently at
each level, and the z digests were recorded at AVX512_SPR. The CSVs'
nine-digit text holds at every level this suite runs at, which
test_sweep_csvs_hold_without_avx512 checks at X86_V3 (AVX2).

The cases cover the three noise families, both power budgets, a clean
and a noisy channel, odd L (Gaussian Box-Muller truncation), L larger
than one block, trial counts that leave a partial last block, saturated
trials and an error row.
"""

import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from cmphase import montecarlo, tuning
from cmphase.estimators import simple_estimates
from cmphase.montecarlo import run_experiment, sweep, write_sweep_csv
from cmphase.network import NetworkConfig, simulate_snapshot
from cmphase.noise import MODEL_TOKENS
from cmphase.numkit import RandomStream
from conftest import simd_level, simd_levels

GOLDEN = Path(__file__).parent / "golden"

# name -> (config fields, axis, grid, trials, omega_rule)
CASES = {
    "gaussian-total-odd-L": (
        dict(model="gaussian", power_mode="total", L=101, channel_noise_var=1.0,
             sigma=1.0, omega=0.9, seed=3),
        "omega", [0.5, 0.9, 1.2], 50, None,
    ),
    "gaussian-per-sensor-L1-saturating": (
        dict(model="gaussian", power_mode="per-sensor", L=1, channel_noise_var=1.0,
             sigma=0.05, omega=0.2, seed=5),
        "sigma", [0.05, 0.08], 400, None,
    ),
    "gaussian-per-sensor-clean-large-odd-L": (
        dict(model="gaussian", power_mode="per-sensor", L=34001, channel_noise_var=0.0,
             sigma=1.0, omega=0.7, seed=8),
        "omega", [0.7], 3, None,
    ),
    "laplace-total-auto-theta": (
        dict(model="laplace", power_mode="total", L=100, channel_noise_var=1.0,
             sigma=1.0, omega=0.8, theta_R=math.pi, seed=0),
        "sigma", [0.5, 1.0, 2.0], 500, "auto:theta",
    ),
    "laplace-per-sensor-clean-large-L": (
        dict(model="laplace", power_mode="per-sensor", L=33000, channel_noise_var=0.0,
             sigma=1.0, omega=0.3, seed=16),
        "omega", [0.3], 3, None,
    ),
    "cauchy-total-clean": (
        dict(model="cauchy", power_mode="total", L=64, channel_noise_var=0.0,
             sigma=1.0, omega=0.4, seed=2024),
        "omega", [0.4, 0.8], 200, None,
    ),
    "cauchy-per-sensor-large-L": (
        dict(model="cauchy", power_mode="per-sensor", L=40000, channel_noise_var=0.5,
             sigma=0.5, omega=0.6, seed=7),
        "sigma", [0.5], 3, None,
    ),
}


def make_config(**fields):
    base = dict(theta=1.0, theta_R=2.0 * math.pi, P=1.0)
    base.update(fields)
    return NetworkConfig(**base)


def sweep_csv(name: str) -> str:
    fields, axis, grid, trials, omega_rule = CASES[name]
    rows = sweep(make_config(**fields), axis, grid, trials, omega_rule=omega_rule)
    buf = io.StringIO()
    write_sweep_csv(rows, buf, manifest={"case": name})
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_csv_matches_golden(name):
    expected = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    assert sweep_csv(name) == expected


def row_configs(name: str):
    """(row index, config) of each row of the case's sweep that ran."""
    fields, axis, grid, trials, omega_rule = CASES[name]
    cfg = make_config(**fields)
    for i, row in enumerate(sweep(cfg, axis, grid, trials, omega_rule=omega_rule)):
        if row.summary is None:
            continue
        if axis == "omega":
            yield i, dataclasses.replace(cfg, omega=row.omega)
        else:
            yield i, dataclasses.replace(cfg, sigma=row.value, omega=row.omega)


def trial_z(cfg: NetworkConfig, trials: int, row: int) -> np.ndarray:
    root = RandomStream(cfg.seed).substream(row)
    return np.array(list(montecarlo._received_z(cfg, trials, root)), dtype=complex)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trial_z_matches_golden(name):
    expected = json.loads((GOLDEN / "z_sha256.json").read_text(encoding="utf-8"))[name]
    trials = CASES[name][3]
    got = {
        str(i): hashlib.sha256(trial_z(cfg_i, trials, i).tobytes()).hexdigest()
        for i, cfg_i in row_configs(name)
    }
    assert got == expected, f"z digests recorded at AVX512_SPR, run at {simd_level()}"


@pytest.mark.skipif(
    "X86_V4" not in simd_levels(),
    reason="numpy dispatches no X86_V4 loop here, so there is none to disable",
)
def test_sweep_csvs_hold_without_avx512():
    """With numpy's AVX-512 loops disabled (X86_V3, AVX2, remains), every
    golden sweep CSV still matches byte for byte, as the stated contract
    says: their .9g text absorbs the last-bit changes that move the z
    digests there."""
    tests = Path(__file__).parent
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4",
        PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]),
    )
    code = (
        "import test_mc_golden as g\n"
        "print(g.simd_level())\n"
        "for name in sorted(g.CASES):\n"
        "    if g.sweep_csv(name) != (g.GOLDEN / f'{name}.csv').read_text(encoding='utf-8'):\n"
        "        print(name)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["X86_V3"], proc.stdout


@pytest.mark.parametrize(
    "fields, trials",
    [
        (dict(model="gaussian", power_mode="total", L=7, channel_noise_var=1.0), 140),
        (dict(model="laplace", power_mode="per-sensor", L=10, channel_noise_var=0.0), 700),
        (dict(model="cauchy", power_mode="total", L=3, channel_noise_var=0.3), 300),
    ],
)
def test_block_size_independence(monkeypatch, fields, trials):
    """One trial per block, a prime block size (13, 9 and 32 trials per
    block, each leaving a partial last block) and the default, each run
    on 1, 2 and 3 usable CPUs, give the same samples and the same summary.
    A run of more than one block on more than one CPU forks min(CPUs,
    blocks) - 1 trial ranges, rather than running every block here."""
    cfg = make_config(sigma=1.0, omega=0.8, seed=12, **fields)
    forks = counted_forks(monkeypatch)
    results = []
    for block in (1, 97, montecarlo._BLOCK_SAMPLES):
        monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", block)
        blocks = -(-trials // max(1, block // cfg.L))
        for cpus in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda cpus=cpus: cpus)
            forks.clear()
            z = trial_z(cfg, trials, 0)
            assert len(forks) == min(cpus, blocks) - 1, (block, cpus, blocks)
            summary = dataclasses.asdict(run_experiment(cfg, trials))
            results.append((z, summary))
    for z, summary in results[1:]:
        np.testing.assert_array_equal(z, results[0][0])
        assert summary == results[0][1]


@pytest.mark.parametrize(
    "model, L", [("gaussian", 1001), ("laplace", 1000), ("cauchy", 1000)],
)
def test_default_concurrent_blocks_match_serial(monkeypatch, model, L):
    """With the default block size, 70 trials at L = 1000 (blocks of 8
    trials) on two CPUs fork exactly once, for trials 35-69, in
    _received_z, a direct run_experiment and a one-row sweep alike, and
    give the z, the summary and the row of one CPU bit for bit."""
    cfg = make_config(model=model, power_mode="total", L=L, channel_noise_var=0.5,
                      sigma=1.0, omega=0.8, seed=30)
    forks = counted_forks(monkeypatch)
    runs = (
        lambda: trial_z(cfg, 70, 0).tobytes(),
        lambda: hexed(dataclasses.astuple(run_experiment(cfg, 70))),
        lambda: hexed(dataclasses.astuple(sweep(cfg, "omega", [0.8], 70)[0])),
    )
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda cpus=cpus: cpus)
        for run in runs:
            forks.clear()
            results.append(run())
            assert len(forks) == cpus - 1
    assert results[3:] == results[:3]


@pytest.mark.parametrize("cpus", [2, 3])
def test_large_L_rows_do_not_nest_forks(monkeypatch, cpus):
    """A 3-row sweep at L = 10^4, each row three one-trial blocks, forks
    min(CPUs, rows) - 1 children for its rows and nothing more: a row's
    trials run where the row runs (os.fork raises in a child, and the
    count covers the rows this process runs), with the serial bits."""
    cfg = make_config(model="laplace", power_mode="total", L=10_000, channel_noise_var=0.5,
                      sigma=1.0, omega=0.8, seed=23)
    grid = [0.5, 0.7, 0.9]
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    serial = hexed([dataclasses.astuple(row) for row in sweep(cfg, "omega", grid, 3)])
    parent, fork, forks = os.getpid(), os.fork, []

    def counted():
        if os.getpid() != parent:
            raise AssertionError("a forked child forked")
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    got = hexed([dataclasses.astuple(row) for row in sweep(cfg, "omega", grid, 3)])
    assert len(forks) == min(cpus, len(grid)) - 1
    assert got == serial


@pytest.mark.parametrize(
    "cpus, trials", [(1, 4), (2, 1)], ids=["one-cpu", "one-block"],
)
def test_plain_loop_forks_nothing(monkeypatch, cpus, trials):
    """One usable CPU or a single block of trials run every block here."""
    cfg = make_config(model="cauchy", power_mode="total", L=20000, channel_noise_var=0.0,
                      sigma=1.0, omega=0.8, seed=4)

    def no_fork():
        raise AssertionError("run_experiment forked")

    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", no_fork)
    assert run_experiment(cfg, trials).trials == trials


@pytest.mark.parametrize("raiser", ["calling", "forked"])
def test_block_exception_propagates(monkeypatch, raiser):
    """An exception raised in a block of the calling process's trial range
    or of the forked child's leaves run_experiment, rather than a z with
    an unfilled slice, and leaves no child behind (conftest checks)."""
    cfg = make_config(model="cauchy", power_mode="total", L=4, channel_noise_var=0.0,
                      sigma=1.0, omega=0.8, seed=3)
    parent, simulate_block = os.getpid(), montecarlo.simulate_block

    def failing(cfg_b, *args):
        if (os.getpid() == parent) == (raiser == "calling"):
            raise ArithmeticError("block failed")
        return simulate_block(cfg_b, *args)

    forks = counted_forks(monkeypatch)
    monkeypatch.setattr(montecarlo, "_BLOCK_SAMPLES", 4)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(montecarlo, "simulate_block", failing)
    with pytest.raises(ArithmeticError, match="block failed"):
        run_experiment(cfg, 20)
    assert len(forks) == 1


def one_trial_summary(cfg: NetworkConfig, trials: int) -> dict:
    """run_experiment's summary, rebuilt from one simulate_snapshot and
    one simple_estimates call per trial."""
    root = RandomStream(cfg.seed)
    ests = [
        simple_estimates(simulate_snapshot(cfg, root.substream(t))[1], cfg.omega, cfg.P, cfg.model)
        for t in range(trials)
    ]
    theta = np.array([e.theta_hat for e in ests])
    sigma = np.array([e.sigma_hat for e in ests])
    gamma = np.array([e.gamma_hat for e in ests if e.gamma_hat is not None])
    delta = np.mod(cfg.omega * (theta - cfg.theta) + math.pi, 2.0 * math.pi) - math.pi

    def stats(values, truth):
        mean = float(np.mean(values))
        var = float(np.var(values, ddof=1)) * cfg.L
        return {"mean": mean, "variance_l": var, "bias": mean - truth}

    k = math.floor(0.01 * gamma.size)
    kept = np.sort(gamma)[k : gamma.size - k]
    return {
        "trials": trials,
        "L": cfg.L,
        "theta": stats(cfg.theta + delta / cfg.omega, cfg.theta),
        "sigma": stats(sigma, cfg.sigma),
        "gamma": stats(gamma, (cfg.theta / cfg.sigma) ** 2),
        "gamma_trimmed_variance_l": float(np.var(kept, ddof=1)) * cfg.L,
        "gamma_trials": int(gamma.size),
        "saturated": sum(e.saturated for e in ests),
    }


@pytest.mark.parametrize(
    "name, trials",
    [
        ("gaussian-per-sensor-L1-saturating", 400),
        ("laplace-total-auto-theta", 300),
        ("cauchy-total-clean", 200),
    ],
)
def test_summary_matches_one_trial_route(name, trials):
    """Every field of the summary, the means and biases the CSVs do not
    carry included, equals the one-trial-at-a-time route exactly: a
    saturating, a noisy total-budget and a clean config."""
    cfg = make_config(**CASES[name][0])
    got = dataclasses.asdict(run_experiment(cfg, trials))
    assert got == one_trial_summary(cfg, trials)


# name -> (config fields, axis, grid, trials, omega_rule) of the sweeps run
# on forked processes against the serial loop: every family on both axes,
# the sigma axis with and without a tuning rule, omega = 1.2 past the cap
# 2 pi / theta_R = 1 (an invalid-omega error row), and a row whose trials
# all saturate (sigma = 40 leaves only the channel noise in z).
FORK_CASES = {
    f"{model}-{axis}" + (f"-{rule}" if rule else ""): (
        dict(model=model, power_mode="total", L=10, channel_noise_var=0.5,
             sigma=1.0, omega=0.8, seed=19),
        axis, grid, 20, rule,
    )
    for model in MODEL_TOKENS
    for axis, grid, rule in (
        ("omega", [0.5, 1.2, 0.9, 0.3, 0.7], None),
        ("sigma", [1.0, 0.5, 2.0, 0.8, 1.5], None),
        ("sigma", [1.0, 0.5, 2.0, 0.8, 1.5], "auto:theta"),
    )
}
FORK_CASES["gaussian-sigma-all-saturated"] = (
    dict(model="gaussian", power_mode="total", L=1, channel_noise_var=4.0,
         sigma=1.0, omega=0.8, seed=11),
    "sigma", [0.5, 40.0, 1.0, 2.0, 0.8], 4, None,
)


def hexed(value):
    """value with every float, nested ones included, as float.hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [hexed(v) for v in value]
    return value


def counted_forks(monkeypatch) -> list:
    """Patch os.fork to record each call; returns the record."""
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(FORK_CASES))
def test_forked_rows_match_serial(monkeypatch, name, rows):
    """Rows spread over 2 or 3 processes (an uneven split where the rows
    do not divide) carry the serial loop's bits in every field and give
    its CSV bytes."""
    fields, axis, grid, trials, rule = FORK_CASES[name]
    cfg = make_config(**fields)
    forks = counted_forks(monkeypatch)
    results = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda cpus=cpus: cpus)
        forks.clear()
        got = sweep(cfg, axis, grid[:rows], trials, omega_rule=rule)
        assert len(forks) == min(cpus, rows) - 1
        buf = io.StringIO()
        write_sweep_csv(got, buf, manifest={"case": name})
        results.append((hexed([dataclasses.astuple(row) for row in got]), buf.getvalue()))
    assert results[1] == results[0] and results[2] == results[0]
    full = sweep(cfg, axis, grid, trials, omega_rule=rule)  # the error rows are there
    if axis == "omega":
        assert "omega" in full[1].error
    elif name.endswith("saturated"):
        assert "saturated" in full[1].error
        assert [row.error is None for row in full] == [True, False, True, True, True]


def sigma_sweep(monkeypatch, cpus: int, rows: int, fail_row):
    """A sigma sweep of the given rows at L = 4 on cpus processes, whose
    rule_omega calls fail_row(row index) first."""
    grid = [0.5 + 0.25 * i for i in range(rows)]

    def failing(rule, model, sigma, *args):
        fail_row(grid.index(sigma))
        return tuning.rule_omega(rule, model, sigma, *args)

    monkeypatch.setattr(montecarlo, "rule_omega", failing)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    cfg = make_config(model="laplace", power_mode="total", L=4, channel_noise_var=0.5,
                      sigma=1.0, omega=0.8, seed=6)
    return sweep(cfg, "sigma", grid, 5, omega_rule="auto:theta")


@pytest.mark.parametrize("failing, lowest", [({2, 3, 4}, 2), ({3, 4, 5}, 3), ({1, 5}, 1)])
def test_lowest_failed_row_is_raised(monkeypatch, failing, lowest):
    """Rows 0 and 3 run here, 1 and 4 in the first child, 2 and 5 in the
    second; with a row failing in each of several processes, the lowest
    row's exception leaves sweep, as from the serial loop."""

    def fail_row(i):
        if i in failing:
            raise ArithmeticError(f"row {i} failed")

    with pytest.raises(ArithmeticError, match=f"^row {lowest} failed$"):
        sigma_sweep(monkeypatch, 3, 6, fail_row)
    with pytest.raises(ArithmeticError, match=f"^row {lowest} failed$"):
        sigma_sweep(monkeypatch, 1, 6, fail_row)


class LambdaHoldingError(Exception):
    """Pickling fails: its state holds a lambda."""

    def __init__(self):
        super().__init__("holds a lambda")
        self.hook = lambda: None


class TwoArgumentError(Exception):
    """Unpickling fails: args holds one value, __init__ takes two."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@pytest.mark.parametrize("error", [LambdaHoldingError, lambda: TwoArgumentError(1, 2)])
def test_exception_that_cannot_cross_the_pipe(monkeypatch, error):
    """A child's exception that does not survive pickling arrives as a
    RuntimeError naming its type and message."""

    def fail_row(i):
        if i == 1:
            raise error()

    with pytest.raises(RuntimeError, match=r"forked task 1 raised \w+Error: "):
        sigma_sweep(monkeypatch, 2, 2, fail_row)


def test_child_exiting_without_rows(monkeypatch):
    """A child that leaves before sending its rows gives a RuntimeError
    with its exit status."""
    parent = os.getpid()

    def fail_row(i):
        if os.getpid() != parent:
            os._exit(3)

    with pytest.raises(RuntimeError, match="exited with status 3 before its results"):
        sigma_sweep(monkeypatch, 2, 4, fail_row)


def test_interrupt_kills_the_children(monkeypatch):
    """A KeyboardInterrupt in this process's own row kills the children,
    which would otherwise sleep for a minute, and reaps them."""
    parent = os.getpid()

    def fail_row(i):
        if os.getpid() != parent:
            time.sleep(60)
        elif i == 0:
            time.sleep(0.2)  # let the children start their rows
            raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        sigma_sweep(monkeypatch, 3, 3, fail_row)
    assert time.monotonic() - start < 30


# case -> (usable CPUs, rows, L)
SERIAL_CASES = {
    "one-cpu": (1, 3, 10),
    "one-row": (2, 1, 10),
    "thread-alive": (2, 3, 10),
    "no-fork": (2, 3, 10),
}


@pytest.mark.parametrize("case", sorted(SERIAL_CASES))
def test_serial_rows_fork_nothing(monkeypatch, case):
    """One usable CPU, one row, another live thread, or no os.fork run the
    rows in turn here."""
    cpus, rows, L = SERIAL_CASES[case]

    def no_fork():
        raise AssertionError("sweep forked")

    if case == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    cfg = make_config(model="cauchy", power_mode="total", L=L, channel_noise_var=0.5,
                      sigma=1.0, omega=0.8, seed=9)
    release = threading.Event()
    parked = threading.Thread(target=release.wait, args=(30,))
    if case == "thread-alive":
        parked.start()
    try:
        got = sweep(cfg, "omega", [0.5, 0.7, 0.9][:rows], 2)
    finally:
        release.set()
    if case == "thread-alive":
        parked.join(timeout=30)
        assert not parked.is_alive()
    assert [row.error for row in got] == [None] * rows

"""Layered benchmark of cmphase.

Run from the root of a checkout:

    python3 bench/run.py --workload mc-small-L --seed 0 --seconds 10 --trace 0
    python3 bench/run.py                      # every workload, default seeds

Workloads (see workloads.py for why each was chosen): ``mc-small-L``,
``mc-large-L`` and ``analysis``; ``all`` runs them one after another.
Without ``--seed`` each uses the seed of the matching acceptance check
(0, 16 and 2024).

Each workload runs in a fresh single-threaded child process
(OMP/OPENBLAS/MKL_NUM_THREADS=1, CM_PHASE_THREADS unset) that imports
cmphase from ``src/`` of this checkout. The load is a closed loop: one
caller on one thread, each call waiting for the previous one. The child
repeats a fixed pass of work for ``--seconds``, timing each operation of
the pass (a sweep command, a joint estimate, a tuning point) on its own.
A shared host's CPU speed can swing by 1.8x, for minutes at a time and
for all code alike, so each operation is timed against a calibration
kernel that never calls cmphase (workloads.calibrate) run right before
and after it. Timed figures are the median over the run's passes of the
operation's time in units of the kernel's time, times CALIB_REF_S = 1 ms:
seconds at the reference speed, at which the kernel takes 1 ms (about
the fast moments of the 2-vCPU host the benchmark was written on). The
raw median pass time is printed beside them. Set-up is measured in
separate fresh processes, each against the kernel run in this process
right before and after it.

``--trace 0`` prints the end-to-end metrics:

- setup_s (s): interpreter start until cmphase is imported and the
  inputs are built, median of SETUP_SAMPLES fresh processes, at the
  reference speed;
- wall_s (s): time of one pass spent inside cmphase, at the reference
  speed;
- items_per_s (1/s): Monte Carlo trials per second on mc-*, tuning
  points per second on analysis (printed under those names too);
- peak_rss_mb (MB): peak resident set size of the measuring process;
- on analysis, joint_ms_p50 and joint_ms_p95 (ms): latency of one
  joint_minimum_variance call over all calls of the run, with the count,
  at the reference speed;
- median_pass_s (s): the median time of a whole pass, as measured;
- failed_frac: failed / attempted operations and output checks.

``--trace 1`` runs the workload once untraced and once with every
cmphase layer wrapped from outside (tracing.py), prints the per-layer
metrics, the tracing overhead (traced wall_s minus untraced wall_s), and
checks that both runs returned the same output bytes.

The Monte Carlo outputs are checked against the sha256 digests in
digests.json when the seed is the recorded one (the CSV bit-identity
contract); at any other seed the rows are checked statistically. The
digests are the ``output_sha256`` of a run at the recorded seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each run also
writes its full report, with the machine and version information, to
``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_build")
WORKER = os.path.join(BENCH_DIR, "worker.py")

sys.path.insert(0, BENCH_DIR)
from workloads import CALIB_REF_S, STAT_Z, WORKLOADS, calibrate  # noqa: E402

SETUP_SAMPLES = 7
# Calibration kernel runs around each set-up sample; their median is used.
SETUP_CALIBS = 9
RUN_DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    """Unit of an end-to-end metric, or of a per-layer one by its suffix."""
    if metric in END_TO_END:
        return END_TO_END[metric]
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_frac", "ratio"), ("_bytes", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count"


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CM_PHASE_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _run_child(workload: str, seed: int, seconds: float, deadline: float, *extra) -> tuple:
    """Start one worker; return (set-up seconds, its JSON report)."""
    argv = [sys.executable, WORKER, "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if readable else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"{workload} worker did not get ready")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    if "--setup-only" in extra:
        return setup_s, None
    try:
        return setup_s, json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload} worker printed no report") from None


def _environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    src_dir = os.path.join(ROOT, "src", "cmphase")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _print_check(name: str, seed: int, report: dict) -> None:
    if report["digest_check"]:
        how = f"sha256 digests recorded for seed {seed}, plus the statistical row checks"
    elif name == "analysis":
        how = "joint vs simple at 1e-4, tuning anchors and betweenness, ARE table, sandwich"
    else:
        how = (f"no digest recorded for seed {seed}: no error rows and "
               f"emp_var_theta/asv_theta within {STAT_Z:g} standard errors of 1")
    print(f"check {name}: {how}")
    for message in report["failures"]:
        print(f"  FAILED {message}")


def _measure(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    def setup_only():
        before = statistics.median(calibrate() for _ in range(SETUP_CALIBS))
        setup_s = _run_child(name, seed, seconds, deadline, "--setup-only")[0]
        after = statistics.median(calibrate() for _ in range(SETUP_CALIBS))
        return CALIB_REF_S * setup_s / (0.5 * (before + after)), setup_s

    # Set-up samples before and after the measuring process, so that they
    # span the run rather than one moment of it.
    samples = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    _, report = _run_child(name, seed, seconds, deadline, "--trace", "0")
    samples += [setup_only() for _ in range(SETUP_SAMPLES - len(samples))]
    setups = [ref for ref, _ in samples]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": report["wall_s"],
        "items_per_s": report["items_per_s"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    report["setup_samples_s"] = [raw for _, raw in samples]
    report["setup_samples_ref_s"] = setups
    _print_check(name, seed, report)
    for metric, unit in END_TO_END.items():
        print(f"metric {name} {metric} {metrics[metric]!r} {unit}")
    print(f"metric {name} median_pass_s {report['median_pass_s']!r} s"
          f" (median over {report['passes']} passes, not gated)")
    if name == "analysis":
        print(f"metric {name} tuning_points_per_s {report['items_per_s']!r} 1/s")
        for q in ("p50", "p95"):
            print(f"metric {name} joint_ms_{q} {report['joint_ms_' + q]!r} ms"
                  f" (over {report['joint_calls']} calls)")
    else:
        print(f"metric {name} trials_per_s {report['items_per_s']!r} 1/s")
    failed_frac = report["failed"] / report["attempted"]
    print(f"metric {name} failed_frac {failed_frac!r} ratio"
          f" ({report['failed']} of {report['attempted']})")
    return metrics, report


def _measure_traced(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    # The untraced and the traced process share the run's time.
    _, plain = _run_child(name, seed, seconds / 2, deadline, "--trace", "0")
    spans = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.npz")
    _, traced = _run_child(name, seed, seconds / 2, deadline, "--trace", "1", "--spans", spans)
    same = plain["output_sha256"] == traced["output_sha256"]
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    report = {
        "untraced": plain, "traced": traced, "identical_outputs": same,
        "attempted": plain["attempted"] + traced["attempted"] + 1,
        "failed": plain["failed"] + traced["failed"] + (0 if same else 1),
        "failures": plain["failures"] + traced["failures"]
        + ([] if same else ["traced outputs differ from untraced outputs"]),
        "digest_check": plain["digest_check"],
    }
    _print_check(name, seed, report)
    print(f"trace {name}: outputs {'identical' if same else 'DIFFER'} traced vs untraced;"
          f" spans written to {os.path.relpath(spans, ROOT)}")
    if traced["trace_skipped"]:
        print(f"trace {name}: sites not found, not traced: {traced['trace_skipped']}")
    print(f"trace {name}: untraced wall_s {plain['wall_s']!r} s,"
          f" traced wall_s {traced['wall_s']!r} s")
    for metric, value in metrics.items():
        print(f"layer {name} {metric} {value!r} {unit_of(metric)}")
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, help="input seed (default: per workload)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cmphase", "__init__.py")):
        print(f"bench: no cmphase sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    env = _environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    measure = _measure_traced if args.trace else _measure

    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
            values, report = measure(name, seed, args.seconds, deadline)
            versions = (report.get("untraced") or report)["versions"]
            print(f"env {name}: nproc={env['nproc']} cpu={env['cpu']!r}"
                  f" python={versions['python']} numpy={versions['numpy']}"
                  f" scipy={versions['scipy']} commit={env['commit']}"
                  f" src_sha256={env['src_sha256'][:16]}")
            path = os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"env": env, "metrics": values, "report": report}, fh, indent=1)
            correct = correct and report["failed"] == 0
            attempted += report["attempted"]
            failed += report["failed"]
            prefix = "" if len(names) == 1 else f"{name}:"
            metrics.update({prefix + k: {"value": v, "unit": unit_of(k)} for k, v in values.items()})
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())

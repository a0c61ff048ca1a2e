"""One benchmark process: set up a workload, run its passes, report JSON.

Started by run.py in a fresh interpreter with ``src/`` of the checkout on
PYTHONPATH. It prints ``ready`` once cmphase is imported and the inputs
are built (the parent times set-up up to that line), then repeats the
workload's pass until ``--seconds`` have passed and at least
``min_passes`` ran, and prints one JSON object as its last line. Every
operation of a pass is timed on its own against a calibration kernel
(see the comment on MIN_PASSES).

    PYTHONPATH=src python3 bench/worker.py --workload analysis --seed 2024 --seconds 10
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy
import scipy

# On a shared 2-vCPU host the CPU speed was seen to swing by up to 1.8x,
# within seconds and for minutes at a time, for every kind of code alike,
# so that even the fastest pass of a 30-s run can be 1.5x slower than in
# another run. Each operation's time is therefore divided by the time of
# the calibration kernel run right around it (workloads.calibrate), and
# the timed figures are built from the median of that ratio over at
# least MIN_PASSES passes, times workloads.CALIB_REF_S: seconds at the
# reference speed, at which the kernel takes CALIB_REF_S.
MIN_PASSES = 5
# Enough joint calls pooled over the passes of a run that at least ten
# lie beyond the 95th percentile.
MIN_JOINT_CALLS = 200


def _import_cmphase():
    """Import cmphase (with its CLI, which imports every other module) and
    make sure it is the copy under this checkout's src/."""
    import cmphase
    import cmphase.cli  # noqa: F401

    root = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
    expected = os.path.join(root, "src", "cmphase")
    if os.path.dirname(os.path.realpath(cmphase.__file__)) != expected:
        raise SystemExit(f"cmphase imported from {cmphase.__file__}, not from {expected}")
    return cmphase


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the recorded spans to this .npz path")
    args = parser.parse_args(argv)

    from workloads import CALIB_REF_S, JOINT_OP, WORKLOADS

    cm = _import_cmphase()
    workload = WORKLOADS[args.workload](cm, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install(cm)

    min_passes = MIN_PASSES
    passes = []
    layers = []
    t_start = time.perf_counter()
    while True:
        mark = tracer.mark() if tracer else None
        log = workload.run_pass(tracer)
        if tracer:
            layers.append(layer_metrics(tracer.summary(mark)))
        passes.append(log)
        joint_ops = sum(label.startswith(JOINT_OP) for label in log.op_s)
        if joint_ops:
            min_passes = max(MIN_PASSES, math.ceil(MIN_JOINT_CALLS / joint_ops))
        if len(passes) >= min_passes and time.perf_counter() - t_start >= args.seconds:
            break
    if tracer:
        tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)

    digests = [
        {label: hashlib.sha256(data).hexdigest() for label, data in p.outputs.items()}
        for p in passes
    ]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    messages = [m for p in passes for m in p.messages]
    # Every pass does the same work, so every pass must return the same bytes.
    repeat_failures = sum(d != digests[0] for d in digests[1:])
    attempted += len(digests) - 1
    failed += repeat_failures
    if repeat_failures:
        messages.append(f"{repeat_failures} passes returned other bytes than the first")

    ratios = {}
    for p in passes:
        for label, ratio in p.op_calib.items():
            ratios.setdefault(label, []).append(ratio)
    op_ref_s = {label: CALIB_REF_S * statistics.median(r) for label, r in ratios.items()}
    items = passes[0].items
    joint_s = [
        CALIB_REF_S * r for label, rs in ratios.items() if label.startswith(JOINT_OP) for r in rs
    ]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_s": [sum(p.op_s.values()) for p in passes],
        "wall_s": sum(op_ref_s.values()),
        "median_pass_s": statistics.median(sum(p.op_s.values()) for p in passes),
        "items_per_s": (
            sum(items.values()) / sum(op_ref_s[label] for label in items) if items else 0.0
        ),
        "joint_calls": len(joint_s),
        "joint_ms_p50": 1e3 * _percentile(joint_s, 0.50) if joint_s else None,
        "joint_ms_p95": 1e3 * _percentile(joint_s, 0.95) if joint_s else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": messages[:20],
        "digest_check": workload.digests is not None,
        "output_sha256": digests[0],
        "layers": (
            {k: statistics.median_low(layer[k] for layer in layers) for k in layers[0]}
            if layers else None
        ),
        "trace_skipped": tracer.skipped if tracer else [],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cmphase": cm.__version__,
        },
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

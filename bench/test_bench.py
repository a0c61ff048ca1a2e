"""Self-test of the benchmark at the smallest run length.

    python3 -m pytest bench/test_bench.py -q

Checks that every metric named in BENCHMARK.json is printed, that the
traced run returns the same output bytes as the untraced one, that a
wrong digest counts as a failure, and that the benchmark refuses to run
without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_and_tracing_keeps_outputs(workload):
    plain = _result(_run("--workload", workload, "--seconds", "0.1", "--trace", "0"))
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert plain["metrics"][m["name"]]["unit"] == m["unit"]
        assert plain["metrics"][m["name"]]["value"] > 0

    traced = _result(_run("--workload", workload, "--seconds", "0.1", "--trace", "1"))
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]
    seed = WORKLOADS[workload].default_seed
    path = os.path.join(ROOT, ".bench_build", f"result-{workload}-seed{seed}-trace1.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)["report"]
    assert report["identical_outputs"]
    assert report["untraced"]["output_sha256"] == report["traced"]["output_sha256"]
    assert traced["correct"]


@pytest.mark.parametrize("workload", ["mc-small-L", "mc-large-L"])
def test_wrong_digest_is_counted_as_failure(workload):
    import cmphase
    import cmphase.cli  # noqa: F401

    w = WORKLOADS[workload](cmphase, WORKLOADS[workload].default_seed)
    assert w.digests, "the default seed must have recorded digests"
    right = w.run_pass(None)
    assert right.failed == 0, right.messages
    w.digests = {label: "0" * 64 for label in w.digests}
    wrong = w.run_pass(None)
    assert wrong.failed == len(w.digests)
    assert all("sha256 differs" in m for m in wrong.messages)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "analysis", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

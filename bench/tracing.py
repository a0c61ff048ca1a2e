"""Span recorder for the traced benchmark run.

The benchmark measures ``cmphase`` from outside: ``install`` replaces the
package's callables at the places where they are looked up (module
attributes and class attributes) with thin wrappers that record one span
per call, and ``uninstall`` puts the originals back. Nothing under
``src/`` is modified and an untraced run never imports this module's
wrappers, so its timings carry no tracing cost.

A span is (name, start, end, parent span, operation id). Spans live in
compact arrays in memory and are written out once, after the run. Self
time of a span is its duration minus the durations of its direct
children; calls are single-threaded and strictly nested, so children
never overlap.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name). A module attribute is patched where
# other code looks it up by global name, so a function imported into two
# modules is patched in both. Private helpers are included where they
# are the only boundary between two layers (``_asv_components`` is what
# the tuning and efficiency curves evaluate).
MODULE_SITES = (
    ("cli", "main", "cli.main"),
    ("cli", "sweep", "montecarlo.sweep"),
    ("cli", "write_sweep_csv", "montecarlo.csv"),
    ("cli", "resolve_omega", "tuning.resolve"),
    ("montecarlo", "run_experiment", "montecarlo.run"),
    ("montecarlo", "simulate_snapshot", "network.snapshot"),
    ("montecarlo", "simple_estimates", "estimators.simple"),
    ("montecarlo", "resolve_omega", "tuning.resolve"),
    ("montecarlo", "asv_generic", "asymptotic.asv_generic"),
    ("estimators", "joint_minimum_variance", "estimators.joint"),
    ("estimators", "joint_objective", "estimators.objective"),
    ("tuning", "omega_optima", "tuning.optima"),
    ("tuning", "optimal_omega", "tuning.optimal"),
    ("tuning", "analytic_omega", "tuning.analytic"),
    ("tuning", "minimize_quasiconvex", "numkit.golden"),
    ("tuning", "find_root_bracketed", "numkit.bisect"),
    ("tuning", "_asv_components", "asymptotic.asv"),
    ("numkit", "find_root_bracketed", "numkit.bisect"),
    ("efficiency", "asymptotic_relative_efficiency", "efficiency.are"),
    ("efficiency", "minimize_quasiconvex", "numkit.golden"),
    ("efficiency", "_asv_components", "asymptotic.asv"),
    ("asymptotic", "_asv_components", "asymptotic.asv"),
    ("asymptotic", "asv_generic", "asymptotic.asv_generic"),
    ("asymptotic", "asv_via_sandwich", "asymptotic.sandwich"),
)

# (module, class, method, span name): methods are looked up on the class.
CLASS_SITES = (
    ("numkit", "RandomStream", "substream", "numkit.stream"),
    ("noise", "NoiseModel", "sample", "noise.sample"),
    ("noise", "NoiseModel", "char_fn", "noise.kernel"),
    ("noise", "NoiseModel", "char_fn_dsigma", "noise.kernel"),
    ("noise", "NoiseModel", "phasor_cos_var", "noise.kernel"),
    ("noise", "NoiseModel", "phasor_sin_var", "noise.kernel"),
)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.recording = True
        self.op_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.skipped: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, after=None):
        """Return fn wrapped in a span; after(counters, args, kwargs, result)
        adds counts taken from the call."""
        nid = self.name_id(name)
        stack = self._stack
        names, parents, ops = self.name, self.parent, self.op
        starts, ends = self.start, self.end
        counters = self.counters
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, package) -> None:
        """Wrap the sites listed above on the imported cmphase package."""
        for mod_name, attr, span in MODULE_SITES:
            module = getattr(package, mod_name)
            if not hasattr(module, attr):
                self.skipped.append(f"{mod_name}.{attr}")
                continue
            fn = getattr(module, attr)
            if span == "numkit.golden":
                fn = _count_golden_evals(fn, self.counters)
            self._patch(module, attr, self.wrap(fn, span, _AFTER.get(span)))
        for mod_name, cls_name, attr, span in CLASS_SITES:
            cls = getattr(getattr(package, mod_name), cls_name)
            if attr not in vars(cls):
                self.skipped.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            self._patch(cls, attr, self.wrap(vars(cls)[attr], span, _AFTER.get(span)))
        est = package.estimators
        if hasattr(est, "optimize"):
            minimize = self.wrap(est.optimize.minimize, "estimators.refine", _after_refine)
            self._patch(est, "optimize", _ModuleProxy(est.optimize, minimize=minimize))
        else:
            self.skipped.append("estimators.optimize")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def mark(self) -> tuple[int, Counter]:
        """Position to slice the spans and counters recorded after it."""
        return len(self.start), Counter(self.counters)

    def summary(self, since: tuple[int, Counter]) -> dict:
        """Per-name count, total and self time of the spans since a mark,
        plus the counter increments over the same interval."""
        lo, counters_then = since
        names = np.frombuffer(self.name[lo:], dtype=np.int32)
        parents = np.frombuffer(self.parent[lo:], dtype=np.int32)
        dur = np.frombuffer(self.end[lo:]) - np.frombuffer(self.start[lo:])
        child = np.zeros(dur.size)
        nested = parents >= lo
        np.add.at(child, parents[nested] - lo, dur[nested])
        n = len(self.names)
        count = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=dur, minlength=n)
        self_t = np.bincount(names, weights=dur - child, minlength=n)
        spans = {
            name: (int(count[i]), float(total[i]), float(self_t[i]))
            for i, name in enumerate(self.names)
        }
        counters = Counter(self.counters)
        counters.subtract(counters_then)
        return {"spans": spans, "counters": dict(counters)}

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


class _ModuleProxy:
    """Stands in for a module with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _count_golden_evals(minimize_quasiconvex, counters: Counter):
    """Wrap the minimizer so every evaluation of the f passed in is counted."""

    def golden(f, *args, **kwargs):
        def counted(x):
            counters["numkit.golden_evals"] += 1
            return f(x)

        return minimize_quasiconvex(counted, *args, **kwargs)

    return golden


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _after_sample(counters, args, kwargs, result):
    size = _arg(args, kwargs, 2, "size")
    counters["noise.variates"] += 1 if size is None else int(size)


def _after_snapshot(counters, args, kwargs, result):
    counters["network.sensor_samples"] += _arg(args, kwargs, 0, "cfg").L


def _after_run(counters, args, kwargs, result):
    counters["montecarlo.trials"] += result.trials
    counters["montecarlo.saturated"] += result.saturated


def _after_sweep(counters, args, kwargs, result):
    counters["montecarlo.rows_failed"] += sum(row.error is not None for row in result)


def _after_refine(counters, args, kwargs, result):
    counters["estimators.refinements"] += 1
    counters["estimators.refine_iters"] += int(getattr(result, "nit", 0))
    counters["estimators.refine_success"] += bool(result.success)


_AFTER = {
    "noise.sample": _after_sample,
    "network.snapshot": _after_snapshot,
    "montecarlo.run": _after_run,
    "montecarlo.sweep": _after_sweep,
}


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of one pass, from Tracer.summary."""
    spans, c = summary["spans"], summary["counters"]

    def count(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    snapshot_s = total("network.snapshot")
    return {
        "numkit.stream_builds": count("numkit.stream"),
        "numkit.stream_s": total("numkit.stream"),
        "montecarlo.trials": c.get("montecarlo.trials", 0),
        "montecarlo.run_self_s": self_s("montecarlo.run"),
        "estimators.simple_calls": count("estimators.simple"),
        "estimators.simple_s": total("estimators.simple"),
        "noise.sample_calls": count("noise.sample"),
        "noise.variates": c.get("noise.variates", 0),
        "noise.sample_s": total("noise.sample"),
        "network.snapshots": count("network.snapshot"),
        "network.snapshot_s": snapshot_s,
        "network.phasor_self_s": self_s("network.snapshot"),
        "network.sensor_samples_per_s": ratio(c.get("network.sensor_samples", 0), snapshot_s),
        "estimators.joint_calls": count("estimators.joint"),
        "estimators.joint_self_s": self_s("estimators.joint"),
        "estimators.refine_s": total("estimators.refine"),
        "estimators.refine_iters": c.get("estimators.refine_iters", 0),
        "estimators.objective_evals": count("estimators.objective"),
        "estimators.refine_success_frac": ratio(
            c.get("estimators.refine_success", 0), c.get("estimators.refinements", 0)
        ),
        "noise.kernel_calls": count("noise.kernel"),
        "noise.kernel_s": total("noise.kernel"),
        "numkit.golden_calls": count("numkit.golden"),
        "numkit.golden_evals": c.get("numkit.golden_evals", 0),
        "numkit.golden_s": total("numkit.golden"),
        "numkit.bisect_calls": count("numkit.bisect"),
        "numkit.bisect_s": total("numkit.bisect"),
        "tuning.optimal_calls": count("tuning.optimal"),
        "tuning.optimal_s": total("tuning.optimal"),
        "tuning.analytic_calls": count("tuning.analytic"),
        "tuning.analytic_self_s": self_s("tuning.analytic"),
        "asymptotic.asv_calls": count("asymptotic.asv"),
        "asymptotic.asv_s": total("asymptotic.asv"),
        "asymptotic.sandwich_s": total("asymptotic.sandwich"),
        "efficiency.are_s": total("efficiency.are"),
        "montecarlo.saturated_frac": ratio(
            c.get("montecarlo.saturated", 0), c.get("montecarlo.trials", 0)
        ),
        "montecarlo.rows_failed": c.get("montecarlo.rows_failed", 0),
        "montecarlo.csv_s": total("montecarlo.csv"),
        "montecarlo.csv_bytes": c.get("montecarlo.csv_bytes", 0),
        "cli.self_s": self_s("cli.main"),
    }

"""The package layout: each public name is imported from its own module,
and importing one module loads only the modules it needs."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import cmphase

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(cmphase.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"cmphase.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def fresh_python(code: str) -> str:
    """The stdout of code run in a fresh interpreter on this checkout's src."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_noise_loads_only_numkit():
    """The package __init__ imports no submodule, so a fresh interpreter
    that imports cmphase.noise does not pay for the other seven."""
    out = fresh_python(
        "import sys, cmphase.noise; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'cmphase'))"
    )
    assert out == str(["cmphase", "cmphase.noise", "cmphase.numkit"])


def test_importing_cli_binds_every_module():
    """The benchmark imports cmphase.cli and then reads each module as an
    attribute of cmphase (cm.tuning, cm.estimators, ...), so the CLI must
    import all of them when it is imported, not per subcommand."""
    names = ["noise", "network", "numkit", "estimators", "asymptotic", "tuning",
             "efficiency", "montecarlo"]
    out = fresh_python(
        f"import cmphase, cmphase.cli; print([n for n in {names!r} if not hasattr(cmphase, n)])"
    )
    assert out == "[]"


def test_record_inventory():
    """The dataclasses that importing the CLI defines in cmphase, and the
    one of them that writes its own JSON: every other result is turned
    into JSON by dataclasses.asdict in the CLI."""
    out = fresh_python(
        "import dataclasses, sys, cmphase.cli\n"
        "mods = [m for n, m in sorted(sys.modules.items()) if n.split('.')[0] == 'cmphase']\n"
        "own = [c for m in mods for c in vars(m).values()"
        " if isinstance(c, type) and c.__module__ == m.__name__]\n"
        "print(sorted(c.__qualname__ for c in own if dataclasses.is_dataclass(c)))\n"
        "print(sorted(c.__qualname__ for c in own if 'to_json_dict' in vars(c)))"
    )
    records, writers = out.splitlines()
    assert records == str(sorted([
        "AnalyticOmega", "AsvReport", "EfficiencyReport", "EstimandStats", "EstimateSet",
        "McSummary", "NetworkConfig", "NoiseModel", "OmegaOptima", "RandomStream", "SweepRow",
    ]))
    assert writers == str(["NetworkConfig"])


def test_no_module_imports_a_private_name_from_another():
    """Each module reads the others' public names alone: no module of the
    package imports a name starting with a single _ from another. The one
    exception is montecarlo's _location and _scale from estimators, the
    per-trial phase and magnitude inversions without the argument checks
    of their public forms, which a Monte Carlo trial need not repeat."""
    src = os.path.dirname(cmphase.__file__)
    private = []
    for name in SUBMODULES:
        with open(os.path.join(src, f"{name}.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "cmphase"
            ):
                private += [
                    f"{name}: {node.module}.{a.name}" for a in node.names
                    if a.name.startswith("_") and not a.name.startswith("__")
                ]
    assert private == ["montecarlo: estimators._location", "montecarlo: estimators._scale"]

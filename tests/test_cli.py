"""End-to-end tests of the command line interface.

Everything runs in-process through main(argv) so exit codes, stdout
payloads and stderr diagnostics are all observable without subprocesses.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cmphase import cli, montecarlo, tuning
from cmphase.cli import main
from cmphase.noise import GAUSSIAN
from cmphase.tuning import OMEGA_TARGETS, optimal_omega
from conftest import simd_level

GAUSS_TPC_R1_THETA = 0.9081137742012796
CAUCHY_TPC_R1 = 0.9207028302184803


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def reject_constant(name):
    """json.loads hook: NaN, Infinity and -Infinity are not JSON."""
    raise ValueError(f"{name} in the output")


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


class TestParsing:
    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_choice_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", "weibull"])
        assert exc.value.code == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "cmphase" in capsys.readouterr().out


class TestConfigRejections:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("sigma", math.inf),
            ("P", math.inf),
            ("channel_noise_var", math.inf),
            ("L", 2.7),
            ("L", True),
            ("seed", -1),
            ("sigma", None),
            ("theta", "1.0"),
            ("P", [1.0]),
            ("channel_noise_var", False),
            ("omega", None),
        ],
        ids=str,
    )
    def test_bad_config_value_is_an_error(self, capsys, tmp_path, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        omega = [] if key == "omega" else ["--omega", "0.9"]
        rc, out, err = run(capsys, "simulate", *omega, "--config", str(path))
        assert rc == 1 and out == ""
        assert key in err

    @pytest.mark.parametrize(
        "key, value, rule",
        [
            ("sigma", None, "auto:theta"),
            ("sigma", 0.0, "auto:gamma"),
            ("theta", "1.0", "auto:gamma"),
            ("theta_R", 0.0, "auto:theta"),
            ("P", math.inf, "auto:sigma"),
        ],
        ids=str,
    )
    def test_bad_config_value_under_an_omega_rule(self, capsys, tmp_path, key, value, rule):
        """The config is validated before the rule reads it: these raised
        TypeError or ZeroDivisionError while the rule was resolved from the
        raw values."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value, "omega": rule}))
        rc, out, err = run(capsys, "simulate", "--config", str(path))
        assert rc == 1 and out == ""
        assert key in err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["simulate", "--theta-R", "0"], "theta_R"),
            (["sweep", "--axis", "omega", "--grid", "0.5", "--theta-R", "0"], "theta_R"),
            (["asv", "--omega", "auto:gamma", "--theta", "1", "--sigma", "0"], "sigma"),
            (["simulate", "--omega", "auto:fastest"], "omega_rule"),
        ],
        ids=" ".join,
    )
    def test_bad_flag_under_an_omega_rule(self, capsys, argv, key):
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == ""
        assert key in err

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("L", [2**32, 10**12, 1e300], ids=str)
    def test_sensor_count_is_bounded(self, capsys, tmp_path, source, L):
        """simulate --L 1000000000000 ended in numpy's MemoryError
        traceback, and a config file's L = 1e300 in numpy's "Maximum
        allowed dimension exceeded", which does not name L. Both are
        refused at the config, before anything is allocated."""
        if source == "flag":
            argv = ["--L", str(int(L))]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"L": L}))
            argv = ["--config", str(path)]
        rc, out, err = run(capsys, "simulate", "--omega", "0.5", *argv)
        assert rc == 1 and out == ""
        assert "L must be below 2**32" in err

    @pytest.mark.parametrize(
        "command", [["simulate"], ["sweep", "--axis", "sigma", "--grid", "1"]], ids=" ".join
    )
    def test_auto_rule_names_theta_r_past_the_omega_floor(self, capsys, command):
        """At theta_R = 1e5 the rule's omega_max = 2 pi / theta_R is below
        the 1e-4 search floor; the error named only omega_max, a flag these
        commands do not have."""
        rc, out, err = run(
            capsys, *command, "--omega", "auto:theta", "--theta-R", "1e5", "--theta", "1"
        )
        assert rc == 1 and out == ""
        assert err.startswith("cmphase: error: omega_max = 2 pi / theta_R must be > 0.0001")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("rule", ["auto:gamma", "auto:theta"])
    def test_gamma_guess_named_where_it_enters(self, capsys, rule):
        """A bad --gamma-guess is named as such: auto:gamma reported it as
        gamma, a flag simulate does not have, and auto:theta ignored it."""
        rc, out, err = run(capsys, "simulate", "--omega", rule, "--gamma-guess", "0")
        assert rc == 1 and out == ""
        assert err == "cmphase: error: --gamma-guess must be positive and finite, got 0.0\n"


def imported_with_the_cli(*modules: str) -> list[str]:
    """Those of modules that a fresh interpreter has after importing
    cmphase.cli."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, cmphase.cli; print(*(m for m in {modules!r} if m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_importing_the_cli_defers_numpy_random():
    """numpy.random is imported by the first random draw, not with the
    package, so commands that draw nothing do not pay for it."""
    assert imported_with_the_cli("numpy.random") == []


def test_importing_the_cli_defers_concurrent_futures():
    """Parallel Monte Carlo forks its workers with os.fork; no module
    imports concurrent.futures, so a CLI run does not pay for it."""
    assert imported_with_the_cli("concurrent.futures") == []


def test_importing_the_cli_loads_no_scipy():
    """scipy is a test-only package (pyproject.toml): the tests check
    the closed forms against it, the CLI never loads it."""
    assert imported_with_the_cli("scipy") == []


def test_importing_the_cli_loads_no_test_only_package():
    """numpy is the one runtime dependency (pyproject.toml); the other
    packages that only the tests use stay out of a CLI run too."""
    assert imported_with_the_cli("mpmath", "hypothesis") == []


class TestSimulate:
    def test_default_payload(self, capsys):
        payload = run_json(capsys, "simulate", "--omega", "0.9")
        assert set(payload) == {"y", "z", "estimates", "manifest"}
        assert payload["estimates"]["estimator"] == "simple"
        assert payload["z"]["abs"] > 0.0
        assert payload["manifest"]["command"] == "simulate"
        assert payload["manifest"]["config"]["omega"] == 0.9
        assert payload["manifest"]["config"]["L"] == 100

    def test_reproducible(self, capsys):
        a = run_json(capsys, "simulate", "--omega", "0.9", "--seed", "7")
        b = run_json(capsys, "simulate", "--omega", "0.9", "--seed", "7")
        assert a == b

    def test_auto_omega(self, capsys):
        payload = run_json(capsys, "simulate", "--omega", "auto:theta")
        man = payload["manifest"]
        assert man["omega_rule"] == "auto:theta"
        assert man["omega_substituted"] is False
        np.testing.assert_allclose(
            man["config"]["omega"], GAUSS_TPC_R1_THETA, rtol=1e-6
        )

    def test_auto_omega_next_to_omega_max(self, capsys):
        """At nv = 1e308 the theta curve is finite only from omega ~0.69 to
        omega_max = 1. Every golden-section probe tied at inf and went
        left, and the command failed: "golden section saw no finite value
        on [0.0001, 1.0]"."""
        payload = run_json(capsys, "simulate", "--channel-noise-var", "1e308")
        assert 0.69 <= payload["manifest"]["config"]["omega"] <= 1.0

    def test_joint_estimator(self, capsys):
        payload = run_json(
            capsys, "simulate", "--omega", "0.9", "--L", "5000", "--estimator", "joint"
        )
        est = payload["estimates"]
        assert est["estimator"] == "joint"
        assert 0.0 < est["theta_hat"] <= 2.0 * math.pi
        assert est["sigma_hat"] > 0.0

    def test_strict_saturation_exit_code(self, capsys):
        rc, out, err = run(
            capsys, "simulate", "--L", "1", "--channel-noise-var", "100",
            "--sigma", "0.1", "--omega", "0.5", "--seed", "0", "--strict",
        )
        assert rc == 2
        assert json.loads(out)["estimates"]["saturated"] is True
        assert "saturated" in err

    def test_invalid_config_returns_one(self, capsys):
        rc, out, err = run(capsys, "simulate", "--omega", "0.9", "--sigma", "-1")
        assert rc == 1
        assert "sigma" in err

    def test_sigma_rule_past_half_the_float_range(self, capsys):
        """2 P overflows at P = 1e308: asv_sigma was NaN at every probe,
        and the omega search failed with "golden section saw no finite
        value"."""
        rc, out, err = run(capsys, "simulate", "--P", "1e308", "--omega", "auto:sigma")
        assert rc == 0, err
        payload = json.loads(out, parse_constant=reject_constant)
        assert payload["manifest"]["omega_rule"] == "auto:sigma"

    def test_auto_gamma_snr_underflow_names_theta_and_sigma(self, capsys):
        """(theta / sigma)^2 underflows to 0 at theta = 1e-300: the error
        read "gamma must be positive and finite, got 0.0", naming an
        argument the user never passed."""
        rc, out, err = run(capsys, "simulate", "--omega", "auto:gamma", "--theta", "1e-300")
        assert rc == 1 and out == ""
        assert err == (
            "cmphase: error: the true SNR gamma = (theta / sigma)^2 underflows to 0 at"
            " theta = 1e-300, sigma = 1.0\n"
        )

    def test_closed_form_snr_underflow_names_theta_and_sigma(self, capsys):
        """asv --closed-forms forms the gamma row at the true SNR, whose
        square underflows to 0 here: the error read "gamma must be positive
        and finite, got 0.0", although asv has no gamma flag."""
        rc, out, err = run(capsys, "asv", "--omega", "100000", "--theta", "1e-170",
                           "--sigma", "1e-5", "--closed-forms")
        assert rc == 1 and out == ""
        assert err == (
            "cmphase: error: the true SNR gamma = (theta / sigma)^2 underflows to 0 at"
            " theta = 1e-170, sigma = 1e-05\n"
        )

    # sha256 of the simulate stdout, recorded before RandomStream stopped
    # building numpy's SeedSequence: all three families, a clean and a
    # noisy channel, odd L, the joint estimator and a seed >= 2**32.
    DIGESTS = {
        "gaussian-odd-L-seed7": (
            ["--model", "gaussian", "--L", "10001", "--seed", "7"],
            "a0192547e417c1861ee279826c4cdc7d672c6d892848d34a6c7e337ec7575a56",
        ),
        "laplace-clean-seed-2**32": (
            ["--model", "laplace", "--seed", str(2**32), "--channel-noise-var", "0",
             "--power-mode", "per-sensor"],
            "122a565da273c3f8c6ff889c3a25d64a28769770c7409309677ef2e83fdd7e3e",
        ),
        "cauchy-joint-seed3": (
            ["--model", "cauchy", "--seed", "3", "--channel-noise-var", "0.5",
             "--estimator", "joint"],
            "c3e33b55f1648a5a519997fcff01160af2246b87304d253b8c738fc31f113821",
        ),
        "gaussian-clean-odd-L-joint-seed1": (
            ["--model", "gaussian", "--L", "10001", "--seed", "1", "--channel-noise-var", "0",
             "--omega", "0.7", "--estimator", "joint"],
            "ea0c9cc598311a94b38b5a1046b73bcb4694b16458c77913f274e173b700ab8b",
        ),
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_stdout_digest(self, name):
        argv, expected = self.DIGESTS[name]
        assert stdout_sha256(["simulate", *argv]) == expected


def stdout_sha256(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


# sha256 of the stdout of every command that applies an auto:<target>
# omega rule (and of opt-omega, which reports the optima the rule uses),
# recorded before the rule moved into tuning: each target, a given and
# the default gamma, both power budgets, the boundary substitution
# (Gaussian per-sensor), an omega-axis sweep from an auto base config and
# sigma-axis sweeps that re-tune every row.
OMEGA_RULE_DIGESTS = {
    "simulate-auto-gamma": (
        ["simulate", "--omega", "auto:gamma", "--seed", "5"],
        "a52124de52a37f69f22b82691fc38f33afcaa6bf13abe3aeaa071dc11aa43a83",
    ),
    "simulate-auto-gamma-guess": (
        ["simulate", "--omega", "auto:gamma", "--gamma-guess", "4", "--seed", "5"],
        "3af81dd0262130631e783446a3eb0a2c380eea34cdd5ba45fffa0b02cbaca3c1",
    ),
    "simulate-per-sensor-auto-sigma": (
        ["simulate", "--omega", "auto:sigma", "--power-mode", "per-sensor",
         "--model", "laplace", "--seed", "2"],
        "4b5bd3c4239c916b1f64be3004a0b59e58e61c5e8e3ca862dc5954131a3181f8",
    ),
    "simulate-per-sensor-auto-sigma-substituted": (
        ["simulate", "--omega", "auto:sigma", "--power-mode", "per-sensor", "--seed", "2"],
        "efcfa1da3b8e31ee7af8406bcf9b52631b0b326cb874a09b70cae3a8d92947eb",
    ),
    "asv-auto-theta": (
        ["asv", "--omega", "auto:theta", "--model", "laplace", "--closed-forms"],
        "adf82089c03cbb012d4c758134d9a174987c8293e909e1c693ca278e544a31c1",
    ),
    "asv-auto-sigma": (
        ["asv", "--omega", "auto:sigma", "--model", "cauchy", "--closed-forms",
         "--theta", "1.5"],
        "9cf64c9efc7996dfd7c81778a81e326ef3628edebb2460c1fcfe9987256d1449",
    ),
    "asv-auto-gamma": (
        ["asv", "--omega", "auto:gamma", "--theta", "1.5", "--closed-forms"],
        "ec91fc5cd79b074cc335ad9dc42348535ee38062a28911b130248247e792ce91",
    ),
    "sweep-omega-axis-auto-base": (
        ["sweep", "--axis", "omega", "--grid", "0.4,0.8", "--trials", "8", "--L", "50",
         "--omega", "auto:sigma", "--model", "laplace"],
        "1e2d669a9f82f229f966e5110d7ee7c1f4145105391828873cd54c14a4d16433",
    ),
    "sweep-sigma-axis-auto-gamma": (
        ["sweep", "--axis", "sigma", "--grid", "0.8,1.6", "--trials", "8", "--L", "50",
         "--omega", "auto:gamma", "--seed", "4"],
        "b5af51cab2b1f30b143cc4f33894a4a1147f0399de30572e2c41382782e93f60",
    ),
    "sweep-sigma-axis-per-sensor-auto-theta": (
        ["sweep", "--axis", "sigma", "--grid", "0.8,1.6", "--trials", "8", "--L", "50",
         "--omega", "auto:theta", "--power-mode", "per-sensor", "--model", "laplace"],
        "0db4d6305503d117fb468ecc2bcfd63909aa3019968fe96e5cfe3111fe634cce",
    ),
    "opt-omega-analytic-all": (
        ["opt-omega", "--analytic", "--target", "all", "--gamma", "2.0", "--model", "laplace"],
        "8836a735851365434f15d7515dc55416cd4a288bd3d2fdc887dcdee98d97392a",
    ),
}


@pytest.mark.parametrize("name", sorted(OMEGA_RULE_DIGESTS))
def test_omega_rule_stdout_digest(name):
    argv, expected = OMEGA_RULE_DIGESTS[name]
    assert stdout_sha256(argv) == expected, f"recorded at AVX512_SPR, run at {simd_level()}"


# sha256 of the are stdout, recorded before its reports went through
# dataclasses.asdict in the CLI: the table and the JSON, all families and one.
ARE_DIGESTS = {
    "table": (
        ["are"], "fb0ea4e271c76f8a7948342b3987dcda14f2c59cfba36b3db5864967473b884b",
    ),
    "json": (
        ["are", "--json"], "8b3784d63194cf1c028674b659d1f65d5bce08157a56a9e89525f5e4d649b58d",
    ),
    "json-laplace": (
        ["are", "--model", "laplace", "--json"],
        "f989f0b400cd9dd0c4f3db4605b969e1e04ad288a6cc1121b37f166184c72a87",
    ),
}


@pytest.mark.parametrize("name", sorted(ARE_DIGESTS))
def test_are_stdout_digest(name):
    argv, expected = ARE_DIGESTS[name]
    assert stdout_sha256(argv) == expected


class TestConfigFile:
    def test_file_and_flag_precedence(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sigma": 2.0, "L": 50, "omega": 0.4}))
        payload = run_json(
            capsys, "simulate", "--config", str(path), "--sigma", "1.5"
        )
        config = payload["manifest"]["config"]
        assert config["sigma"] == 1.5  # flag beats file
        assert config["L"] == 50  # file beats default
        assert config["omega"] == 0.4

    def test_unknown_file_key(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"snr": 3.0}))
        rc, _, err = run(capsys, "simulate", "--config", str(path))
        assert rc == 1
        assert "snr" in err

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "simulate", "--config", str(tmp_path / "nope.json"))
        assert rc == 1


class TestAsv:
    def test_point_report(self, capsys):
        payload = run_json(
            capsys, "asv", "--omega", "0.9", "--theta", "1.0", "--closed-forms"
        )
        assert set(payload) == {"asv", "closed_forms", "manifest"}
        asv = payload["asv"]
        assert asv["mode"] == "total"
        assert asv["asv_theta"] > 0 and asv["asv_sigma"] > 0 and asv["asv_gamma"] > 0
        forms = payload["closed_forms"]
        assert set(forms) == {"theta", "sigma", "gamma"}
        assert forms["theta"]["verified"] is True
        assert forms["sigma"]["verified"] is True
        assert forms["gamma"]["verified"] is False
        np.testing.assert_allclose(forms["theta"]["value"], asv["asv_theta"], rtol=1e-9)

    def test_no_theta_no_gamma(self, capsys):
        payload = run_json(capsys, "asv", "--omega", "0.9", "--closed-forms")
        assert payload["asv"]["asv_gamma"] is None
        assert set(payload["closed_forms"]) == {"theta", "sigma"}

    def test_auto_omega(self, capsys):
        payload = run_json(capsys, "asv", "--omega", "auto:theta")
        np.testing.assert_allclose(
            payload["manifest"]["config"]["omega"], GAUSS_TPC_R1_THETA, rtol=1e-6
        )
        assert payload["manifest"]["omega_rule"] == "auto:theta"

    def test_overflowing_asv_gamma_is_an_error(self, capsys):
        """sigma^2 beyond the float range raised a bare OverflowError out
        of main."""
        rc, out, err = run(capsys, "asv", "--sigma", "1e200", "--omega", "1e-200", "--theta", "1")
        assert rc == 1 and out == ""
        assert "asv_gamma" in err and "sigma=1e+200" in err

    def test_underflowing_true_snr_is_an_error(self, capsys):
        """(theta / sigma)^2 underflows to 0: asv exited 0 with "asv_gamma":
        0.0, where the true value is 2.0e-280."""
        rc, out, err = run(capsys, "asv", "--omega", "1", "--theta", "1e-200", "--sigma", "1e-30")
        assert rc == 1 and out == ""
        assert err == (
            "cmphase: error: asv_gamma is out of floating-point range at theta=1e-200,"
            " sigma=1e-30\n"
        )

    def test_inf_component_is_an_error(self, capsys):
        """phi underflows at sigma omega = 40: asv_theta is inf, which
        printed as Infinity, not JSON, with exit status 0."""
        rc, out, err = run(capsys, "asv", "--sigma", "1", "--omega", "40", "--theta", "1")
        assert rc == 1 and out == ""
        assert err.startswith("cmphase: error: asv_theta is inf")

    def test_underflowing_sigma_squared_is_an_error(self, capsys):
        """sigma^2 below the float range ended in a ZeroDivisionError
        traceback."""
        rc, out, err = run(
            capsys, "asv", "--model", "cauchy", "--sigma", "1e-200", "--omega", "1e-190",
            "--theta", "1e-150",
        )
        assert rc == 1 and out == ""
        assert "asv_gamma" in err and "sigma=1e-200" in err and "Traceback" not in err

    def test_auto_gamma_requires_theta(self, capsys):
        rc, _, err = run(capsys, "asv", "--omega", "auto:gamma")
        assert rc == 1
        assert "--theta" in err

    @pytest.mark.parametrize("theta", [[], ["--theta", "1"]], ids=["no-theta", "theta"])
    def test_power_past_half_the_float_range(self, capsys, theta):
        """2 P dphi^2 overflows at P = 1e308: asv_sigma printed as NaN,
        which is not JSON, with exit 0, and with --theta the error blamed
        asv_gamma. asv_sigma is its value at P = 1e300."""
        rc, out, err = run(capsys, "asv", "--P", "1e308", "--omega", "1", *theta)
        assert rc == 0, err
        payload = json.loads(out, parse_constant=reject_constant)
        assert payload["asv"]["asv_sigma"] == 0.5430806348152438

    def test_non_finite_result_is_an_error(self, capsys, monkeypatch):
        """A NaN in a payload is one error line and exit 1, not NaN on
        stdout with exit 0."""
        real = cli.asv_generic
        monkeypatch.setattr(
            cli, "asv_generic", lambda *a, **k: replace(real(*a, **k), asv_sigma=math.nan)
        )
        rc, out, err = run(capsys, "asv", "--omega", "1")
        assert rc == 1 and out == ""
        assert err.startswith("cmphase: error: ") and err.count("\n") == 1


class TestOptOmega:
    def test_all_targets_bundle(self, capsys):
        payload = run_json(
            capsys, "opt-omega", "--model", "cauchy", "--gamma", "1.0"
        )
        assert set(payload) == {"results", "method", "optima", "manifest"}
        optima = payload["optima"]
        assert set(optima) == {
            "omega_theta", "omega_sigma", "omega_gamma", "flags", "method",
        }
        assert optima["method"] == "golden-section"
        for key in ("omega_theta", "omega_sigma", "omega_gamma"):
            np.testing.assert_allclose(optima[key], CAUCHY_TPC_R1, rtol=1e-6)
        assert optima["flags"] == {
            "theta": "interior", "sigma": "interior", "gamma": "interior",
        }

    def test_single_target(self, capsys):
        payload = run_json(capsys, "opt-omega", "--target", "theta")
        assert set(payload["results"]) == {"theta"}
        assert "optima" not in payload
        np.testing.assert_allclose(
            payload["results"]["theta"]["omega_star"], GAUSS_TPC_R1_THETA, rtol=1e-6
        )

    def test_analytic_block(self, capsys):
        payload = run_json(
            capsys, "opt-omega", "--model", "laplace", "--target", "theta", "--analytic"
        )
        analytic = payload["results"]["theta"]["analytic"]
        assert set(analytic) == {"value", "agrees_with_numeric", "note"}
        assert analytic["agrees_with_numeric"] is False  # beta-convention slip

    def test_analytic_runs_one_search_per_target(self, capsys, monkeypatch):
        """analytic_omega's numeric result is the one printed; the golden
        section is not run a second time."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return minimize(*args, **kwargs)

        minimize = tuning.minimize_quasiconvex
        monkeypatch.setattr(tuning, "minimize_quasiconvex", counted)
        payload = run_json(
            capsys, "opt-omega", "--analytic", "--target", "all", "--gamma", "2",
            "--omega-min", "0.01",
        )
        assert calls == [(0.01, 2.0 * math.pi)] * 3
        for target in OMEGA_TARGETS:
            w, flag = optimal_omega(GAUSSIAN, 1.0, 1.0, 1.0, target, gamma=2.0, omega_min=0.01)
            assert payload["results"][target]["omega_star"] == w
            assert payload["results"][target]["flag"] == flag

    def test_omega_interval_is_tunings(self, capsys, monkeypatch):
        """The --omega-min and --omega-max defaults and the bound of asv's
        auto rule are tuning's default interval, defined there once."""
        args = cli.build_parser().parse_args(["opt-omega"])
        assert (args.omega_min, args.omega_max) == (tuning.OMEGA_MIN, tuning.OMEGA_MAX)
        bounds = []

        def recording(*args):
            bounds.append(args[7])
            return rule_omega(*args)

        rule_omega = cli.rule_omega
        monkeypatch.setattr(cli, "rule_omega", recording)
        run_json(capsys, "asv", "--omega", "auto:theta")
        assert bounds == [tuning.OMEGA_MAX]

    def test_no_finite_probe_exits_1(self, capsys):
        """The theta curve is inf at every probe of [1e-4, 1e20]; the
        command printed 21180.05 flagged "lower"."""
        rc, out, err = run(capsys, "opt-omega", "--target", "theta", "--omega-max", "1e20")
        assert rc == 1 and out == ""
        assert err.startswith("cmphase: error: ") and "[0.0001, 1e+20]" in err

    def test_gamma_target_requires_gamma(self, capsys):
        rc, _, err = run(capsys, "opt-omega", "--target", "gamma")
        assert rc == 1
        assert "--gamma" in err

    def test_power_past_half_the_float_range(self, capsys):
        """2 P overflows at P = 1e308: asv_sigma was NaN at every probe,
        and the sigma search failed with "golden section saw no finite
        value"."""
        rc, out, err = run(capsys, "opt-omega", "--P", "1e308", "--gamma", "1")
        assert rc == 0, err
        payload = json.loads(out, parse_constant=reject_constant)
        assert set(payload["results"]) == set(OMEGA_TARGETS)

    @pytest.mark.parametrize("target", ["theta", "sigma", "all"])
    @pytest.mark.parametrize("gamma", ["nan", "inf", "0", "-1", "2"])
    def test_gamma_is_checked_for_every_target(self, capsys, target, gamma):
        """--target theta --gamma nan exited 0 and wrote "gamma": NaN, which
        is not JSON, into the manifest: that target ignores gamma."""
        rc, out, err = run(capsys, "opt-omega", "--target", target, "--gamma", gamma)
        if gamma != "2":
            assert rc == 1 and out == ""
            assert err.startswith("cmphase: error: --gamma ") and err.count("\n") == 1
            return
        assert rc == 0, err
        payload = json.loads(out, parse_constant=reject_constant)
        assert payload["manifest"]["config"]["gamma"] == 2.0


@pytest.mark.parametrize(
    "argv",
    [
        # omega^2 overflowed in the omega search
        ("opt-omega", "--omega-max", "1e300", "--target", "theta"),
        # the Gaussian closed form divided by an underflowed exp(-u)
        ("asv", "--omega", "50", "--closed-forms"),
        # the Laplace Cardano form overflowed at nv / P = 1e300
        ("opt-omega", "--model", "laplace", "--channel-noise-var", "1e300", "--analytic",
         "--gamma", "1"),
        # the Laplace per-sensor gamma radical gave inf
        ("opt-omega", "--model", "laplace", "--power-mode", "per-sensor", "--analytic",
         "--target", "gamma", "--gamma", "1e300"),
        # phi underflowed and asv printed Infinity, which is not JSON
        ("asv", "--sigma", "1", "--omega", "40", "--theta", "1"),
    ],
    ids=" ".join,
)
def test_float_range_edges_exit_cleanly(capsys, argv):
    """Each of these raised a traceback out of main or printed inf as a
    closed-form result; now the command prints finite numbers or exits 1
    saying why."""
    rc, out, err = run(capsys, *argv)
    assert rc in (0, 1)
    assert "Infinity" not in out and "NaN" not in out
    if rc == 1:
        assert err.startswith("cmphase: error: ")


class TestAre:
    def test_text_table(self, capsys):
        rc, out, err = run(capsys, "are")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].split() == ["model", "parameter", "ARE", "reference", "match"]
        body = [ln for ln in lines[1:] if ln and not ln.startswith("*")]
        assert len(body) == 6
        laplace_sigma = next(ln for ln in body if ln.startswith("laplace") and "sigma" in ln)
        assert "no *" in laplace_sigma
        assert any(ln.startswith("*") for ln in lines)  # mismatch footnote

    def test_single_model(self, capsys):
        rc, out, _ = run(capsys, "are", "--model", "gaussian")
        body = [
            ln for ln in out.splitlines()[1:] if ln and not ln.startswith("*")
        ]
        assert len(body) == 2
        assert all(ln.startswith("gaussian") for ln in body)

    def test_json(self, capsys):
        payload = run_json(capsys, "are", "--json")
        reports = payload["reports"]
        assert len(reports) == 6
        assert {r["matches_reference"] for r in reports} == {True, False}
        assert set(reports[0]) == {
            "model", "parameter", "inf_asv", "fisher_bound",
            "are", "reference_are", "matches_reference",
        }


class TestSweep:
    def test_stdout_csv(self, capsys):
        rc, out, err = run(
            capsys, "sweep", "--axis", "omega", "--grid", "0.5,0.9",
            "--trials", "16", "--L", "100",
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("# manifest: ")
        manifest = json.loads(lines[0][len("# manifest: "):])
        assert manifest["command"] == "sweep"
        assert manifest["trials"] == 16
        assert lines[1].startswith("axis,value,")
        assert len(lines) == 4  # manifest + header + 2 rows

    def test_grid_colon_form(self, capsys):
        rc, out, _ = run(
            capsys, "sweep", "--axis", "omega", "--grid", "0.4:0.8:3",
            "--trials", "8", "--L", "50",
        )
        assert rc == 0
        rows = out.splitlines()[2:]
        assert [r.split(",")[1] for r in rows] == ["0.4", "0.6", "0.8"]

    @pytest.mark.parametrize("grid", ["0:1:1e15", "0:1:4294967296"])
    def test_grid_count_is_bounded_before_allocation(self, capsys, grid):
        """--grid 0:1:1e15 ended in numpy's MemoryError traceback ("Unable
        to allocate 7.11 PiB"); the count is now checked before the grid
        is formed, at the bound of a row's substream."""
        rc, out, err = run(capsys, "sweep", "--axis", "omega", f"--grid={grid}", "--trials", "4")
        assert rc == 1 and out == ""
        assert "--grid" in err and "count must be below 2**32" in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize(
        "args, line", [(("Unable to allocate 8.00 EiB",), "Unable to allocate 8.00 EiB"),
                       ((), "MemoryError")], ids=["numpy", "bare"],
    )
    def test_memory_error_is_one_error_line(self, capsys, monkeypatch, command, args, line):
        """A MemoryError (raised here in place of the allocation) exits 1
        with one 'cmphase: error:' line; a bare one names its type."""
        def exhausted(*_, **__):
            raise MemoryError(*args)

        monkeypatch.setattr(cli, "simulate_snapshot" if command == "simulate" else "sweep",
                            exhausted)
        argv = [command, "--L", "20", "--omega", "0.5"]
        if command == "sweep":
            argv += ["--axis", "omega", "--grid", "0.5", "--trials", "4"]
        assert run(capsys, *argv) == (1, "", f"cmphase: error: {line}\n")

    def test_bad_grid(self, capsys):
        rc, _, err = run(capsys, "sweep", "--axis", "omega", "--grid", "1:2")
        assert rc == 1
        assert "grid" in err

    @pytest.mark.parametrize(
        "grid, reason",
        [
            ("1:2:0.5", "count must be an integer"),
            ("1:2:x", "could not convert"),
            ("0.5,x", "could not convert"),
            ("nan,1", "finite, got nan"),
            ("0.5,inf", "finite, got inf"),
            ("-inf:1:3", "finite, got -inf"),
            ("0:nan:2", "finite, got nan"),
            ("1:2:3:4", "could not convert"),
        ],
    )
    def test_grid_errors_name_the_flag(self, capsys, grid, reason):
        """'1:2:0.5' reported only int()'s message, and 'nan,1' exited 0
        with a NaN row."""
        rc, out, err = run(capsys, "sweep", "--axis", "omega", f"--grid={grid}", "--trials", "4")
        assert rc == 1 and out == ""
        assert "--grid" in err and reason in err

    @pytest.mark.parametrize("strict, code", [([], 0), (["--strict"], 2)])
    def test_failed_row_says_why(self, capsys, strict, code):
        """The golden case gaussian-total-odd-L through the CLI: its row
        omega = 1.2 lies beyond 2 pi / theta_R. The reason goes to stderr,
        --strict exits 2, and the CSV rows stay the golden's bytes."""
        golden = Path(__file__).parent / "golden" / "gaussian-total-odd-L.csv"
        rc, out, err = run(
            capsys, "sweep", "--axis", "omega", "--grid", "0.5,0.9,1.2", "--trials", "50",
            "--L", "101", "--model", "gaussian", "--power-mode", "total",
            "--channel-noise-var", "1", "--sigma", "1", "--omega", "0.9", "--seed", "3",
            *strict,
        )
        assert rc == code
        # The manifest line differs: the golden embeds its case name.
        assert out.splitlines()[1:] == golden.read_text(encoding="utf-8").splitlines()[1:]
        assert err.splitlines() == [
            "cmphase: sweep row 2 (omega = 1.2) failed: omega must lie in"
            " (0, 2 pi / theta_R] = (0, 1]; got 1.2"
        ]

    def test_saturation_hint_at_small_omega(self, capsys):
        """Every trial saturates at omega = 1e-300, where phi(sigma omega)
        is 1; the reason said "omega is likely too large for this sigma",
        while saturation falls as omega grows."""
        rc, _, err = run(
            capsys, "sweep", "--axis", "omega", "--grid", "1e-300", "--trials", "2", "--L", "2"
        )
        assert rc == 0
        assert "all 2 trials saturated" in err and "phi(sigma omega) = 1;" in err
        assert "too large" not in err

    def test_strict_passes_a_clean_sweep(self, capsys):
        rc, out, err = run(
            capsys, "sweep", "--axis", "omega", "--grid", "0.5", "--trials", "8", "--L", "20",
            "--strict",
        )
        assert rc == 0 and err == ""
        assert len(out.splitlines()) == 3

    def test_sigma_row_with_overflowing_asv_gamma(self, capsys):
        rc, out, err = run(
            capsys, "sweep", "--axis", "sigma", "--grid", "1e200", "--trials", "5", "--L", "20",
        )
        assert rc == 0, err
        assert out.splitlines()[2] == "sigma,1e+200,nan,nan,nan,nan,nan,nan,nan,0,0"

    def test_overflowing_variance_reads_inf(self, capsys):
        """The 1e-300 row's estimates are finite but far apart, so their
        L-scaled variances overflow: numpy's overflow warning was the only
        signal, and this suite makes it an error. The other row is as
        before."""
        rc, out, err = run(
            capsys, "sweep", "--model", "cauchy", "--L", "100", "--axis", "omega",
            "--grid", "1e-300,1", "--trials", "5",
        )
        assert rc == 0, err
        assert out.splitlines()[2:] == [
            "omega,1e-300,inf,inf,936152053,inf,inf,inf,0.4,5,100",
            "omega,1,6.56651799,10.1784596,92.2890825,6.8890561,6.8890561,55.1124488,0,5,100",
        ]

    @pytest.mark.parametrize("trials", ["0", "-3", "1"])
    def test_bad_trial_count(self, capsys, trials):
        """Used to write a CSV of all-NaN error rows and exit 0; one trial
        wrote nan for every sample variance and exited 0."""
        rc, out, err = run(
            capsys, "sweep", "--axis", "omega", "--grid", "0.5", "--trials", trials,
        )
        assert rc == 1
        assert "trials must be an integer >= 2" in err
        assert out == ""

    @pytest.mark.parametrize("trials", [str(2**32), str(10**15)])
    def test_trial_count_is_bounded(self, capsys, trials):
        """--trials 4294967296 wrote an all-NaN row and exited 0, with an
        error naming n, the substream count, not trials."""
        rc, out, err = run(
            capsys, "sweep", "--axis", "omega", "--grid", "0.5", "--trials", trials, "--L", "1",
        )
        assert rc == 1 and out == ""
        assert err == f"cmphase: error: trials must be below 2**32, got {trials}\n"

    def test_file_rerun_byte_identical(self, capsys, tmp_path):
        # The manifest line embeds the output path, so byte identity is
        # defined for reruns of the same command writing the same file.
        out = tmp_path / "rows.csv"
        args = (
            "sweep", "--axis", "sigma", "--grid", "0.8,1.2", "--trials", "16",
            "--L", "100", "--omega", "0.9", "--seed", "3", "--out", str(out),
        )
        assert run(capsys, *args)[0] == 0
        first = out.read_bytes()
        assert run(capsys, *args)[0] == 0
        assert out.read_bytes() == first

    def test_gamma_guess_rejected_where_rows_are_retuned(self, capsys):
        """Each row of a sigma-axis auto:gamma sweep is tuned at its own true
        SNR, so a guess would be recorded in the manifest but never used."""
        rc, out, err = run(
            capsys, "sweep", "--axis", "sigma", "--grid", "0.8,1.6", "--trials", "8",
            "--L", "50", "--omega", "auto:gamma", "--gamma-guess", "5",
        )
        assert rc == 1 and out == ""
        assert "--gamma-guess" in err and "true SNR" in err

    def test_sigma_axis_auto_omega_rule(self, capsys):
        rc, out, _ = run(
            capsys, "sweep", "--axis", "sigma", "--grid", "0.8,1.6",
            "--trials", "8", "--L", "50", "--omega", "auto:theta",
            "--model", "cauchy", "--theta-R", str(math.pi), "--theta", "1.0",
        )
        assert rc == 0
        lines = out.splitlines()
        manifest = json.loads(lines[0][len("# manifest: "):])
        assert manifest["omega_rule"] == "auto:theta"
        assert len(lines) == 4


# The CLI and JSON boundary. Each flag draws half the time from values it
# accepts and half the time from a pool of finite values, 0, negatives,
# 1e+-300, 1e308 (past half the float max, where 2 x overflows), nan, inf
# and words. A draw is (value, True) from the first pool, (value, False)
# from the second.
def _pool(*good: str, bad=("0", "-0", "-1", "-0.5", "1e300", "-1e300", "1e-300", "1e308", "nan",
                          "inf", "-inf", "abc", "")):
    return (st.sampled_from(good).map(lambda v: (v, True))
            | st.sampled_from(bad).map(lambda v: (v, False)))


NUMBER = _pool("1", "0.5", "2.5")
COUNT = _pool("2", "3", bad=("1", "0", "-1", "1.5", "1e300", "abc"))
OMEGA = _pool("0.5", "auto:theta", "auto:sigma", "auto:gamma",
              bad=("auto:snr", "0", "-1", "1e300", "1e-300", "nan", "inf", "abc"))
GRID = _pool("0.5", "0.5,1", "0.1:1:3", "1e-300,1",
             bad=("0:1:1e300", "1:2:0", "nan,1", "inf", "-1", "abc", ""))
MODEL = _pool("gaussian", "laplace", "cauchy", bad=("abc",))
POINT_FLAGS = {
    "--sigma": NUMBER, "--P": NUMBER, "--channel-noise-var": NUMBER, "--model": MODEL,
    "--power-mode": _pool("total", "per-sensor", bad=("abc",)),
}
CONFIG_FLAGS = {
    **POINT_FLAGS, "--L": COUNT, "--theta": NUMBER, "--theta-R": NUMBER, "--omega": OMEGA,
    "--seed": COUNT, "--gamma-guess": NUMBER,
}
SUBCOMMANDS = {  # None for a flag that takes no value
    "simulate": {**CONFIG_FLAGS, "--estimator": _pool("simple", "joint", bad=("abc",))},
    "asv": {**POINT_FLAGS, "--omega": OMEGA, "--theta": NUMBER, "--closed-forms": None},
    "opt-omega": {
        **POINT_FLAGS, "--target": _pool("theta", "sigma", "gamma", "all", bad=("abc",)),
        "--gamma": NUMBER, "--omega-min": NUMBER, "--omega-max": NUMBER, "--analytic": None,
    },
    "are": {"--model": _pool("gaussian", "all", bad=("abc",)), "--json": None},
    "sweep": {**CONFIG_FLAGS, "--axis": _pool("omega", "sigma", bad=("abc",)), "--grid": GRID,
              "--trials": COUNT},
}
# Always given, so most commands get past argparse; --trials keeps sweeps small.
REQUIRED = {"asv": ["--omega"], "sweep": ["--axis", "--grid", "--trials"]}
CONFIG = st.dictionaries(
    st.sampled_from(["L", "theta", "theta_R", "sigma", "model", "power_mode", "P",
                     "channel_noise_var", "omega", "seed", "snr"]),
    st.sampled_from([3, 1, 0, -1, 0.5, 2.5, 1e300, 1e308, 1e-300, -1e300, 10**400, math.nan, True,
                     False, None, "gaussian", "per-sensor", "auto:theta", "auto:gamma", "1.0",
                     "abc", [1.0], {"sigma": 1.0}]),
    max_size=5,
) | st.sampled_from([[], "gaussian", 3, None])


def _valid_point(command: str, values: dict) -> bool:
    """Whether a draw of are, asv or opt-omega flags, each value from its
    good pool, meets the cross-flag rules: --omega auto:gamma needs
    --theta, a gamma or all target needs --gamma, and omega_min <
    omega_max (defaults 1e-4 and 2 pi)."""
    if command == "asv":
        return values.get("--omega") != "auto:gamma" or "--theta" in values
    if command == "opt-omega":
        if values.get("--target", "all") in ("gamma", "all") and "--gamma" not in values:
            return False
        return float(values.get("--omega-min", 1e-4)) < float(values.get("--omega-max", 2 * math.pi))
    return command == "are"


def _strict_json(text: str):
    return json.loads(text, parse_constant=reject_constant)


def _check_csv(text: str) -> None:
    """A manifest line strict JSON accepts, the header, and rows whose
    values are finite, inf where documented, or a failed row's nan."""
    lines = text.splitlines()
    assert lines[0].startswith("# manifest: ")
    _strict_json(lines[0][len("# manifest: "):])
    header = lines[1].split(",")
    for line in lines[2:]:
        row = dict(zip(header, line.split(",")))
        values = {k: float(v) for k, v in row.items() if k != "axis"}
        assert math.isfinite(values["value"]), line
        if values["trials"] == 0:  # a failed row: no statistics
            assert all(math.isnan(values[k]) for k in ("emp_var_theta", "emp_var_sigma")), line
            continue
        # A known class, exempted by name and documented in README and
        # write_sweep_csv: the trimmed SNR variance is nan where fewer than
        # two trials escaped saturation.
        few_snr = round(values["trials"] * (1.0 - values["saturated_frac"])) < 2
        for key, value in values.items():
            inf_ok = key.startswith(("emp_var_", "asv_"))
            nan_ok = key == "emp_var_gamma" and few_snr
            assert math.isfinite(value) or (inf_ok and value == math.inf) or nan_ok, line


@settings(
    max_examples=400, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_cli_boundary_property(monkeypatch, tmp_path, data):
    """cmphase over simulate, asv, opt-omega, are and sweep with up to
    three flags set, and simulate and sweep reading a --config file of
    wrong types, bools, null, nested values, huge ints and unknown keys:
    exit 0 with output that strict JSON accepts (or are's table, or a
    sweep CSV of finite values, documented inf and failed rows), or exit
    1 with one 'cmphase: error:' line (argparse's usage errors name the
    subcommand). An are, asv or opt-omega draw of good values alone that
    meets the cross-flag rules (_valid_point) must exit 0. Never a
    traceback, a RuntimeWarning (an error under this suite's filter) or
    NaN in a manifest. Rows run here, not in forked children, so a
    warning in any row is seen."""
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    command = data.draw(st.sampled_from(sorted(SUBCOMMANDS)), label="command")
    flags = SUBCOMMANDS[command]
    chosen = data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True))
    argv, values, good = [command], {}, True
    for flag in [*REQUIRED.get(command, ()), *chosen]:
        if flags[flag] is None:
            argv.append(flag)
        else:
            values[flag], from_good = data.draw(flags[flag], label=flag)
            good = good and from_good
            argv.append(f"{flag}={values[flag]}")
    if command in ("simulate", "sweep") and data.draw(st.booleans(), label="--config"):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data.draw(CONFIG, label="config")), encoding="utf-8")
        argv.append(f"--config={path}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse
            rc = exc.code
    out, err = out.getvalue(), err.getvalue()
    if good and _valid_point(command, values):
        assert rc == 0, (argv, err)
    if rc == 0:
        if command == "sweep":
            _check_csv(out)
        elif command == "are" and "--json" not in argv:
            assert "nan" not in out.lower(), out
        else:
            _strict_json(out)
    else:
        assert rc == 1, (rc, err)
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith(("cmphase: error: ", f"cmphase {command}: error: ")), err


@pytest.mark.parametrize(
    "argv",
    [
        ["asv", "--P", "1e308", "--omega", "1"],
        ["asv", "--P", "1e308", "--omega", "1", "--theta", "1"],
        ["opt-omega", "--P", "1e308", "--gamma", "1"],
        ["opt-omega", "--P", "1e308", "--gamma", "1", "--analytic"],
        ["asv", "--channel-noise-var", "1e308", "--omega", "1"],
        ["simulate", "--channel-noise-var", "1e308"],
    ],
    ids=" ".join,
)
def test_valid_extremes_exit_0(capsys, argv):
    """The exit-0 oracle of test_cli_boundary_property on valid inputs at
    the top of the float range, where 2 P or 2 nv overflows: its pools
    hold 1e308 among the bad values, so there it may also exit 1."""
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    _strict_json(out)

"""Command-line front end.

Subcommands:
  simulate   one snapshot plus estimates (simple or joint)
  asv        asymptotic variances at an operating point
  opt-omega  numeric omega tuning, optionally with the analytic cross-check
  are        asymptotic relative efficiency table
  sweep      Monte Carlo sweep along omega or sigma, emitted as CSV

Results are dataclasses, and this module is the one place they become
JSON, through dataclasses.asdict. Every JSON output embeds a manifest
(command, version, configuration, seed, output target) and the sweep CSV
carries the same manifest as a leading comment line. Outputs contain no
timestamps, so a rerun with identical inputs is byte-identical.

Exit codes: 0 success, 1 usage or validation error, 2 under --strict: a
saturated simulate snapshot or a failed sweep row. sweep names each
failed row and its reason on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .asymptotic import asv_closed_form, asv_generic
from .efficiency import asymptotic_relative_efficiency
from .estimators import joint_minimum_variance, simple_estimates
from .montecarlo import AllTrialsSaturatedError, sweep, write_sweep_csv
from .network import ConfigError, NetworkConfig, PowerMode, effective_noise_var, simulate_snapshot
from .noise import MODEL_TOKENS, noise_model
from .numkit import RandomStream, real_number, whole_number
from .tuning import (
    OMEGA_MAX, OMEGA_MIN, OMEGA_TARGETS, OmegaOptima, analytic_omega, optimal_omega, rule_omega,
    true_snr,
)

_CONFIG_DEFAULTS = {
    "L": 100,
    "theta": 1.0,
    "theta_R": 2.0 * math.pi,
    "sigma": 1.0,
    "model": "gaussian",
    "power_mode": "total",
    "P": 1.0,
    "channel_noise_var": 1.0,
    "omega": "auto:theta",
    "seed": 0,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits usage errors with status 2; the contract here is 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _omega_arg(text: str) -> float | str:
    """--omega: a number, or else an auto:<target> rule for tuning to parse."""
    try:
        return float(text)
    except ValueError:
        return text


def _add_point_flags(p: argparse.ArgumentParser, defaults: dict) -> None:
    """The operating-point flags, each defaulting to its entry in defaults
    (None where it has none)."""
    p.add_argument("--sigma", type=float, default=defaults.get("sigma"), help="true noise scale")
    p.add_argument(
        "--model", choices=MODEL_TOKENS, default=defaults.get("model"), help="sensing noise model"
    )
    p.add_argument(
        "--power-mode", dest="power_mode", choices=[m.value for m in PowerMode],
        default=defaults.get("power_mode"), help="power budget convention",
    )
    p.add_argument("--P", type=float, default=defaults.get("P"), help="power budget")
    p.add_argument(
        "--channel-noise-var", dest="channel_noise_var", type=float,
        default=defaults.get("channel_noise_var"),
        help="channel noise variance at the fusion center",
    )


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="JSON file with configuration keys")
    p.add_argument("--L", type=int, help="number of sensors")
    p.add_argument("--theta", type=float, help="true location")
    p.add_argument("--theta-R", dest="theta_R", type=float, help="location range bound")
    _add_point_flags(p, {})
    p.add_argument(
        "--omega", type=_omega_arg,
        help="modulation frequency: a float or auto:theta|sigma|gamma",
    )
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument(
        "--gamma-guess", dest="gamma_guess", type=float,
        help="SNR value used by auto:gamma (default: the configured truth)",
    )


def _build_config(args) -> tuple[NetworkConfig, dict]:
    """The validated config of defaults, --config file and flags, and the
    manifest notes of its omega rule if the omega setting is one."""
    if args.gamma_guess is not None:  # checked even where no rule reads it
        real_number("--gamma-guess", args.gamma_guess)
    merged = dict(_CONFIG_DEFAULTS)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        merged.update(file_cfg)
    for key in _CONFIG_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    rule = merged["omega"]
    if not isinstance(rule, str):
        return NetworkConfig.from_json_dict(merged), {}
    # Validated with the least positive omega, which every theta_R admits,
    # before the rule reads the config.
    cfg = NetworkConfig.from_json_dict({**merged, "omega": math.ulp(0.0)})
    omega, notes = rule_omega(
        rule, cfg.model, cfg.sigma, cfg.P, cfg.channel_noise_var, cfg.power_mode,
        cfg.theta, 2.0 * math.pi / cfg.theta_R, gamma=args.gamma_guess,
    )
    return replace(cfg, omega=omega), notes


def _manifest(command: str, config: dict, seed, output, **extra) -> dict:
    man = {
        "command": command,
        "version": __version__,
        "config": config,
        "seed": seed,
        "output": output,
    }
    man.update(extra)
    return man


def _emit(payload: dict) -> None:
    """Print payload as JSON; a non-finite float raises ValueError, which
    main reports, so nothing is printed that strict JSON rejects."""
    print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))


def _cmd_simulate(args) -> int:
    cfg, notes = _build_config(args)
    y, z = simulate_snapshot(cfg, RandomStream(cfg.seed))
    if args.estimator == "joint":
        nv_eff = effective_noise_var(cfg.power_mode, cfg.channel_noise_var)
        est = joint_minimum_variance(z, cfg.omega, cfg.P, nv_eff, cfg.model, cfg.theta_R)
    else:
        est = simple_estimates(z, cfg.omega, cfg.P, cfg.model)
    payload = {
        "y": {"re": y.real, "im": y.imag},
        "z": {"re": z.real, "im": z.imag, "abs": abs(z), "arg": math.atan2(z.imag, z.real)},
        "estimates": {"estimator": args.estimator, **asdict(est)},
        "manifest": _manifest(
            "simulate", cfg.to_json_dict(), cfg.seed, None, **notes
        ),
    }
    _emit(payload)
    if args.strict and est.saturated:
        print("cmphase: saturated snapshot under --strict", file=sys.stderr)
        return 2
    return 0


def _point_config(args, *extra: str) -> dict:
    """The manifest config of an asv or opt-omega run: its operating-point
    flags and the named extra ones."""
    names = ("model", "sigma", "P", "channel_noise_var", "power_mode") + extra
    return {name: getattr(args, name) for name in names}


def _cmd_asv(args) -> int:
    model = noise_model(args.model)
    omega, notes = args.omega, {}
    if isinstance(omega, str):
        if args.theta is None and omega == "auto:gamma":
            raise ConfigError("--omega auto:gamma requires --theta")
        omega, notes = rule_omega(
            omega, model, args.sigma, args.P, args.channel_noise_var, args.power_mode,
            args.theta, OMEGA_MAX,
        )
    gamma = None  # the closed-form SNR row's truth, checked first to name theta and sigma
    if args.closed_forms and args.theta is not None:
        gamma = true_snr(args.theta, args.sigma)
    report = asv_generic(
        model, args.sigma, omega, args.P,
        channel_noise_var=args.channel_noise_var,
        theta=args.theta, power_mode=args.power_mode,
    )
    for name in ("asv_theta", "asv_sigma", "asv_gamma"):
        value = getattr(report, name)
        if value == math.inf:  # not estimable here; JSON has no inf
            raise ValueError(
                f"{name} is inf (not estimable) at sigma={args.sigma!r}, omega={omega!r}"
            )
    payload = {"asv": asdict(report)}
    if args.closed_forms:
        forms = {}
        targets = ["theta", "sigma"] + (["gamma"] if gamma is not None else [])
        for which in targets:
            value, verified = asv_closed_form(
                model, args.sigma, omega, args.P, args.channel_noise_var,
                which, power_mode=args.power_mode, gamma=gamma if which == "gamma" else None,
            )
            forms[which] = {"value": value, "verified": verified}
        payload["closed_forms"] = forms
    config = {**_point_config(args, "theta"), "omega": omega}
    payload["manifest"] = _manifest("asv", config, None, None, **notes)
    _emit(payload)
    return 0


def _cmd_opt_omega(args) -> int:
    model = noise_model(args.model)
    targets = OMEGA_TARGETS if args.target == "all" else (args.target,)
    if "gamma" in targets and args.gamma is None:
        raise ConfigError("--target gamma (or all) requires --gamma")
    if args.gamma is not None:  # checked for every target: the manifest records it
        real_number("--gamma", args.gamma)
    results = {}
    for target in targets:
        operating_point = dict(
            model=model, sigma=args.sigma, P=args.P,
            channel_noise_var=args.channel_noise_var, target=target,
            power_mode=args.power_mode, gamma=args.gamma,
            omega_max=args.omega_max, omega_min=args.omega_min,
        )
        # analytic_omega first, so its overflow errors win; its search is kept.
        an = analytic_omega(**operating_point) if args.analytic else None
        omega, flag = optimal_omega(**operating_point)
        results[target] = {"omega_star": omega, "flag": flag}
        if an is not None:
            results[target]["analytic"] = {
                "value": an.value,
                "agrees_with_numeric": an.agrees_with_numeric,
                "note": an.note,
            }
    payload: dict = {"results": results, "method": "golden-section"}
    if args.target == "all":
        payload["optima"] = asdict(OmegaOptima(
            *(results[t]["omega_star"] for t in OMEGA_TARGETS),
            flags={t: results[t]["flag"] for t in OMEGA_TARGETS},
        ))
    config = _point_config(args, "target", "gamma", "omega_min", "omega_max")
    payload["manifest"] = _manifest("opt-omega", config, None, None)
    _emit(payload)
    return 0


def _cmd_are(args) -> int:
    models = MODEL_TOKENS if args.model == "all" else (args.model,)
    reports = [
        asymptotic_relative_efficiency(noise_model(m), parameter)
        for m in models
        for parameter in ("theta", "sigma")
    ]
    if args.json:
        payload = {
            "reports": [asdict(r) for r in reports],
            "manifest": _manifest("are", {"model": args.model}, None, None),
        }
        _emit(payload)
        return 0
    print(f"{'model':<10}{'parameter':<11}{'ARE':<10}{'reference':<11}match")
    mismatch = False
    for r in reports:
        mark = "yes" if r.matches_reference else "no *"
        mismatch = mismatch or not r.matches_reference
        print(
            f"{r.model:<10}{r.parameter:<11}{r.are:<10.6f}{r.reference_are:<11.2f}{mark}"
        )
    if mismatch:
        print(
            "* the variance curves give a different value than the bundled"
            " reference table"
        )
    return 0


def _parse_grid(text: str) -> list[float]:
    """--grid, start:stop:count or a comma list, as finite values."""
    parts = text.split(":")
    try:
        if len(parts) == 3:
            start, stop = (real_number("each value", float(v), -math.inf) for v in parts[:2])
            count = whole_number("count", float(parts[2]), 1)
            if count >= 2**32:  # checked before the grid is allocated
                raise ValueError(f"count must be below 2**32, got {count!r}")
            with np.errstate(all="ignore"):  # stop - start may overflow
                values = np.linspace(start, stop, count).tolist()
        else:
            values = [float(v) for v in text.split(",")]
        return [real_number("each value", v, -math.inf) for v in values]
    except ValueError as exc:
        raise ConfigError(f"--grid {text!r}: {exc}") from None


def _cmd_sweep(args) -> int:
    cfg, notes = _build_config(args)
    omega_rule = notes.get("omega_rule") if args.axis == "sigma" else None
    if omega_rule == "auto:gamma" and args.gamma_guess is not None:
        raise ConfigError(
            "--gamma-guess does not apply to a sigma-axis sweep: auto:gamma tunes"
            " each row at that row's true SNR (theta / sigma)^2"
        )
    grid = _parse_grid(args.grid)
    rows = sweep(cfg, args.axis, grid, args.trials, omega_rule=omega_rule)
    manifest = _manifest(
        "sweep", cfg.to_json_dict(), cfg.seed,
        None if args.out == "-" else args.out,
        axis=args.axis, grid=grid, trials=args.trials, **notes,
    )
    write_sweep_csv(rows, sys.stdout if args.out == "-" else args.out, manifest)
    failed = [(i, row) for i, row in enumerate(rows) if row.error is not None]
    for i, row in failed:
        print(
            f"cmphase: sweep row {i} ({row.axis} = {row.value!r}) failed: {row.error}",
            file=sys.stderr,
        )
    return 2 if args.strict and failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="cmphase", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"cmphase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[], help="one snapshot plus estimates")
    _add_config_flags(p)
    p.add_argument("--estimator", choices=["simple", "joint"], default="simple")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 if the snapshot saturates")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("asv", help="asymptotic variances at an operating point")
    _add_point_flags(p, _CONFIG_DEFAULTS)
    p.add_argument("--omega", required=True, type=_omega_arg,
                   help="a float or auto:theta|sigma|gamma")
    p.add_argument("--theta", type=float, help="true location (enables the SNR row)")
    p.add_argument("--closed-forms", dest="closed_forms", action="store_true",
                   help="include closed-form values with verification flags")
    p.set_defaults(func=_cmd_asv)

    p = sub.add_parser("opt-omega", help="omega tuning")
    _add_point_flags(p, _CONFIG_DEFAULTS)
    p.add_argument("--target", choices=[*OMEGA_TARGETS, "all"], default="all")
    p.add_argument("--gamma", type=float, help="SNR value for the gamma target")
    p.add_argument("--omega-min", dest="omega_min", type=float, default=OMEGA_MIN)
    p.add_argument("--omega-max", dest="omega_max", type=float, default=OMEGA_MAX)
    p.add_argument("--analytic", action="store_true",
                   help="include the closed-form tuning equations and agreement flags")
    p.set_defaults(func=_cmd_opt_omega)

    p = sub.add_parser("are", help="asymptotic relative efficiency table")
    p.add_argument("--model", choices=list(MODEL_TOKENS) + ["all"], default="all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_are)

    p = sub.add_parser("sweep", help="Monte Carlo sweep, CSV output")
    _add_config_flags(p)
    p.add_argument("--axis", choices=["omega", "sigma"], required=True)
    p.add_argument("--grid", required=True,
                   help="start:stop:count or comma-separated values")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--out", default="-", help="CSV path, or - for stdout")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 if any row failed (its CSV row is all NaN)")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, AllTrialsSaturatedError, ValueError, OSError, MemoryError) as exc:
        print(f"cmphase: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

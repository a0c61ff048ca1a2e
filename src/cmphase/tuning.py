"""Selection of the modulation frequency omega.

The numeric route (optimal_omega) golden-sections the authoritative
characteristic-function asymptotic variance and is what the rest of the
package trusts. The companion closed-form tuning equations collected in
analytic_omega (Lambert-W expressions, transcendental equations in
beta = omega^2 sigma^2, a Cardano closed form and two quintics) are kept
as cross-checks: each analytic result carries an agrees_with_numeric
verdict at 1e-4 relative, and several of the bundled equations are known
not to match the numeric minimizer (wrong stationarity displays or a
beta-convention mismatch); the verdict records this rather than hiding
it.

Quasi-convexity of the underlying curves means an interior minimum is
unique and a monotone curve pushes the infimum onto an interval edge;
minimize_quasiconvex reports which happened through its boundary flag.
The curve for the SNR gamma = theta^2 / sigma^2 is a positive
combination of the location and scale curves, so its minimizer lies
between theirs; the test suite checks that betweenness on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .asymptotic import _asv_components, compose_gamma
from .network import PowerMode
from .noise import NoiseModel
from .numkit import (
    find_root_bracketed,
    lambert_w0,
    minimize_quasiconvex,
    real_roots_in_interval,
    sign_change_brackets,
)

__all__ = [
    "OmegaOptima",
    "AnalyticOmega",
    "optimal_omega",
    "omega_optima",
    "analytic_omega",
    "resolve_omega",
]

_TARGETS = ("theta", "sigma", "gamma")
_BETA_LO = 1e-9
_BETA_HI = 50.0
_AGREE_RTOL = 1e-4


@dataclass(frozen=True)
class OmegaOptima:
    """Numeric minimizers for all three targets at one operating point."""

    omega_theta: float
    omega_sigma: float
    omega_gamma: float
    flags: dict
    method: str = "golden-section"

    def to_json_dict(self) -> dict:
        return {
            "omega_theta": self.omega_theta,
            "omega_sigma": self.omega_sigma,
            "omega_gamma": self.omega_gamma,
            "flags": dict(self.flags),
            "method": self.method,
        }


@dataclass(frozen=True)
class AnalyticOmega:
    """Result of a closed-form tuning equation.

    value is None when the equation has no root in the search range
    (typically because the infimum sits on the omega -> 0 boundary).
    """

    value: float | None
    agrees_with_numeric: bool
    note: str = ""
    details: dict = field(default_factory=dict)


def _target_curve(
    model: NoiseModel,
    sigma: float,
    P: float,
    nv: float,
    target: str,
    gamma: float | None,
):
    if target not in _TARGETS:
        raise ValueError(f"target must be one of {_TARGETS}, got {target!r}")
    if target == "gamma":
        if gamma is None or gamma <= 0.0:
            raise ValueError("target='gamma' requires a positive gamma value")
        theta = math.sqrt(gamma) * sigma

        def f(w: float) -> float:
            asv_t, asv_s = _asv_components(model, sigma, w, P, nv)
            return compose_gamma(asv_t, asv_s, theta, sigma)

        return f

    idx = 0 if target == "theta" else 1

    def f(w: float) -> float:
        return _asv_components(model, sigma, w, P, nv)[idx]

    return f


def _effective_nv(power_mode: PowerMode, channel_noise_var: float) -> float:
    return channel_noise_var if PowerMode(power_mode) is PowerMode.TOTAL else 0.0


def optimal_omega(
    model: NoiseModel,
    sigma: float,
    P: float,
    channel_noise_var: float,
    target: str,
    power_mode: PowerMode = PowerMode.TOTAL,
    gamma: float | None = None,
    omega_max: float = 2.0 * math.pi,
    omega_min: float = 1e-4,
    tol: float = 1e-10,
) -> tuple[float, str]:
    """Numeric argmin of the target asymptotic variance over omega.

    Returns (omega_star, flag); flag "lower" or "upper" marks an infimum
    on the interval edge (monotone curve), "interior" a proper minimum.
    """
    if sigma <= 0.0 or P <= 0.0:
        raise ValueError("sigma and P must be positive")
    if not 0.0 < omega_min < omega_max:
        raise ValueError(f"need 0 < omega_min < omega_max, got ({omega_min}, {omega_max})")
    nv = _effective_nv(power_mode, channel_noise_var)
    f = _target_curve(model, sigma, P, nv, target, gamma)
    return minimize_quasiconvex(f, omega_min, omega_max, tol=tol)


def omega_optima(
    model: NoiseModel,
    sigma: float,
    P: float,
    channel_noise_var: float,
    power_mode: PowerMode = PowerMode.TOTAL,
    gamma: float | None = None,
    omega_max: float = 2.0 * math.pi,
    omega_min: float = 1e-4,
    tol: float = 1e-10,
) -> OmegaOptima:
    """Numeric minimizers for theta, sigma and gamma (gamma needs gamma)."""
    out: dict[str, float] = {}
    flags: dict[str, str] = {}
    for target in _TARGETS:
        w, flag = optimal_omega(
            model, sigma, P, channel_noise_var, target,
            power_mode=power_mode, gamma=gamma,
            omega_max=omega_max, omega_min=omega_min, tol=tol,
        )
        out[target] = w
        flags[target] = flag
    return OmegaOptima(out["theta"], out["sigma"], out["gamma"], flags)


# ---------------------------------------------------------------------------
# Closed-form route.

def _scan_root(f, lo: float, hi: float, steps: int = 2000) -> float | None:
    """First sign-change root of f on [lo, hi] over a fixed uniform scan."""
    for a, b in sign_change_brackets(f, lo, hi, steps):
        return find_root_bracketed(f, a, b, tol=1e-13)
    return None


def _gaussian_theta_equation(r: float):
    return lambda b: (r + 1.0) * (b - 1.0) * math.exp(2.0 * b) + (b + 1.0)


def _gaussian_sigma_equation(r: float):
    # As-printed stationarity display for the scale target.
    def f(b: float) -> float:
        e2 = math.exp(2.0 * b)
        return b * ((r + 1.0) * e2 - 1.0) - (r + 1.0) * e2 + 2.0 * math.exp(b) - 1.0

    return f


def _gaussian_sigma_equation_fixed(r: float):
    # Direct stationarity of the scale-target curve (factor 2 on the
    # second group); kept because the printed display's root does not
    # minimize the curve.
    def f(b: float) -> float:
        e2 = math.exp(2.0 * b)
        return b * ((r + 1.0) * e2 - 1.0) - 2.0 * ((r + 1.0) * e2 - 2.0 * math.exp(b) + 1.0)

    return f


def _gaussian_gamma_equation(r: float, gamma: float):
    def f(b: float) -> float:
        e2 = math.exp(2.0 * b)
        first = b * (b * ((r + 1.0) * e2 + 1.0) - (r + 1.0) * e2 + 1.0)
        second = b * ((r + 1.0) * e2 - 1.0) - 2.0 * ((r + 1.0) * e2 - 2.0 * math.exp(b) + 1.0)
        return first + gamma * second

    return f


def _laplace_theta_beta(r: float) -> float:
    """Cardano closed form for the Laplace location target (beta value)."""
    c3 = (
        125.0 * r**3
        + 258.0 * r**2
        + 141.0 * r
        + 3.0 * math.sqrt(3.0) * math.sqrt(r * (r + 1.0) ** 3 * (375.0 * r + 32.0))
        + 8.0
    )
    c = c3 ** (1.0 / 3.0)
    return (c / (r + 1.0) + (25.0 * r + 4.0) / c + 2.0) / 12.0


def _laplace_sigma_quintic(r: float) -> list[float]:
    # Ascending coefficients in beta.
    return [
        -r,
        -9.0 * r,
        -23.0 * r,
        -(7.0 * r + 8.0),
        2.0 * (12.0 * r + 13.0),
        16.0 * (r + 1.0),
    ]


def _laplace_gamma_quintic(r: float, g: float) -> list[float]:
    return [
        -g * r,
        -9.0 * g * r,
        -(23.0 * g + 2.0) * r,
        7.0 * (7.0 * g * r - 14.0 * r - 8.0 * g),
        2.0 * (13.0 * g - 8.0 + 12.0 * g * r - 8.0 * r),
        16.0 * (g + 2.0 + g * r + 2.0 * r),
    ]


def _best_beta_root(roots: list[float], curve, sigma: float) -> float | None:
    """Among candidate beta roots, the one whose omega minimizes the curve."""
    best, best_val = None, math.inf
    for b in roots:
        if b <= 0.0:
            continue
        w = math.sqrt(b) / sigma
        val = curve(w)
        if val < best_val:
            best, best_val = w, val
    return best


def analytic_omega(
    model: NoiseModel,
    sigma: float,
    P: float,
    channel_noise_var: float,
    target: str,
    power_mode: PowerMode = PowerMode.TOTAL,
    gamma: float | None = None,
    omega_max: float = 2.0 * math.pi,
) -> AnalyticOmega:
    """Evaluate the bundled closed-form tuning equation for one target.

    The numeric minimizer is recomputed alongside and agrees_with_numeric
    reports the comparison at 1e-4 relative; a missing root (value None)
    agrees only when the numeric search also lands on the lower boundary.
    """
    if target not in _TARGETS:
        raise ValueError(f"target must be one of {_TARGETS}, got {target!r}")
    mode = PowerMode(power_mode)
    nv = _effective_nv(mode, channel_noise_var)
    r = nv / P
    if target == "gamma" and (gamma is None or gamma <= 0.0):
        raise ValueError("target='gamma' requires a positive gamma value")
    curve = _target_curve(model, sigma, P, nv, target, gamma)

    value: float | None = None
    note = ""
    details: dict = {}

    if model.kind == "cauchy":
        arg = -2.0 * P / (math.e**2 * (P + nv))
        value = (2.0 + lambert_w0(arg)) / (2.0 * sigma)
        note = "single Lambert-W minimizer shared by all three targets"
    elif model.kind == "gaussian":
        if target == "theta":
            beta = _scan_root(_gaussian_theta_equation(r), _BETA_LO, _BETA_HI)
        elif target == "sigma":
            beta = _scan_root(_gaussian_sigma_equation(r), _BETA_LO, _BETA_HI)
            fixed = _scan_root(_gaussian_sigma_equation_fixed(r), _BETA_LO, _BETA_HI)
            if fixed is not None:
                details["stationarity_root_beta"] = fixed
                details["stationarity_root_omega"] = math.sqrt(fixed) / sigma
                note = (
                    "the bundled scale display's root is not the curve minimizer; "
                    "details carry the direct stationarity root"
                )
        else:
            beta = _scan_root(_gaussian_gamma_equation(r, gamma), _BETA_LO, _BETA_HI)
        if beta is None:
            note = note or "no root in range: infimum at the lower omega boundary"
        else:
            value = math.sqrt(beta) / sigma
            details["beta"] = beta
    else:  # laplace
        if mode is PowerMode.TOTAL:
            if target == "theta":
                beta = _laplace_theta_beta(r)
                value = math.sqrt(beta) / sigma
                details["beta"] = beta
                note = "Cardano closed form under the stated omega = sqrt(beta)/sigma mapping"
            else:
                coeffs = (
                    _laplace_sigma_quintic(r)
                    if target == "sigma"
                    else _laplace_gamma_quintic(r, gamma)
                )
                roots = real_roots_in_interval(coeffs, _BETA_LO, _BETA_HI)
                details["beta_roots"] = roots
                value = _best_beta_root(roots, curve, sigma)
                if value is None:
                    note = "quintic has no positive root in range"
        else:
            if target == "theta":
                value = 1.0 / sigma
            elif target == "sigma":
                value = math.sqrt((3.0 * math.sqrt(33.0) - 13.0) / 8.0) / sigma
            else:
                g = gamma
                inner = math.sqrt((9.0 * g + 16.0) * (33.0 * g + 16.0))
                value = math.sqrt(-13.0 * g - 16.0 + inner) / (4.0 * sigma * math.sqrt(g))

    numeric, flag = optimal_omega(
        model, sigma, P, channel_noise_var, target,
        power_mode=mode, gamma=gamma, omega_max=omega_max,
    )
    details["numeric_omega"] = numeric
    details["numeric_flag"] = flag
    if value is None:
        agrees = flag == "lower"
    elif flag != "interior":
        agrees = False
    else:
        agrees = math.isclose(value, numeric, rel_tol=_AGREE_RTOL, abs_tol=0.0)
    return AnalyticOmega(value, agrees, note, details)


def resolve_omega(
    model: NoiseModel,
    sigma: float,
    P: float,
    channel_noise_var: float,
    target: str,
    power_mode: PowerMode = PowerMode.TOTAL,
    gamma: float | None = None,
    omega_max: float = 2.0 * math.pi,
    boundary_substitute: float = 0.01,
) -> tuple[float, bool]:
    """Numeric omega for a target, with the lower-boundary infimum mapped
    to a small operational value (default 0.01) since omega = 0 carries
    no information. Returns (omega, substituted)."""
    w, flag = optimal_omega(
        model, sigma, P, channel_noise_var, target,
        power_mode=power_mode, gamma=gamma, omega_max=omega_max,
    )
    if flag == "lower":
        return min(boundary_substitute, omega_max), True
    return w, False

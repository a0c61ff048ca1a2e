"""Selection of the modulation frequency omega.

The numeric route (optimal_omega) golden-sections the authoritative
characteristic-function asymptotic variance and is what the rest of the
package trusts. The companion closed-form tuning equations that
analytic_omega looks up, one per (family, power mode, target)
(Lambert-W expressions, a Cardano closed form, and transcendental
equations in beta = omega^2 sigma^2 and two quintics, both scanned for
roots by numkit.grid_roots), are kept as cross-checks: each analytic
result carries an agrees_with_numeric verdict at 1e-4 relative, and
several of the bundled equations are known not to match the numeric
minimizer (wrong stationarity displays or a beta-convention mismatch);
the verdict records this rather than hiding it.

Quasi-convexity of the underlying curves means an interior minimum is
unique and a monotone curve pushes the infimum onto an interval edge;
minimize_quasiconvex reports which happened through its boundary flag.
The curve for the SNR gamma = theta^2 / sigma^2 is a positive
combination of the location and scale curves, so its minimizer lies
between theirs; the test suite checks that betweenness on a grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotic import asv_curves
from .network import PowerMode, effective_noise_var
from .noise import NoiseModel
from .numkit import grid_roots, lambert_w0, minimize_quasiconvex, real_number, uniform_grid

__all__ = [
    "OmegaOptima",
    "AnalyticOmega",
    "optimal_omega",
    "omega_optima",
    "analytic_omega",
    "rule_omega",
    "rule_target",
    "OMEGA_TARGETS",
    "OMEGA_MIN",
    "OMEGA_MAX",
]

OMEGA_TARGETS = ("theta", "sigma", "gamma")
_BOUNDARY_OMEGA = 0.01  # stands in for an infimum at omega -> 0, which carries no information
OMEGA_MIN, OMEGA_MAX = 1e-4, 2.0 * math.pi  # the default omega search interval
_BETA_LO = 1e-9
_BETA_HI = 50.0
_AGREE_RTOL = 1e-4
_SCAN_STEPS = 2000  # steps of the uniform sign-change scan in _scan_root


@dataclass(frozen=True)
class OmegaOptima:
    """Numeric minimizers for all three targets at one operating point."""

    omega_theta: float
    omega_sigma: float
    omega_gamma: float
    flags: dict
    method: str = "golden-section"


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


def _target_gamma(target: str, gamma) -> float | None:
    """Checked gamma for the gamma target, None for the rest (ignored)."""
    if target not in OMEGA_TARGETS:
        raise ValueError(f"target must be one of {OMEGA_TARGETS}, got {target!r}")
    return real_number("gamma", gamma) if target == "gamma" else None


def _checked_point(sigma, P, channel_noise_var, power_mode, omega_min, omega_max):
    """optimal_omega's checks in its order: (sigma, P, nv, omega_min,
    omega_max) as checked floats, with the effective nv."""
    sigma, P = real_number("sigma", sigma), real_number("P", P)
    channel_noise_var = real_number("channel_noise_var", channel_noise_var, closed=True)
    omega_min = real_number("omega_min", omega_min)
    omega_max = real_number("omega_max", omega_max, omega_min)
    return sigma, P, effective_noise_var(power_mode, channel_noise_var), omega_min, omega_max


@functools.lru_cache(maxsize=len(OMEGA_TARGETS))
def _golden_section(model, sigma, P, nv, target, gamma, omega_min, omega_max):
    """optimal_omega's search on checked arguments; it says what is kept."""
    theta = None if gamma is None else math.sqrt(gamma) * sigma
    curve = asv_curves(model, sigma, P, nv, theta)[target]
    return minimize_quasiconvex(curve, omega_min, omega_max)


def optimal_omega(
    model: NoiseModel,
    sigma: float,
    P: float,
    channel_noise_var: float,
    target: str,
    power_mode: PowerMode = PowerMode.TOTAL,
    gamma: float | None = None,
    omega_max: float = OMEGA_MAX,
    omega_min: float = OMEGA_MIN,
) -> tuple[float, str]:
    """Numeric argmin of the target asymptotic variance over omega.

    Returns (omega_star, flag); flag "lower" or "upper" marks an infimum
    on the interval edge (monotone curve), "interior" a proper minimum.
    The golden-section bracket is narrowed to 1e-10 in omega (or 4 ulps
    of omega_max, if wider). ConvergenceError where the curve is not
    finite at any probe, as when its finite part, near omega_min, is
    narrower than that bracket.

    The last len(OMEGA_TARGETS) results are kept, keyed by the model
    and the checked arguments with the effective nv (gamma None
    where ignored; nv = +-0.0 share a key, with bit-identical optima), so
    analytic_omega after omega_optima reuses them. Nothing raised is kept.
    """
    sigma, P, nv, omega_min, omega_max = _checked_point(
        sigma, P, channel_noise_var, power_mode, omega_min, omega_max
    )
    gamma = _target_gamma(target, gamma)
    return _golden_section(model, sigma, P, nv, target, gamma, omega_min, omega_max)


def omega_optima(
    model: NoiseModel,
    sigma: float,
    P: float,
    channel_noise_var: float,
    power_mode: PowerMode = PowerMode.TOTAL,
    gamma: float | None = None,
) -> OmegaOptima:
    """optimal_omega for theta, sigma and gamma (gamma needs gamma) on
    its default interval [1e-4, 2 pi], whose searches analytic_omega
    reuses at the same point."""
    sigma, P, nv, omega_min, omega_max = _checked_point(
        sigma, P, channel_noise_var, power_mode, OMEGA_MIN, OMEGA_MAX
    )
    out: dict[str, float] = {}
    flags: dict[str, str] = {}
    for target in OMEGA_TARGETS:
        out[target], flags[target] = _golden_section(
            model, sigma, P, nv, target, _target_gamma(target, gamma), omega_min, omega_max
        )
    return OmegaOptima(out["theta"], out["sigma"], out["gamma"], flags)


# ---------------------------------------------------------------------------
# Closed-form route.

@functools.cache
def _scan_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(b, e^b, e^{2b}) on the _SCAN_STEPS-step grid of [_BETA_LO,
    _BETA_HI], each exponential by math.exp as the scalar equations take
    it. Constants, built on first use: about 48 KB that commands without
    a Gaussian tuning equation do not need."""
    b = uniform_grid(_BETA_LO, _BETA_HI, _SCAN_STEPS)
    e1 = np.array([math.exp(x) for x in b.tolist()])
    e2 = np.array([math.exp(2.0 * x) for x in b.tolist()])
    return b, e1, e2


@functools.cache
def _quintic_grid() -> np.ndarray:
    """The 4096-step grid of [_BETA_LO, _BETA_HI] that the Laplace
    quintics are scanned on: a constant, built on first use."""
    return uniform_grid(_BETA_LO, _BETA_HI, 4096)


def _scan_root(equation, values=None) -> float | None:
    """First root in beta of equation(b, e^b, e^{2b}) that grid_roots
    sees on the _SCAN_STEPS-step grid of [_BETA_LO, _BETA_HI] (values:
    the equation's array pass on _scan_tables), bisected to 1e-13, or
    None. The equations are adds and multiplies only, which round alike
    on floats and arrays, so the root is the lazy scalar scan's."""
    b, e1, e2 = _scan_tables()
    if values is None:
        with np.errstate(all="ignore"):
            values = equation(b, e1, e2)
    return next(
        grid_roots(b, values, lambda x: equation(x, math.exp(x), math.exp(2.0 * x)), 1e-13), None
    )


# The Gaussian tuning equations in beta, as functions of (b, e^b, e^{2b})
# for floats and arrays alike.

def _gaussian_theta_equation(r: float):
    return lambda b, e1, e2: (r + 1.0) * (b - 1.0) * e2 + (b + 1.0)


def _gaussian_sigma_equation(r: float):
    # As-printed stationarity display for the scale target.
    return lambda b, e1, e2: b * ((r + 1.0) * e2 - 1.0) - (r + 1.0) * e2 + 2.0 * e1 - 1.0


def _gaussian_sigma_equation_fixed(r: float):
    # Direct stationarity of the scale-target curve (factor 2 on the
    # second group); kept because the printed display's root does not
    # minimize the curve.
    return lambda b, e1, e2: b * ((r + 1.0) * e2 - 1.0) - 2.0 * ((r + 1.0) * e2 - 2.0 * e1 + 1.0)


def _gaussian_gamma_first(r: float):
    return lambda b, e1, e2: b * (b * ((r + 1.0) * e2 + 1.0) - (r + 1.0) * e2 + 1.0)


def _gaussian_gamma_equation(r: float, gamma: float):
    first, fixed = _gaussian_gamma_first(r), _gaussian_sigma_equation_fixed(r)
    return lambda b, e1, e2: first(b, e1, e2) + gamma * fixed(b, e1, e2)


@functools.lru_cache(maxsize=3)
def _gaussian_root(equation, r: float) -> float | None:
    """_scan_root(equation(r)) for a Gaussian equation that depends on
    the point only through r = nv / P (theta, printed sigma, direct
    sigma): the last r's three roots are kept; each call maps beta to
    omega itself."""
    return _scan_root(equation(r))


@functools.lru_cache(maxsize=1)
def _gaussian_gamma_terms(r: float) -> tuple[np.ndarray, np.ndarray]:
    """The gamma equation's two terms on _scan_tables, the g-free one and
    the direct-sigma equation that g multiplies, read-only; kept for the
    last r."""
    b, e1, e2 = _scan_tables()
    with np.errstate(all="ignore"):
        terms = _gaussian_gamma_first(r)(b, e1, e2), _gaussian_sigma_equation_fixed(r)(b, e1, e2)
    for term in terms:
        term.flags.writeable = False
    return terms


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


# The tuning equations, keyed by (family, power mode, target). Each takes
# (sigma, P, nv, r, g, curve): nv is the effective channel noise
# variance, r = nv / P, g the SNR gamma and curve the target's
# authoritative asymptotic-variance curve in omega. It returns
# AnalyticOmega's (value, note, details).

def _cauchy_omega(sigma, P, nv, r, g, curve):
    arg = -2.0 * P / (math.e**2 * (P + nv))
    value = (2.0 + lambert_w0(arg)) / (2.0 * sigma)
    return value, "single Lambert-W minimizer shared by all three targets", {}


def _beta_omega(beta, sigma, note, details):
    """omega = sqrt(beta) / sigma for a scanned root beta, or no value
    where the scan found none."""
    if beta is None:
        return None, note or "no root in range: infimum at the lower omega boundary", details
    details["beta"] = beta
    return math.sqrt(beta) / sigma, note, details


def _gaussian_theta_omega(sigma, P, nv, r, g, curve):
    return _beta_omega(_gaussian_root(_gaussian_theta_equation, r), sigma, "", {})


def _gaussian_sigma_omega(sigma, P, nv, r, g, curve):
    beta = _gaussian_root(_gaussian_sigma_equation, r)
    fixed = _gaussian_root(_gaussian_sigma_equation_fixed, r)
    if fixed is None:
        return _beta_omega(beta, sigma, "", {})
    note = (
        "the bundled scale display's root is not the curve minimizer; "
        "details carry the direct stationarity root"
    )
    details = {
        "stationarity_root_beta": fixed,
        "stationarity_root_omega": math.sqrt(fixed) / sigma,
    }
    return _beta_omega(beta, sigma, note, details)


def _gaussian_gamma_omega(sigma, P, nv, r, g, curve):
    first, fixed = _gaussian_gamma_terms(r)
    with np.errstate(all="ignore"):
        values = first + g * fixed  # the operations of _gaussian_gamma_equation, so its bits
    return _beta_omega(_scan_root(_gaussian_gamma_equation(r, g), values), sigma, "", {})


def _laplace_theta_omega(sigma, P, nv, r, g, curve):
    """Cardano closed form for the Laplace location target; value inf
    where r^3 is past the float range."""
    try:
        c3 = (
            125.0 * r**3
            + 258.0 * r**2
            + 141.0 * r
            + 3.0 * math.sqrt(3.0) * math.sqrt(r * (r + 1.0) ** 3 * (375.0 * r + 32.0))
            + 8.0
        )
    except OverflowError:
        return math.inf, "", {}
    c = c3 ** (1.0 / 3.0)
    beta = (c / (r + 1.0) + (25.0 * r + 4.0) / c + 2.0) / 12.0
    note = "Cardano closed form under the stated omega = sqrt(beta)/sigma mapping"
    return math.sqrt(beta) / sigma, note, {"beta": beta}


def _laplace_quintic_omega(coeffs, sigma, curve):
    """Among the quintic's roots in beta (_quintic_roots), the one whose
    omega minimizes the curve; no value where it has none in range."""
    roots = _quintic_roots(tuple(coeffs))
    value, best = None, math.inf
    for b in roots:
        w = math.sqrt(b) / sigma
        val = curve(w)
        if val < best:
            value, best = w, val
    note = "quintic has no positive root in range" if value is None else ""
    return value, note, {"beta_roots": list(roots)}


@functools.lru_cache(maxsize=2)
def _quintic_roots(coeffs: tuple) -> tuple[float, ...]:
    """The roots in beta of the polynomial with ascending coeffs:
    grid_roots' on the 4096-step grid of [_BETA_LO, _BETA_HI], bisected
    to 1e-14 _BETA_HI, each within 1e-9 (1 + beta) of the last one kept
    merged into it. One Horner closure serves the grid (_quintic_grid)
    and the bisection. The last two are kept: the sigma quintic of one r
    and the gamma quintic beside it.
    """

    def poly(b):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * b + c
        return acc

    grid = _quintic_grid()
    with np.errstate(all="ignore"):
        values = poly(grid)
    roots: list[float] = []
    for b in grid_roots(grid, values, poly, 1e-14 * _BETA_HI):
        if not roots or b - roots[-1] > 1e-9 * (1.0 + b):
            roots.append(b)
    return tuple(roots)


def _laplace_per_sensor_gamma_omega(sigma, P, nv, r, g, curve):
    """The printed radical, bit for bit, where its radicand -13 g - 16 +
    inner keeps at least 1/32 of 13 g + 16 (at most five bits cancelled:
    g above about 0.065) and 4 sigma sqrt(g) is not 0; elsewhere (the
    radicand cancels at small g, or the product underflows) the same value
    from the cancellation-free -13 g - 16 + inner = 128 g (g + 2) /
    (inner + 13 g + 16). The radical is 4e-5 relative off at g = 1e-12,
    and 6% at 1e-15. Where (9 g + 16)(33 g + 16) overflows (g above about
    7.8e152), that quotient is formed with every term divided by g."""
    product = (9.0 * g + 16.0) * (33.0 * g + 16.0)
    if product == math.inf:
        inner = math.sqrt((9.0 + 16.0 / g) * (33.0 + 16.0 / g))
        return math.sqrt(8.0 * (1.0 + 2.0 / g) / (inner + 13.0 + 16.0 / g)) / sigma, "", {}
    inner = math.sqrt(product)
    radicand, den = -13.0 * g - 16.0 + inner, 4.0 * sigma * math.sqrt(g)
    if radicand >= (13.0 * g + 16.0) / 32.0 and den > 0.0:
        return math.sqrt(radicand) / den, "", {}
    return math.sqrt(8.0 * (g + 2.0) / (inner + 13.0 * g + 16.0)) / sigma, "", {}


_TOTAL, _PER_SENSOR = PowerMode.TOTAL, PowerMode.PER_SENSOR
_EQUATIONS = {
    ("gaussian", _TOTAL, "theta"): _gaussian_theta_omega,
    ("gaussian", _TOTAL, "sigma"): _gaussian_sigma_omega,
    ("gaussian", _TOTAL, "gamma"): _gaussian_gamma_omega,
    ("laplace", _TOTAL, "theta"): _laplace_theta_omega,
    ("laplace", _TOTAL, "sigma"): lambda sigma, P, nv, r, g, curve: _laplace_quintic_omega(
        _laplace_sigma_quintic(r), sigma, curve
    ),
    ("laplace", _TOTAL, "gamma"): lambda sigma, P, nv, r, g, curve: _laplace_quintic_omega(
        _laplace_gamma_quintic(r, g), sigma, curve
    ),
    ("cauchy", _TOTAL, "theta"): _cauchy_omega,
    ("cauchy", _TOTAL, "sigma"): _cauchy_omega,
    ("cauchy", _TOTAL, "gamma"): _cauchy_omega,
    ("gaussian", _PER_SENSOR, "theta"): _gaussian_theta_omega,
    ("gaussian", _PER_SENSOR, "sigma"): _gaussian_sigma_omega,
    ("gaussian", _PER_SENSOR, "gamma"): _gaussian_gamma_omega,
    ("laplace", _PER_SENSOR, "theta"): lambda sigma, P, nv, r, g, curve: (1.0 / sigma, "", {}),
    ("laplace", _PER_SENSOR, "sigma"): lambda sigma, P, nv, r, g, curve: (
        math.sqrt((3.0 * math.sqrt(33.0) - 13.0) / 8.0) / sigma, "", {}
    ),
    ("laplace", _PER_SENSOR, "gamma"): _laplace_per_sensor_gamma_omega,
    ("cauchy", _PER_SENSOR, "theta"): _cauchy_omega,
    ("cauchy", _PER_SENSOR, "sigma"): _cauchy_omega,
    ("cauchy", _PER_SENSOR, "gamma"): _cauchy_omega,
}


def analytic_omega(
    model: NoiseModel,
    sigma: float,
    P: float,
    channel_noise_var: float,
    target: str,
    power_mode: PowerMode = PowerMode.TOTAL,
    gamma: float | None = None,
    omega_max: float = OMEGA_MAX,
    omega_min: float = OMEGA_MIN,
) -> AnalyticOmega:
    """Evaluate the bundled closed-form tuning equation for one target.

    details carry the numeric minimizer as numeric_omega and numeric_flag:
    optimal_omega's on [omega_min, omega_max], kept from omega_optima at
    the same point if it ran last. agrees_with_numeric compares at 1e-4
    relative; a missing root (value None) agrees only when the numeric
    search also lands on the lower boundary, and a value past omega_max
    is compared as omega_max when the search ends on the upper one.
    ValueError where the closed form leaves the float range, and where
    the table holds no equation for the family.
    """
    sigma, P, nv, omega_min, omega_max = _checked_point(
        sigma, P, channel_noise_var, power_mode, omega_min, omega_max
    )
    mode = PowerMode(power_mode)
    r = nv / P
    g = _target_gamma(target, gamma)
    try:
        equation = _EQUATIONS[model.kind, mode, target]
    except KeyError:
        raise ValueError(
            f"no tuning equation for the {model.kind!r} family in {mode.value} mode"
        ) from None
    theta = None if g is None else math.sqrt(g) * sigma
    curve = asv_curves(model, sigma, P, nv, theta)[target]
    value, note, details = equation(sigma, P, nv, r, g, curve)

    if value is not None and not math.isfinite(value):
        raise ValueError(
            f"the {model.kind} {target} tuning equation overflows at sigma={sigma!r}, "
            f"P={P!r}, channel_noise_var={float(channel_noise_var)!r}, gamma={gamma!r}"
        )
    # The numeric route runs last, so a closed form past the float range
    # is reported as such even where no probe of the curve is finite.
    numeric, flag = _golden_section(model, sigma, P, nv, target, g, omega_min, omega_max)
    details["numeric_omega"] = numeric
    details["numeric_flag"] = flag
    if value is None:
        agrees = flag == "lower"
    elif flag == "lower":
        agrees = False
    else:
        # An "upper" search ends on its last probe below omega_max, which a
        # closed form at or past omega_max agrees with.
        edge = min(value, omega_max) if flag == "upper" else value
        agrees = math.isclose(edge, numeric, rel_tol=_AGREE_RTOL, abs_tol=0.0)
    return AnalyticOmega(value, agrees, note, details)


def rule_target(rule: str) -> str:
    """The target of the omega rule 'auto:<target>' (one of
    OMEGA_TARGETS); ValueError naming omega_rule for any other rule."""
    head, _, target = str(rule).partition(":")
    if head != "auto" or target not in OMEGA_TARGETS:
        raise ValueError(f"omega_rule must be auto:theta|sigma|gamma, got {rule!r}")
    return target


def rule_omega(
    rule: str,
    model: NoiseModel,
    sigma: float,
    P: float,
    channel_noise_var: float,
    power_mode: PowerMode,
    theta: float | None,
    omega_max: float,
    gamma: float | None = None,
) -> tuple[float, dict]:
    """The omega that the rule 'auto:<target>' picks at an operating point,
    and the manifest notes that record how.

    It is optimal_omega's for the target on [1e-4, omega_max] (omega_max
    is 2 pi / theta_R), with an infimum on the lower edge mapped to
    _BOUNDARY_OMEGA (omega_max if less) and noted as substituted. An
    infimum on the upper edge is not mapped: it is optimal_omega's last
    probe, up to twice its final bracket width below omega_max. The gamma
    target is tuned at gamma if given, else at the true SNR (theta /
    sigma)^2; theta is read, and must be positive and finite, for that
    alone, and a square that overflows or underflows to 0 raises a
    ValueError naming theta and sigma.
    """
    target = rule_target(rule)
    sigma = real_number("sigma", sigma)
    # Named for the CLI, whose commands set theta_R, not omega_max.
    omega_max = real_number("omega_max = 2 pi / theta_R", omega_max, OMEGA_MIN)
    if target != "gamma":
        gamma = None
    elif gamma is None:
        theta = real_number("theta", theta)
        try:
            gamma = (theta / sigma) ** 2
        except OverflowError:
            gamma = math.inf
        # theta / sigma may already be inf, which squares quietly, and the
        # square may underflow to 0, which is quiet too.
        if not 0.0 < gamma < math.inf:
            fault = "overflows" if gamma else "underflows to 0"
            raise ValueError(
                f"the true SNR gamma = (theta / sigma)^2 {fault} at theta = {theta!r}, "
                f"sigma = {sigma!r}"
            )
    omega, flag = optimal_omega(
        model, sigma, P, channel_noise_var, target,
        power_mode=power_mode, gamma=gamma, omega_max=omega_max,
    )
    substituted = flag == "lower"
    if substituted:
        omega = min(_BOUNDARY_OMEGA, omega_max)
    notes = {"omega_rule": rule, "omega_substituted": substituted}
    if gamma is not None:
        notes["omega_rule_gamma"] = gamma
    return omega, notes

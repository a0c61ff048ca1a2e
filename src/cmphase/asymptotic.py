"""Asymptotic (large-L) variance of the phase-based estimators.

As L grows, the normalized received sample z concentrates on

    zbar(theta, sigma) = sqrt(P) exp(j omega theta) phi(sigma omega)

with Gaussian fluctuations whose 2x2 covariance Sigma follows from the
circular moments of exp(j omega x). The delta method then gives the
asymptotic variances (L * variance limits) of the location and scale
estimators as the diagonal of [J^T Sigma^-1 J]^-1, where J is the
Jacobian of zbar in (theta, sigma). Those diagonals reduce to

    asv_theta = (P + nv - P phi(2 s w)) / (2 P w^2 phi(s w)^2)
    asv_sigma = (P + nv - 2 P phi(s w)^2 + P phi(2 s w)) / (2 P phi_s(s w)^2)

with phi_s the sigma-derivative of phi, and nv the channel noise
variance. Per-sensor power keeps the same expressions with nv = 0: the
channel noise vanishes under the 1/L normalization. The SNR estimate
gamma = theta^2 / sigma^2 composes by the delta method:

    asv_gamma = (4 gamma / sigma^2) (asv_theta + gamma * asv_sigma).

These characteristic-function formulas are the authoritative definition
throughout the package. The distribution-specific closed forms kept in
asv_closed_form are regression anchors only; a few of them are known to
be inconsistent with the definition above, which the `verified` flag
reports (and tests pin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .network import PowerMode
from .noise import NoiseModel, noise_model

__all__ = [
    "AsvReport",
    "covariance_matrix",
    "jacobian",
    "asv_generic",
    "asv_via_sandwich",
    "asv_closed_form",
]


@dataclass(frozen=True)
class AsvReport:
    """Asymptotic variances at one operating point."""

    omega: float
    asv_theta: float
    asv_sigma: float
    asv_gamma: float | None
    mode: PowerMode

    def to_json_dict(self) -> dict:
        return {
            "omega": self.omega,
            "asv_theta": self.asv_theta,
            "asv_sigma": self.asv_sigma,
            "asv_gamma": self.asv_gamma,
            "mode": self.mode.value,
        }


def _rotated_covariance(model: NoiseModel, sigma, omega, P, nv, c, s):
    """(s11, s12, s22, det) of Sigma = R diag(a, b) R^T.

    a = P v_c + nv/2 and b = P v_s + nv/2 come from the model's
    cancellation-free phasor variance kernels, R is the rotation with
    cosine c and sine s, and det = a b. Elementwise, so sigma and (c, s)
    may be arrays that broadcast against each other.
    """
    half_nv = 0.5 * nv
    a = P * model.phasor_cos_var(sigma, omega) + half_nv
    b = P * model.phasor_sin_var(sigma, omega) + half_nv
    return a * c * c + b * s * s, (a - b) * s * c, a * s * s + b * c * c, a * b


def covariance_matrix(
    model: NoiseModel,
    theta: float,
    sigma: float,
    omega: float,
    P: float,
    channel_noise_var: float,
) -> np.ndarray:
    """Covariance Sigma of the scaled fluctuation sqrt(L) (z - zbar).

    Sigma = R diag(P v_c + nv/2, P v_s + nv/2) R^T with R the rotation by
    omega * theta; its trace is P (v_c + v_s) + nv independently of theta.
    """
    _check_point(sigma, omega, P, channel_noise_var)
    c = math.cos(omega * theta)
    s = math.sin(omega * theta)
    s11, s12, s22, _ = _rotated_covariance(model, sigma, omega, P, channel_noise_var, c, s)
    return np.array([[s11, s12], [s12, s22]])


def jacobian(
    model: NoiseModel, theta: float, sigma: float, omega: float, P: float
) -> np.ndarray:
    """Jacobian of (Re zbar, Im zbar) with respect to (theta, sigma)."""
    _check_point(sigma, omega, P, 0.0)
    phi = model.char_fn(sigma, omega)
    dphi = model.char_fn_dsigma(sigma, omega)
    sp = math.sqrt(P)
    c = math.cos(omega * theta)
    s = math.sin(omega * theta)
    return np.array(
        [
            [-omega * sp * s * phi, sp * c * dphi],
            [omega * sp * c * phi, sp * s * dphi],
        ]
    )


def _asv_components(model: NoiseModel, sigma, omega, P: float, nv: float):
    """(asv_theta, asv_sigma); accepts scalar or array omega.

    Where phi or its sigma-derivative underflow to zero (u = sigma*omega
    deep in the tail) the variances are returned as inf rather than
    raising, so omega searches can probe the whole interval. The
    numerators P + nv - P phi(2w) and P + nv - 2 P phi^2 + P phi(2w)
    are formed from the phasor variance kernels (2 P v_s + nv and
    2 P v_c + nv) to stay accurate at small sigma * omega.
    """
    phi = model.char_fn(sigma, omega)
    dphi = model.char_fn_dsigma(sigma, omega)
    v_c = model.phasor_cos_var(sigma, omega)
    v_s = model.phasor_sin_var(sigma, omega)
    if np.isscalar(omega) or np.ndim(omega) == 0:
        den_t = 2.0 * P * omega**2 * phi * phi
        den_s = 2.0 * P * dphi * dphi
        asv_t = (2.0 * P * v_s + nv) / den_t if den_t > 0.0 else math.inf
        asv_s = (2.0 * P * v_c + nv) / den_s if den_s > 0.0 else math.inf
        return asv_t, asv_s
    with np.errstate(divide="ignore"):
        asv_t = (2.0 * P * v_s + nv) / (2.0 * P * omega**2 * phi * phi)
        asv_s = (2.0 * P * v_c + nv) / (2.0 * P * dphi * dphi)
    return asv_t, asv_s


def compose_gamma(asv_theta, asv_sigma, theta, sigma):
    """Delta-method asymptotic variance of gamma = theta^2 / sigma^2."""
    gamma = (theta / sigma) ** 2
    return (4.0 * gamma / sigma**2) * (asv_theta + gamma * asv_sigma)


def asv_generic(
    model: NoiseModel,
    sigma: float,
    omega: float,
    P: float,
    channel_noise_var: float = 0.0,
    theta: float | None = None,
    power_mode: PowerMode = PowerMode.TOTAL,
) -> AsvReport:
    """Authoritative asymptotic variances from the characteristic function.

    Per-sensor mode evaluates the same expressions with the channel noise
    zeroed. asv_gamma requires theta and is None when theta is omitted.
    """
    _check_point(sigma, omega, P, channel_noise_var)
    mode = PowerMode(power_mode)
    nv = channel_noise_var if mode is PowerMode.TOTAL else 0.0
    asv_t, asv_s = _asv_components(model, sigma, omega, P, nv)
    asv_g = None
    if theta is not None:
        if not theta > 0.0:
            raise ValueError(f"theta must be positive, got {theta}")
        asv_g = compose_gamma(asv_t, asv_s, theta, sigma)
    return AsvReport(
        omega=float(omega),
        asv_theta=float(asv_t),
        asv_sigma=float(asv_s),
        asv_gamma=None if asv_g is None else float(asv_g),
        mode=mode,
    )


def asv_via_sandwich(
    model: NoiseModel,
    theta: float,
    sigma: float,
    omega: float,
    P: float,
    channel_noise_var: float,
) -> np.ndarray:
    """Numeric [J^T Sigma^-1 J]^-1, the delta-method covariance matrix.

    Kept as an independent route: its diagonal must reproduce asv_generic
    and its off-diagonal vanish, which the acceptance suite checks.
    """
    J = jacobian(model, theta, sigma, omega, P)
    S = covariance_matrix(model, theta, sigma, omega, P, channel_noise_var)
    det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    if det <= 0.0:
        raise ValueError("covariance matrix is singular at this operating point")
    M = J.T @ np.linalg.inv(S) @ J
    return np.linalg.inv(M)


# ---------------------------------------------------------------------------
# Distribution-specific closed forms (regression anchors).

def _closed_form_value(
    kind: str,
    which: str,
    sigma: float,
    omega: float,
    P: float,
    nv: float,
    mode: PowerMode,
    gamma: float | None,
) -> float:
    w, s = omega, sigma
    u = w * w * s * s  # Gaussian/Laplace natural variable
    a = w * s          # Cauchy natural variable
    r = nv / P
    g = gamma
    if mode is PowerMode.TOTAL:
        if kind == "gaussian":
            if which == "theta":
                return (P + nv - P * math.exp(-2 * u)) / (2 * P * w**2 * math.exp(-u))
            if which == "sigma":
                return (P + nv - 2 * P * math.exp(-u) + P * math.exp(-2 * u)) / (
                    2 * P * w**4 * s**2 * math.exp(-u)
                )
            return (
                2 * g * (
                    w**2 * (P + nv - 2 * P * math.exp(-2 * u))
                    + g * (P + nv - 2 * P * math.exp(-u) + P * math.exp(-2 * u))
                )
                / (P * w**4 * s**4 * math.exp(-u))
            )
        if kind == "laplace":
            if which == "theta":
                return (2 + u) ** 2 * ((r + 1) * (1 + 2 * u) - 1) / (8 * w**2 * (1 + 2 * u))
            if which == "sigma":
                return (2 + u) ** 2 * (r * (2 + u) ** 2 + u * (6 + u)) / (32 * w**4 * s**2)
            return (
                g * (2 + u) ** 2
                * (
                    4 * u * (2 * P * u + nv * (1 + 2 * u))
                    + g * (1 + 2 * u) * (P * u * (6 + u) + nv * (2 + u) ** 2)
                )
                / (8 * P * w**4 * s**4 * (1 + 2 * u))
            )
        # cauchy
        if which in ("theta", "sigma"):
            return (P + nv - P * math.exp(-2 * a)) / (2 * P * w**2 * math.exp(-2 * a))
        return (
            2 * g * (g + 1) * (P + nv - P * math.exp(-2 * a))
            / (P * w**2 * s**2 * math.exp(-2 * a))
        )
    # per-sensor
    if kind == "gaussian":
        if which == "theta":
            return (1 - math.exp(-2 * u)) / (2 * w**2 * math.exp(-u))
        if which == "sigma":
            return (1 - math.exp(-u)) ** 2 / (2 * w**4 * s**2 * math.exp(-u))
        return (
            g * (1 - 2 * math.exp(-u) + math.exp(-2 * u)) + u * (1 - math.exp(-2 * u))
        ) / (2 * w**4 * s**2 * math.exp(-u))
    if kind == "laplace":
        if which == "theta":
            return s**2 * (2 + u) ** 2 / (4 * (1 + 2 * u))
        if which == "sigma":
            return s**2 * (2 + u) ** 2 * (5 + u) / (16 * (1 + 2 * u))
        return (
            g * (2 + u) ** 2 * (8 * u + g * (1 + 2 * u) * (6 + u))
            / (8 * u * (1 + 2 * u))
        )
    # cauchy; the inner exponent sign is normalized so the value is a variance
    if which in ("theta", "sigma"):
        return (1 - math.exp(-2 * a)) / (2 * w**2 * math.exp(-2 * a))
    return 2 * g * (g + 1) * (1 - math.exp(-2 * a)) / (w**2 * s**2 * math.exp(-2 * a))


@lru_cache(maxsize=None)
def _closed_form_agrees(kind: str, which: str, mode_token: str) -> bool:
    """True when the closed form matches asv_generic to 1e-9 relative on a
    fixed grid of operating points (sigma, omega, noise ratio, gamma)."""
    mode = PowerMode(mode_token)
    model = noise_model(kind)
    ratios = (0.0, 0.5, 1.0) if mode is PowerMode.TOTAL else (0.0,)
    for sigma in (0.5, 1.0, 2.0):
        for omega in np.linspace(0.1, 2.0, 20):
            for r in ratios:
                nv = r  # with P = 1
                asv_t, asv_s = _asv_components(model, sigma, float(omega), 1.0, nv)
                for gamma in (0.5, 1.0, 2.0):
                    theta = math.sqrt(gamma) * sigma
                    expected = {
                        "theta": asv_t,
                        "sigma": asv_s,
                        "gamma": compose_gamma(asv_t, asv_s, theta, sigma),
                    }[which]
                    got = _closed_form_value(
                        kind, which, sigma, float(omega), 1.0, nv, mode, gamma
                    )
                    if not math.isclose(got, expected, rel_tol=1e-9, abs_tol=0.0):
                        return False
                    if which != "gamma":
                        break  # gamma-independent, one pass suffices
    return True


def asv_closed_form(
    model: NoiseModel,
    sigma: float,
    omega: float,
    P: float,
    channel_noise_var: float,
    which: str,
    power_mode: PowerMode = PowerMode.TOTAL,
    gamma: float | None = None,
) -> tuple[float, bool]:
    """Evaluate the bundled distribution-specific closed form.

    Returns (value, verified). verified is False for the closed forms
    that are inconsistent with the characteristic-function definition
    (the generic route is authoritative; these stay only as anchors).
    which is "theta" | "sigma" | "gamma"; gamma is required for "gamma".
    """
    if which not in ("theta", "sigma", "gamma"):
        raise ValueError(f"which must be theta|sigma|gamma, got {which!r}")
    _check_point(sigma, omega, P, channel_noise_var)
    mode = PowerMode(power_mode)
    nv = channel_noise_var if mode is PowerMode.TOTAL else 0.0
    if which == "gamma":
        if gamma is None or not gamma > 0.0:
            raise ValueError("gamma (positive) is required for which='gamma'")
    value = _closed_form_value(model.kind, which, sigma, omega, P, nv, mode, gamma)
    return float(value), _closed_form_agrees(model.kind, which, mode.value)


def _check_point(sigma: float, omega: float, P: float, nv: float) -> None:
    """Reject an operating point outside the domain; `not x > 0.0` also
    rejects NaN."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not omega > 0.0:
        raise ValueError(f"omega must be strictly positive, got {omega}")
    if not P > 0.0:
        raise ValueError(f"P must be positive, got {P}")
    if not nv >= 0.0:
        raise ValueError(f"channel_noise_var must be nonnegative, got {nv}")

"""Estimators operating on the normalized received sample z.

The simple estimators invert the noiseless limit
zbar = sqrt(P) exp(j omega theta) phi(sigma omega) coordinate-wise: the
phase gives theta, the magnitude gives sigma through the model's
characteristic function. The phase is reduced to (0, 2 pi], so theta_hat
lands in (0, 2 pi / omega]; values of theta outside that window alias
into it, which is inherent to phase modulation and is documented rather
than corrected here.

When |z| <= sqrt(P) the magnitude inversion exists; beyond that the
sample is saturated (phi <= 1 makes sqrt(P) the largest representable
magnitude), sigma_hat is reported as 0.0 with a flag, and the SNR
estimate is undefined.

joint_minimum_variance minimizes the full quadratic form
[z - zbar]^T Sigma^-1 [z - zbar] over (theta, sigma) by grid search plus
local refinement. It must agree with the simple estimators whenever
|z| <= sqrt(P); the test suite enforces that equivalence, so the two
routes are kept strictly independent here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .asymptotic import _check_point, _rotated_covariance
from .noise import NoiseModel

__all__ = [
    "ZeroMagnitudeError",
    "DegenerateScaleError",
    "EstimateSet",
    "estimate_location",
    "estimate_scale",
    "estimate_snr",
    "simple_estimates",
    "joint_objective",
    "joint_minimum_variance",
]

_TWO_PI = 2.0 * math.pi


class ZeroMagnitudeError(ValueError):
    """z = 0 carries no phase or magnitude information."""


class DegenerateScaleError(ValueError):
    """sigma_hat = 0 makes the SNR estimate undefined."""


@dataclass(frozen=True)
class EstimateSet:
    """One (theta, sigma, gamma) estimate; gamma_hat is None when the
    sample was saturated."""

    theta_hat: float
    sigma_hat: float
    gamma_hat: float | None
    saturated: bool

    def to_json_dict(self) -> dict:
        return {
            "theta_hat": self.theta_hat,
            "sigma_hat": self.sigma_hat,
            "gamma_hat": self.gamma_hat,
            "saturated": self.saturated,
        }


def estimate_location(z: complex, omega: float) -> float:
    """theta_hat = arg(z) / omega with the argument reduced to (0, 2 pi]."""
    if not omega > 0.0:
        raise ValueError(f"omega must be strictly positive, got {omega}")
    if z == 0:
        raise ZeroMagnitudeError("cannot estimate location from z = 0")
    ang = math.atan2(z.imag, z.real)
    if ang <= 0.0:
        ang += _TWO_PI
    return ang / omega


def estimate_scale(
    z: complex, omega: float, P: float, model: NoiseModel
) -> tuple[float, bool]:
    """Invert sqrt(P) phi(sigma omega) = |z| for sigma.

    Returns (sigma_hat, saturated). |z| > sqrt(P) has no solution:
    sigma_hat is 0.0 and saturated True. |z| = sqrt(P) exactly gives the
    boundary solution sigma_hat = 0.0 without the flag.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be strictly positive, got {omega}")
    if not P > 0.0:
        raise ValueError(f"P must be positive, got {P}")
    m = abs(z)
    if m == 0.0:
        raise ZeroMagnitudeError("cannot estimate scale from z = 0")
    root_p = math.sqrt(P)
    if m > root_p:
        return 0.0, True
    if m == root_p:
        return 0.0, False
    return model.inverse_abs_char_fn(m, P) / omega, False


def estimate_snr(theta_hat: float, sigma_hat: float) -> float:
    """gamma_hat = theta_hat^2 / sigma_hat^2."""
    if sigma_hat <= 0.0:
        raise DegenerateScaleError("sigma_hat = 0: SNR estimate undefined")
    return (theta_hat / sigma_hat) ** 2


def simple_estimates(
    z: complex, omega: float, P: float, model: NoiseModel
) -> EstimateSet:
    """Phase/magnitude inversion bundle; gamma_hat omitted on saturation."""
    theta_hat = estimate_location(z, omega)
    sigma_hat, saturated = estimate_scale(z, omega, P, model)
    gamma_hat = None
    if sigma_hat > 0.0:
        gamma_hat = estimate_snr(theta_hat, sigma_hat)
    return EstimateSet(theta_hat, sigma_hat, gamma_hat, saturated)


def joint_objective(
    z: complex,
    theta: float,
    sigma: float,
    omega: float,
    P: float,
    channel_noise_var: float,
    model: NoiseModel,
) -> float:
    """Quadratic form [z - zbar]^T Sigma^-1 [z - zbar] at (theta, sigma).

    Sigma is the asymptotic fluctuation covariance evaluated at the same
    candidate point. Nonnegative wherever Sigma is positive definite.

    Raises:
        ValueError: if det Sigma <= 0 (possible only with zero channel
            noise when a circular variance degenerates).
    """
    _check_point(sigma, omega, P, channel_noise_var)
    phi = model.char_fn(sigma, omega)
    c = math.cos(omega * theta)
    s = math.sin(omega * theta)
    s11, s12, s22, det = _rotated_covariance(model, sigma, omega, P, channel_noise_var, c, s)
    if det <= 0.0:
        raise ValueError("singular covariance at this candidate point")
    sp = math.sqrt(P)
    r_re = z.real - sp * c * phi
    r_im = z.imag - sp * s * phi
    return (s22 * r_re * r_re - 2.0 * s12 * r_re * r_im + s11 * r_im * r_im) / det


def _objective_grid(
    z: complex,
    thetas: np.ndarray,
    sigmas: np.ndarray,
    omega: float,
    P: float,
    nv: float,
    model: NoiseModel,
) -> np.ndarray:
    """joint_objective on the outer grid thetas x sigmas, vectorized."""
    c = np.cos(omega * thetas)[:, None]
    s = np.sin(omega * thetas)[:, None]
    phi = model.char_fn(sigmas, omega)
    s11, s12, s22, det = _rotated_covariance(model, sigmas, omega, P, nv, c, s)
    sp = math.sqrt(P)
    r_re = z.real - sp * (c * phi)
    r_im = z.imag - sp * (s * phi)
    return (s22 * r_re * r_re - 2.0 * s12 * r_re * r_im + s11 * r_im * r_im) / det


def joint_minimum_variance(
    z: complex,
    omega: float,
    P: float,
    channel_noise_var: float,
    model: NoiseModel,
    theta_R: float,
    grid: tuple[int, int] = (200, 200),
    sigma_max: float | None = None,
) -> EstimateSet:
    """Minimize joint_objective over (0, theta_R] x (0, sigma_max].

    Coarse grid (at least 200 x 200) plus Nelder-Mead refinement of the
    best cell to ~1e-8 in the parameters. When sigma_max is omitted it is
    taken as 10x the magnitude-inversion scale of z, capped at 1e3.
    Saturated samples (|z| > sqrt(P)) push the minimizer onto the
    sigma -> 0 boundary; they are flagged and not searched.
    """
    if abs(z) == 0.0:
        raise ZeroMagnitudeError("cannot estimate from z = 0")
    if not theta_R > 0.0:
        raise ValueError(f"theta_R must be positive, got {theta_R}")
    n_t, n_s = grid
    if n_t < 200 or n_s < 200:
        raise ValueError("grid must be at least 200 x 200")

    theta_hat = estimate_location(z, omega)
    sigma_inv, saturated = estimate_scale(z, omega, P, model)
    if saturated:
        return EstimateSet(min(theta_hat, theta_R), 0.0, None, True)

    if sigma_max is None:
        sigma_max = min(10.0 * max(sigma_inv, 1e-3 / omega), 1e3)
    thetas = np.linspace(theta_R / n_t, theta_R, n_t)
    sigmas = np.linspace(sigma_max / n_s, sigma_max, n_s)
    q = _objective_grid(z, thetas, sigmas, omega, P, channel_noise_var, model)
    i, j = np.unravel_index(np.argmin(q), q.shape)
    t0, s0 = float(thetas[i]), float(sigmas[j])

    t_lo, t_hi = 1e-12 * theta_R, theta_R
    s_lo, s_hi = 1e-12 * sigma_max, sigma_max

    def fun(p):
        th = min(max(p[0], t_lo), t_hi)
        sg = min(max(p[1], s_lo), s_hi)
        penalty = (p[0] - th) ** 2 + (p[1] - sg) ** 2
        return joint_objective(z, th, sg, omega, P, channel_noise_var, model) + penalty

    res = optimize.minimize(
        fun,
        x0=np.array([t0, s0]),
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-18, "maxiter": 600, "maxfev": 1200},
    )
    th = float(min(max(res.x[0], t_lo), t_hi))
    sg = float(min(max(res.x[1], s_lo), s_hi))
    return EstimateSet(th, sg, (th / sg) ** 2, False)

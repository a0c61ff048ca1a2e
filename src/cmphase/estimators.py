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
[z - zbar]^T Sigma^-1 [z - zbar] over (theta, sigma) by a grid search
followed by bounded Gauss-Newton refinement on analytic derivatives,
both in the frame rotated by omega theta, where Sigma is diagonal. The
grid is evaluated only on the theta rows that can hold its least cell:
every cell of row i is at least v_i^2 min(1/b), exactly so under IEEE
rounding, and rows whose bound exceeds a value already formed are
skipped, so the grid's best cell is the full grid's, bit for bit. The
rows left are formed in one pass; on finite operands they are one or a
few, so a call allocates no whole-grid array there. The refinement
starts from the grid's best cell and minimizes |e|^2 for the whitened
residual e = (u / sqrt(a), v / sqrt(b)) of the rotated frame, with its
analytic Jacobian, inside the search box (numkit.gauss_newton_box). It
iterates on Python floats; only its inner products (BLAS) and
least-squares steps (LAPACK) run in numpy, whose rounding fixes the
estimates' last bits. It must agree with the simple estimators whenever
|z| <= sqrt(P); the test suite enforces that equivalence, so the two
routes are kept strictly independent here.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .asymptotic import phasor_variances
from .noise import NoiseModel
from .numkit import ConvergenceError, gauss_newton_box, real_number

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
_GRID = 200  # points per parameter of the joint minimizer's starting grid
# Smallest |z| / sqrt(P + nv) the joint minimizer accepts. The objective
# near its minimum is of order |z|^2 / (P + nv) and underflows below about
# 1e-145, where the grid and the refinement can no longer tell points
# apart; below about 3e-101 the sigma search (up to 10x the inverted
# scale) also reaches sigma omega where the Laplace phasor kernels
# overflow.
_Z_FLOOR = 1e-100


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


def _finite_z(z) -> complex:
    """z as a complex; ValueError naming z unless it is a finite number."""
    if isinstance(z, numbers.Complex) and cmath.isfinite(z):
        return complex(z)
    raise ValueError(f"z must be a finite complex number, got {z!r}")


def estimate_location(z: complex, omega: float) -> float:
    """theta_hat = arg(z) / omega with the argument reduced to (0, 2 pi];
    ValueError if it overflows (omega below about 3.5e-308)."""
    theta = _location(_finite_z(z), real_number("omega", omega))
    if theta == math.inf:
        raise ValueError(f"theta_hat = arg(z) / omega overflows at omega = {omega!r}")
    return theta


def _location(z: complex, omega: float) -> float:
    """estimate_location's inversion alone: no argument or overflow check."""
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
    boundary solution sigma_hat = 0.0 without the flag, and a sigma_hat
    beyond the float range raises ValueError.
    """
    sg, saturated = _scale(
        _finite_z(z), real_number("omega", omega), real_number("P", P),
        model.inverse_abs_char_fn,
    )
    if sg == math.inf:
        raise ValueError(f"sigma_hat overflows at z = {z!r}, omega = {omega!r}")
    return sg, saturated


def _scale(z: complex, omega: float, P: float, inverse) -> tuple[float, bool]:
    """estimate_scale's inversion alone: no argument or overflow check;
    inverse is the model's inverse_abs_char_fn."""
    m = abs(z)
    if m == 0.0:
        raise ZeroMagnitudeError("cannot estimate scale from z = 0")
    root_p = math.sqrt(P)
    if m > root_p:
        return 0.0, True
    if m == root_p:
        return 0.0, False
    return inverse(m, P) / omega, False


def estimate_snr(theta_hat: float, sigma_hat: float) -> float:
    """gamma_hat = theta_hat^2 / sigma_hat^2; ValueError where it
    overflows from a finite theta_hat (an inf theta_hat is the caller's
    to report)."""
    if sigma_hat <= 0.0:
        raise DegenerateScaleError("sigma_hat = 0: SNR estimate undefined")
    try:
        gamma_hat = (theta_hat / sigma_hat) ** 2
    except OverflowError:
        gamma_hat = math.inf
    if gamma_hat == math.inf and math.isfinite(theta_hat):
        raise ValueError(
            f"the SNR estimate overflows at theta_hat={theta_hat!r}, sigma_hat={sigma_hat!r}"
        )
    return gamma_hat


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
    candidate point. It is formed in the frame rotated by omega theta,
    where Sigma = diag(a, b), each term as x (x / a): nonnegative, and
    inf only where the form is past the float range.

    Raises:
        ValueError: naming z or theta where it is not finite (any finite
            theta, and z = 0, are valid), and if det Sigma <= 0 (possible
            only with zero channel noise when a circular variance
            degenerates) or is not finite.
    """
    z, theta = _finite_z(z), real_number("theta", theta, -math.inf)
    sigma, omega, P = real_number("sigma", sigma), real_number("omega", omega), real_number("P", P)
    channel_noise_var = real_number("channel_noise_var", channel_noise_var, closed=True)
    a, b = phasor_variances(model, sigma, omega, P, channel_noise_var, math)
    det = a * b
    if not 0.0 < det < math.inf:
        raise ValueError(
            f"singular covariance, or out of floating-point range, at this candidate point "
            f"(det = {det!r})"
        )
    c = math.cos(omega * theta)
    s = math.sin(omega * theta)
    u = z.real * c + z.imag * s - math.sqrt(P) * model.char_fn(sigma, omega)
    v = z.imag * c - z.real * s
    return u * (u / a) + v * (v / b)


def _grid_argmin(
    z: complex, thetas: np.ndarray, sigmas: np.ndarray, omega: float, P: float, nv: float,
    model: NoiseModel,
) -> tuple[int, int]:
    """(i, j) of the least joint_objective on the grid thetas x sigmas
    (sigmas > 0), from the model's array kernels: the caller
    holds an errstate that ignores overflow, divide and invalid.

    In the frame rotated by omega theta, where Sigma = diag(a, b): cell
    (i, j) is (u_i - w_j)^2 (1/a_j) + v_i^2 (1/b_j), with u + jv =
    z e^{-j omega theta} and w = sqrt(P) phi(sigma omega). The first
    least cell in row-major order wins, and a NaN cell wins, as in
    np.argmin.

    Only the rows that can hold that cell are formed. Where every
    operand is finite and 1/a, 1/b > 0, no cell is NaN, both terms are
    >= 0 and rounding is monotone, so every cell of row i is >= lb_i =
    v_i^2 min(1/b). The row of least lb is formed first, by the same
    operations as the rest, so its least cell is a grid value: rows with
    lb_i above it hold no least cell and are skipped, and where that row
    is the only one left, its first least cell is the grid's. Otherwise
    the rows left (every row, where the operands' sum is not finite: an
    inf or NaN among them, or a sum past the float range) are formed in
    ascending order in one array, and its first least cell is the grid's.
    """
    phase = omega * thetas
    c, s = np.cos(phase), np.sin(phase)
    a, b = phasor_variances(model, sigmas, omega, P, nv, np)
    u, vsq = z.real * c + z.imag * s, np.square(z.imag * c - z.real * s)
    w, ra, rb = math.sqrt(P) * model.phi(sigmas, omega, np), 1.0 / a, 1.0 / b
    rb_min = rb.min()
    if min(ra.min(), rb_min) > 0.0 and math.isfinite(np.concatenate((u, vsq, w, ra, rb)).sum()):
        lb = vsq * rb_min
        k = int(lb.argmin())
        q_k = _form_rows(u[k : k + 1], vsq[k : k + 1], w, ra, rb)
        j = int(q_k.argmin())
        rows = (lb <= q_k.flat[j]).nonzero()[0]
        if rows.size == 1:  # row k alone can hold the least cell
            return k, j
    else:
        rows = np.arange(thetas.size)
    i, j = divmod(int(_form_rows(u[rows], vsq[rows], w, ra, rb).argmin()), sigmas.size)
    return int(rows[i]), j


def _form_rows(
    u: np.ndarray, vsq: np.ndarray, w: np.ndarray, ra: np.ndarray, rb: np.ndarray
) -> np.ndarray:
    """The grid cells (u_i - w_j)^2 ra_j + vsq_i rb_j of the given rows."""
    q = np.subtract.outer(u, w)
    q *= q
    q *= ra
    q += np.multiply.outer(vsq, rb)
    return q


def _whitened_residual(z: complex, omega: float, P: float, nv: float, model: NoiseModel):
    """The residual e(theta, sigma) = (u / sqrt(a), v / sqrt(b)) of the
    rotated frame, with |e|^2 = joint_objective, and its Jacobian.

    d(Re, Im)(z e^{-j omega theta})/d theta = omega (v, -Re), du/d sigma =
    -sqrt(P) d phi/d sigma, and the sigma-derivatives of a = P v_c + nv/2
    and b = P v_s + nv/2 follow from v_s = (1 - phi(2 omega)) / 2 and
    v_c = 1/2 + phi(2 omega) / 2 - phi(omega)^2. Where a or b is 0 (no
    channel noise and an underflowed variance) r and J are NaN. The
    kernels are the model's, on floats.
    """
    sp, char_fn, dsigma = math.sqrt(P), model.phi, model.phi_s

    def residual(theta: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
        c = math.cos(omega * theta)
        s = math.sin(omega * theta)
        re = z.real * c + z.imag * s
        v = z.imag * c - z.real * s
        a, b = phasor_variances(model, sigma, omega, P, nv, math)
        if not (a > 0.0 and b > 0.0):  # Sigma singular: no whitened residual
            return np.full(2, math.nan), np.full((2, 2), math.nan)
        phi = char_fn(sigma, omega, math)
        dphi = dsigma(sigma, omega)
        dphi2 = dsigma(sigma, 2.0 * omega)
        da = P * (0.5 * dphi2 - 2.0 * phi * dphi)
        db = -0.5 * P * dphi2
        u = re - sp * phi
        ra = 1.0 / math.sqrt(a)
        rb = 1.0 / math.sqrt(b)
        e = np.array([u * ra, v * rb])
        jac = np.array(
            [
                [omega * v * ra, (-sp * dphi - 0.5 * u * da / a) * ra],
                [-omega * re * rb, -0.5 * v * db / b * rb],
            ]
        )
        return e, jac

    return residual


def joint_minimum_variance(
    z: complex,
    omega: float,
    P: float,
    channel_noise_var: float,
    model: NoiseModel,
    theta_R: float,
) -> EstimateSet:
    """Minimize joint_objective over (0, theta_R] x (0, S].

    S = 10 max(sigma_hat, 1e-3 / omega), from the magnitude-inversion
    scale sigma_hat of z. Coarse 200 x 200 grid, then
    numkit.gauss_newton_box from the best cell on the whitened residual
    of the rotated frame, to 1e-10 of the box width in each parameter;
    the box (1e-12 theta_R, theta_R] x (1e-12 S, S] is kept by
    projection. When omega theta_R falls short of 2 pi by less than a
    grid step (a window of one period among them) and the best cell is
    in an edge row, the edge rows are phase neighbours across the wrap:
    the best cell of the other edge row is refined too, and the
    refinement of lower objective stands, so a theta near phase 0 is not
    held at the edge theta_R. Saturated samples (|z| > sqrt(P)) push the
    minimizer onto the sigma -> 0 boundary; they are flagged and not
    searched.

    Raises:
        ValueError: if omega theta_R > 2 pi (to 1e-12 relative), where
            distinct theta share a phase, if S overflows, or if |z| <
            1e-100 sqrt(P + channel_noise_var), where the objective
            underflows or its kernels overflow.
        ConvergenceError: if the refinement does not converge, also
            where the residual or its Jacobian is not finite.
    """
    channel_noise_var = real_number("channel_noise_var", channel_noise_var, closed=True)
    theta_R = real_number("theta_R", theta_R)
    if not real_number("omega", omega) * theta_R <= _TWO_PI * (1.0 + 1e-12):
        raise ValueError(
            f"theta_R must satisfy omega theta_R <= 2 pi, got theta_R={theta_R!r} at omega={omega!r}"
        )

    theta_hat = estimate_location(z, omega)
    sigma_inv, saturated = estimate_scale(z, omega, P, model)
    if saturated:
        return EstimateSet(min(theta_hat, theta_R), 0.0, None, True)

    sigma_max = 10.0 * max(sigma_inv, 1e-3 / omega)
    if not sigma_max < math.inf:
        raise ValueError(f"the sigma search box overflows at z = {z!r}, omega = {omega!r}")
    if not abs(z) >= _Z_FLOOR * math.sqrt(P + channel_noise_var):
        raise ValueError(
            f"|z| = {abs(z)!r} is below {_Z_FLOOR} sqrt(P + channel_noise_var): the joint "
            "objective is out of floating-point range there"
        )
    thetas = np.linspace(theta_R / _GRID, theta_R, _GRID)
    sigmas = np.linspace(sigma_max / _GRID, sigma_max, _GRID)  # sigma_max >= 1e-2 / omega > 5e-311
    # At inputs far out in the float range, 1/a, the cells and the
    # residual's products overflow or turn NaN: the grid then forms every
    # row, and the refinement stops unconverged where r or J is not finite.
    residual = _whitened_residual(z, omega, P, channel_noise_var, model)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        i, j = _grid_argmin(z, thetas, sigmas, omega, P, channel_noise_var, model)
        lo, hi = (1e-12 * theta_R, 1e-12 * sigma_max), (theta_R, sigma_max)
        (th, sg), iterations, converged = gauss_newton_box(residual, (thetas[i], sigmas[j]), lo, hi)
        near_wrap = _TWO_PI - omega * theta_R < omega * theta_R / _GRID
        if near_wrap and i in (0, _GRID - 1):
            # Less than a grid step short of one period (or at one), the
            # edge rows are phase neighbours across the wrap, and the box
            # can hold a refinement from one of them at its edge. The
            # refinement of lower objective stands, converged or not.
            k = _GRID - 1 - i
            j = _grid_argmin(z, thetas[k : k + 1], sigmas, omega, P, channel_noise_var, model)[1]
            other = gauss_newton_box(residual, (thetas[k], sigmas[j]), lo, hi)
            if np.sum(np.square(residual(*other[0])[0])) < np.sum(np.square(residual(th, sg)[0])):
                (th, sg), iterations, converged = other
    if not converged:
        raise ConvergenceError(
            f"joint refinement did not converge in {iterations} iterations at z={z!r}"
        )
    return EstimateSet(th, sg, estimate_snr(th, sg), False)

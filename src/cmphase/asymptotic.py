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
throughout the package. The distribution-specific closed forms that
asv_closed_form looks up, one per (family, power mode, which), are
regression anchors only. A few of them are known to be inconsistent with
the definition above; each form's `verified` flag, frozen beside it,
says so, and the tests recompute every flag from asv_generic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import PowerMode, effective_noise_var
from .noise import NoiseModel
from .numkit import real_number

__all__ = [
    "AsvReport",
    "phasor_variances",
    "asv_curves",
    "covariance_matrix",
    "jacobian",
    "asv_generic",
    "asv_via_sandwich",
    "asv_closed_form",
]

_NORMAL = 2.0**-1022  # the least positive normal float
# omega^2 is a normal float exactly where omega is in [_W_SQUARE_LO, _W_SQUARE_HI).
_W_SQUARE_LO, _W_SQUARE_HI = 2.0**-511, 2.0**512


@dataclass(frozen=True)
class AsvReport:
    """Asymptotic variances at one operating point. A component reads inf
    where it is not estimable there: a kernel it is formed from underflows
    or the variance is past the float range; asv_gamma is inf where
    either component is."""

    omega: float
    asv_theta: float
    asv_sigma: float
    asv_gamma: float | None
    mode: PowerMode


def phasor_variances(model: NoiseModel, sigma, omega, P, nv, xp):
    """(a, b) = (P v_c + nv/2, P v_s + nv/2): the fluctuation variances
    along and across the mean phasor, from the model's
    cancellation-free phasor variance kernels on checked operands: floats
    with xp = math, or arrays, elementwise in sigma, with xp = numpy."""
    half_nv = 0.5 * nv
    return (
        P * model.v_c(sigma, omega, xp) + half_nv,
        P * model.v_s(sigma, omega, xp) + half_nv,
    )


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
    theta = real_number("theta", theta)
    sigma, omega, P = real_number("sigma", sigma), real_number("omega", omega), real_number("P", P)
    channel_noise_var = real_number("channel_noise_var", channel_noise_var, closed=True)
    c = math.cos(omega * theta)
    s = math.sin(omega * theta)
    a, b = phasor_variances(model, sigma, omega, P, channel_noise_var, math)
    s12 = (a - b) * s * c
    return np.array([[a * c * c + b * s * s, s12], [s12, a * s * s + b * c * c]])


def _jacobian_rows(model: NoiseModel, theta, sigma, omega, P):
    """(c, s, (j00, j01), (j10, j11)) at checked float operands: the
    cosine and sine of omega theta and the rows of the Jacobian of
    (Re zbar, Im zbar) with respect to (theta, sigma), as Python floats."""
    phi = model.phi(sigma, omega, math)
    dphi = model.phi_s(sigma, omega)
    sp = math.sqrt(P)
    c = math.cos(omega * theta)
    s = math.sin(omega * theta)
    return c, s, (-omega * sp * s * phi, sp * c * dphi), (omega * sp * c * phi, sp * s * dphi)


def jacobian(
    model: NoiseModel, theta: float, sigma: float, omega: float, P: float
) -> np.ndarray:
    """Jacobian of (Re zbar, Im zbar) with respect to (theta, sigma)."""
    theta = real_number("theta", theta)
    sigma, omega, P = real_number("sigma", sigma), real_number("omega", omega), real_number("P", P)
    return np.array(_jacobian_rows(model, theta, sigma, omega, P)[2:])


def _quotient(v: float, d: float, P: float, nv: float) -> float:
    """(2 P v + nv) / (2 P d^2) where the direct form is not safe: 2 P d^2
    is not a positive normal float, or the numerator is not. It divides
    v + nv / 2P by d twice, which overflows only where the quotient does.
    Where nv / 2P overflows, v is negligible beside it and nv / (2 P d^2)
    is formed from frexp mantissas and exponents, inf past the float max.
    inf where d is 0 or v + nv / 2P is below the normal range: the
    kernels have underflowed, and the variance is not estimable here."""
    if d == 0.0:
        return math.inf
    half_r = 0.5 * nv / P
    if half_r == math.inf:
        (m_nv, e_nv), (m_p, e_p), (m_d, e_d) = math.frexp(nv), math.frexp(P), math.frexp(d)
        try:
            return math.ldexp(0.5 * m_nv / m_p / m_d / m_d, e_nv - e_p - 2 * e_d)
        except OverflowError:
            return math.inf
    s = v + half_r
    return s / d / d if s >= _NORMAL else math.inf


def asv_curves(model: NoiseModel, sigma: float, P: float, nv: float, theta: float | None = None):
    """The asymptotic variance of each target as a function of a float
    omega > 0, keyed "theta", "sigma" and, given theta, "gamma": closures
    on the model's kernels, so a probe checks nothing (sigma, P, nv and
    theta are the caller's to check). A component is inf where it is not
    estimable (see AsvReport), so omega searches can probe up to the
    largest float. Its numerator 2 P v + nv, from the phasor variance
    kernel v (v_s for theta, v_c for sigma), stays accurate at small
    sigma * omega; it is divided by 2 P d^2 (d = omega phi, phi_s)
    directly where both are normal floats (and omega^2, which asv_theta
    forms first), else by _quotient. The gamma curve composes the two by
    the delta method; ValueError where gamma overflows, sigma^2
    underflows or the product is 0 * inf (gamma underflows against an inf
    component, or the prefactor overflows against a 0 sum).
    """
    char_fn, sin_var = model.phi, model.v_s
    dsigma, cos_var = model.phi_s, model.v_c
    two_p = 2.0 * P

    def asv_theta(omega: float) -> float:
        phi = char_fn(sigma, omega, math)
        v_s = sin_var(sigma, omega, math)
        num = two_p * v_s + nv
        if _W_SQUARE_LO <= omega < _W_SQUARE_HI:
            den = two_p * omega**2 * phi * phi
            if _NORMAL <= den < math.inf and _NORMAL <= num < math.inf:
                return num / den
        return _quotient(v_s, omega * phi, P, nv)

    def asv_sigma(omega: float) -> float:
        dphi = dsigma(sigma, omega)
        v_c = cos_var(sigma, omega, math)
        num = two_p * v_c + nv
        den = two_p * dphi * dphi
        if _NORMAL <= den < math.inf and _NORMAL <= num < math.inf:
            return num / den
        return _quotient(v_c, dphi, P, nv)

    curves = {"theta": asv_theta, "sigma": asv_sigma}
    if theta is None:
        return curves
    try:
        gamma = (theta / sigma) ** 2
        scale = 4.0 * gamma / sigma**2
    except (OverflowError, ZeroDivisionError):
        gamma = scale = math.nan

    def asv_gamma(omega: float) -> float:
        value = scale * (asv_theta(omega) + gamma * asv_sigma(omega))
        if gamma < math.inf and value == value:  # both false for NaN
            return value
        raise ValueError(
            f"asv_gamma is out of floating-point range at theta={theta!r}, sigma={sigma!r}"
        )

    curves["gamma"] = asv_gamma
    return curves


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
    A component is inf where it is not estimable here (see AsvReport),
    never NaN; ValueError where the gamma curve cannot form asv_gamma.
    """
    sigma, omega, P = real_number("sigma", sigma), real_number("omega", omega), real_number("P", P)
    channel_noise_var = real_number("channel_noise_var", channel_noise_var, closed=True)
    mode = PowerMode(power_mode)
    nv = effective_noise_var(mode, channel_noise_var)
    if theta is not None:
        theta = real_number("theta", theta)
    values = {t: curve(omega) for t, curve in asv_curves(model, sigma, P, nv, theta).items()}
    return AsvReport(omega, values["theta"], values["sigma"], values.get("gamma"), mode)


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
    and its off-diagonal vanish, which the acceptance suite checks, except
    where a << b: the entry of R^T J that is 0 in exact arithmetic keeps
    a rounding residual of about eps omega sqrt(P) phi, which whitening by
    1/sqrt(a) can make dominate its row (a / b ~ 2e-39 at the point
    test_asymptotic pins as a documented disagreement). It is
    formed in the frame rotated by omega theta, where Sigma = diag(a, b):
    the rows of R^T J, formed numerically, are whitened by 1/sqrt(a) and
    1/sqrt(b) into W, and the general M = W^T W = J^T Sigma^-1 J, off-
    diagonal included, is inverted on Python floats. The inverse is
    scaled by M's diagonal, with rho = m01 / sqrt(m00) / sqrt(m11) and
    q = 1 - rho^2: cov00 = 1 / m00 / q, cov11 = 1 / m11 / q and
    cov01 = -rho / sqrt(m00) / sqrt(m11) / q. The determinant
    m00 m11 - m01^2 would underflow or overflow where these do not.
    ValueError where det Sigma = a b is not positive and finite, and
    where M is not finite, m00 or m11 is not positive, q is not positive
    (M is singular to rounding) or the inverse is not finite.
    """
    theta = real_number("theta", theta)
    sigma, omega, P = real_number("sigma", sigma), real_number("omega", omega), real_number("P", P)
    nv = real_number("channel_noise_var", channel_noise_var, closed=True)
    c, s, (j00, j01), (j10, j11) = _jacobian_rows(model, theta, sigma, omega, P)
    a, b = phasor_variances(model, sigma, omega, P, nv, math)
    det = a * b
    if not 0.0 < det < math.inf:
        raise ValueError(
            f"covariance matrix is singular or out of floating-point range at this "
            f"operating point (det = {det!r})"
        )
    root_a, root_b = math.sqrt(a), math.sqrt(b)
    w00, w01 = (c * j00 + s * j10) / root_a, (c * j01 + s * j11) / root_a
    w10, w11 = (c * j10 - s * j00) / root_b, (c * j11 - s * j01) / root_b
    m00, m11 = w00 * w00 + w10 * w10, w01 * w01 + w11 * w11
    m01 = w00 * w01 + w10 * w11
    if 0.0 < m00 < math.inf and 0.0 < m11 < math.inf:  # an inf or NaN m01 fails q > 0
        root_00, root_11 = math.sqrt(m00), math.sqrt(m11)
        rho = m01 / root_00 / root_11
        q = 1.0 - rho * rho
        if q > 0.0:
            cov00, cov11 = 1.0 / m00 / q, 1.0 / m11 / q
            cov01 = -rho / root_00 / root_11 / q
            if cov00 < math.inf and cov11 < math.inf and abs(cov01) < math.inf:
                return np.array([[cov00, cov01], [cov01, cov11]])
    raise ValueError(
        "J^T Sigma^-1 J or its inverse is out of floating-point range at this operating point"
    )


# ---------------------------------------------------------------------------
# Distribution-specific closed forms (regression anchors).
#
# _CLOSED_FORMS maps (family, power mode, which) to (verified, form). A
# form takes (w, s, u, a, P, nv, r, g): omega, sigma, the Gaussian/Laplace
# variable u = (omega sigma)^2, the Cauchy variable a = omega sigma, the
# power, the effective channel noise variance, r = nv / P and the SNR
# gamma. verified is True where the form matches asv_generic to 1e-9
# relative on a fixed grid of operating points. The flags are frozen
# data: the tests recompute them from asv_generic.

def _cauchy_total_theta_sigma(w, s, u, a, P, nv, r, g):
    return (P + nv - P * math.exp(-2 * a)) / (2 * P * w**2 * math.exp(-2 * a))


def _cauchy_per_sensor_theta_sigma(w, s, u, a, P, nv, r, g):
    # The inner exponent sign is normalized so the value is a variance.
    return (1 - math.exp(-2 * a)) / (2 * w**2 * math.exp(-2 * a))


_TOTAL, _PER_SENSOR = PowerMode.TOTAL, PowerMode.PER_SENSOR
_CLOSED_FORMS = {
    ("gaussian", _TOTAL, "theta"): (True, lambda w, s, u, a, P, nv, r, g: (
        (P + nv - P * math.exp(-2 * u)) / (2 * P * w**2 * math.exp(-u))
    )),
    ("gaussian", _TOTAL, "sigma"): (True, lambda w, s, u, a, P, nv, r, g: (
        (P + nv - 2 * P * math.exp(-u) + P * math.exp(-2 * u))
        / (2 * P * w**4 * s**2 * math.exp(-u))
    )),
    ("gaussian", _TOTAL, "gamma"): (False, lambda w, s, u, a, P, nv, r, g: (
        2 * g * (
            w**2 * (P + nv - 2 * P * math.exp(-2 * u))
            + g * (P + nv - 2 * P * math.exp(-u) + P * math.exp(-2 * u))
        )
        / (P * w**4 * s**4 * math.exp(-u))
    )),
    ("laplace", _TOTAL, "theta"): (True, lambda w, s, u, a, P, nv, r, g: (
        (2 + u) ** 2 * ((r + 1) * (1 + 2 * u) - 1) / (8 * w**2 * (1 + 2 * u))
    )),
    ("laplace", _TOTAL, "sigma"): (False, lambda w, s, u, a, P, nv, r, g: (
        (2 + u) ** 2 * (r * (2 + u) ** 2 + u * (6 + u)) / (32 * w**4 * s**2)
    )),
    ("laplace", _TOTAL, "gamma"): (False, lambda w, s, u, a, P, nv, r, g: (
        g * (2 + u) ** 2
        * (
            4 * u * (2 * P * u + nv * (1 + 2 * u))
            + g * (1 + 2 * u) * (P * u * (6 + u) + nv * (2 + u) ** 2)
        )
        / (8 * P * w**4 * s**4 * (1 + 2 * u))
    )),
    ("cauchy", _TOTAL, "theta"): (True, _cauchy_total_theta_sigma),
    ("cauchy", _TOTAL, "sigma"): (True, _cauchy_total_theta_sigma),
    ("cauchy", _TOTAL, "gamma"): (True, lambda w, s, u, a, P, nv, r, g: (
        2 * g * (g + 1) * (P + nv - P * math.exp(-2 * a))
        / (P * w**2 * s**2 * math.exp(-2 * a))
    )),
    ("gaussian", _PER_SENSOR, "theta"): (True, lambda w, s, u, a, P, nv, r, g: (
        (1 - math.exp(-2 * u)) / (2 * w**2 * math.exp(-u))
    )),
    ("gaussian", _PER_SENSOR, "sigma"): (True, lambda w, s, u, a, P, nv, r, g: (
        (1 - math.exp(-u)) ** 2 / (2 * w**4 * s**2 * math.exp(-u))
    )),
    ("gaussian", _PER_SENSOR, "gamma"): (False, lambda w, s, u, a, P, nv, r, g: (
        g * (1 - 2 * math.exp(-u) + math.exp(-2 * u)) + u * (1 - math.exp(-2 * u))
    ) / (2 * w**4 * s**2 * math.exp(-u))),
    ("laplace", _PER_SENSOR, "theta"): (True, lambda w, s, u, a, P, nv, r, g: (
        s**2 * (2 + u) ** 2 / (4 * (1 + 2 * u))
    )),
    ("laplace", _PER_SENSOR, "sigma"): (True, lambda w, s, u, a, P, nv, r, g: (
        s**2 * (2 + u) ** 2 * (5 + u) / (16 * (1 + 2 * u))
    )),
    ("laplace", _PER_SENSOR, "gamma"): (False, lambda w, s, u, a, P, nv, r, g: (
        g * (2 + u) ** 2 * (8 * u + g * (1 + 2 * u) * (6 + u)) / (8 * u * (1 + 2 * u))
    )),
    ("cauchy", _PER_SENSOR, "theta"): (True, _cauchy_per_sensor_theta_sigma),
    ("cauchy", _PER_SENSOR, "sigma"): (True, _cauchy_per_sensor_theta_sigma),
    ("cauchy", _PER_SENSOR, "gamma"): (True, lambda w, s, u, a, P, nv, r, g: (
        2 * g * (g + 1) * (1 - math.exp(-2 * a)) / (w**2 * s**2 * math.exp(-2 * a))
    )),
}


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
    ValueError where the closed form leaves the float range (deep in the
    tail, where asv_generic gives inf, or at very large omega), and where
    the table holds no form for the family, mode and which.
    """
    sigma, omega, P = real_number("sigma", sigma), real_number("omega", omega), real_number("P", P)
    channel_noise_var = real_number("channel_noise_var", channel_noise_var, closed=True)
    mode = PowerMode(power_mode)
    try:
        verified, form = _CLOSED_FORMS[model.kind, mode, which]
    except (KeyError, TypeError):  # TypeError: an unhashable which
        raise ValueError(
            f"no closed form for the {model.kind!r} family in {mode.value} mode with "
            f"which={which!r}"
        ) from None
    nv = effective_noise_var(mode, channel_noise_var)
    if which == "gamma":
        gamma = real_number("gamma", gamma)
    u = omega * omega * sigma * sigma
    try:
        value = float(form(omega, sigma, u, omega * sigma, P, nv, nv / P, gamma))
    except (OverflowError, ZeroDivisionError):  # a power overflows or an exp underflows
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(
            f"the {model.kind} {which} closed form overflows at sigma={sigma!r}, "
            f"omega={omega!r}, P={P!r}, channel_noise_var={channel_noise_var!r}"
        )
    return value, verified

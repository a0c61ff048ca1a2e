"""Sensing-noise families: the one place their formulas live.

Three symmetric, zero-location families are supported, selected by string
token: "gaussian", "laplace", "cauchy". Each is one NoiseModel record,
its token and its plain functions, and a new family is one more record:
the characteristic function phi(sigma omega) and the cos/sin phasor
variance kernels (each one expression per family, serving floats and
numpy arrays alike), its sigma-derivative (floats), the inverse of |phi|
used by the magnitude estimator, the uniform-to-draw transform
(uniforms_needed and from_uniforms, the only way to draw a family's
noise: snapshots and Monte Carlo blocks apply it to a stream's uniforms)
and the Fisher constants. The record's methods take floats, check them
once and call its functions, which check nothing. Hot loops that have
checked theirs (the tuning curves, the joint minimizer) call the
functions.

The scale conventions are fixed package-wide so that the characteristic
function of sigma * eta (eta a standardized draw) takes the closed forms
below:

    gaussian  sigma = standard deviation      phi(w) = exp(-w^2 sigma^2 / 2)
    laplace   sigma = standard deviation      phi(w) = 1 / (1 + w^2 sigma^2 / 2)
              (classical scale b = sigma / sqrt(2))
    cauchy    sigma = half-width at half max  phi(w) = exp(-sigma w)

The Cauchy form holds for w > 0 only, and every entry point here rejects
omega <= 0; the rest of the package inherits that restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numkit import box_muller, real_number

__all__ = ["NoiseModel", "noise_model", "GAUSSIAN", "LAPLACE", "CAUCHY", "MODEL_TOKENS"]

_LAPLACE_B = 1.0 / math.sqrt(2.0)  # unit-variance Laplace scale
# The largest sigma * omega at which the denominator of the Laplace
# phasor_cos_var, (1 + a)^2 (1 + 4a) with a = (sigma omega)^2 / 2, is
# finite. Both Laplace phasor variances round to exactly 1/2 from about
# sigma * omega = 1e10 on, so clamping sigma * omega here keeps every
# finite result and turns the overflow beyond into that limit.
_LAPLACE_T_MAX = float.fromhex("0x1.c823e074ec129p+170")  # ~2.67e51
# Past sigma * omega = 64 the Gaussian char_fn_dsigma, omega t e^{-t^2/2}
# in magnitude, is below the least subnormal at every finite omega.
_GAUSS_T_MAX = 64.0
# Below 2^-511 (about 1.49e-154) a square is subnormal and has lost bits:
# omega^2 in the direct char_fn_dsigma, m^2 in the Gaussian inversion.
_W_SQUARE_NORMAL = 2.0**-511


# Gaussian.

def _gaussian_cos_var(s, w, xp):
    # 1/2 + e^{-2 t^2}/2 - e^{-t^2} = (1 - e^{-t^2})^2 / 2
    t = s * w
    e = xp.expm1(-(t * t))
    return 0.5 * e * e


def _gaussian_dsigma(s, w):
    t = s * w
    d = -w * w * s * math.exp(-0.5 * t * t)
    if -math.inf < d < 0.0 and w >= _W_SQUARE_NORMAL:
        return d
    # Elsewhere -(omega e) (t e) with e = exp(-t^2 / 4), t clamped at
    # _GAUSS_T_MAX, past which the value is below the float range.
    t = min(t, _GAUSS_T_MAX)
    e = math.exp(-0.25 * t * t)
    return -(w * e) * (t * e)


def _gaussian_inverse(m, P):
    # log P - 2 log m where m^2 is subnormal or P / m^2 overflows.
    t = math.sqrt(math.log(P / (m * m))) if m >= _W_SQUARE_NORMAL else math.inf
    if t == math.inf:
        t = math.sqrt(math.log(P) - 2.0 * math.log(m))
    return t


# Laplace.

def _laplace_half_square(t, xp):
    """a = t^2 / 2 for the Laplace phasor variances, t clamped at
    _LAPLACE_T_MAX so that no intermediate overflows."""
    if xp is np:
        t = np.minimum(t, _LAPLACE_T_MAX)
    elif t > _LAPLACE_T_MAX:
        t = _LAPLACE_T_MAX
    return 0.5 * t * t


def _laplace_cos_var(s, w, xp):
    a = _laplace_half_square(s * w, xp)
    return a * a * (5.0 + 2.0 * a) / ((1.0 + a) ** 2 * (1.0 + 4.0 * a))


def _laplace_sin_var(s, w, xp):
    a = _laplace_half_square(s * w, xp)
    return 2.0 * a / (1.0 + 4.0 * a)


def _laplace_dsigma(s, w):
    t = s * w
    den = 1.0 + 0.5 * t * t
    d = -w * w * s / (den * den)
    if -math.inf < d < 0.0 and w >= _W_SQUARE_NORMAL:
        return d
    # Elsewhere -(omega / den) (t / den), or, where den overflows (the 1
    # is then below rounding), -(2 omega / t / t) (2 / t), or, where
    # 2 omega overflows too (omega above about 9e307), -(omega / t / t)
    # (4 / t); t may be inf (sigma omega past the float range).
    if den < math.inf:
        return -(w / den) * (t / den)
    w2 = 2.0 * w
    if w2 < math.inf:
        return -(w2 / t / t) * (2.0 / t)
    return -(w / t / t) * (4.0 / t)


def _laplace_inverse(m, P):
    t = math.sqrt(2.0 * (math.sqrt(P) / m - 1.0))
    if t == math.inf:
        # sqrt(P) / m > 1e307 here, so the -1 is below rounding.
        t = math.sqrt(2.0 * math.sqrt(P)) / math.sqrt(m)
    return t


def _laplace_draws(u, n):
    """Differences of two unit exponentials -log(1 - u), scaled by
    1/sqrt(2): the first n uniforms give the first exponential, the last
    n the second."""
    e = np.log1p(-u[..., n:])  # log(1 - u_2) - log(1 - u_1) = e_1 - e_2
    e -= np.log1p(-u[..., :n])
    e *= _LAPLACE_B
    return e


# Cauchy: both phasor components share one variance.

def _cauchy_var(s, w, xp):
    return -0.5 * xp.expm1(-2.0 * (s * w))


def _cauchy_inverse(m, P):
    t = math.log(math.sqrt(P) / m)
    if t == math.inf:
        t = 0.5 * math.log(P) - math.log(m)
    return t


def _cauchy_draws(u, n):
    """The tangent transform tan(pi (u - 1/2))."""
    return np.tan(math.pi * (u[..., :n] - 0.5))


@dataclass(frozen=True, eq=False, repr=False)
class NoiseModel:
    """One noise family: its token and its formulas. The three records
    are module singletons, hashed by identity, that noise_model(token)
    looks up; a pickle or copy of one is the singleton itself.

    phi, v_c, v_s and phi_s are the kernels of char_fn, phasor_cos_var,
    phasor_sin_var and char_fn_dsigma. Each method checks sigma and omega
    with real_number (finite reals > 0: arrays, NaN and +-inf raise) and
    calls its kernel on the floats. The kernels check nothing. phi(s, w,
    xp), v_c and v_s take sigma, omega > 0 as Python floats with xp =
    math, or as numpy arrays with xp = numpy under the joint grid's
    errstate (overflow, invalid and divide ignored): there an inf turns
    into the formula's limit (exp(-inf) = 0, 1 / inf = 0, expm1(-inf) =
    -1) as it does for floats, so both are finite at the same points and
    agree to a few ulps (numpy's exp, expm1 and power round differently
    from math's). phi_s(s, w) takes Python floats. Hot loops that have
    checked theirs (the tuning curves, the joint minimizer) call the
    kernels.

    inverse_abs_char_fn(m, P) is the t = sigma * omega that solves
    sqrt(P) |phi(t)| = m, for 0 < m < sqrt(P), a range the caller checks.
    Where the direct expression overflows (m * m underflows to 0, or
    P / m^2 or sqrt(P) / m is inf) the same t comes from log(m) or
    sqrt(m), so every finite direct result keeps its bits and no m > 0
    gives inf.

    from_uniforms(u, n) makes n standardized draws (zero location, unit
    scale per the module conventions) from uniforms_needed(n) uniforms
    over the last axis of u, so one call serves one draw vector or a
    block: box_muller truncated to n (gaussian, 2 ceil(n/2) uniforms), a
    difference of two unit exponentials (laplace, 2n) or the tangent
    transform (cauchy, n). The draws are a new C-contiguous array, and u
    is left as it was.

    unit_fisher_location and unit_fisher_scale are the informations at
    sigma = 1, checked by quadrature of the squared score in the tests.
    """

    kind: str
    phi: Callable
    v_c: Callable
    v_s: Callable
    phi_s: Callable
    inverse_abs_char_fn: Callable
    uniforms_needed: Callable
    from_uniforms: Callable
    unit_fisher_location: float
    unit_fisher_scale: float

    def __repr__(self) -> str:
        return f"NoiseModel(kind={self.kind!r})"

    def __reduce__(self):
        return noise_model, (self.kind,)

    def char_fn(self, sigma, omega):
        """Characteristic function of sigma * eta evaluated at omega.

        Always in (0, 1) for omega > 0 and strictly decreasing in omega.
        """
        return self.phi(real_number("sigma", sigma), real_number("omega", omega), math)

    def phasor_cos_var(self, sigma, omega):
        """Var cos(omega (x - theta)) = 1/2 + phi(2 omega)/2 - phi^2.

        Evaluated in a cancellation-free form per model; the naive
        combination of char_fn values loses all precision for small
        sigma * omega, where this quantity is O((sigma omega)^4).
        """
        return self.v_c(real_number("sigma", sigma), real_number("omega", omega), math)

    def phasor_sin_var(self, sigma, omega):
        """Var sin(omega (x - theta)) = (1 - phi(2 omega)) / 2,
        cancellation-free for small sigma * omega."""
        return self.v_s(real_number("sigma", sigma), real_number("omega", omega), math)

    def char_fn_dsigma(self, sigma, omega):
        """Partial derivative of char_fn with respect to sigma (omega fixed).

        gaussian: -omega^2 sigma exp(-omega^2 sigma^2 / 2)
        laplace:  -omega^2 sigma / (1 + omega^2 sigma^2 / 2)^2
        cauchy:   -omega exp(-sigma omega)

        Strictly negative for omega > 0 until it underflows to -0.0. Where
        the direct form is not finite, rounds to zero, or omega^2 is
        subnormal (omega < 2^-511), a scaled form gives the same value,
        so every other finite nonzero direct result keeps its bits.
        """
        return self.phi_s(real_number("sigma", sigma), real_number("omega", omega))

    def fisher_location(self, sigma: float) -> float:
        """Fisher information for the location of x = theta + sigma * eta."""
        return _fisher(self.unit_fisher_location, sigma)

    def fisher_scale(self, sigma: float) -> float:
        """Fisher information for sigma in x = theta + sigma * eta."""
        return _fisher(self.unit_fisher_scale, sigma)


def _fisher(unit: float, sigma: float) -> float:
    """unit / sigma^2, unit being the information at sigma = 1; ValueError
    naming sigma where sigma^2 underflows to 0 or the quotient overflows."""
    sigma = real_number("sigma", sigma)
    info = unit / (sigma * sigma) if sigma * sigma > 0.0 else math.inf
    if info == math.inf:
        raise ValueError(f"the Fisher information overflows at sigma = {sigma!r}")
    return info


GAUSSIAN = NoiseModel(
    kind="gaussian",
    phi=lambda s, w, xp: xp.exp(-0.5 * (s * w) * (s * w)),
    v_c=_gaussian_cos_var,
    v_s=lambda s, w, xp: -0.5 * xp.expm1(-2.0 * (s * w) * (s * w)),
    phi_s=_gaussian_dsigma,
    inverse_abs_char_fn=_gaussian_inverse,
    uniforms_needed=lambda n: 2 * ((n + 1) // 2),
    from_uniforms=box_muller,
    unit_fisher_location=1.0,
    unit_fisher_scale=2.0,
)
LAPLACE = NoiseModel(
    kind="laplace",
    phi=lambda s, w, xp: 1.0 / (1.0 + 0.5 * (s * w) * (s * w)),
    v_c=_laplace_cos_var,
    v_s=_laplace_sin_var,
    phi_s=_laplace_dsigma,
    inverse_abs_char_fn=_laplace_inverse,
    uniforms_needed=lambda n: 2 * n,
    from_uniforms=_laplace_draws,
    unit_fisher_location=2.0,
    unit_fisher_scale=1.0,
)
CAUCHY = NoiseModel(
    kind="cauchy",
    phi=lambda s, w, xp: xp.exp(-(s * w)),
    v_c=_cauchy_var,
    v_s=_cauchy_var,
    phi_s=lambda s, w: -w * math.exp(-(s * w)),
    inverse_abs_char_fn=_cauchy_inverse,
    uniforms_needed=lambda n: n,
    from_uniforms=_cauchy_draws,
    unit_fisher_location=0.5,
    unit_fisher_scale=0.5,
)
_BY_TOKEN = {model.kind: model for model in (GAUSSIAN, LAPLACE, CAUCHY)}
MODEL_TOKENS = tuple(_BY_TOKEN)


def noise_model(token: str) -> NoiseModel:
    """Look up a model by token ("gaussian" | "laplace" | "cauchy")."""
    try:
        return _BY_TOKEN[token.strip().lower()]
    except (KeyError, AttributeError):
        raise ValueError(
            f"unknown noise model {token!r}; expected one of {MODEL_TOKENS}"
        ) from None

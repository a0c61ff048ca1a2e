"""Sensing-noise families: the one place their formulas live.

Three symmetric, zero-location families are supported, selected by string
token: "gaussian", "laplace", "cauchy". Everything the rest of the package
needs to know about a family is a NoiseModel method: the characteristic
function phi(sigma omega), its sigma-derivative, the cos/sin phasor
variance kernels (each one expression per family, serving floats and
numpy arrays alike), the inverse of |phi| used by the magnitude
estimator, the Fisher constants, and the uniform-to-draw transform
(uniforms_needed and from_uniforms, the only way to draw a family's
noise: snapshots and Monte Carlo blocks apply it to a stream's
uniforms).

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

import numpy as np

from .numkit import box_muller, buffer_view, real_number

__all__ = ["NoiseModel", "noise_model", "GAUSSIAN", "LAPLACE", "CAUCHY", "MODEL_TOKENS"]

MODEL_TOKENS = ("gaussian", "laplace", "cauchy")

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
# Below this omega (2^-511, about 1.49e-154) omega^2 is subnormal and the
# direct char_fn_dsigma, -omega omega sigma ..., has lost bits.
_W_SQUARE_NORMAL = 2.0**-511

# Standardized Fisher information per unit sigma^-2, validated by numeric
# quadrature of the squared score in the test suite.
_FISHER_LOCATION = {"gaussian": 1.0, "laplace": 2.0, "cauchy": 0.5}
_FISHER_SCALE = {"gaussian": 2.0, "laplace": 1.0, "cauchy": 0.5}


def _operands(sigma, omega):
    """(sigma, omega, xp) for the kernels: floats with xp = math, or numpy
    arrays (when either argument is one) with xp = numpy, so each kernel
    writes one expression per family for both.

    Every value must be > 0; the checks are written as `not x > 0.0` so
    NaN is rejected too. An array is checked by one reduction (min
    propagates NaN), a 0-d one as a float; an empty array passes.
    """
    if isinstance(sigma, np.ndarray) or isinstance(omega, np.ndarray):
        s, w, xp = np.asarray(sigma), np.asarray(omega), np
        s_ok, w_ok = _all_positive(s), _all_positive(w)
    else:
        s, w, xp = float(sigma), float(omega), math
        s_ok, w_ok = s > 0.0, w > 0.0
    if not s_ok:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not w_ok:
        raise ValueError(f"omega must be strictly positive, got {omega}")
    return s, w, xp


def _kernel(formula):
    """The NoiseModel kernel kernel(self, sigma, omega) that evaluates
    formula(self, s, w, xp) on the _operands of (sigma, omega); two
    positive Python floats are passed on as they are.

    On arrays overflow and inf * 0 are silent, as they are for floats:
    t * t, and the Laplace den * den, reach inf at large sigma omega, and
    what the formulas make of it (exp(-inf) = 0, 1 / inf = 0,
    expm1(-inf) = -1) is the kernel's limit there. So is a division by a
    zero t in a branch that np.where discards. Arrays and floats are
    then finite at the same points and agree to a few ulps, not bit for
    bit: numpy's exp, expm1 and power round differently from math's.
    """

    def kernel(self, sigma, omega):
        if type(sigma) is float and type(omega) is float and sigma > 0.0 and omega > 0.0:
            return formula(self, sigma, omega, math)
        s, w, xp = _operands(sigma, omega)
        if xp is math:
            return formula(self, s, w, xp)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return formula(self, s, w, xp)

    kernel.__name__, kernel.__qualname__ = formula.__name__, formula.__qualname__
    kernel.__doc__ = formula.__doc__
    return kernel


def _all_positive(a: np.ndarray) -> bool:
    """Whether every element of a is > 0 (NaN is not); True when empty."""
    if a.ndim == 0:
        return float(a) > 0.0
    return a.size == 0 or bool(a.min() > 0.0)


def _clamped(t, cap, xp):
    """min(t, cap) for a float or an array t."""
    if xp is np:
        return np.minimum(t, cap)
    return cap if t > cap else t


def _laplace_half_square(t, xp):
    """a = t^2 / 2 for the Laplace phasor variances, t clamped at
    _LAPLACE_T_MAX so that no intermediate overflows."""
    t = _clamped(t, _LAPLACE_T_MAX, xp)
    return 0.5 * t * t


@dataclass(frozen=True)
class NoiseModel:
    """One noise family; construct via noise_model(token).

    Each per-family formula is a method of this one class that branches
    on kind, not an override in a per-family subclass, so every kernel
    has exactly one definition that can be looked up on the class.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in MODEL_TOKENS:
            raise ValueError(
                f"unknown noise model {self.kind!r}; expected one of {MODEL_TOKENS}"
            )

    @_kernel
    def char_fn(self, s, w, xp):
        """Characteristic function of sigma * eta evaluated at omega.

        Accepts scalars or numpy arrays (broadcast); always in (0, 1) for
        omega > 0 and strictly decreasing in omega.
        """
        t = s * w
        if self.kind == "gaussian":
            return xp.exp(-0.5 * t * t)
        if self.kind == "laplace":
            return 1.0 / (1.0 + 0.5 * t * t)
        return xp.exp(-t)  # cauchy

    @_kernel
    def phasor_cos_var(self, s, w, xp):
        """Var cos(omega (x - theta)) = 1/2 + phi(2 omega)/2 - phi^2.

        Evaluated in a cancellation-free form per model; the naive
        combination of char_fn values loses all precision for small
        sigma * omega, where this quantity is O((sigma omega)^4).
        """
        t = s * w
        if self.kind == "gaussian":
            # 1/2 + e^{-2 t^2}/2 - e^{-t^2} = (1 - e^{-t^2})^2 / 2
            e = xp.expm1(-(t * t))
            return 0.5 * e * e
        if self.kind == "laplace":
            a = _laplace_half_square(t, xp)
            return a * a * (5.0 + 2.0 * a) / ((1.0 + a) ** 2 * (1.0 + 4.0 * a))
        return -0.5 * xp.expm1(-2.0 * t)  # cauchy

    @_kernel
    def phasor_sin_var(self, s, w, xp):
        """Var sin(omega (x - theta)) = (1 - phi(2 omega)) / 2,
        cancellation-free for small sigma * omega."""
        t = s * w
        if self.kind == "gaussian":
            return -0.5 * xp.expm1(-2.0 * t * t)
        if self.kind == "laplace":
            a = _laplace_half_square(t, xp)
            return 2.0 * a / (1.0 + 4.0 * a)
        return -0.5 * xp.expm1(-2.0 * t)  # cauchy

    @_kernel
    def char_fn_dsigma(self, s, w, xp):
        """Partial derivative of char_fn with respect to sigma (omega fixed).

        gaussian: -omega^2 sigma exp(-omega^2 sigma^2 / 2)
        laplace:  -omega^2 sigma / (1 + omega^2 sigma^2 / 2)^2
        cauchy:   -omega exp(-sigma omega)

        Strictly negative for omega > 0 until it underflows to -0.0. Where
        the direct form is not finite, rounds to zero, or omega^2 is
        subnormal (omega < 2^-511), _dsigma_scaled gives the same value,
        so every other finite nonzero direct result keeps its bits.
        """
        t = s * w
        if self.kind == "gaussian":
            d = -w * w * s * xp.exp(-0.5 * t * t)
        elif self.kind == "laplace":
            den = 1.0 + 0.5 * t * t
            d = -w * w * s / (den * den)
        else:
            return -w * xp.exp(-t)  # cauchy
        if xp is math:
            if -math.inf < d < 0.0 and w >= _W_SQUARE_NORMAL:
                return d
            return self._dsigma_scaled(w, t, xp)
        keep = np.isfinite(d) & (d != 0.0) & (w >= _W_SQUARE_NORMAL)
        return np.where(keep, d, self._dsigma_scaled(w, t, xp))

    def _dsigma_scaled(self, w, t, xp):
        """char_fn_dsigma of the Gaussian or Laplace family from omega and
        t = sigma omega, in a form whose intermediates do not overflow or
        underflow before the result does; t may be inf (sigma omega past
        the float range):

        gaussian: -(omega e) (t e) with e = exp(-t^2 / 4), t clamped at
            _GAUSS_T_MAX, past which the value is below the float range.
        laplace:  -(omega / den) (t / den), or, where den = 1 + t^2 / 2
            overflows (the 1 is then below rounding), -(2 omega / t / t)
            (2 / t), or, where 2 omega overflows too (omega above about
            9e307), -(omega / t / t) (4 / t).
        """
        if self.kind == "gaussian":
            t = _clamped(t, _GAUSS_T_MAX, xp)
            e = xp.exp(-0.25 * t * t)
            return -(w * e) * (t * e)
        den = 1.0 + 0.5 * t * t
        w2 = 2.0 * w
        if xp is math:
            if den < math.inf:
                return -(w / den) * (t / den)
            if w2 < math.inf:
                return -(w2 / t / t) * (2.0 / t)
            return -(w / t / t) * (4.0 / t)
        tail = np.where(w2 < math.inf, -(w2 / t / t) * (2.0 / t), -(w / t / t) * (4.0 / t))
        return np.where(den < math.inf, -(w / den) * (t / den), tail)

    def inverse_abs_char_fn(self, m: float, P: float) -> float:
        """The t = sigma * omega that solves sqrt(P) |phi(t)| = m.

        Defined for 0 < m < sqrt(P); the caller checks that range. For m
        so small that the direct expression overflows (m * m underflows
        to 0, or P / m^2 or sqrt(P) / m is inf) the same t is computed
        from log(m) or sqrt(m) instead, so every finite direct result is
        kept bit for bit and no m > 0 gives inf.
        """
        if self.kind == "gaussian":
            q = m * m
            t = math.sqrt(math.log(P / q)) if q > 0.0 else math.inf
            if t == math.inf:
                t = math.sqrt(math.log(P) - 2.0 * math.log(m))
            return t
        if self.kind == "laplace":
            t = math.sqrt(2.0 * (math.sqrt(P) / m - 1.0))
            if t == math.inf:
                # sqrt(P) / m > 1e307 here, so the -1 is below rounding.
                t = math.sqrt(2.0 * math.sqrt(P)) / math.sqrt(m)
            return t
        t = math.log(math.sqrt(P) / m)  # cauchy
        if t == math.inf:
            t = 0.5 * math.log(P) - math.log(m)
        return t

    def uniforms_needed(self, n: int) -> int:
        """Uniforms that n standardized draws consume: 2 ceil(n/2)
        (gaussian), 2n (laplace) or n (cauchy)."""
        if self.kind == "gaussian":
            return 2 * ((n + 1) // 2)
        if self.kind == "laplace":
            return 2 * n
        return n  # cauchy

    def from_uniforms(self, u: np.ndarray, n: int, work: np.ndarray | None = None) -> np.ndarray:
        """n standardized draws (zero location, unit scale per the module
        conventions) from uniforms_needed(n) uniforms, over the last axis
        of u, so one call serves a single draw vector or a block of them.

        gaussian: box_muller, truncated to n.
        laplace: difference of two unit exponentials scaled by 1/sqrt(2),
            each exponential -log(1 - u); the first n uniforms give the
            first exponential, the last n the second.
        cauchy: tangent transform tan(pi (u - 1/2)).

        Given work, (2, s) float64 with s >= 2 ceil(n/2) per draw vector,
        the draws are a C-contiguous view of work[0] and work[1] is
        overwritten; else they are a new array. u is not modified.
        """
        if work is None:
            work = np.empty((2, u.size))
        if self.kind == "gaussian":
            return box_muller(u, n, work)
        shape = u.shape[:-1] + (n,)
        e1 = buffer_view(work[0], shape)
        e1[...] = u[..., :n]
        if self.kind == "laplace":
            # -log1p(-u) for each half, differenced and scaled in place.
            e2 = buffer_view(work[1], shape)
            e2[...] = u[..., n:]
            for e in (e1, e2):
                np.negative(np.log1p(np.negative(e, out=e), out=e), out=e)
            e1 -= e2
            e1 *= _LAPLACE_B
            return e1
        e1 -= 0.5  # cauchy
        e1 *= math.pi
        return np.tan(e1, out=e1)

    def fisher_location(self, sigma: float) -> float:
        """Fisher information for the location of x = theta + sigma * eta."""
        return _fisher(_FISHER_LOCATION[self.kind], sigma)

    def fisher_scale(self, sigma: float) -> float:
        """Fisher information for sigma in x = theta + sigma * eta."""
        return _fisher(_FISHER_SCALE[self.kind], sigma)


def _fisher(unit: float, sigma: float) -> float:
    """unit / sigma^2, unit being the information at sigma = 1; ValueError
    naming sigma where sigma^2 underflows to 0 or the quotient overflows."""
    sigma = real_number("sigma", sigma)
    info = unit / (sigma * sigma) if sigma * sigma > 0.0 else math.inf
    if info == math.inf:
        raise ValueError(f"the Fisher information overflows at sigma = {sigma!r}")
    return info


GAUSSIAN = NoiseModel("gaussian")
LAPLACE = NoiseModel("laplace")
CAUCHY = NoiseModel("cauchy")

_BY_TOKEN = {"gaussian": GAUSSIAN, "laplace": LAPLACE, "cauchy": CAUCHY}


def noise_model(token: str) -> NoiseModel:
    """Look up a model by token ("gaussian" | "laplace" | "cauchy")."""
    try:
        return _BY_TOKEN[token.strip().lower()]
    except (KeyError, AttributeError):
        raise ValueError(
            f"unknown noise model {token!r}; expected one of {MODEL_TOKENS}"
        ) from None

"""Sensing-noise families: the one place their formulas live.

Three symmetric, zero-location families are supported, selected by string
token: "gaussian", "laplace", "cauchy". Everything the rest of the package
needs to know about a family is a NoiseModel method: the characteristic
function phi(sigma omega), its sigma-derivative, the cos/sin phasor
variance kernels (each one expression per family, serving floats and
numpy arrays alike), the inverse of |phi| used by the magnitude
estimator, the Fisher constants and the sampler.

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

from .numkit import RandomStream

__all__ = ["NoiseModel", "noise_model", "GAUSSIAN", "LAPLACE", "CAUCHY", "MODEL_TOKENS"]

MODEL_TOKENS = ("gaussian", "laplace", "cauchy")

_LAPLACE_B = 1.0 / math.sqrt(2.0)  # unit-variance Laplace scale

# Standardized Fisher information per unit sigma^-2, validated by numeric
# quadrature of the squared score in the test suite.
_FISHER_LOCATION = {"gaussian": 1.0, "laplace": 2.0, "cauchy": 0.5}
_FISHER_SCALE = {"gaussian": 2.0, "laplace": 1.0, "cauchy": 0.5}


def _operands(sigma, omega):
    """(sigma, omega, xp) for the kernels: floats with xp = math, or numpy
    arrays (when either argument is one) with xp = numpy, so each kernel
    writes one expression per family for both.

    Every value must be > 0; the checks are written as `not x > 0.0` so
    NaN is rejected too.
    """
    if isinstance(sigma, np.ndarray) or isinstance(omega, np.ndarray):
        s, w, xp = np.asarray(sigma), np.asarray(omega), np
        s_ok, w_ok = np.all(s > 0.0), np.all(w > 0.0)
    else:
        s, w, xp = float(sigma), float(omega), math
        s_ok, w_ok = s > 0.0, w > 0.0
    if not s_ok:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not w_ok:
        raise ValueError(f"omega must be strictly positive, got {omega}")
    return s, w, xp


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

    def char_fn(self, sigma, omega):
        """Characteristic function of sigma * eta evaluated at omega.

        Accepts scalars or numpy arrays (broadcast); always in (0, 1) for
        omega > 0 and strictly decreasing in omega.
        """
        s, w, xp = _operands(sigma, omega)
        t = s * w
        if self.kind == "gaussian":
            return xp.exp(-0.5 * t * t)
        if self.kind == "laplace":
            return 1.0 / (1.0 + 0.5 * t * t)
        return xp.exp(-t)  # cauchy

    def phasor_cos_var(self, sigma, omega):
        """Var cos(omega (x - theta)) = 1/2 + phi(2 omega)/2 - phi^2.

        Evaluated in a cancellation-free form per model; the naive
        combination of char_fn values loses all precision for small
        sigma * omega, where this quantity is O((sigma omega)^4).
        """
        s, w, xp = _operands(sigma, omega)
        t = s * w
        if self.kind == "gaussian":
            # 1/2 + e^{-2 t^2}/2 - e^{-t^2} = (1 - e^{-t^2})^2 / 2
            e = xp.expm1(-(t * t))
            return 0.5 * e * e
        if self.kind == "laplace":
            a = 0.5 * t * t
            return a * a * (5.0 + 2.0 * a) / ((1.0 + a) ** 2 * (1.0 + 4.0 * a))
        return -0.5 * xp.expm1(-2.0 * t)  # cauchy

    def phasor_sin_var(self, sigma, omega):
        """Var sin(omega (x - theta)) = (1 - phi(2 omega)) / 2,
        cancellation-free for small sigma * omega."""
        s, w, xp = _operands(sigma, omega)
        t = s * w
        if self.kind == "gaussian":
            return -0.5 * xp.expm1(-2.0 * t * t)
        if self.kind == "laplace":
            a = 0.5 * t * t
            return 2.0 * a / (1.0 + 4.0 * a)
        return -0.5 * xp.expm1(-2.0 * t)  # cauchy

    def char_fn_dsigma(self, sigma, omega):
        """Partial derivative of char_fn with respect to sigma (omega fixed).

        gaussian: -omega^2 sigma exp(-omega^2 sigma^2 / 2)
        laplace:  -omega^2 sigma / (1 + omega^2 sigma^2 / 2)^2
        cauchy:   -omega exp(-sigma omega)

        Strictly negative for omega > 0.
        """
        s, w, xp = _operands(sigma, omega)
        t = s * w
        if self.kind == "gaussian":
            return -w * w * s * xp.exp(-0.5 * t * t)
        if self.kind == "laplace":
            den = 1.0 + 0.5 * t * t
            return -w * w * s / (den * den)
        return -w * xp.exp(-t)  # cauchy

    def inverse_abs_char_fn(self, m: float, P: float) -> float:
        """The t = sigma * omega that solves sqrt(P) |phi(t)| = m.

        Defined for 0 < m < sqrt(P); the caller checks that range.
        """
        if self.kind == "gaussian":
            return math.sqrt(math.log(P / (m * m)))
        if self.kind == "laplace":
            return math.sqrt(2.0 * (math.sqrt(P) / m - 1.0))
        return math.log(math.sqrt(P) / m)  # cauchy

    def sample(self, stream: RandomStream, size: int | None = None):
        """Standardized draws (zero location, unit scale per the module
        conventions) from the given RandomStream.

        gaussian: Box-Muller normals from the stream.
        laplace: difference of two unit exponentials scaled by 1/sqrt(2),
            each exponential from -log(1 - u); consumes 2n uniforms.
        cauchy: tangent transform tan(pi (u - 1/2)); consumes n uniforms.
        """
        if self.kind == "gaussian":
            return stream.normal(size)
        n = 1 if size is None else int(size)
        if self.kind == "laplace":
            u = stream.uniform(2 * n)
            e1 = -np.log1p(-u[:n])
            e2 = -np.log1p(-u[n:])
            out = _LAPLACE_B * (e1 - e2)
        else:  # cauchy
            u = stream.uniform(n)
            out = np.tan(math.pi * (u - 0.5))
        if size is None:
            return float(out[0])
        return out

    def fisher_location(self, sigma: float) -> float:
        """Fisher information for the location of x = theta + sigma * eta."""
        _operands(sigma, 1.0)
        return _FISHER_LOCATION[self.kind] / (sigma * sigma)

    def fisher_scale(self, sigma: float) -> float:
        """Fisher information for sigma in x = theta + sigma * eta."""
        _operands(sigma, 1.0)
        return _FISHER_SCALE[self.kind] / (sigma * sigma)


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

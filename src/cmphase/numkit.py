"""Shared numerical primitives.

Root finding and scalar minimization are deliberately bracket based
(bisection, golden section): the tuning equations solved downstream mix
steep exponentials with polynomials, and derivative-based iterations can
escape their bracket there. Random streams wrap numpy's PCG64 with
explicit, documented variate transforms so that seeded runs reproduce
bit-exactly regardless of platform or worker scheduling.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "NoSignChangeError",
    "lambert_w0",
    "find_root_bracketed",
    "sign_change_brackets",
    "minimize_quasiconvex",
    "real_roots_in_interval",
    "RandomStream",
]

_BRANCH_POINT = -math.exp(-1.0)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class NoSignChangeError(ValueError):
    """The bracket endpoints do not straddle a sign change."""


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function.

    Returns the real w >= -1 with w * exp(w) = x, defined for x >= -1/e.
    Halley iteration from a piecewise initial guess; near the branch
    point the series in p = sqrt(2 (e x + 1)) is used directly, where the
    iteration's denominator degenerates.

    Raises:
        ValueError: if x < -1/e (no real principal-branch value).
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"lambert_w0 requires finite x, got {x}")
    if x < _BRANCH_POINT:
        # Allow for representation error right at the branch point.
        if x > _BRANCH_POINT - 1e-15 * max(1.0, abs(_BRANCH_POINT)):
            return -1.0
        raise ValueError(f"lambert_w0 domain is x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0

    p_sq = 2.0 * (math.e * x + 1.0)
    p = math.sqrt(p_sq) if p_sq > 0.0 else 0.0
    if p < 1e-4:
        # Branch-point series; error is O(p**5) < 1e-20 here.
        return -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0 - 43.0 * p ** 4 / 540.0

    if x < -0.2:
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    elif x < math.e:
        w = math.log1p(x) if x > -0.5 else x
    else:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1

    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        if wp1 <= 0.0:
            wp1 = 1e-300  # cannot occur for x > branch point, pure guard
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


def find_root_bracketed(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Bisection root of f on [lo, hi].

    Unconditionally convergent and deterministic given (f, lo, hi, tol).
    Requires f(lo) and f(hi) to have opposite signs (an endpoint equal to
    zero is returned directly, so [x, x] is a valid bracket of a zero at x).

    Raises:
        NoSignChangeError: if f(lo) * f(hi) > 0.
    """
    if not lo <= hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoSignChangeError(f"no sign change on [{lo}, {hi}]")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval no longer representable
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


def sign_change_brackets(
    f: Callable[[float], float], lo: float, hi: float, steps: int
) -> Iterator[tuple[float, float]]:
    """Brackets of the roots of f seen on a uniform scan of [lo, hi].

    f is evaluated once at each x_i = lo + (hi - lo) * i / steps,
    i = 0..steps, lazily and in ascending order. A grid point where f is
    exactly zero yields (x_i, x_i); neighbours x_{i-1}, x_i where f is
    nonzero with opposite signs yield (x_{i-1}, x_i). Each bracket is a
    valid input to find_root_bracketed.
    """
    x0, v0 = lo, f(lo)
    if v0 == 0.0:
        yield lo, lo
    for i in range(1, steps + 1):
        x1 = lo + (hi - lo) * i / steps
        v1 = f(x1)
        if v1 == 0.0:
            yield x1, x1
        elif v0 != 0.0 and (v1 > 0.0) != (v0 > 0.0):
            yield x0, x1
        x0, v0 = x1, v1


def minimize_quasiconvex(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> tuple[float, str]:
    """Golden-section minimizer of a quasi-convex f on [lo, hi].

    Returns (argmin, flag) with flag one of "interior", "lower", "upper".
    For f monotone on the interval the bracket collapses onto an endpoint
    and the matching boundary flag is set, signalling that the infimum is
    attained at (or beyond) that edge rather than at an interior point.
    A true interior minimum closer than ~2*tol to an endpoint is reported
    as a boundary; tol is small enough that this is harmless in practice.

    Monotone curves that flatten out near an edge can stall the bisection
    in a machine-precision plateau, so an endpoint whose value is no worse
    than the interior candidate beyond 1e-9 relative also wins the
    matching boundary flag. A genuine interior dip shallower than that is
    indistinguishable from flat and reported as the boundary it touches.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a, b = lo, hi
    width_goal = max(tol, 4.0 * math.ulp(max(abs(lo), abs(hi))))
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > width_goal:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x, fx = (c, fc) if fc <= fd else (d, fd)
    if x - lo <= 2.0 * width_goal:
        return x, "lower"
    if hi - x <= 2.0 * width_goal:
        return x, "upper"
    plateau = 1e-9 * max(abs(fx), math.ulp(1.0))
    f_lo, f_hi = f(lo), f(hi)
    if f_lo <= fx + plateau and f_lo <= f_hi:
        return lo, "lower"
    if f_hi <= fx + plateau:
        return hi, "upper"
    return x, "interior"


def real_roots_in_interval(
    coeffs: Sequence[float], lo: float, hi: float, scan_points: int = 4096
) -> list[float]:
    """Real roots of a low-degree polynomial on [lo, hi], sorted ascending.

    coeffs are in ascending order (coeffs[k] multiplies x**k). The
    interval is scanned on a fixed uniform grid of `scan_points` steps
    (deterministic, sign_change_brackets), and every sign change is
    refined by bisection. Roots of even multiplicity that do not produce
    a sign change on the grid are not detected; the polynomials handled
    here (degree <= 6 tuning equations) have simple roots.
    """
    cs = [float(c) for c in coeffs]
    if len(cs) > 7:
        raise ValueError("intended for polynomials of degree <= 6")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")

    def poly(x: float) -> float:
        acc = 0.0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    tol = 1e-14 * max(1.0, abs(hi))
    roots = [
        find_root_bracketed(poly, a, b, tol=tol)
        for a, b in sign_change_brackets(poly, lo, hi, scan_points)
    ]
    deduped: list[float] = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > 1e-9 * (1.0 + abs(r)):
            deduped.append(r)
    return deduped


class RandomStream:
    """Seeded, reproducible stream of uniforms and derived variates.

    The integer engine is numpy's PCG64 keyed by
    SeedSequence(entropy=seed, spawn_key=key), so two streams built with
    the same (seed, key) yield bit-identical output on any platform, and
    substreams for distinct keys are statistically independent.

    Variate transforms are fixed by this class, not by the numpy version:

    * uniform(n): float64 in [0, 1) straight from the generator.
    * normal(n): paired trigonometric (Box-Muller) transform. For n
      variates, m = ceil(n/2) pairs are formed from 2m consecutive
      uniforms u (first m feed the radius, last m the angle):
      r = sqrt(-2 log(1 - u_i)), z = (r cos(2 pi u_{m+i}),
      r sin(2 pi u_{m+i})) interleaved, truncated to n.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=self.seed, spawn_key=self.key))
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomStream(seed={self.seed}, key={self.key})"

    def substream(self, *key: int) -> "RandomStream":
        """Independent stream for (seed, self.key + key)."""
        return RandomStream(self.seed, self.key + key)

    def uniform(self, size: int | None = None):
        """Uniform float64 draws in [0, 1); scalar when size is None."""
        return self._gen.random(size)

    def normal(self, size: int | None = None):
        """Standard normal draws via the documented Box-Muller transform.

        A call for n variates consumes exactly 2*ceil(n/2) uniforms; a
        scalar call consumes 2.
        """
        n = 1 if size is None else int(size)
        if n < 0:
            raise ValueError("size must be nonnegative")
        if n == 0:
            return np.empty(0)
        m = (n + 1) // 2
        u = self._gen.random(2 * m)
        r = np.sqrt(-2.0 * np.log1p(-u[:m]))
        ang = (2.0 * math.pi) * u[m:]
        out = np.empty(2 * m)
        out[0::2] = r * np.cos(ang)
        out[1::2] = r * np.sin(ang)
        if size is None:
            return float(out[0])
        return out[:n]

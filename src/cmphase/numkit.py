"""Shared numerical primitives.

Root finding and scalar minimization are deliberately bracket based
(bisection, golden section): the tuning equations solved downstream mix
steep exponentials with polynomials, and derivative-based iterations can
escape their bracket there. grid_roots is the one root scan: it brackets
the sign changes of a uniform grid and bisects each (find_root_bracketed).
The one derivative-based minimizer, gauss_newton_box, serves a smooth
least-squares problem on a box in two variables and keeps every iterate
inside it. The scalar routines (lambert_w0, find_root_bracketed,
minimize_quasiconvex, gauss_newton_box) take and return Python floats.
A random stream is a (seed, key) address of numpy's PCG64; its seed
words are derived here for many substreams at once, and the draws of a
seeded run reproduce bit-exactly on any platform.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "NoSignChangeError",
    "ConvergenceError",
    "lambert_w0",
    "find_root_bracketed",
    "uniform_grid",
    "grid_roots",
    "minimize_quasiconvex",
    "gauss_newton_box",
    "real_number",
    "whole_number",
    "buffer_view",
    "box_muller",
    "uniforms_from_states",
    "RandomStream",
]

_BRANCH_POINT = -math.exp(-1.0)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1e-10  # minimize_quasiconvex: the bracket width at which it stops
_EPS = 2.0 ** -52
# gauss_newton_box: step tolerance relative to the box width, iteration cap.
_GN_XTOL = 1e-10
_GN_MAX_ITER = 50

# numpy.random.SeedSequence: pool size, hash constants and shift of its
# documented mixing algorithm (numpy/random/bit_generator.pyx).
_SS_POOL = 4
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_L = 0xCA01F9DD
_SS_MIX_R = 0x4973F715
_SS_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


class NoSignChangeError(ValueError):
    """The bracket endpoints do not straddle a sign change."""


class ConvergenceError(ValueError):
    """An iteration reached its cap without meeting its tolerance."""


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function.

    Returns the real w >= -1 with w * exp(w) = x, defined for x >= -1/e.
    Halley iteration from a piecewise initial guess; near the branch
    point the series in p = sqrt(2 (e x + 1)) is used directly, where the
    iteration's denominator degenerates.

    Raises:
        ValueError: if x < -1/e (no real principal-branch value).
        ConvergenceError: if within 100 Halley iterations neither the
            step falls below 1e-16 (1 + |w|) nor the residual w e^w - x
            to its rounding level.
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
        # f carries a rounding error of about eps |x| (2 + |w|), the |w|
        # part from rounding w inside exp. A step computed from a residual
        # at that level is noise (near the branch point, where w e^w is
        # flat, it can far exceed 1e-16 and cycle), so w is final.
        if abs(step) <= 1e-16 * (1.0 + abs(w)) or abs(f) <= 2.0 * _EPS * abs(x) * (2.0 + abs(w)):
            return w
    raise ConvergenceError(f"lambert_w0 did not converge at x = {x!r}")


def find_root_bracketed(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Bisection root of f on [lo, hi].

    Unconditionally convergent and deterministic given (f, lo, hi, tol):
    it stops once hi - lo <= tol or lo and hi are adjacent floats, which
    about 2100 halvings reach from any finite bracket. The midpoint is
    0.5 (lo + hi), or 0.5 lo + 0.5 hi where lo + hi overflows. Requires
    f(lo) and f(hi) to have opposite signs (an endpoint equal to
    zero is returned directly, so [x, x] is a valid bracket of a zero at x).

    Raises:
        NoSignChangeError: if f(lo) * f(hi) > 0.
        ValueError: if f returns NaN at an endpoint or a midpoint.
    """
    if not lo <= hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    flo = f(lo)
    if flo != flo:  # NaN, which has no sign
        raise ValueError(f"f({lo}) is nan")
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi != fhi:
        raise ValueError(f"f({hi}) is nan")
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoSignChangeError(f"no sign change on [{lo}, {hi}]")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            mid = 0.5 * lo + 0.5 * hi  # lo + hi overflowed, or lo and hi are adjacent
            if not lo < mid < hi:
                break
        fmid = f(mid)
        if fmid != fmid:
            raise ValueError(f"f({mid}) is nan")
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    mid = 0.5 * (lo + hi)
    return mid if abs(mid) < math.inf else 0.5 * lo + 0.5 * hi


def uniform_grid(lo: float, hi: float, steps: int) -> np.ndarray:
    """A uniform scan grid as an array: x_i = lo + (hi - lo) * i / steps,
    i = 0..steps, each element rounded as the scalar expression is (i is
    exact in float64), and x_0 = lo itself, which keeps the sign of a
    zero lo. It is the grid of the lazy scalar scan that the tests keep
    as the oracle (sign_change_brackets in tests/test_numkit.py)."""
    with np.errstate(all="ignore"):
        x = lo + (hi - lo) * np.arange(steps + 1) / steps
    x[0] = lo
    return x


def grid_roots(
    x: np.ndarray, values: np.ndarray, f: Callable[[float], float], tol: float
) -> Iterator[float]:
    """The roots of f seen on its grid x (uniform_grid), given its values
    there, ascending and one at a time, each bisected to tol on the scalar
    f (find_root_bracketed). The brackets are (x_i, x_i) where values_i is
    zero and (x_{i-1}, x_i) where nonzero neighbours differ in sign, a NaN
    counting as nonpositive; roots of even multiplicity go unseen. They
    are, in order, those of the tests' lazy scalar scan (sign_change_brackets
    in tests/test_numkit.py), so where f rounds alike on floats and arrays
    every root is the lazy scan's, bit for bit.
    """
    zero = values == 0.0
    positive = values > 0.0
    ends = zero.copy()
    ends[1:] |= ~zero[:-1] & (positive[1:] != positive[:-1])
    i = np.flatnonzero(ends)
    starts = np.where(zero[i], x[i], x[i - 1])
    for lo, hi in zip(starts.tolist(), x[i].tolist()):
        yield find_root_bracketed(f, lo, hi, tol=tol)


def minimize_quasiconvex(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, str]:
    """Golden-section minimizer of a quasi-convex f on [lo, hi].

    Returns (argmin, flag) with flag one of "interior", "lower", "upper".
    For f monotone on the interval the bracket collapses onto an endpoint
    and the matching boundary flag is set, signalling that the infimum is
    attained at (or beyond) that edge rather than at an interior point.
    The argmin is then the last probe, within 2 * width_goal inside the
    edge (width_goal = max(_GOLDEN_TOL, 4 ulps of the wider end)), not
    the edge: an "upper" result lies up to 2 * width_goal below hi.
    A true interior minimum closer than ~2 * width_goal to an endpoint is
    reported as a boundary; that is small enough to be harmless in
    practice.

    Monotone curves that flatten out near an edge can stall the bisection
    in a machine-precision plateau, so an endpoint whose value is no worse
    than the interior candidate beyond 1e-9 relative also wins the
    matching boundary flag. A genuine interior dip shallower than that is
    indistinguishable from flat and reported as the boundary it touches.

    A tie of two probes goes to the left one, so where f is inf or NaN
    at every probe and finite at hi (its finite part lies next to hi),
    the search runs once more on the mirror image t -> f(-t) on
    [-hi, -lo], whose ties go toward hi.

    Raises:
        ConvergenceError: if the best probe's value is not finite (f is
            inf or NaN at every probe, as on a wide interval whose finite
            part is narrower than the final bracket).
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    width_goal = max(_GOLDEN_TOL, 4.0 * math.ulp(max(abs(lo), abs(hi))))
    x, fx = _golden_probes(f, lo, hi, width_goal)
    if not math.isfinite(fx) and math.isfinite(f(hi)):
        # Every probe tied at inf or NaN and the ties went left, away from
        # a finite hi: search the mirror image, where ties go right.
        x, fx = _golden_probes(lambda t: f(-t), -hi, -lo, width_goal)
        x = -x
    if not math.isfinite(fx):
        raise ConvergenceError(
            f"golden section saw no finite value on [{lo!r}, {hi!r}]; "
            f"best probe f({x!r}) = {fx!r}"
        )
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


def _golden_probes(f, a, b, width_goal):
    """The golden-section loop of minimize_quasiconvex on [a, b]: (x, f(x))
    at the better of the last two probes, a tie going to the left one."""
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
    return (c, fc) if fc <= fd else (d, fd)


def gauss_newton_box(
    residual: Callable[[float, float], tuple[np.ndarray, np.ndarray]],
    x0: tuple[float, float],
    lo: tuple[float, float],
    hi: tuple[float, float],
) -> tuple[tuple[float, float], int, bool]:
    """Minimize |r(p, q)|^2 over the box lo <= (p, q) <= hi by damped
    Gauss-Newton.

    x0, lo and hi are read as (p, q) pairs of floats. residual(p, q)
    returns (r, J), the residual and its Jacobian dr/d(p, q) as float64
    arrays. Each iteration holds fixed the variables that sit on a bound
    with the gradient J^T r pushing outward (the active set) and takes
    the least-squares Gauss-Newton step in the others. The trial point
    is (p, q) + t step projected onto the box, and it must meet the
    Armijo condition, so every accepted step descends (up to the
    rounding of |r|^2): t = 1 is halved until it does, or else doubled
    while that descends further, since where |r|^2 is nearly flat or
    concave along the step (a large residual) Gauss-Newton steps fall
    far short.

    The iteration has converged at a step no larger than 1e-10 times the
    box width in every coordinate, or one for which the linear model
    r + J step predicts a decrease of |r|^2 below its rounding error
    (where |r|^2 is that flat, no step can be told from another); that
    last step is taken when it does not ascend. |r|^2 = 0 also ends it.

    The iterate and its projection onto the box, the widths and step
    tolerances, the active set and the step lengths are Python floats.
    numpy keeps the operations whose rounding Python would not
    reproduce: r @ r, J^T r, J step and g @ (x_t - x) go through BLAS
    (ddot, dgemv), whose kernels fuse multiply-adds on FMA hardware, and
    the step is LAPACK gelsd's least-squares solution (np.linalg.lstsq),
    of J itself when both variables are free. So (p, q), the iteration
    count and the verdict are those of the numpy-array iteration that the
    tests keep as the oracle (numpy_gauss_newton_box in tests/test_numkit.py).

    Returns ((p, q), iterations, converged). converged is False when 50
    iterations pass, no step length along the Gauss-Newton direction is
    accepted, or r or J at the iterate is not finite, before the
    tolerance is met; (p, q) is then the last accepted iterate.
    """
    (p, q), (lo_p, lo_q), (hi_p, hi_q) = map(float, x0), map(float, lo), map(float, hi)
    p, q = _clip(p, lo_p, hi_p), _clip(q, lo_q, hi_q)
    tol_p, tol_q = _GN_XTOL * (hi_p - lo_p), _GN_XTOL * (hi_q - lo_q)
    r, J = residual(p, q)
    f = float(r @ r)
    for iteration in range(1, _GN_MAX_ITER + 1):
        if f == 0.0:
            return (p, q), iteration - 1, True
        if not all(map(math.isfinite, r.tolist() + J.ravel().tolist())):
            return (p, q), iteration - 1, False
        g = J.T @ r  # half the gradient of |r|^2
        g_p, g_q = g.tolist()
        free_p = not ((p <= lo_p and g_p > 0.0) or (p >= hi_p and g_p < 0.0))
        free_q = not ((q <= lo_q and g_q > 0.0) or (q >= hi_q and g_q < 0.0))
        dp = dq = 0.0
        if free_p or free_q:
            cols = J if free_p and free_q else J[:, :1] if free_p else J[:, 1:]
            solved = np.linalg.lstsq(cols, -r, rcond=None)[0].tolist()
            dp, dq = (solved[0] if free_p else 0.0), (solved[-1] if free_q else 0.0)
        rounding = 8.0 * _EPS * f
        small = abs(dp) <= tol_p and abs(dq) <= tol_q
        if not small:
            r_model = r + J @ np.array((dp, dq))
            small = f - float(r_model @ r_model) <= rounding
        bound = f + rounding

        def trial(t):
            """(p, q, r, J, |r|^2) at step length t, or None if not Armijo."""
            p_t, q_t = _clip(p + t * dp, lo_p, hi_p), _clip(q + t * dq, lo_q, hi_q)
            r_t, J_t = residual(p_t, q_t)
            f_t = float(r_t @ r_t)
            if f_t <= bound + 2e-4 * float(g @ np.array((p_t - p, q_t - q))):
                return p_t, q_t, r_t, J_t, f_t
            return None

        t, best = 1.0, trial(1.0)
        while best is None and not small and t > 1e-18:
            t *= 0.5
            best = trial(t)
        if best is None:
            return (p, q), iteration, small
        while t >= 1.0 and not small and t < 2.0**60:
            longer = trial(2.0 * t)
            if longer is None or longer[4] >= best[4]:
                break
            t, best = 2.0 * t, longer
        p, q, r, J, f = best
        if small:
            return (p, q), iteration, True
    return (p, q), _GN_MAX_ITER, False


def _clip(v: float, lo: float, hi: float) -> float:
    """np.minimum(np.maximum(v, lo), hi) on floats: a NaN propagates, and
    v equal to a bound gives the bound (so -0.0 against 0.0 gives the
    bound's sign), where Python's max and min would keep v."""
    v = v if v > lo or v != v else lo
    return v if v < hi or v != v else hi


def real_number(name: str, value, minimum: float = 0.0, closed: bool = False) -> float:
    """value as a finite float > minimum (>= minimum when closed). Reals
    of any type (numpy's included) are accepted; bools, other types, NaN,
    +-inf and values out of range raise a ValueError naming name."""
    # float first: it spares floats the slower numbers.Real check.
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int past the float range
        x = math.inf
    if math.isfinite(x) and (x >= minimum if closed else x > minimum):
        return x
    bound = f"{'>=' if closed else '>'} {minimum!r}"
    if minimum == 0.0:
        bound = "nonnegative" if closed else "positive"
    raise ValueError(f"{name} must be {bound} and finite, got {value!r}")


def whole_number(name: str, value, minimum: int = 0) -> int:
    """value as an int >= minimum.

    Integers (numpy's included) and integral floats such as 10.0 are
    accepted; bools, fractional or non-finite floats and other types
    raise ValueError, as does a value below minimum.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (isinstance(value, numbers.Integral) or (math.isfinite(value) and value == int(value)))
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def buffer_view(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous view of shape on the start of the 1-D array buf.
    Contiguous operands spare numpy's ufuncs their iteration buffers."""
    return buf[: math.prod(shape)].reshape(shape)


def box_muller(u: np.ndarray, n: int | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Standard normals from uniforms by the paired trigonometric
    (Box-Muller) transform, over the last axis of u.

    For a last axis of even length 2m, the first m uniforms feed the
    radius and the last m the angle: r = sqrt(-2 log(1 - u_i)), and the
    output interleaves (r cos(2 pi u_{m+i}), r sin(2 pi u_{m+i})),
    truncated to its first n <= 2m entries (all 2m by default).

    Given work, (2, s) float64 with s >= u.size, the normals are a view
    of work[0] and work[1] is overwritten; else they are a new array. u
    is not modified.
    """
    m = u.shape[-1] // 2
    if work is None:
        work = np.empty((2, u.size))
    half = u.shape[:-1] + (m,)
    r, cos = buffer_view(work[0], half), buffer_view(work[1], half)
    ang = buffer_view(work[1, cos.size :], half)
    r[...], ang[...] = u[..., :m], u[..., m:]
    np.sqrt(np.multiply(-2.0, np.log1p(np.negative(r, out=r), out=r), out=r), out=r)
    ang *= 2.0 * math.pi
    np.multiply(r, np.cos(ang, out=cos), out=cos)
    np.multiply(r, np.sin(ang, out=ang), out=ang)
    n = 2 * m if n is None else n  # the normals overwrite the spent r
    out = buffer_view(work[0], u.shape[:-1] + (n,))
    out[..., 0::2], out[..., 1::2] = cos[..., : (n + 1) // 2], ang[..., : n // 2]
    return out


def _words32(value: int) -> list[int]:
    """The little-endian 32-bit words of a nonnegative int, as numpy's
    SeedSequence splits its entropy (0 is the one word 0)."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_sequence_states(entropy: list, n: int) -> np.ndarray:
    """SeedSequence.generate_state(4, uint64) for n sequences at once.

    entropy holds the assembled entropy words of numpy's SeedSequence,
    one entry per word position: an int where all n sequences share the
    word, a uint64 array of shape (n,) of 32-bit words where each has its
    own. The shared words are mixed in plain int arithmetic and the rest
    on the arrays, both masked to numpy's arithmetic modulo 2**32 (a
    product of two 32-bit words fits in uint64). Returns (n, 4) uint64.
    """
    hash_a = _SS_INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = (hash_a * _SS_MULT_A) & _MASK32
        value = (value * hash_a) & _MASK32
        return value ^ (value >> _SS_XSHIFT)

    def mix(x, y):
        result = (_SS_MIX_L * x - _SS_MIX_R * y) & _MASK32
        return result ^ (result >> _SS_XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_SS_POOL)]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_SS_POOL:]:
        for dst in range(_SS_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_b = _SS_INIT_B
    state = np.empty((n, 2 * _SS_POOL), dtype=np.uint64)
    for i in range(2 * _SS_POOL):
        value = pool[i % _SS_POOL] ^ hash_b
        hash_b = (hash_b * _SS_MULT_B) & _MASK32
        value = (value * hash_b) & _MASK32
        state[:, i] = value ^ (value >> _SS_XSHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def uniforms_from_states(states: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """The first n uniforms of the stream seeded by each row of states
    (RandomStream.substream_states), one row per stream: row r equals
    RandomStream(seed, key + (t,)).uniform(n) for the t of that row, bit
    for bit, since numpy's PCG64 still does the seeding and the double
    conversion. They fill out, (len(states), n) float64, if given."""
    seed_words = _seed_words_type()
    if out is None:
        out = np.empty((len(states), n))
    elif out.shape != (len(states), n):
        raise ValueError(f"out must have shape {(len(states), n)}, got {out.shape}")
    for row, words in zip(out, states):
        np.random.Generator(np.random.PCG64(seed_words(words))).random(out=row)
    return out


@functools.cache
def _seed_words_type() -> type:
    """The ISeedSequence that hands precomputed SeedSequence state words
    to numpy's PCG64, which seeds itself from generate_state(4, uint64).
    Built on first use: subclassing at import would import numpy.random
    with cmphase, which commands that draw nothing do not need."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("only PCG64's request generate_state(4, uint64) is precomputed")
            return self._words

    return SeedWords


@dataclass(frozen=True)
class RandomStream:
    """Address of one reproducible stream of uniforms: (seed, key).

    The stream is numpy's PCG64 keyed by
    SeedSequence(entropy=seed, spawn_key=key), so equal (seed, key) give
    bit-identical uniforms on any platform, and substreams for distinct
    keys are statistically independent. The seed and the key elements are
    nonnegative integers (ValueError otherwise). A stream holds no
    position: uniform(n) is always its first n uniforms, float64 in
    [0, 1). The SeedSequence state words are derived here
    (_seed_sequence_states), numpy's PCG64 seeds itself from them and
    converts to doubles (uniforms_from_states).
    """

    seed: int
    key: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "seed", whole_number("seed", self.seed))
        object.__setattr__(self, "key", tuple(whole_number("key element", k) for k in self.key))

    def _entropy(self) -> list[int]:
        """SeedSequence's assembled entropy words: the seed's, padded with
        zeros to the pool size, then each key element's. numpy pads only
        before a non-empty spawn key, but entropy shorter than the pool
        mixes as if zero-padded, so padding always gives the same state."""
        words = _words32(self.seed)
        words += [0] * (_SS_POOL - len(words))
        for k in self.key:
            words += _words32(k)
        return words

    def substream(self, *key: int) -> "RandomStream":
        """Independent stream for (seed, self.key + key)."""
        return RandomStream(self.seed, self.key + key)

    def substream_states(self, n: int) -> np.ndarray:
        """PCG64 seed words of substream(t) for t = 0, ..., n - 1, derived
        in one vectorized pass.

        Row t is SeedSequence(entropy=seed, spawn_key=key + (t,))
        .generate_state(4, uint64). ValueError for n of 2**32 or more,
        which no run reaches: z alone would need 64 GB there.
        """
        n = whole_number("n", n)
        if n >= 2**32:
            raise ValueError(f"n must be below 2**32, got {n!r}")
        return _seed_sequence_states(self._entropy() + [np.arange(n, dtype=np.uint64)], n)

    def uniform(self, n: int) -> np.ndarray:
        """The first n uniforms of the stream."""
        return uniforms_from_states(_seed_sequence_states(self._entropy(), 1), n)[0]

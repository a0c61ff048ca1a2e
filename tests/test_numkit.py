"""Tests for the scalar numerics toolkit.

The Lambert W checks pin values computed independently at 40-digit
precision; frozen decimals are cross-checked through the defining
identity w e^w = x rather than trusting the implementation under test.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cmphase import numkit
from cmphase.numkit import (
    ConvergenceError,
    NoSignChangeError,
    RandomStream,
    box_muller,
    find_root_bracketed,
    gauss_newton_box,
    grid_roots,
    lambert_w0,
    minimize_quasiconvex,
    real_number,
    uniform_grid,
    uniforms_from_states,
)
from cmphase.tuning import _laplace_gamma_quintic, _laplace_quintic_omega, _laplace_sigma_quintic

# Reference values, 40-dps mpmath, frozen.
W_AT_1 = 0.5671432904097838  # the omega constant
W_AT_M2E2 = -0.4063757399599599  # W0(-2 e^-2)
W_AT_ME2 = -0.15859433956303936  # W0(-e^-2)

# Log-uniform over 1e-300..1e300, plus 0: the inputs of the finite-or-raise
# properties of the public entry points (capfd is read once per example).
WIDE = st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda e: 10.0**e))
WIDE_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Scan intervals for the grid_roots polynomial oracle; the last is the
# tuning quintics' beta range.
_LAPLACE_BETA = (1e-9, 50.0)
_INTERVALS = ((0.0, 1.0), (-5.0, 5.0), (-0.0, 3.0), _LAPLACE_BETA)


def sign_change_brackets(f, lo, hi, steps):
    """Brackets of the roots of f seen on a uniform scan of [lo, hi]: the
    lazy scalar oracle of numkit.uniform_grid and numkit.grid_roots.

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


def _horner(coeffs):
    """The polynomial with ascending coefficients coeffs, by Horner's rule
    from acc = 0, for floats and arrays alike."""
    cs = [float(c) for c in coeffs]

    def poly(x):
        acc = 0.0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    return poly


def _scalar_scan_roots(coeffs, lo, hi):
    """The scalar route grid_roots must reproduce: a Python Horner
    polynomial scanned lazily by sign_change_brackets on 4096 steps, each
    bracket bisected, in bracket order."""
    poly = _horner(coeffs)
    tol = 1e-14 * max(1.0, abs(hi))
    return [
        find_root_bracketed(poly, a, b, tol=tol)
        for a, b in sign_change_brackets(poly, lo, hi, 4096)
    ]


def _grid_scan_roots(coeffs, lo, hi):
    """grid_roots of the Horner polynomial on the 4096-step uniform_grid of
    [lo, hi], the grid values in one array pass."""
    poly = _horner(coeffs)
    x = uniform_grid(lo, hi, 4096)
    with np.errstate(all="ignore"):
        values = poly(x)
    return list(grid_roots(x, values, poly, 1e-14 * max(1.0, abs(hi))))


def _merged(roots):
    """Ascending roots with each within 1e-9 (1 + |r|) of the last one
    kept merged into it, the Laplace quintics' rule."""
    kept = []
    for r in sorted(roots):
        if not kept or r - kept[-1] > 1e-9 * (1.0 + abs(r)):
            kept.append(r)
    return kept


def _quintic_beta_roots(coeffs, lo, hi):
    """The beta_roots of _laplace_quintic_omega, which scans [lo, hi] =
    _LAPLACE_BETA."""
    assert (lo, hi) == _LAPLACE_BETA
    return _laplace_quintic_omega(coeffs, 1.0, lambda w: 0.0)[2]["beta_roots"]


def _outcome(route, coeffs, lo, hi):
    """The roots' bit patterns, or the type and message of the error."""
    try:
        return [r.hex() for r in route(coeffs, lo, hi)]
    except ValueError as exc:
        return type(exc), str(exc)


def _from_roots(case):
    """(interval, ascending coefficients) of lead * prod (x - r) with the
    roots r placed inside the interval."""
    (lo, hi), fractions, lead = case
    coeffs = [lead]  # descending
    for f in fractions:
        root = lo + (hi - lo) * f
        coeffs = [a - root * b for a, b in zip(coeffs + [0.0], [0.0] + coeffs)]
    return (lo, hi), coeffs[::-1]


class TestRealNumber:
    @pytest.mark.parametrize("value", [2, 2.0, np.float32(2.0), np.int64(2), np.float64(2.0)])
    def test_reals_become_floats(self, value):
        x = real_number("x", value)
        assert type(x) is float and x == 2.0

    def test_bounds(self):
        assert real_number("x", 0.0, closed=True) == 0.0
        assert real_number("x", 5e-324) == 5e-324
        assert real_number("x", -1e300, -math.inf) == -1e300
        assert real_number("x", 2.0, 2.0, closed=True) == 2.0
        assert real_number("x", 1.7976931348623157e308) == 1.7976931348623157e308

    @pytest.mark.parametrize(
        "value, minimum, closed, message",
        [
            (0.0, 0.0, False, "P must be positive and finite, got 0.0"),
            (-0.0, 0.0, False, "P must be positive and finite, got -0.0"),
            (-1e-300, 0.0, True, "P must be nonnegative and finite, got -1e-300"),
            (math.nan, 0.0, True, "P must be nonnegative and finite, got nan"),
            (math.inf, 0.0, False, "P must be positive and finite, got inf"),
            (-math.inf, -math.inf, False, "P must be > -inf and finite, got -inf"),
            (math.inf, -math.inf, True, "P must be >= -inf and finite, got inf"),
            (1.0, 2.0, False, "P must be > 2.0 and finite, got 1.0"),
            (2.0, 2.0, False, "P must be > 2.0 and finite, got 2.0"),
            (np.float64(math.nan), 0.0, False, "P must be positive and finite, got "),
            # float() of an int past the float range raised OverflowError
            (10**400, 0.0, False, "P must be positive and finite, got 1000"),
            (-(10**400), -math.inf, True, "P must be >= -inf and finite, got -1000"),
        ],
    )
    def test_rejections_name_the_argument(self, value, minimum, closed, message):
        with pytest.raises(ValueError) as info:
            real_number("P", value, minimum, closed)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("value", [True, False, None, "1.0", [1.0], 1j, np.array(1.0)])
    def test_non_reals_rejected(self, value):
        with pytest.raises(ValueError, match=r"^omega must be a real number, got "):
            real_number("omega", value)


class TestLambertW:
    def test_frozen_values(self):
        np.testing.assert_allclose(lambert_w0(1.0), W_AT_1, rtol=1e-14)
        np.testing.assert_allclose(
            lambert_w0(-2.0 * math.exp(-2.0)), W_AT_M2E2, rtol=1e-14
        )
        np.testing.assert_allclose(
            lambert_w0(-math.exp(-2.0)), W_AT_ME2, rtol=1e-14
        )

    def test_defining_identity(self):
        """w e^w = x across the whole principal-branch domain."""
        xs = np.concatenate(
            [
                -1.0 / math.e + np.logspace(-12, -0.5, 40),
                np.logspace(-8, 3, 40),
            ]
        )
        for x in xs:
            w = lambert_w0(float(x))
            np.testing.assert_allclose(w * math.exp(w), x, rtol=1e-12, atol=1e-300)

    def test_special_points(self):
        assert lambert_w0(0.0) == 0.0
        np.testing.assert_allclose(lambert_w0(-1.0 / math.e), -1.0, atol=1e-7)
        np.testing.assert_allclose(lambert_w0(math.e), 1.0, rtol=1e-14)

    def test_below_branch_point_raises(self):
        with pytest.raises(ValueError):
            lambert_w0(-1.0 / math.e - 1e-6)

    def test_one_ulp_below_the_branch_point(self):
        """Representation error at -1/e is forgiven: the branch value."""
        assert lambert_w0(math.nextafter(-math.exp(-1.0), -math.inf)) == -1.0

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_raises(self, x):
        with pytest.raises(ValueError, match="finite"):
            lambert_w0(x)

    def test_monotone(self):
        xs = np.linspace(-1.0 / math.e + 1e-9, 5.0, 200)
        ws = [lambert_w0(float(x)) for x in xs]
        assert all(b > a for a, b in zip(ws, ws[1:]))


    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.floats(min_value=-1.0 / math.e, max_value=1e300))
    def test_defining_identity_property(self, x):
        w = lambert_w0(x)
        assert w >= -1.0
        assert math.isclose(w * math.exp(w), x, rel_tol=1e-12, abs_tol=1e-300)

    def test_iterates_stay_above_minus_one(self, monkeypatch):
        """The Halley step divides by w + 1 with no guard: from the edge of
        the branch-point series (p = 1e-4) up, every iterate (each one is
        passed to exp) stays at least about 1e-4 above -1."""
        iterates = []
        recording = types.SimpleNamespace(**vars(math))
        recording.exp = lambda w: iterates.append(w) or math.exp(w)
        monkeypatch.setattr(numkit, "math", recording)
        ps = np.logspace(-4, 0.2, 4000)
        for x in [*((ps * ps / 2.0 - 1.0) / math.e).tolist(), *np.logspace(-8, 300, 400)]:
            lambert_w0(float(x))
        assert min(iterates) + 1.0 > 0.9e-4

    def test_non_convergence_raises(self, monkeypatch):
        """A residual that never settles (exp perturbed on every call)
        must end in an error, not in the last iterate."""
        jitter = iter(np.random.default_rng(0).uniform(-1e-6, 1e-6, 1000))
        noisy = types.SimpleNamespace(**vars(math))
        noisy.exp = lambda w: math.exp(w) * (1.0 + next(jitter))
        monkeypatch.setattr(numkit, "math", noisy)
        with pytest.raises(ConvergenceError):
            lambert_w0(1.0)


def numpy_gauss_newton_box(residual, x0, lo, hi):
    """numkit.gauss_newton_box as it iterated on numpy arrays: the oracle
    whose x bits, iteration count and verdict the Python-float iteration
    must reproduce. It reads numkit's tolerance and cap at call time and
    calls residual(p, q) with the Python floats of x."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x = np.minimum(np.maximum(np.asarray(x0, dtype=float), lo), hi)
    width = hi - lo
    max_iter = numkit._GN_MAX_ITER
    r, J = residual(*x.tolist())
    f = float(r @ r)
    for iteration in range(1, max_iter + 1):
        if f == 0.0:
            return tuple(x.tolist()), iteration - 1, True
        if not (np.isfinite(r).all() and np.isfinite(J).all()):
            return tuple(x.tolist()), iteration - 1, False
        g = J.T @ r  # half the gradient of |r|^2
        free = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
        step = np.zeros_like(x)
        if free.any():
            step[free] = np.linalg.lstsq(J[:, free], -r, rcond=None)[0]
        rounding = 8.0 * numkit._EPS * f
        r_model = r + J @ step
        small = bool(
            np.all(np.abs(step) <= numkit._GN_XTOL * width)
            or f - float(r_model @ r_model) <= rounding
        )
        bound = f + rounding

        def trial(t):
            """(x, r, J, |r|^2) at step length t, or None if not Armijo."""
            x_t = np.minimum(np.maximum(x + t * step, lo), hi)
            r_t, J_t = residual(*x_t.tolist())
            f_t = float(r_t @ r_t)
            if f_t <= bound + 2e-4 * float(g @ (x_t - x)):
                return x_t, r_t, J_t, f_t
            return None

        t, best = 1.0, trial(1.0)
        while best is None and not small and t > 1e-18:
            t *= 0.5
            best = trial(t)
        if best is None:
            return tuple(x.tolist()), iteration, small
        while t >= 1.0 and not small and t < 2.0**60:
            longer = trial(2.0 * t)
            if longer is None or longer[3] >= best[3]:
                break
            t, best = 2.0 * t, longer
        x, r, J, f = best
        if small:
            return tuple(x.tolist()), iteration, True
    return tuple(x.tolist()), max_iter, False


def gn_outcome(minimize, residual, x0, lo, hi):
    """The bits of x, the iteration count and the verdict of one run."""
    x, iterations, converged = minimize(residual, x0, lo, hi)
    return [v.hex() for v in x], iterations, converged


def _feature_residual(m, c, bad):
    """r = M f(x) + c over the features f = (p, q, p q, sin p, cos q, p^2)
    of (p, q), and its Jacobian M df/d(p, q). bad = (calls, k, value)
    writes value into r (k < 2) or J (k >= 2) from that call on."""
    m, c, calls = np.array(m).reshape(2, 6), np.array(c), [0]

    def residual(p, q):
        f = np.array([p, q, p * q, math.sin(p), math.cos(q), p * p])
        df = np.array(
            [[1.0, 0.0], [0.0, 1.0], [q, p], [math.cos(p), 0.0], [0.0, -math.sin(q)], [2 * p, 0.0]]
        )
        r, jac = m @ f + c, m @ df
        if bad is not None and calls[0] >= bad[0]:
            k, value = bad[1], bad[2]
            (r if k < 2 else jac.reshape(-1))[k if k < 2 else k - 2] = value
        calls[0] += 1
        return r, jac

    return residual


def _rosenbrock(p, q):
    r = np.array([10.0 * (q - p * p), 1.0 - p])
    jac = np.array([[-20.0 * p, 10.0], [-1.0, 0.0]])
    return r, jac


class TestGaussNewtonBox:
    def test_zero_residual_interior(self):
        x, iterations, converged = gauss_newton_box(
            _rosenbrock, (-1.2, 1.0), (-2.0, -2.0), (2.0, 2.0)
        )
        assert converged and iterations < 50
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-12)

    def test_minimum_outside_the_box_lands_on_its_face(self):
        """|x - (2, -1)|^2 on [0, 1]^2: both coordinates end on a bound."""

        def shifted(p, q):
            return np.array([p - 2.0, q + 1.0]), np.eye(2)

        x, iterations, converged = gauss_newton_box(shifted, (0.5, 0.5), (0.0, 0.0), (1.0, 1.0))
        assert converged
        assert x == (1.0, 0.0)

    def test_iterates_stay_in_the_box(self):
        seen = []

        def recording(p, q):
            seen.append((p, q))
            return _rosenbrock(p, q)

        gauss_newton_box(recording, (-1.2, 1.0), (-1.5, 0.5), (1.5, 1.2))
        assert seen and all(type(p) is type(q) is float for p, q in seen)
        assert all(-1.5 <= p <= 1.5 and 0.5 <= q <= 1.2 for p, q in seen)

    def test_reports_non_convergence_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(numkit, "_GN_MAX_ITER", 2)
        x, iterations, converged = gauss_newton_box(
            _rosenbrock, (-1.2, 1.0), (-2.0, -2.0), (2.0, 2.0)
        )
        assert not converged and iterations == 2
        assert np.all(np.isfinite(x))

    @pytest.mark.parametrize("bad", ["residual", "jacobian"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_stops_where_the_residual_is_not_finite(self, capfd, bad, value):
        """A non-finite r or J used to reach lstsq, which raised LinAlgError
        after LAPACK printed DLASCL complaints to stdout."""

        def broken(p, q):
            r, jac = _rosenbrock(p, q)
            (r if bad == "residual" else jac)[0] = value
            return r, jac

        x, iterations, converged = gauss_newton_box(broken, (-1.2, 1.0), (-2.0, -2.0), (2.0, 2.0))
        assert not converged and iterations == 0
        assert x == (-1.2, 1.0)
        assert capfd.readouterr().out == ""


    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        shape=st.sampled_from(["nonlinear", "linear", "diagonal"]),
        m=st.lists(st.floats(-3.0, 3.0), min_size=12, max_size=12),
        c=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        x0=st.tuples(
            *[st.one_of(st.sampled_from([0.0, -0.0, math.nan]), st.floats(-8.0, 8.0))] * 2
        ),
        lo=st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0))] * 2),
        width=st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 6.0))] * 2),
        bad=st.one_of(
            st.none(),
            st.tuples(
                st.integers(0, 6),
                st.integers(0, 5),
                st.sampled_from([math.inf, -math.inf, math.nan]),
            ),
        ),
    )
    def test_matches_the_numpy_oracle(self, shape, m, c, x0, lo, width, bad):
        """Same x bits, iterations and verdict as the numpy iteration, on
        random residuals (nonlinear, or linear and so often least on a box
        face, or diagonal, where one variable is pinned and the other
        solved for alone), from starts inside and outside the box, signed
        zeros on a bound and NaN starts, with zero widths, and with r or J
        turning inf or NaN after some calls."""
        if shape != "nonlinear":
            m = m[:2] + [0.0] * 4 + m[6:8] + [0.0] * 4
        if shape == "diagonal":
            m[1] = m[6] = 0.0
        hi = (lo[0] + width[0], lo[1] + width[1])
        # The oracle's array arithmetic warns where t step overflows, as
        # Python floats do not.
        with np.errstate(all="ignore"):
            expected = gn_outcome(numpy_gauss_newton_box, _feature_residual(m, c, bad), x0, lo, hi)
            got = gn_outcome(gauss_newton_box, _feature_residual(m, c, bad), x0, lo, hi)
        assert got == expected

    @pytest.mark.parametrize(
        "c, free_shapes", [((-0.5, 0.9), {(2, 2), (2, 1)}), ((3.0, -4.0), {(2, 2)})]
    )
    def test_one_free_variable_steps_match_the_oracle(self, monkeypatch, c, free_shapes):
        """r = A (x - c) on [0, 1]^2 with A coupled: when c lies beyond the
        box in p alone, p ends on its face with the gradient pushing out
        and q is solved for alone, through lstsq on one column of J; with
        c beyond both faces, the iterate reaches the corner, where both
        variables are held."""
        a = np.array([[2.0, 0.5], [0.25, 1.0]])

        def residual(p, q):
            return a @ (np.array((p, q)) - np.array(c)), a.copy()

        shapes = set()
        lstsq = np.linalg.lstsq

        def recording(m, *args, **kwargs):
            shapes.add(m.shape)
            return lstsq(m, *args, **kwargs)

        expected = gn_outcome(numpy_gauss_newton_box, residual, (0.5, 0.5), (0.0, 0.0), (1.0, 1.0))
        monkeypatch.setattr(np.linalg, "lstsq", recording)
        got = gn_outcome(gauss_newton_box, residual, (0.5, 0.5), (0.0, 0.0), (1.0, 1.0))
        assert got == expected and expected[2]
        assert shapes == free_shapes


class TestFindRootBracketed:
    def test_sin_root(self):
        root = find_root_bracketed(math.sin, 3.0, 4.0)
        np.testing.assert_allclose(root, math.pi, rtol=1e-12)

    def test_endpoint_root(self):
        assert find_root_bracketed(lambda x: x - 2.0, 2.0, 5.0) == 2.0
        assert find_root_bracketed(lambda x: x - 2.0, 0.0, 2.0) == 2.0

    def test_reversed_bracket_raises(self):
        with pytest.raises(ValueError, match="need lo <= hi"):
            find_root_bracketed(lambda x: x, 1.0, 0.0)

    def test_tolerance_below_one_ulp_stops_at_adjacent_floats(self):
        """Near 1e6 a float step is 1.2e-10, above the default 1e-12: the
        search ends on the two floats around a sign change that no float
        zeroes."""
        step = 1e6 + 0.3
        got = find_root_bracketed(lambda x: -1.0 if x <= step else 1.0, 0.0, 2e6)
        assert got in (step, math.nextafter(step, math.inf))

    def test_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            find_root_bracketed(lambda x: 1.0 + x * x, -1.0, 1.0)

    def test_tolerance(self):
        root = find_root_bracketed(lambda x: x**3 - 2.0, 0.0, 2.0, tol=1e-14)
        np.testing.assert_allclose(root, 2.0 ** (1.0 / 3.0), rtol=1e-13)

    def test_nan_at_a_midpoint_raises(self):
        """NaN has no sign: treating it as nonpositive walked this bracket
        to 0.7 instead of failing."""
        def f(x):
            return math.nan if 0.3 < x < 0.7 else x - 0.5

        with pytest.raises(ValueError, match="nan"):
            find_root_bracketed(f, 0.0, 1.0)

    def test_wide_bracket_reaches_the_tolerance(self):
        """About 1000 halvings separate 1e300 from the tolerance: a cap of
        400 returned the midpoint 1.936e179 as the root of x - 1."""
        assert abs(find_root_bracketed(lambda x: x - 1.0, 0.0, 1e300) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "root, lo, hi",
        [(1.5e308, 1e308, 1.7e308), (-1.5e308, -1.7e308, -1e308), (1e308, -1.7e308, 1.7e308)],
    )
    def test_midpoint_near_the_float_max(self, root, lo, hi):
        """lo + hi overflows, and 0.5 (lo + hi) returned inf. The bracket
        ends at adjacent floats around the root, since no float step there
        is within the tolerance."""
        got = find_root_bracketed(lambda x: x - root, lo, hi)
        assert math.isfinite(got) and abs(got - root) <= math.ulp(root)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 0.0)])
    def test_nan_at_an_endpoint_raises(self, lo, hi):
        def f(x):
            return math.nan if x == 0.0 else x - 0.5

        with pytest.raises(ValueError, match="nan"):
            find_root_bracketed(f, lo, hi)


class TestMinimizeQuasiconvex:
    def test_interior_quadratic(self):
        x, flag = minimize_quasiconvex(lambda t: (t - 1.3) ** 2, 0.0, 2.0)
        assert flag == "interior"
        np.testing.assert_allclose(x, 1.3, atol=1e-8)

    def test_monotone_increasing_flags_lower(self):
        x, flag = minimize_quasiconvex(math.exp, 1.0, 2.0)
        assert flag == "lower"
        assert x <= 1.0 + 1e-6

    def test_monotone_decreasing_flags_upper(self):
        x, flag = minimize_quasiconvex(lambda t: -t, 1.0, 2.0)
        assert flag == "upper"
        assert x >= 2.0 - 1e-6

    @pytest.mark.parametrize("hi", [2.0, 1e7])
    def test_upper_edge_is_the_last_probe(self, hi):
        """An "upper" argmin is the last probe, not hi: it lies within
        2 * width_goal below hi, width_goal = max(tol, 4 ulps of hi)."""
        width_goal = max(1e-10, 4.0 * math.ulp(hi))
        x, flag = minimize_quasiconvex(lambda t: -t, 1.0, hi)
        assert flag == "upper"
        assert hi - 2.0 * width_goal <= x < hi

    def test_machine_flat_plateau_flags_boundary(self):
        """A monotone curve indistinguishable from constant near the lower
        edge must not report a spurious interior minimum."""
        x, flag = minimize_quasiconvex(lambda t: 1.0 + t**4, 1e-8, 1.0)
        assert flag == "lower"

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            minimize_quasiconvex(math.exp, 2.0, 1.0)

    def test_finite_part_next_to_hi_is_found(self):
        """f is inf below 0.9 and finite up to hi, with its minimum at
        0.95: the first probes, near 0.38 and 0.62, tie at inf, and every
        later tie went left, so the search raised ConvergenceError."""
        x, flag = minimize_quasiconvex(lambda t: math.inf if t < 0.9 else (t - 0.95) ** 2, 1e-4, 1.0)
        assert flag == "interior"
        assert abs(x - 0.95) <= 1e-8

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_no_finite_probe_raises(self, value):
        """A curve finite only on [0, 1e-3] of [0, 1e20] is never probed
        there (the final bracket is 4 ulps of 1e20 wide)."""
        with pytest.raises(ConvergenceError, match=r"\[0\.0, 1e\+20\]"):
            minimize_quasiconvex(lambda x: 1.0 if x < 1e-3 else value, 0.0, 1e20)


class TestGridRoots:
    """Real polynomial roots on an interval, through grid_roots and the
    Laplace quintics' scan (_laplace_quintic_omega)."""

    def test_cubic_known_roots(self):
        # (x - 0.3)(x - 1.2)(x - 2.5), ascending coefficients
        coeffs = [-0.9, 4.11, -4.0, 1.0]
        roots = _grid_scan_roots(coeffs, 0.0, 3.0)
        np.testing.assert_allclose(roots, [0.3, 1.2, 2.5], rtol=1e-9)

    def test_subinterval_filtering(self):
        coeffs = [-0.9, 4.11, -4.0, 1.0]
        roots = _grid_scan_roots(coeffs, 1.0, 3.0)
        np.testing.assert_allclose(roots, [1.2, 2.5], rtol=1e-9)

    def test_no_roots(self):
        assert _grid_scan_roots([1.0, 0.0, 1.0], -5.0, 5.0) == []

    def test_roots_satisfy_polynomial(self):
        coeffs = [-1.0, -9.0, -23.0, -15.0, 50.0, 32.0]
        roots = _quintic_beta_roots(coeffs, *_LAPLACE_BETA)
        assert roots, "expected at least one positive root"
        for r in roots:
            value = sum(c * r**k for k, c in enumerate(coeffs))
            scale = sum(abs(c) * r**k for k, c in enumerate(coeffs))
            assert abs(value) <= 1e-10 * scale

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        case=st.one_of(
            st.tuples(
                st.sampled_from(_INTERVALS),
                st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
                st.floats(-1e3, 1e3).filter(lambda c: abs(c) > 1e-3),
            ).map(_from_roots),
            st.tuples(
                st.sampled_from(_INTERVALS),
                st.lists(
                    st.one_of(
                        st.floats(-1e3, 1e3),
                        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300]),
                    ),
                    min_size=1,
                    max_size=7,
                ),
            ),
            st.tuples(st.just(_LAPLACE_BETA), st.floats(-6.0, 3.0)).map(
                lambda c: (c[0], _laplace_sigma_quintic(10.0 ** c[1]))
            ),
            st.tuples(st.just(_LAPLACE_BETA), st.floats(-6.0, 3.0), st.floats(-3.0, 3.0)).map(
                lambda c: (c[0], _laplace_gamma_quintic(10.0 ** c[1], 10.0 ** c[2]))
            ),
        )
    )
    def test_matches_the_lazy_scalar_scan(self, case):
        """Bit for bit the scalar route: bisection over the brackets of
        sign_change_brackets on 4096 steps, in ascending order, including
        the errors it raises (a NaN grid value from overflow). On the
        quintics' beta range, _laplace_quintic_omega's beta_roots are the
        same roots, merged."""
        (lo, hi), coeffs = case
        expected = _outcome(_scalar_scan_roots, coeffs, lo, hi)
        assert _outcome(_grid_scan_roots, coeffs, lo, hi) == expected
        if isinstance(expected, list):
            assert expected == sorted(expected, key=float.fromhex)
        if (lo, hi) == _LAPLACE_BETA:
            assert _outcome(_quintic_beta_roots, coeffs, lo, hi) == _outcome(
                lambda *a: _merged(_scalar_scan_roots(*a)), coeffs, lo, hi
            )


class TestRandomStream:
    def test_reproducible(self):
        a = RandomStream(123).uniform(16)
        b = RandomStream(123).uniform(16)
        np.testing.assert_array_equal(a, b)

    def test_seed_sensitivity(self):
        a = RandomStream(123).uniform(16)
        b = RandomStream(124).uniform(16)
        assert not np.array_equal(a, b)

    def test_substream_keying(self):
        """substream(1, 2) and substream(1).substream(2) address the same
        stream, and sibling substreams differ."""
        root = RandomStream(7)
        a = root.substream(1, 2).uniform(8)
        b = root.substream(1).substream(2).uniform(8)
        np.testing.assert_array_equal(a, b)
        c = root.substream(1, 3).uniform(8)
        assert not np.array_equal(a, c)

    def test_substream_independent_of_draw_order(self):
        root = RandomStream(7)
        root.uniform(100)  # consuming the parent must not shift children
        a = root.substream(4).uniform(8)
        b = RandomStream(7).substream(4).uniform(8)
        np.testing.assert_array_equal(a, b)

    def test_uniform_range_and_moments(self):
        u = RandomStream(42).uniform(200_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        np.testing.assert_allclose(u.mean(), 0.5, atol=5e-3)
        np.testing.assert_allclose(u.var(), 1.0 / 12.0, rtol=2e-2)

    def test_normal_moments(self):
        g = box_muller(RandomStream(42).uniform(200_000))
        np.testing.assert_allclose(g.mean(), 0.0, atol=1e-2)
        np.testing.assert_allclose(g.var(), 1.0, rtol=1e-2)
        # standardized fourth moment of a Gaussian is 3
        np.testing.assert_allclose((g**4).mean(), 3.0, rtol=5e-2)

    def test_normal_consumes_two_uniforms_per_pair(self):
        """Normal pair i of 2m uniforms takes its radius from uniform i and
        its angle from uniform m + i."""
        u = RandomStream(9).uniform(6)
        g = box_muller(u)
        for i in range(3):
            r = math.sqrt(-2.0 * math.log1p(-u[i]))
            ang = 2.0 * math.pi * u[3 + i]
            np.testing.assert_allclose(g[2 * i : 2 * i + 2], [r * math.cos(ang), r * math.sin(ang)],
                                       rtol=1e-14)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.one_of(
            st.integers(0, 2**32 - 1),
            st.integers(2**32, 2**128 - 1),
            st.integers(2**128, 2**200),
        ),
        key=st.lists(
            st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**96)),
            max_size=3,
        ),
        n=st.integers(0, 9),
    )
    def test_uniform_matches_numpy_generator(self, seed, key, n):
        """uniform(n) is the first n uniforms of numpy's PCG64 seeded by
        SeedSequence(entropy=seed, spawn_key=key), with or without a key."""
        expected = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))
        ).random(n)
        np.testing.assert_array_equal(RandomStream(seed, tuple(key)).uniform(n), expected)

    @pytest.mark.parametrize("seed", [True, 1.5, -1, math.nan, math.inf, "3", None])
    def test_bad_seed_rejected(self, seed):
        """RandomStream(1.5) used to become seed 1 and True seed 1."""
        with pytest.raises(ValueError, match="seed must be an integer"):
            RandomStream(seed)

    @pytest.mark.parametrize("key", [(True,), (0.5,), (-1,), (1, math.inf)])
    def test_bad_key_rejected(self, key):
        with pytest.raises(ValueError, match="key element must be an integer"):
            RandomStream(0, key)
        with pytest.raises(ValueError, match="key element must be an integer"):
            RandomStream(0).substream(*key)

    def test_integral_values_accepted(self):
        s = RandomStream(np.int64(7), (3.0,))
        assert (s.seed, s.key) == (7, (3,))

    def test_box_muller_over_last_axis(self):
        """A block of uniform rows gives each row's own normals."""
        u = RandomStream(3).uniform(24).reshape(4, 6)
        block = box_muller(u)
        for row, normals in zip(u, block):
            np.testing.assert_array_equal(box_muller(row), normals)


class TestSubstreamStates:
    """The vectorized SeedSequence derivation against numpy's own."""

    @staticmethod
    def numpy_states(seed, key, n):
        rows = [
            np.random.SeedSequence(entropy=seed, spawn_key=key + (t,)).generate_state(4, np.uint64)
            for t in range(n)
        ]
        return np.array(rows, dtype=np.uint64).reshape(-1, 4)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.one_of(
            st.integers(0, 2**32 - 1),
            st.integers(2**32, 2**128 - 1),
            st.integers(2**128, 2**200),
        ),
        key=st.lists(
            st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**96)),
            max_size=3,
        ),
        n=st.integers(0, 6),
    )
    def test_matches_numpy_seed_sequence(self, seed, key, n):
        stream = RandomStream(seed, tuple(key))
        np.testing.assert_array_equal(
            stream.substream_states(n), self.numpy_states(seed, tuple(key), n)
        )

    def test_row_of_a_sweep(self):
        """The shape the Monte Carlo engine uses: a row key, 500 trials."""
        root = RandomStream(2024).substream(7)
        np.testing.assert_array_equal(
            root.substream_states(500), self.numpy_states(2024, (7,), 500)
        )

    def test_uniforms_from_states(self):
        root = RandomStream(5, (1, 2**40))
        u = uniforms_from_states(root.substream_states(4), 9)
        for t, row in enumerate(u):
            seq = np.random.SeedSequence(entropy=5, spawn_key=(1, 2**40, t))
            np.testing.assert_array_equal(row, np.random.Generator(np.random.PCG64(seq)).random(9))

    def test_seed_words_serve_only_pcg64s_request(self):
        """The precomputed words answer generate_state(4, uint64), the one
        request PCG64 makes, and refuse any other."""
        words = RandomStream(5).substream_states(1)[0]
        seed_words = numkit._seed_words_type()(words)
        assert seed_words.generate_state(4, np.uint64) is words
        for n_words, dtype in [(4, np.uint32), (2, np.uint64), (8, np.uint64)]:
            with pytest.raises(ValueError, match="generate_state"):
                seed_words.generate_state(n_words, dtype)
        with pytest.raises(ValueError, match="generate_state"):
            seed_words.generate_state(4)

    def test_bad_range_rejected(self):
        """A negative count, and one of 2**32 or more, which no run
        reaches, are refused before anything is allocated."""
        for n in (-1, 2.5, 2**32, 2**64):
            with pytest.raises(ValueError, match="n must be"):
                RandomStream(0).substream_states(n)

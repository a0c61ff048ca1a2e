"""Asymptotic relative efficiency of the phase scheme in clean channels.

With per-sensor power and no channel noise the best achievable
asymptotic variance over omega (its curve at optimal_omega's
minimizer) is compared against the centralized Cramer-Rao bound (1 over
the per-sample Fisher information). Both the infimum and the bound scale
as sigma^2, so the ratio is scale-free; the computation asserts that
invariance numerically instead of assuming it.

For the Gaussian model the variance curves decrease monotonically as
omega -> 0, so the infimum is a boundary limit rather than a minimum;
it is evaluated at a tiny fixed u = omega * sigma where the curve has
numerically converged to its limit.

The bundled reference ARE table is kept verbatim, including a scale
entry for the Laplace model (0.50) that does not match what the
variance curves actually give (about 0.93); matches_reference records
the comparison honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .asymptotic import asv_curves
from .noise import NoiseModel
from .tuning import optimal_omega

__all__ = ["EfficiencyReport", "REFERENCE_ARE", "asymptotic_relative_efficiency"]

# Published reference values (two decimals) for (model, parameter).
REFERENCE_ARE = {
    ("gaussian", "theta"): 1.00,
    ("gaussian", "sigma"): 1.00,
    ("laplace", "theta"): 0.66,
    ("laplace", "sigma"): 0.50,
    ("cauchy", "theta"): 0.65,
    ("cauchy", "sigma"): 0.65,
}

_BOUNDARY_U = 1e-4  # u = omega * sigma at which a boundary limit is read off
_MAX_U = 2.0 * math.pi  # upper end of the search in u, above every interior optimum
_INVARIANCE_RTOL = 1e-9
_REFERENCE_ATOL = 0.01


@dataclass(frozen=True)
class EfficiencyReport:
    model: str
    parameter: str
    inf_asv: float
    fisher_bound: float
    are: float
    reference_are: float
    matches_reference: bool


def _inf_asv(model: NoiseModel, parameter: str, sigma: float) -> float:
    """The clean-channel variance at optimal_omega's minimizer over u =
    omega * sigma in [_BOUNDARY_U, _MAX_U], or at exactly u = _BOUNDARY_U
    where the infimum is the omega -> 0 limit. No row's infimum lies on
    the upper edge: one there would be read at the search's last probe,
    which depends on sigma, and the check at sigma = 2 would raise."""
    lo, hi = _BOUNDARY_U / sigma, _MAX_U / sigma
    w, flag = optimal_omega(model, sigma, 1.0, 0.0, parameter, omega_max=hi, omega_min=lo)
    return asv_curves(model, sigma, 1.0, 0.0)[parameter](lo if flag == "lower" else w)


def asymptotic_relative_efficiency(model: NoiseModel, parameter: str) -> EfficiencyReport:
    """ARE of the phase scheme for one model and parameter.

    Defined under per-sensor power with a clean channel, where the
    received statistic carries one noise-free sample of the sensor
    characteristic function. Computed at sigma = 1 and revalidated at
    sigma = 2; a scale dependence beyond 1e-9 relative raises.
    """
    if parameter not in ("theta", "sigma"):
        raise ValueError(f"parameter must be 'theta' or 'sigma', got {parameter!r}")

    def are_at(sigma: float) -> tuple[float, float, float]:
        inf_asv = _inf_asv(model, parameter, sigma)
        fisher = (
            model.fisher_location(sigma)
            if parameter == "theta"
            else model.fisher_scale(sigma)
        )
        bound = 1.0 / fisher
        return inf_asv, bound, bound / inf_asv

    inf_asv, bound, are = are_at(1.0)
    _, _, are_check = are_at(2.0)
    if not math.isclose(are, are_check, rel_tol=_INVARIANCE_RTOL, abs_tol=0.0):
        raise RuntimeError(
            f"ARE is not scale-free for {model.kind}/{parameter}: "
            f"{are!r} at sigma=1 vs {are_check!r} at sigma=2"
        )

    ref = REFERENCE_ARE[(model.kind, parameter)]
    return EfficiencyReport(
        model=model.kind,
        parameter=parameter,
        inf_asv=inf_asv,
        fisher_bound=bound,
        are=are,
        reference_are=ref,
        matches_reference=abs(are - ref) <= _REFERENCE_ATOL,
    )

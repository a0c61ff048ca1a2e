"""Distributed estimation of a location, a scale, and their SNR over a
Gaussian multiple-access channel using constant-modulus phase
transmissions.

Sensors observe a common location theta through additive noise of scale
sigma, transmit e^{j omega x} with a fixed power budget, and the fusion
center works from the coherent sum: its normalized value concentrates
on sqrt(P) e^{j omega theta} phi(sigma, omega), where phi is the
sensing-noise characteristic function. The package provides the channel
simulation, the phase/magnitude estimators and their joint
minimum-variance counterpart, asymptotic variance expressions with
verified closed forms, omega tuning, efficiency reports, and Monte
Carlo drivers behind a CLI.
"""

from .asymptotic import (
    AsvReport,
    asv_closed_form,
    asv_generic,
    asv_via_sandwich,
    covariance_matrix,
    jacobian,
)
from .efficiency import EfficiencyReport, asymptotic_relative_efficiency
from .estimators import (
    DegenerateScaleError,
    EstimateSet,
    ZeroMagnitudeError,
    estimate_location,
    estimate_scale,
    estimate_snr,
    joint_minimum_variance,
    joint_objective,
    simple_estimates,
)
from .montecarlo import (
    AllTrialsSaturatedError,
    McSummary,
    SweepRow,
    run_experiment,
    sweep,
    write_sweep_csv,
)
from .network import (
    ConfigError,
    NetworkConfig,
    PowerMode,
    Snapshot,
    simulate_snapshot,
)
from .noise import CAUCHY, GAUSSIAN, LAPLACE, MODEL_TOKENS, NoiseModel, noise_model
from .numkit import ConvergenceError, RandomStream
from .tuning import (
    AnalyticOmega,
    OmegaOptima,
    analytic_omega,
    omega_optima,
    optimal_omega,
    resolve_omega,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AsvReport",
    "asv_closed_form",
    "asv_generic",
    "asv_via_sandwich",
    "covariance_matrix",
    "jacobian",
    "EfficiencyReport",
    "asymptotic_relative_efficiency",
    "DegenerateScaleError",
    "EstimateSet",
    "ZeroMagnitudeError",
    "estimate_location",
    "estimate_scale",
    "estimate_snr",
    "joint_minimum_variance",
    "joint_objective",
    "simple_estimates",
    "AllTrialsSaturatedError",
    "McSummary",
    "SweepRow",
    "run_experiment",
    "sweep",
    "write_sweep_csv",
    "ConfigError",
    "NetworkConfig",
    "PowerMode",
    "Snapshot",
    "simulate_snapshot",
    "CAUCHY",
    "GAUSSIAN",
    "LAPLACE",
    "MODEL_TOKENS",
    "NoiseModel",
    "noise_model",
    "ConvergenceError",
    "RandomStream",
    "AnalyticOmega",
    "OmegaOptima",
    "analytic_omega",
    "omega_optima",
    "optimal_omega",
    "resolve_omega",
]

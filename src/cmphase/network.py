"""Sensor network and channel simulation.

Each of L sensors observes x_l = theta + sigma * eta_l and transmits the
constant-modulus signal sqrt(rho) * exp(j omega x_l). The fusion center
receives the coherent sum through an additive complex Gaussian channel:

    y = sqrt(rho) * sum_l exp(j omega x_l) + nu,   nu ~ CN(0, noise_var)

with independent real and imaginary noise parts of variance noise_var/2.
Two power budgets are supported: "total" splits P across the array
(rho = P / L, normalization z = y / sqrt(L)) and "per-sensor" gives each
sensor P (rho = P, normalization z = y / L).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .noise import NoiseModel, noise_model
from .numkit import RandomStream

__all__ = [
    "PowerMode",
    "ConfigError",
    "NetworkConfig",
    "Snapshot",
    "simulate_snapshot",
    "normalize",
]


class PowerMode(str, enum.Enum):
    TOTAL = "total"
    PER_SENSOR = "per-sensor"


class ConfigError(ValueError):
    """A NetworkConfig field violates its constraint."""


def _power_mode(value) -> PowerMode:
    if isinstance(value, PowerMode):
        return value
    try:
        return PowerMode(str(value))
    except ValueError:
        raise ConfigError(
            f"power_mode must be 'total' or 'per-sensor', got {value!r}"
        ) from None


def _whole_number(name: str, value, minimum: int) -> int:
    """value as an int >= minimum. Integral floats (10.0) are accepted;
    bools, fractional or non-finite floats and other types are not."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or value != int(value)
    ):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class NetworkConfig:
    """Validated description of one sensing/transmission setup.

    theta is identifiable on (0, theta_R] only; omega must satisfy
    omega <= 2 pi / theta_R so distinct theta map to distinct phases.
    """

    L: int
    theta: float
    theta_R: float
    sigma: float
    model: NoiseModel
    power_mode: PowerMode
    P: float
    channel_noise_var: float
    omega: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "model", self._coerce_model(self.model))
        object.__setattr__(self, "power_mode", _power_mode(self.power_mode))
        object.__setattr__(self, "L", _whole_number("L", self.L, 1))
        object.__setattr__(self, "seed", _whole_number("seed", self.seed, 0))
        if not 0.0 < self.theta_R < math.inf:
            raise ConfigError(f"theta_R must be positive and finite, got {self.theta_R}")
        if not 0.0 < self.theta <= self.theta_R:
            raise ConfigError(
                f"theta must lie in (0, theta_R]; got theta={self.theta}, theta_R={self.theta_R}"
            )
        if not 0.0 < self.sigma < math.inf:
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")
        if not 0.0 < self.P < math.inf:
            raise ConfigError(f"P must be positive and finite, got {self.P}")
        if not 0.0 <= self.channel_noise_var < math.inf:
            raise ConfigError(
                f"channel_noise_var must be nonnegative and finite, got {self.channel_noise_var}"
            )
        omega_cap = 2.0 * math.pi / self.theta_R
        if not 0.0 < self.omega <= omega_cap * (1.0 + 1e-12):
            raise ConfigError(
                f"omega must lie in (0, 2 pi / theta_R] = (0, {omega_cap:.6g}]; got {self.omega}"
            )

    @staticmethod
    def _coerce_model(value) -> NoiseModel:
        if isinstance(value, NoiseModel):
            return value
        try:
            return noise_model(value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def per_sensor_power(self) -> float:
        """rho: transmit power of one sensor under the active budget."""
        if self.power_mode is PowerMode.TOTAL:
            return self.P / self.L
        return self.P

    def with_updates(self, **changes) -> "NetworkConfig":
        return replace(self, **changes)

    def to_json_dict(self) -> dict:
        return {
            "L": self.L,
            "theta": self.theta,
            "theta_R": self.theta_R,
            "sigma": self.sigma,
            "model": self.model.kind,
            "power_mode": self.power_mode.value,
            "P": self.P,
            "channel_noise_var": self.channel_noise_var,
            "omega": self.omega,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "NetworkConfig":
        required = {
            "L", "theta", "theta_R", "sigma", "model",
            "power_mode", "P", "channel_noise_var", "omega",
        }
        missing = required - data.keys()
        if missing:
            raise ConfigError(f"config is missing keys: {sorted(missing)}")
        unknown = data.keys() - (required | {"seed"})
        if unknown:
            raise ConfigError(f"config has unknown keys: {sorted(unknown)}")
        return cls(
            L=data["L"],
            theta=float(data["theta"]),
            theta_R=float(data["theta_R"]),
            sigma=float(data["sigma"]),
            model=data["model"],
            power_mode=data["power_mode"],
            P=float(data["P"]),
            channel_noise_var=float(data["channel_noise_var"]),
            omega=float(data["omega"]),
            seed=data.get("seed", 0),
        )


@dataclass(eq=False)
class Snapshot:
    """One received sample: raw y, normalized z, and optionally the
    per-sensor observations x that produced it."""

    y: complex
    z: complex
    x: np.ndarray | None = None


def _normalize_y(y: complex, cfg: NetworkConfig) -> complex:
    if cfg.power_mode is PowerMode.TOTAL:
        return y / math.sqrt(cfg.L)
    return y / cfg.L


def normalize(snapshot, cfg: NetworkConfig) -> complex:
    """Map a received y onto the scale with a deterministic L -> inf limit.

    Accepts a Snapshot or a bare complex y. Total power divides by
    sqrt(L); per-sensor power divides by L.
    """
    y = snapshot.y if isinstance(snapshot, Snapshot) else complex(snapshot)
    return _normalize_y(y, cfg)


def simulate_snapshot(
    cfg: NetworkConfig,
    stream: RandomStream,
    keep_observations: bool = False,
    eta_override: np.ndarray | None = None,
) -> Snapshot:
    """Draw one received sample for cfg from the given stream.

    Consumption order is fixed: the L sensing draws first, then (only if
    channel_noise_var > 0) two normals for the channel noise.
    eta_override injects fixed standardized noise in place of sampling;
    it exists for tests and is never used by production paths.
    """
    if eta_override is not None:
        eta = np.asarray(eta_override, dtype=float)
        if eta.shape != (cfg.L,):
            raise ValueError(f"eta_override must have shape ({cfg.L},), got {eta.shape}")
    else:
        eta = cfg.model.sample(stream, cfg.L)
    x = cfg.theta + cfg.sigma * eta
    phase = cfg.omega * x
    amp = math.sqrt(cfg.per_sensor_power)
    y = amp * complex(np.sum(np.cos(phase)), np.sum(np.sin(phase)))
    if cfg.channel_noise_var > 0.0:
        root = math.sqrt(0.5 * cfg.channel_noise_var)
        g = stream.normal(2)
        y = y + complex(root * g[0], root * g[1])
    return Snapshot(y=y, z=_normalize_y(y, cfg), x=x if keep_observations else None)

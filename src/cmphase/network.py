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
from dataclasses import dataclass, fields

import numpy as np

from .noise import NoiseModel, noise_model
from .numkit import RandomStream, box_muller, buffer_view, real_number, whole_number

__all__ = [
    "PowerMode",
    "ConfigError",
    "NetworkConfig",
    "effective_noise_var",
    "snapshot_uniforms",
    "block_work",
    "simulate_block",
    "simulate_snapshot",
]


class PowerMode(str, enum.Enum):
    TOTAL = "total"
    PER_SENSOR = "per-sensor"


def effective_noise_var(power_mode, channel_noise_var: float) -> float:
    """The channel noise variance the large-L statistics see: all of it
    under the total budget, none under the per-sensor budget, whose 1/L
    normalization scales the channel noise away."""
    return channel_noise_var if PowerMode(power_mode) is PowerMode.TOTAL else 0.0


class ConfigError(ValueError):
    """A NetworkConfig field violates its constraint."""


def _power_mode(value) -> PowerMode:
    try:
        return PowerMode(value)
    except ValueError:
        raise ValueError(f"power_mode must be 'total' or 'per-sensor', got {value!r}") from None


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
        try:
            if not isinstance(self.model, NoiseModel):
                object.__setattr__(self, "model", noise_model(self.model))
            object.__setattr__(self, "power_mode", _power_mode(self.power_mode))
            for name in ("theta", "theta_R", "sigma", "P", "channel_noise_var", "omega"):
                value = real_number(name, getattr(self, name), closed=name == "channel_noise_var")
                object.__setattr__(self, name, value)
            object.__setattr__(self, "L", whole_number("L", self.L, 1))
            object.__setattr__(self, "seed", whole_number("seed", self.seed, 0))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.L >= 2**32:  # substream_states' bound; one float64 per sensor is 32 GiB
            raise ConfigError(f"L must be below 2**32, got {self.L!r}")
        if not self.theta <= self.theta_R:
            raise ConfigError(
                f"theta must lie in (0, theta_R]; got theta={self.theta}, theta_R={self.theta_R}"
            )
        omega_cap = 2.0 * math.pi / self.theta_R
        if not self.omega <= omega_cap * (1.0 + 1e-12):
            raise ConfigError(
                f"omega must lie in (0, 2 pi / theta_R] = (0, {omega_cap:.6g}]; got {self.omega}"
            )

    @property
    def per_sensor_power(self) -> float:
        """rho: transmit power of one sensor under the active budget."""
        if self.power_mode is PowerMode.TOTAL:
            return self.P / self.L
        return self.P

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"model": self.model.kind}

    @classmethod
    def from_json_dict(cls, data: dict) -> "NetworkConfig":
        keys = {f.name for f in fields(cls)}
        missing = keys - {"seed"} - data.keys()
        if missing:
            raise ConfigError(f"config is missing keys: {sorted(missing)}")
        unknown = data.keys() - keys
        if unknown:
            raise ConfigError(f"config has unknown keys: {sorted(unknown)}")
        return cls(**data)


def _divisor(cfg: NetworkConfig) -> float:
    """z = y / _divisor(cfg): sqrt(L) under the total budget, L per sensor."""
    if cfg.power_mode is PowerMode.TOTAL:
        return math.sqrt(cfg.L)
    return cfg.L


def snapshot_uniforms(cfg: NetworkConfig) -> int:
    """Uniforms one snapshot consumes, in this order: the L sensing draws,
    then (only if channel_noise_var > 0) two normals for the channel
    noise."""
    channel = 2 if cfg.channel_noise_var > 0.0 else 0
    return cfg.model.uniforms_needed(cfg.L) + channel


def block_work(cfg: NetworkConfig, rows: int) -> np.ndarray:
    """Scratch for simulate_block on up to rows snapshots: two flat arrays
    of rows * L float64 (L rounded up to even for the Gaussian pairs)."""
    return np.empty((2, rows * (cfg.L + cfg.L % 2)))


def simulate_block(
    cfg: NetworkConfig, u: np.ndarray, work: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Received samples (y, z), each a complex array of shape (B,), one
    per row of u, a (B, snapshot_uniforms(cfg)) block of uniforms laid
    out in each snapshot's consumption order. Every (B, L) intermediate
    is formed in work (block_work(cfg, rows), rows >= B) or a new one."""
    n = snapshot_uniforms(cfg)
    if u.ndim != 2 or u.shape[1] != n:
        raise ValueError(f"uniform block must have shape (B, {n}), got {u.shape}")
    if work is None:
        work = block_work(cfg, len(u))
    k = cfg.model.uniforms_needed(cfg.L)
    eta = cfg.model.from_uniforms(u[:, :k], cfg.L, work)
    channel = box_muller(u[:, k:]) if cfg.channel_noise_var > 0.0 else None
    return _received(cfg, eta, channel, buffer_view(work[1], eta.shape))


def _received(
    cfg: NetworkConfig, eta: np.ndarray, channel: np.ndarray | None, trig: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(y, z) from standardized sensing noise eta, shape (B, L), and, for
    a noisy channel, standard normal pairs channel, shape (B, 2).

    The phase overwrites eta, and trig (float64, eta's shape) takes the
    cosines, then the sines.

    y and z are built as (B, 2) arrays of real and imaginary parts by
    real operations, then viewed as complex. For finite values these give
    the bits of Python's complex arithmetic (sqrt(rho) * complex,
    + complex, / divisor), whose zero imaginary operands only add exact
    zeros; numpy's complex division rounds differently.
    """
    # omega (theta + sigma eta), one rounding per step as written.
    phase = np.multiply(eta, cfg.sigma, out=eta)
    phase += cfg.theta
    phase *= cfg.omega
    y = np.empty((len(phase), 2))
    y[:, 0] = np.cos(phase, out=trig).sum(axis=-1)
    y[:, 1] = np.sin(phase, out=trig).sum(axis=-1)
    y *= math.sqrt(cfg.per_sensor_power)
    if channel is not None:
        y += math.sqrt(0.5 * cfg.channel_noise_var) * channel
    z = y / _divisor(cfg)
    return y.view(complex)[:, 0], z.view(complex)[:, 0]


def simulate_snapshot(cfg: NetworkConfig, stream: RandomStream) -> tuple[complex, complex]:
    """The received sample (y, z) for cfg, raw and normalized, drawn from
    the first snapshot_uniforms(cfg) uniforms of stream: the block of
    one. A phase past the float range gives a NaN z, without numpy's
    warnings."""
    u = stream.uniform(snapshot_uniforms(cfg))
    with np.errstate(over="ignore", invalid="ignore"):
        y, z = simulate_block(cfg, u[np.newaxis])
    return complex(y[0]), complex(z[0])

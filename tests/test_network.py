"""Tests for configuration validation and channel simulation."""

import cmath
import math

import numpy as np
import pytest

from cmphase.network import (
    ConfigError,
    NetworkConfig,
    PowerMode,
    Snapshot,
    normalize,
    simulate_snapshot,
)
from cmphase.noise import GAUSSIAN, LAPLACE
from cmphase.numkit import RandomStream


def make_config(**overrides):
    base = dict(
        L=50,
        theta=1.0,
        theta_R=2.0 * math.pi,
        sigma=1.0,
        model="gaussian",
        power_mode="total",
        P=1.0,
        channel_noise_var=1.0,
        omega=0.5,
        seed=0,
    )
    base.update(overrides)
    return NetworkConfig(**base)


class TestNetworkConfig:
    def test_coercions(self):
        cfg = make_config(model="laplace", power_mode="per-sensor", L=10.0)
        assert cfg.model is LAPLACE
        assert cfg.power_mode is PowerMode.PER_SENSOR
        assert cfg.L == 10 and isinstance(cfg.L, int)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"L": 0},
            {"theta": 0.0},
            {"theta": -1.0},
            {"theta": 7.0, "theta_R": 6.0},
            {"theta_R": 0.0},
            {"sigma": 0.0},
            {"P": 0.0},
            {"channel_noise_var": -0.1},
            {"channel_noise_var": math.nan},
            {"omega": 0.0},
            {"omega": 6.4},  # above 2 pi / theta_R with theta_R = 2 pi -> cap 1.0
            {"model": "poisson"},
            {"power_mode": "shared"},
        ],
        ids=str,
    )
    def test_rejections(self, overrides):
        if "omega" in overrides and overrides["omega"] == 6.4:
            overrides = dict(overrides, theta=1.0, theta_R=2.0 * math.pi)
        with pytest.raises(ConfigError):
            make_config(**overrides)

    def test_omega_cap_scales_with_theta_range(self):
        # theta_R = pi allows omega up to 2
        cfg = make_config(theta_R=math.pi, theta=1.0, omega=2.0)
        assert cfg.omega == 2.0
        with pytest.raises(ConfigError):
            make_config(theta_R=math.pi, theta=1.0, omega=2.0001)

    def test_per_sensor_power(self):
        assert make_config(P=5.0, L=25).per_sensor_power == 0.2
        assert make_config(P=5.0, L=25, power_mode="per-sensor").per_sensor_power == 5.0

    def test_with_updates(self):
        cfg = make_config()
        other = cfg.with_updates(sigma=2.0)
        assert other.sigma == 2.0 and cfg.sigma == 1.0
        assert other.L == cfg.L

    def test_json_round_trip(self):
        cfg = make_config(model="cauchy", power_mode="per-sensor", seed=7)
        data = cfg.to_json_dict()
        assert data["model"] == "cauchy"
        assert data["power_mode"] == "per-sensor"
        assert NetworkConfig.from_json_dict(data) == cfg

    def test_json_missing_key(self):
        data = make_config().to_json_dict()
        del data["sigma"]
        with pytest.raises(ConfigError, match="missing"):
            NetworkConfig.from_json_dict(data)

    def test_json_unknown_key(self):
        data = make_config().to_json_dict()
        data["snr"] = 1.0
        with pytest.raises(ConfigError, match="unknown"):
            NetworkConfig.from_json_dict(data)

    def test_json_seed_optional(self):
        data = make_config().to_json_dict()
        del data["seed"]
        assert NetworkConfig.from_json_dict(data).seed == 0


class TestNormalize:
    def test_total_power_scales_by_sqrt_l(self):
        cfg = make_config(L=16)
        assert normalize(4.0 + 8.0j, cfg) == 1.0 + 2.0j

    def test_per_sensor_power_scales_by_l(self):
        cfg = make_config(L=16, power_mode="per-sensor")
        assert normalize(4.0 + 8.0j, cfg) == 0.25 + 0.5j

    def test_accepts_snapshot(self):
        cfg = make_config(L=4)
        snap = Snapshot(y=2.0 + 0.0j, z=0.0j)
        assert normalize(snap, cfg) == 1.0 + 0.0j


class TestSimulateSnapshot:
    def test_hand_computed_clean_channel(self):
        """With pinned noise draws and no channel noise, y is the exact
        coherent sum of the three unit-power phasors."""
        cfg = make_config(L=3, channel_noise_var=0.0, power_mode="per-sensor", P=4.0)
        eta = np.array([0.1, -0.2, 0.3])
        snap = simulate_snapshot(cfg, RandomStream(0), eta_override=eta)
        expected = 2.0 * sum(
            cmath.exp(1j * cfg.omega * (cfg.theta + cfg.sigma * e)) for e in eta
        )
        np.testing.assert_allclose(
            [snap.y.real, snap.y.imag], [expected.real, expected.imag], rtol=1e-14
        )
        np.testing.assert_allclose(
            [snap.z.real, snap.z.imag],
            [expected.real / 3.0, expected.imag / 3.0],
            rtol=1e-14,
        )

    def test_reproducible(self):
        cfg = make_config()
        a = simulate_snapshot(cfg, RandomStream(5))
        b = simulate_snapshot(cfg, RandomStream(5))
        assert a.y == b.y and a.z == b.z

    def test_draw_order_is_sensing_then_channel(self):
        """y must be reconstructible from the documented stream layout:
        L sensing draws first, then two channel normals."""
        cfg = make_config(L=20, model="laplace", channel_noise_var=0.7)
        snap = simulate_snapshot(cfg, RandomStream(9))

        stream = RandomStream(9)
        eta = cfg.model.sample(stream, cfg.L)
        g = stream.normal(2)
        phase = cfg.omega * (cfg.theta + cfg.sigma * eta)
        amp = math.sqrt(cfg.per_sensor_power)
        y = amp * complex(np.sum(np.cos(phase)), np.sum(np.sin(phase)))
        y += math.sqrt(0.35) * complex(g[0], g[1])
        np.testing.assert_allclose([snap.y.real, snap.y.imag], [y.real, y.imag], rtol=1e-14)

    def test_clean_channel_consumes_no_channel_draws(self):
        cfg = make_config(L=8, channel_noise_var=0.0)
        s1 = RandomStream(2)
        simulate_snapshot(cfg, s1)
        s2 = RandomStream(2)
        GAUSSIAN.sample(s2, 8)
        np.testing.assert_array_equal(s1.uniform(4), s2.uniform(4))

    def test_keep_observations(self):
        cfg = make_config(L=6, channel_noise_var=0.0)
        eta = np.linspace(-1.0, 1.0, 6)
        snap = simulate_snapshot(cfg, RandomStream(0), keep_observations=True, eta_override=eta)
        np.testing.assert_allclose(snap.x, cfg.theta + cfg.sigma * eta, rtol=1e-15)
        assert simulate_snapshot(cfg, RandomStream(0), eta_override=eta).x is None

    def test_eta_override_shape_checked(self):
        cfg = make_config(L=4)
        with pytest.raises(ValueError, match="shape"):
            simulate_snapshot(cfg, RandomStream(0), eta_override=np.zeros(3))

    def test_channel_noise_variance(self):
        """Real and imaginary noise parts each carry noise_var / 2."""
        cfg = make_config(L=1, channel_noise_var=0.8, power_mode="per-sensor")
        clean = cmath.exp(1j * cfg.omega * cfg.theta)
        root = RandomStream(13)
        parts = np.array(
            [
                [
                    (s := simulate_snapshot(cfg, root.substream(t), eta_override=np.zeros(1))).y.real
                    - clean.real,
                    s.y.imag - clean.imag,
                ]
                for t in range(4000)
            ]
        )
        np.testing.assert_allclose(parts.var(axis=0), [0.4, 0.4], rtol=0.1)
        np.testing.assert_allclose(parts.mean(axis=0), [0.0, 0.0], atol=0.05)

    def test_large_l_concentration(self):
        """With a clean channel, z approaches sqrt(P) e^{j omega theta}
        phi(sigma omega) as L grows (law of large numbers)."""
        cfg = make_config(L=20_000, channel_noise_var=0.0, omega=0.8)
        snap = simulate_snapshot(cfg, RandomStream(21))
        target = (
            math.sqrt(cfg.P)
            * cmath.exp(1j * cfg.omega * cfg.theta)
            * cfg.model.char_fn(cfg.sigma, cfg.omega)
        )
        assert abs(snap.z - target) < 0.02

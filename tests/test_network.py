"""Tests for configuration validation and channel simulation."""

import cmath
import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from cmphase import network
from cmphase.network import (
    ConfigError,
    NetworkConfig,
    PowerMode,
    block_work,
    simulate_block,
    simulate_snapshot,
    snapshot_uniforms,
)
from cmphase.noise import GAUSSIAN, LAPLACE
from cmphase.numkit import RandomStream, box_muller, uniforms_from_states


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


# Inputs that used to be accepted: inf sigma gave a NaN snapshot, L was
# truncated by int() and a negative seed failed later inside numpy.
NON_FINITE_OR_NON_INTEGRAL = [
    {"sigma": math.inf},
    {"P": math.inf},
    {"channel_noise_var": math.inf},
    {"L": 2.7},
    {"L": True},
    {"seed": -1},
]


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
            {"L": 2**32},  # past substream_states' bound; nothing is allocated
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

    @pytest.mark.parametrize("overrides", NON_FINITE_OR_NON_INTEGRAL, ids=str)
    def test_rejects_non_finite_or_non_integral(self, overrides):
        with pytest.raises(ConfigError):
            make_config(**overrides)

    @pytest.mark.parametrize("overrides", NON_FINITE_OR_NON_INTEGRAL, ids=str)
    def test_json_rejects_non_finite_or_non_integral(self, overrides):
        data = make_config().to_json_dict()
        data.update(overrides)
        with pytest.raises(ConfigError):
            NetworkConfig.from_json_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [("sigma", None), ("theta", "1.0"), ("P", [1.0]), ("channel_noise_var", False),
         ("omega", True), ("theta_R", {"v": 1.0})],
        ids=str,
    )
    def test_json_rejects_non_numbers(self, key, value):
        """None, strings, lists and bools raised TypeError (or passed
        through float()); each is a ConfigError naming its key."""
        data = make_config().to_json_dict()
        data[key] = value
        with pytest.raises(ConfigError, match=key):
            NetworkConfig.from_json_dict(data)

    @pytest.mark.parametrize(
        "copy_of",
        [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_copies_keep_the_model_singleton(self, copy_of):
        """A pickled or deep-copied config equals its original: the model
        comes back as its module singleton, not as a copy."""
        cfg = make_config()
        got = copy_of(cfg)
        assert got == cfg and got.model is GAUSSIAN

    def test_real_fields_stored_as_floats(self):
        cfg = make_config(theta=np.float32(1.0), P=2, channel_noise_var=np.int64(0))
        assert all(type(getattr(cfg, k)) is float for k in ("theta", "P", "channel_noise_var"))

    def test_integer_fields_accept_numpy_integers(self):
        cfg = make_config(L=np.int64(20), seed=np.int32(3))
        assert (cfg.L, cfg.seed) == (20, 3)
        assert type(cfg.L) is int and type(cfg.seed) is int

    def test_omega_cap_scales_with_theta_range(self):
        # theta_R = pi allows omega up to 2
        cfg = make_config(theta_R=math.pi, theta=1.0, omega=2.0)
        assert cfg.omega == 2.0
        with pytest.raises(ConfigError):
            make_config(theta_R=math.pi, theta=1.0, omega=2.0001)

    def test_per_sensor_power(self):
        assert make_config(P=5.0, L=25).per_sensor_power == 0.2
        assert make_config(P=5.0, L=25, power_mode="per-sensor").per_sensor_power == 5.0

    def test_replace_revalidates(self):
        """dataclasses.replace keeps the other fields and runs the checks."""
        cfg = make_config()
        other = dataclasses.replace(cfg, sigma=2.0)
        assert other.sigma == 2.0 and cfg.sigma == 1.0
        assert dataclasses.replace(other, sigma=1.0) == cfg
        with pytest.raises(ConfigError, match="sigma"):
            dataclasses.replace(cfg, sigma=-1.0)

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


class TestSimulateSnapshot:
    def test_hand_computed_clean_channel(self):
        """With pinned noise draws and no channel noise, y is the exact
        coherent sum of the three unit-power phasors."""
        cfg = make_config(L=3, channel_noise_var=0.0, power_mode="per-sensor", P=4.0)
        eta = np.array([0.1, -0.2, 0.3])
        y, z = network._received(cfg, eta.copy()[np.newaxis], None, np.empty((1, 3)))
        expected = 2.0 * sum(
            cmath.exp(1j * cfg.omega * (cfg.theta + cfg.sigma * e)) for e in eta
        )
        np.testing.assert_allclose(
            [y[0].real, y[0].imag], [expected.real, expected.imag], rtol=1e-14
        )
        np.testing.assert_allclose(
            [z[0].real, z[0].imag],
            [expected.real / 3.0, expected.imag / 3.0],
            rtol=1e-14,
        )

    def test_reproducible(self):
        cfg = make_config()
        assert simulate_snapshot(cfg, RandomStream(5)) == simulate_snapshot(cfg, RandomStream(5))

    def test_draw_order_is_sensing_then_channel(self):
        """y must be reconstructible from the documented stream layout:
        L sensing draws first, then two channel normals."""
        cfg = make_config(L=20, model="laplace", channel_noise_var=0.7)
        got, _ = simulate_snapshot(cfg, RandomStream(9))

        u = RandomStream(9).uniform(snapshot_uniforms(cfg))
        k = cfg.model.uniforms_needed(cfg.L)
        eta = cfg.model.from_uniforms(u[:k], cfg.L, np.empty((2, k)))
        g = box_muller(u[k:])
        phase = cfg.omega * (cfg.theta + cfg.sigma * eta)
        amp = math.sqrt(cfg.per_sensor_power)
        y = amp * complex(np.sum(np.cos(phase)), np.sum(np.sin(phase)))
        y += math.sqrt(0.35) * complex(g[0], g[1])
        np.testing.assert_allclose([got.real, got.imag], [y.real, y.imag], rtol=1e-14)

    def test_clean_channel_consumes_no_channel_draws(self):
        cfg = make_config(L=8, channel_noise_var=0.0)
        assert snapshot_uniforms(cfg) == GAUSSIAN.uniforms_needed(8) == 8
        snap = simulate_snapshot(cfg, RandomStream(2))
        eta = GAUSSIAN.from_uniforms(RandomStream(2).uniform(8), 8, np.empty((2, 8)))
        y, z = network._received(cfg, eta[np.newaxis], None, np.empty((1, 8)))
        assert snap == (y[0], z[0])

    def test_block_shape_checked(self):
        cfg = make_config(L=4)
        assert snapshot_uniforms(cfg) == 6
        for shape in [(2, 5), (2, 7), (6,)]:
            with pytest.raises(ValueError, match="shape"):
                simulate_block(cfg, np.zeros(shape))

    def test_block_rows_are_snapshots(self):
        """Row t of a block holds the uniforms of numpy's generator for
        substream t and gives that stream's snapshot."""
        cfg = make_config(L=5, model="laplace", channel_noise_var=0.4)
        root = RandomStream(4)
        n = snapshot_uniforms(cfg)
        u = uniforms_from_states(root.substream_states(3), n)
        y, z = simulate_block(cfg, u)
        assert y.shape == z.shape == (3,)
        for t in range(3):
            seq = np.random.SeedSequence(entropy=4, spawn_key=(t,))
            np.testing.assert_array_equal(u[t], np.random.Generator(np.random.PCG64(seq)).random(n))
            assert (y[t], z[t]) == simulate_snapshot(cfg, root.substream(t))

    def test_channel_noise_variance(self):
        """Real and imaginary noise parts each carry noise_var / 2."""
        cfg = make_config(L=1, channel_noise_var=0.8, power_mode="per-sensor")
        clean = cmath.exp(1j * cfg.omega * cfg.theta)
        root = RandomStream(13)
        channel = box_muller(uniforms_from_states(root.substream_states(4000), 2))
        y, _ = network._received(cfg, np.zeros((4000, 1)), channel, np.empty((4000, 1)))
        parts = np.stack([y.real - clean.real, y.imag - clean.imag], axis=-1)
        np.testing.assert_allclose(parts.var(axis=0), [0.4, 0.4], rtol=0.1)
        np.testing.assert_allclose(parts.mean(axis=0), [0.0, 0.0], atol=0.05)

    def test_large_l_concentration(self):
        """With a clean channel, z approaches sqrt(P) e^{j omega theta}
        phi(sigma omega) as L grows (law of large numbers)."""
        cfg = make_config(L=20_000, channel_noise_var=0.0, omega=0.8)
        _, z = simulate_snapshot(cfg, RandomStream(21))
        target = (
            math.sqrt(cfg.P)
            * cmath.exp(1j * cfg.omega * cfg.theta)
            * cfg.model.char_fn(cfg.sigma, cfg.omega)
        )
        assert abs(z - target) < 0.02


def block_uniforms(cfg, trials):
    n = snapshot_uniforms(cfg)
    return uniforms_from_states(RandomStream(cfg.seed).substream_states(trials), n)


class TestBlockBuffers:
    """simulate_block given reused buffers against simulate_block without."""

    @pytest.mark.parametrize("model", ["gaussian", "laplace", "cauchy"])
    @pytest.mark.parametrize("power_mode", ["total", "per-sensor"])
    @pytest.mark.parametrize("nv", [0.0, 0.6])
    @pytest.mark.parametrize("L", [1, 6, 7])
    def test_matches_the_unbuffered_block(self, model, power_mode, nv, L):
        """Bit for bit, for a full block and for a partial last block in
        the leading rows of the same buffers, which held NaN at first;
        odd L truncates the Gaussian pairs. u is left as it was."""
        cfg = make_config(model=model, power_mode=power_mode, channel_noise_var=nv, L=L, seed=6)
        u = block_uniforms(cfg, 9)
        kept = u.copy()
        expected = simulate_block(cfg, u)
        work = np.full(block_work(cfg, 5).shape, np.nan)
        for rows in (slice(0, 5), slice(5, 9)):
            got = simulate_block(cfg, u[rows], work)
            np.testing.assert_array_equal(got[0], expected[0][rows])
            np.testing.assert_array_equal(got[1], expected[1][rows])
        np.testing.assert_array_equal(u, kept)

    def test_no_stale_values_across_configs(self):
        """One work array serves two configs in a row, the second with a
        different family, L, channel and block size, and each result
        equals a fresh call: nothing the first block left is read."""
        first = make_config(model="gaussian", L=9, channel_noise_var=0.5, seed=1)
        second = make_config(model="laplace", L=4, channel_noise_var=0.0, sigma=2.0, seed=2)
        work = np.full(block_work(first, 6).shape, np.nan)
        for cfg, trials in ((first, 6), (second, 11), (first, 3)):
            u = block_uniforms(cfg, trials)
            expected = simulate_block(cfg, u)
            got = simulate_block(cfg, u, work)
            np.testing.assert_array_equal(got[1], expected[1])
            np.testing.assert_array_equal(got[0], expected[0])

    def test_too_small_work_refused(self):
        cfg = make_config(L=6)
        with pytest.raises(ValueError):
            simulate_block(cfg, block_uniforms(cfg, 4), block_work(cfg, 3))

"""Tests for repro.fabric.variation."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.fabric import make_device
from repro.fabric.variation import (
    VariationConfig,
    _gaussian_filter_nearest,
    generate_variation_field,
)


def _field(rows=48, cols=48, seed=0, **kw):
    return generate_variation_field(
        rows, cols, VariationConfig(**kw), np.random.default_rng(seed)
    )


class TestGeneration:
    def test_shape(self):
        f = _field(32, 40)
        assert f.shape == (32, 40)

    def test_centered_near_one(self):
        f = _field()
        assert abs(f.factors.mean() - 1.0) < 0.02

    def test_deterministic_per_seed(self):
        assert np.array_equal(_field(seed=3).factors, _field(seed=3).factors)

    def test_different_seeds_differ(self):
        assert not np.array_equal(_field(seed=3).factors, _field(seed=4).factors)

    def test_floor_clip(self):
        f = _field(white_sigma=0.4, systematic_amplitude=0.5, correlated_sigma=0.4)
        assert f.factors.min() >= 0.5

    def test_zero_config_gives_flat_field(self):
        f = _field(systematic_amplitude=0.0, correlated_sigma=0.0, white_sigma=0.0)
        assert np.allclose(f.factors, 1.0)

    def test_systematic_creates_spatial_trend(self):
        f = _field(systematic_amplitude=0.1, correlated_sigma=0.0, white_sigma=0.0)
        # A smooth polynomial surface: neighbouring LEs nearly equal.
        diffs = np.abs(np.diff(f.factors, axis=0))
        assert diffs.max() < 0.02

    def test_white_noise_is_rough(self):
        f = _field(systematic_amplitude=0.0, correlated_sigma=0.0, white_sigma=0.05)
        diffs = np.abs(np.diff(f.factors, axis=0))
        assert diffs.mean() > 0.02

    def test_invalid_grid_rejected(self):
        with pytest.raises(ConfigError):
            generate_variation_field(0, 5, VariationConfig(), np.random.default_rng(0))


class TestConfigValidation:
    def test_negative_amplitude_rejected(self):
        with pytest.raises(ConfigError):
            VariationConfig(systematic_amplitude=-0.1)

    def test_zero_correlation_length_rejected(self):
        with pytest.raises(ConfigError):
            VariationConfig(correlation_length=0.0)

    def test_zero_order_rejected(self):
        with pytest.raises(ConfigError):
            VariationConfig(polynomial_order=0)


class TestFieldQueries:
    def test_factor_at_matches_array(self):
        f = _field()
        assert f.factor_at(5, 7) == f.factors[7, 5]

    def test_window_extracts_region(self):
        f = _field()
        w = f.window(4, 6, 10, 8)
        assert w.shape == (8, 10)
        assert np.array_equal(w, f.factors[6:14, 4:14])

    def test_window_out_of_bounds_rejected(self):
        f = _field(16, 16)
        with pytest.raises(ConfigError):
            f.window(10, 10, 10, 10)

    def test_summary_keys(self):
        s = _field().summary()
        assert {"mean", "std", "min", "max", "corner_to_corner"} <= set(s)
        assert s["min"] <= s["mean"] <= s["max"]


class TestGoldenField:
    """The die identity every pinned artefact depends on.

    Digests of ``make_device(serial).variation.factors`` recorded while the
    field was still smoothed by ``scipy.ndimage.gaussian_filter``; the numpy
    filter must reproduce them byte for byte.
    """

    GOLDEN = {
        0: "cc11ef4a0aeeefd5a070ced10d9eabf0c398a6c2a61f8026b845a8b7454331b8",
        42: "cccea4bef3efd8074f09e20516204db7a945edf3b35c3453d7aacfc743a1d5a0",
        12345: "1a3d677285fcec45b73622a7b845cd54f99800f9b6448f9b49c6c490edfb60f6",
    }

    @pytest.mark.parametrize("serial", sorted(GOLDEN))
    def test_field_bytes_pinned(self, serial):
        factors = make_device(serial=serial).variation.factors
        assert hashlib.sha256(factors.tobytes()).hexdigest() == self.GOLDEN[serial]


class TestGaussianFilter:
    # sigma 2.5 / 8.0 / 13.7 give radii 10 / 32 / 55: longer than most axes
    # here, so the edge replication reaches across the whole axis.
    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 7), (6, 1), (3, 5), (40, 33), (120, 128), (200, 300)]
    )
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5, 8.0, 13.7])
    def test_bit_identical_to_scipy(self, shape, sigma):
        ndimage = pytest.importorskip("scipy.ndimage")
        x = np.random.default_rng(sum(shape)).normal(size=shape)
        expected = ndimage.gaussian_filter(x, sigma, mode="nearest")
        assert np.array_equal(_gaussian_filter_nearest(x, sigma), expected)

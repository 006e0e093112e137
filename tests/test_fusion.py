import numpy as np
import pytest

from dahyf.fusion import (
    assemble_dahyf,
    pe_normalize,
    pool_feature_map,
    positional_encode,
)


class TestNormalize:
    def test_patch_center_maps_to_zero(self):
        got = pe_normalize(np.array([[112.0, 112.0]]), 224, 800.0)
        np.testing.assert_array_equal(got, [[0.0, 0.0]])

    def test_corner_pair(self):
        got = pe_normalize(np.array([[0.0, 224.0]]), 224, 800.0)
        np.testing.assert_allclose(got, [[-0.14, 0.14]], atol=1e-12)

    def test_unit_focal_is_centered_pixels(self):
        pts = np.array([[10.0, 300.0]])
        np.testing.assert_array_equal(pe_normalize(pts, 224, 1.0), pts - 112.0)

    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError):
            pe_normalize(np.zeros((21, 2)), 224, 0.0)


class TestPositionalEncode:
    def test_zero_input(self):
        got = positional_encode(np.array([0.0]), 4)
        np.testing.assert_array_equal(got, [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_quarter(self):
        # sin/cos at multiples of pi/2: (1, 0, 0, -1, 0, 1, 0, 1)
        got = positional_encode(np.array([0.25]), 4)
        np.testing.assert_allclose(got, [1.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0, 1.0], atol=1e-12)

    def test_full_hand_vector_length(self):
        mu = pe_normalize(np.zeros((21, 2)), 224, 800.0)
        assert positional_encode(mu, 4).size == 336

    def test_length_formula_all_l(self):
        for octaves in range(1, 7):
            assert positional_encode(np.zeros((21, 2)), octaves).size == 2 * 21 * 2 * octaves

    def test_range_bound(self, rng):
        values = positional_encode(rng.uniform(-3, 3, size=(21, 2)), 4)
        assert np.all(values >= -1.0) and np.all(values <= 1.0)

    def test_odd_even_symmetry(self, rng):
        p = rng.uniform(-0.5, 0.5, size=(7, 2))
        plus = positional_encode(p, 4).reshape(7, 2, 4, 2)
        minus = positional_encode(-p, 4).reshape(7, 2, 4, 2)
        np.testing.assert_allclose(minus[..., 0], -plus[..., 0], atol=1e-12)  # sin flips
        np.testing.assert_allclose(minus[..., 1], plus[..., 1], atol=1e-12)   # cos holds

    def test_injective_on_base_period(self):
        # grid search for collisions at 1e-3 resolution on (-0.5, 0.5)
        grid = np.arange(-0.4995, 0.4996, 1e-3)
        enc = np.stack([np.sin(2 * np.pi * grid), np.cos(2 * np.pi * grid)], axis=1)
        d = np.linalg.norm(enc[:, None, :] - enc[None, :, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 1e-6

    def test_flattening_order_documented(self):
        # joint-major, axis, octave, (sin, cos)
        mu = np.array([[0.25, 0.0]])
        flat = positional_encode(mu, 2)
        np.testing.assert_allclose(
            flat,
            [np.sin(np.pi / 2), np.cos(np.pi / 2), np.sin(np.pi), np.cos(np.pi), 0, 1, 0, 1],
            atol=1e-12,
        )

    def test_rejects_bad_octaves(self):
        with pytest.raises(ValueError):
            positional_encode(np.zeros(2), 0)


class TestAssemble:
    def test_lengths_add(self, rng):
        v = assemble_dahyf(rng.normal(size=2048), rng.normal(size=336))
        assert v.size == 2384

    def test_empty_feature_vector(self):
        pe = np.arange(8.0)
        np.testing.assert_array_equal(assemble_dahyf(np.zeros(0), pe), pe)

    def test_slice_recovers_parts(self, rng):
        fm = rng.normal(size=64)
        pe = rng.normal(size=336)
        v = assemble_dahyf(fm, pe)
        assert v[:64].tobytes() == fm.tobytes()
        assert v[64:].tobytes() == pe.tobytes()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            assemble_dahyf(np.array([np.nan]), np.zeros(4))


class TestPooling:
    def test_mean_and_max(self):
        fm = np.stack([np.full((2, 2), 3.0), np.array([[1.0, 2.0], [3.0, 10.0]])])
        np.testing.assert_array_equal(pool_feature_map(fm, "mean"), [3.0, 4.0])
        np.testing.assert_array_equal(pool_feature_map(fm, "max"), [3.0, 10.0])

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            pool_feature_map(np.zeros((2, 2, 2)), "median")

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            pool_feature_map(np.zeros((2, 2)), "mean")

import numpy as np
import pytest

from dahyf.codec import CodecConfig, decode_soft_argmax, encode_labels, log_probs


CFG = CodecConfig()


class TestConfig:
    def test_default_bin_count(self):
        assert CFG.n_bins == 672

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            CodecConfig(scale=0)
        with pytest.raises(ValueError):
            CodecConfig(sigma_bins=0.0)
        with pytest.raises(ValueError):
            CodecConfig(net_size=-224)

    def test_dict_roundtrip(self):
        cfg = CodecConfig(net_size=128, scale=2, sigma_bins=4.5)
        assert CodecConfig.from_dict(cfg.to_dict()) == cfg


class TestEncode:
    def test_interior_peak_and_symmetry(self):
        targets = encode_labels(np.array([[100.0, 100.0]]), CFG)
        dist = targets[0, 0]
        assert int(np.argmax(dist)) == 300
        # symmetric about the peak; oracle checks mirrored weights pairwise
        for k in range(1, 20):
            np.testing.assert_allclose(dist[300 - k], dist[300 + k], rtol=1e-12)

    def test_boundary_truncation(self):
        dist = encode_labels(np.array([[0.0, 0.0]]), CFG)[0, 0]
        assert int(np.argmax(dist)) == 0
        assert np.all(np.diff(dist) <= 0)  # half-Gaussian decays from bin 0

    def test_delta_limit(self):
        cfg = CodecConfig(sigma_bins=1e-6)
        dist = encode_labels(np.array([[100.0, 57.0]]), cfg)[0, 0]
        assert dist[300] == pytest.approx(1.0)
        assert dist.sum() == pytest.approx(1.0)

    def test_normalization_everywhere(self, rng):
        joints = np.column_stack(
            [rng.uniform(-50, 274, 64), rng.uniform(-50, 274, 64)]
        )
        targets = encode_labels(joints, CFG)
        np.testing.assert_allclose(targets.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(targets >= 0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            encode_labels(np.array([[np.inf, 0.0]]), CFG)
        with pytest.raises(ValueError):
            encode_labels(np.zeros((21, 3)), CFG)


class TestDecode:
    def test_one_hot_spike(self):
        logits = np.zeros((1, 2, CFG.n_bins))
        logits[0, :, 300] = 50.0  # 50-nat margin over the rest
        got = decode_soft_argmax(logits, CFG)
        np.testing.assert_allclose(got, [[100.0, 100.0]], atol=1e-6)

    def test_uniform_logits(self):
        got = decode_soft_argmax(np.zeros((1, 2, CFG.n_bins)), CFG)
        np.testing.assert_allclose(got, (CFG.n_bins - 1) / 2.0 / CFG.scale, atol=1e-12)
        assert got[0, 0] == pytest.approx(111.83333333333333)

    def test_roundtrip_recovers_interior_coordinates(self, rng):
        coords = rng.uniform(8.0, 216.0, size=(128, 2))
        decoded = decode_soft_argmax(log_probs(encode_labels(coords, CFG)), CFG)
        assert np.abs(decoded - coords).max() < 1e-3

    def test_roundtrip_against_discrete_mean_oracle(self):
        # brute-force oracle: expectation of the normalized Gaussian weights
        c = 123.456
        bins = np.arange(CFG.n_bins)
        w = np.exp(-((bins - c * CFG.scale) ** 2) / (2 * CFG.sigma_bins**2))
        oracle = float((bins * w).sum() / w.sum()) / CFG.scale
        decoded = decode_soft_argmax(log_probs(encode_labels(np.array([[c, c]]), CFG)), CFG)
        np.testing.assert_allclose(decoded, oracle, atol=1e-9)

    def test_boundary_bias_bounded_by_sigma(self):
        # truncation pulls the mean inward by at most sigma_bins / scale px
        for c in (0.0, 1.0, 223.0, 224.0):
            decoded = decode_soft_argmax(log_probs(encode_labels(np.array([[c, c]]), CFG)), CFG)
            assert np.abs(decoded - c).max() <= CFG.sigma_bins / CFG.scale

    def test_shift_invariance_per_axis(self, rng):
        logits = rng.normal(size=(21, 2, CFG.n_bins))
        shifted = logits + rng.normal(size=(21, 2, 1))  # constant per axis
        np.testing.assert_allclose(
            decode_soft_argmax(shifted, CFG), decode_soft_argmax(logits, CFG), atol=1e-9
        )

    def test_quantization_bound_hard_argmax(self):
        # one-hot targets at the nearest bin: worst case error is 1/(2s) over
        # the representable range [0, (n_bins - 1) / s]
        coords = np.arange(0.0, (CFG.n_bins - 1) / CFG.scale, 0.007)
        nearest = np.clip(np.round(coords * CFG.scale), 0, CFG.n_bins - 1)
        err = np.abs(nearest / CFG.scale - coords)
        assert err.max() <= 1.0 / (2 * CFG.scale) + 1e-9
        # the decoder reproduces exactly that bin for spiked logits
        sweep = (13.3, 60.49, 150.6, 223.4)
        logits = np.full((4, 2, CFG.n_bins), -40.0)
        for row, c in enumerate(sweep):
            logits[row, :, int(round(c * CFG.scale))] = 40.0
        got = decode_soft_argmax(logits, CFG)
        expected = np.round(np.array(sweep) * 3) / 3
        np.testing.assert_allclose(got, np.column_stack([expected, expected]), atol=1e-6)

    def test_rejects_nan_and_shape_mismatch(self):
        with pytest.raises(ValueError):
            decode_soft_argmax(np.zeros((1, 2, 10)), CFG)
        bad = np.zeros((1, 2, CFG.n_bins))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            decode_soft_argmax(bad, CFG)

    def test_rejects_plus_inf(self):
        bad = np.zeros((1, 2, CFG.n_bins))
        bad[0, 1, 7] = np.inf
        with pytest.raises(ValueError, match="NaN or \\+inf"):
            decode_soft_argmax(bad, CFG)

    def test_all_minus_inf_row_is_an_error(self):
        # a single -inf bin is legal; a row with no finite logit has no
        # distribution, and used to decode to NaN with only a warning
        logits = np.zeros((3, 2, CFG.n_bins))
        logits[0, 0, :5] = -np.inf
        assert np.all(np.isfinite(decode_soft_argmax(logits, CFG)))
        logits[2, 1] = -np.inf
        with pytest.raises(ValueError, match=r"\(joint 2, axis 1\) is all -inf"):
            decode_soft_argmax(logits, CFG)

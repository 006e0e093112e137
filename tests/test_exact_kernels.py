"""Bit-exactness of the codec and KL kernels.

`exp_inplace` skips the lanes whose exp is exactly 0.0 and the kernels work
in place; both must give, byte for byte, what the plain formulas below give.
The reference functions are the straightforward whole-array forms of the
same computations and must not be changed to follow the kernels.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dahyf.arrayio import read_coord_array, write_coord_array
from dahyf.codec import CodecConfig, decode_soft_argmax, encode_labels, exp_inplace, log_probs
from dahyf.losses import kl_divergence, kl_divergence_grad

kernels = settings(max_examples=40, deadline=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
configs = st.builds(
    CodecConfig,
    net_size=st.sampled_from([16, 64, 224]),
    scale=st.integers(min_value=1, max_value=3),
    sigma_bins=st.sampled_from([1e-3, 0.5, 2.0, 6.0, 40.0]),
)


def reference_encode(gt_joints, cfg):
    joints = np.asarray(gt_joints, dtype=np.float64)
    bins = np.arange(cfg.n_bins, dtype=np.float64)
    mu = joints[..., None] * cfg.scale
    z = (bins - mu) / cfg.sigma_bins
    d2 = 0.5 * z * z
    weights = np.exp(-(d2 - d2.min(axis=-1, keepdims=True)))
    return weights / weights.sum(axis=-1, keepdims=True)


def reference_decode(logits, cfg):
    f = np.asarray(logits, dtype=np.float64)
    shifted = f - f.max(axis=-1, keepdims=True)
    p = np.exp(shifted)
    p /= p.sum(axis=-1, keepdims=True)
    return (p @ np.arange(cfg.n_bins, dtype=np.float64)) / cfg.scale


def reference_log_softmax(f):
    shifted = f - f.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def reference_kl(t, f):
    log_q = reference_log_softmax(f)
    log_t = np.zeros_like(t)
    np.log(t, out=log_t, where=t > 0)
    # 0 * (0 - -inf) is NaN on lanes the where() then discards
    with np.errstate(invalid="ignore"):
        per_dist = np.where(t > 0, t * (log_t - log_q), 0.0).sum(axis=-1)
    return float(per_dist.mean())


def reference_kl_grad(t, f):
    count = int(np.prod(t.shape[:-1])) if t.ndim > 1 else 1
    q = np.exp(reference_log_softmax(f))
    return (q - t) / count


def random_joints(rng, k, cfg, margin):
    """(k, 2) coordinates from `margin` px outside the patch to `margin` inside."""
    return rng.uniform(-margin, cfg.net_size + margin, size=(k, 2))


def random_logits(rng, joints, cfg, minus_inf_rate):
    """Gaussian bumps of random width near `joints`, plus noise and -inf bins;
    every row keeps at least one finite entry."""
    bins = np.arange(cfg.n_bins, dtype=np.float64)
    width = rng.uniform(0.3, 30.0, size=joints.shape + (1,))
    mu = (joints + rng.normal(0.0, 1.0, size=joints.shape))[..., None] * cfg.scale
    logits = -0.5 * ((bins - mu) / width) ** 2 + rng.normal(0.0, 0.05, size=mu.shape[:-1] + (cfg.n_bins,))
    logits[rng.random(logits.shape) < minus_inf_rate] = -np.inf
    logits[..., int(rng.integers(cfg.n_bins))] = 0.0
    return logits


special = st.sampled_from([-np.inf, np.inf, np.nan, -745.2, -745.1332191019411, -0.0, 0.0])
exp_inputs = st.one_of(
    special,
    st.floats(min_value=-760.0, max_value=-700.0),
    st.floats(min_value=-60.0, max_value=60.0),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)


class TestExpInplace:
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(min_value=0, max_value=300), elements=exp_inputs))
    def test_equals_numpy_exp_bitwise(self, x):
        with np.errstate(over="ignore"):
            expected = np.exp(x)
            got = exp_inplace(x.copy())
        assert got.tobytes() == expected.tobytes()

    def test_runs_in_place(self):
        x = np.array([-800.0, -1.0, 0.0, np.nan])
        assert exp_inplace(x) is x
        assert x[0] == 0.0 and not np.signbit(x[0])
        assert np.isnan(x[3])

    def test_subnormal_band_sweep(self):
        # every result from the last normal down past the cut, densely
        x = np.linspace(-760.0, -700.0, 200_001)
        assert exp_inplace(x.copy()).tobytes() == np.exp(x).tobytes()


class TestKernelsMatchReference:
    @kernels
    @given(seeds, configs, st.integers(min_value=1, max_value=21))
    def test_encode_labels(self, seed, cfg, k):
        rng = np.random.default_rng(seed)
        joints = random_joints(rng, k, cfg, margin=rng.choice([0.0, 50.0, 1e4]))
        assert encode_labels(joints, cfg).tobytes() == reference_encode(joints, cfg).tobytes()

    @kernels
    @given(seeds, configs, st.integers(min_value=1, max_value=21), st.sampled_from([0.0, 0.01, 0.5]))
    def test_decode_soft_argmax(self, seed, cfg, k, minus_inf_rate):
        rng = np.random.default_rng(seed)
        logits = random_logits(rng, random_joints(rng, k, cfg, 30.0), cfg, minus_inf_rate)
        before = logits.tobytes()
        assert decode_soft_argmax(logits, cfg).tobytes() == reference_decode(logits, cfg).tobytes()
        assert logits.tobytes() == before  # the caller's logits are not touched

    @kernels
    @given(seeds, configs, st.integers(min_value=1, max_value=21), st.sampled_from([0.0, 0.01, 0.5]))
    def test_kl_divergence_and_grad(self, seed, cfg, k, minus_inf_rate):
        rng = np.random.default_rng(seed)
        joints = random_joints(rng, k, cfg, margin=rng.choice([0.0, 50.0, 1e4]))
        targets = encode_labels(joints, cfg)
        logits = random_logits(rng, joints, cfg, minus_inf_rate)
        saved = targets.tobytes(), logits.tobytes()
        got = kl_divergence(targets, logits)
        assert np.float64(got).tobytes() == np.float64(reference_kl(targets, logits)).tobytes()
        grad = kl_divergence_grad(targets, logits)
        assert grad.tobytes() == reference_kl_grad(targets, logits).tobytes()
        assert (targets.tobytes(), logits.tobytes()) == saved


class TestRoundTrip:
    @kernels
    @given(seeds, st.integers(min_value=1, max_value=21))
    def test_encode_file_decode_recovers_interior_joints(self, seed, k):
        cfg = CodecConfig()
        joints = np.random.default_rng(seed).uniform(8.0, cfg.net_size - 8.0, size=(k, 2))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "logits.bin"
            write_coord_array(log_probs(encode_labels(joints, cfg)), path)
            decoded = decode_soft_argmax(read_coord_array(path), cfg)
        assert np.abs(decoded - joints).max() < 1e-3

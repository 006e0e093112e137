"""Sub-pixel 2D joint coordinate codec.

Each joint coordinate is represented per axis as a categorical distribution
over n_bins = net_size * scale finely quantized 1D bins.  Encoding smooths
the ground-truth bin with a 1D Gaussian and renormalizes; decoding takes the
softmax expectation of the bin index and divides by the scale.  Bin i
represents coordinate i / scale, so encode and decode are exact inverses for
interior coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jsonrecord import JsonRecord


@dataclass(frozen=True)
class CodecConfig(JsonRecord):
    """Bin layout: net_size pixels quantized at `scale` bins per pixel, with
    Gaussian label smoothing of `sigma_bins` bins."""

    format_version = 1
    net_size: int = 224
    scale: int = 3
    sigma_bins: float = 6.0

    def __post_init__(self):
        if self.net_size <= 0:
            raise ValueError("net_size must be positive")
        if int(self.scale) != self.scale or self.scale < 1:
            raise ValueError("scale must be an integer >= 1")
        if self.sigma_bins <= 0:
            raise ValueError("sigma_bins must be positive")
        object.__setattr__(self, "scale", int(self.scale))

    @property
    def n_bins(self) -> int:
        return self.net_size * self.scale


# exp(-745.1332...) is half the least subnormal double, so exp of anything at
# or below this cut rounds to exactly 0.0 under IEEE round-to-nearest.
_EXP_ZERO_CUT = -745.2


def exp_inplace(x: np.ndarray) -> np.ndarray:
    """x <- exp(x) in place, bit-for-bit equal to np.exp(x); returns x.

    Lanes at or below the cut, whose exp is exactly 0.0, are zeroed instead
    of exponentiated: they cost numpy's vector exp about 20x a normal lane,
    and a Gaussian row has many of them.  The mask is `x <= cut`, not
    `~(x > cut)`, so NaN lanes stay live and propagate.

    Lanes whose exp is subnormal, x in (-745.13, -708.40), are slower still:
    about 110 ns each against about 0.7 ns for a normal lane, some 440 lanes
    and 50 us per decoded frame of logits.  They stay: zeroing them would
    change decoded coordinates below ~1e-296 and break the bit-for-bit
    equality with np.exp that the exact-kernel tests require.
    """
    dead = x <= _EXP_ZERO_CUT
    np.exp(x, out=x, where=~dead)
    np.copyto(x, 0.0, where=dead)
    return x


def encode_labels(gt_joints: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Gaussian-smoothed classification targets for joint coordinates.

    Args:
        gt_joints: (K, 2) patch-pixel coordinates; out-of-range values are
            legal and yield truncated, renormalized distributions.
        cfg: bin layout.

    Returns:
        (K, 2, n_bins) non-negative targets, each row summing to 1.
    """
    joints = np.asarray(gt_joints, dtype=np.float64)
    if joints.ndim != 2 or joints.shape[1] != 2:
        raise ValueError(f"expected (K, 2) joint coordinates, got {joints.shape}")
    if not np.all(np.isfinite(joints)):
        raise ValueError("joint coordinates must be finite")
    bins = np.arange(cfg.n_bins, dtype=np.float64)
    mu = joints[..., None] * cfg.scale  # (K, 2, 1) bin-space means
    z = bins - mu
    z /= cfg.sigma_bins
    d2 = 0.5 * z
    d2 *= z
    # subtract the row minimum before exponentiating so tiny sigmas and far
    # out-of-range coordinates still yield a well-defined distribution;
    # min - d2 is exactly -(d2 - min)
    np.subtract(d2.min(axis=-1, keepdims=True), d2, out=d2)
    weights = exp_inplace(d2)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def decode_soft_argmax(logits: np.ndarray, cfg: CodecConfig, scratch: np.ndarray | None = None) -> np.ndarray:
    """Soft-argmax decoding of per-axis logits back to patch pixels.

    Per axis: coordinate = E_i[i under softmax(logits)] / scale.  `scratch`,
    a float64 buffer of the logits' shape (it may be `logits` itself), is
    overwritten with the softmax; by default a fresh one is allocated.
    """
    f = np.asarray(logits, dtype=np.float64)
    if f.ndim != 3 or f.shape[-1] != cfg.n_bins or f.shape[1] != 2:
        raise ValueError(f"expected (K, 2, {cfg.n_bins}) logits, got {f.shape}")
    if scratch is None:
        scratch = np.empty_like(f)
    elif scratch.shape != f.shape or scratch.dtype != np.float64:
        raise ValueError(f"scratch must be float64 of shape {f.shape}, got {scratch.dtype} {scratch.shape}")
    # NaN propagates through max and +inf is the max, so the row maxima show
    # both; -inf entries are legal (zero-probability bins from log-space
    # targets) unless a whole row is -inf.
    peak = f.max(axis=-1, keepdims=True)
    if not np.isfinite(peak).all():
        if np.isnan(peak).any() or (peak == np.inf).any():
            raise ValueError("logits must not contain NaN or +inf")
        joint, axis, _ = np.argwhere(peak == -np.inf)[0]
        raise ValueError(f"logits row (joint {joint}, axis {axis}) is all -inf")
    p = exp_inplace(np.subtract(f, peak, out=scratch))
    p /= p.sum(axis=-1, keepdims=True)
    bins = np.arange(cfg.n_bins, dtype=np.float64)
    return (p @ bins) / cfg.scale


def log_probs(targets: np.ndarray) -> np.ndarray:
    """Elementwise log of a target distribution with log(0) mapped to -inf.

    Useful for round-tripping encoded labels through the decoder.
    """
    t = np.asarray(targets, dtype=np.float64)
    out = np.full_like(t, -np.inf)
    np.log(t, out=out, where=t > 0)
    return out

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

CODEC_FORMAT_VERSION = 1


@dataclass(frozen=True)
class CodecConfig:
    """Bin layout: net_size pixels quantized at `scale` bins per pixel, with
    Gaussian label smoothing of `sigma_bins` bins."""

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

    @property
    def n_bins(self) -> int:
        return self.net_size * int(self.scale)

    def to_dict(self) -> dict:
        return {
            "format_version": CODEC_FORMAT_VERSION,
            "net_size": self.net_size,
            "scale": int(self.scale),
            "sigma_bins": self.sigma_bins,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CodecConfig":
        return cls(
            net_size=int(doc.get("net_size", 224)),
            scale=int(doc.get("scale", 3)),
            sigma_bins=float(doc.get("sigma_bins", 6.0)),
        )


# exp(-745.1332...) is half the least subnormal double, so exp of anything at
# or below this cut rounds to exactly 0.0 under IEEE round-to-nearest.
_EXP_ZERO_CUT = -745.2


def exp_inplace(x: np.ndarray) -> np.ndarray:
    """x <- exp(x) in place, bit-for-bit equal to np.exp(x); returns x.

    Lanes at or below the cut, whose exp is exactly 0.0, are zeroed instead
    of exponentiated: they cost numpy's vector exp about 20x a normal lane,
    and a Gaussian row has many of them.  The mask is `x <= cut`, not
    `~(x > cut)`, so NaN lanes stay live and propagate.
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


def decode_soft_argmax(logits: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Soft-argmax decoding of per-axis logits back to patch pixels.

    Per axis: coordinate = E_i[i under softmax(logits)] / scale.
    """
    f = np.asarray(logits, dtype=np.float64)
    if f.ndim != 3 or f.shape[-1] != cfg.n_bins or f.shape[1] != 2:
        raise ValueError(f"expected (K, 2, {cfg.n_bins}) logits, got {f.shape}")
    # NaN propagates through max and +inf is the max, so the row maxima show
    # both; -inf entries are legal (zero-probability bins from log-space
    # targets) unless a whole row is -inf.
    peak = f.max(axis=-1, keepdims=True)
    if np.any(np.isnan(peak)) or np.any(peak == np.inf):
        raise ValueError("logits must not contain NaN or +inf")
    if np.any(peak == -np.inf):
        joint, axis, _ = np.argwhere(peak == -np.inf)[0]
        raise ValueError(f"logits row (joint {joint}, axis {axis}) is all -inf")
    p = exp_inplace(f - peak)
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

"""Hybrid feature assembly: normalize decoded 2D joints, lift them through a
sinusoidal positional encoding, and concatenate with a pooled implicit
feature vector."""

from __future__ import annotations

import numpy as np

DEFAULT_OCTAVES = 4


def pe_normalize(joints: np.ndarray, net_size: int, focal: float) -> np.ndarray:
    """Center patch-pixel joints and scale by the focal length.

    mu = (J - net_size / 2) / focal, per coordinate.
    """
    if focal <= 0:
        raise ValueError("focal must be positive")
    pts = np.asarray(joints, dtype=np.float64)
    return (pts - net_size / 2.0) / focal


def positional_encode(mu: np.ndarray, octaves: int = DEFAULT_OCTAVES) -> np.ndarray:
    """Sinusoidal encoding of normalized coordinates, flattened to a vector.

    Each scalar p maps to (sin 2^1 pi p, cos 2^1 pi p, ..., sin 2^L pi p,
    cos 2^L pi p).  Flattening order is joint-major, then axis (x before y),
    then octave, then sin before cos, so 21 joints at L = 4 give length 336.
    """
    if octaves < 1:
        raise ValueError("octave count must be >= 1")
    p = np.asarray(mu, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise ValueError("normalized coordinates must be finite")
    freqs = (2.0 ** np.arange(1, octaves + 1)) * np.pi  # (L,)
    phase = p[..., None] * freqs  # (..., L)
    encoded = np.stack([np.sin(phase), np.cos(phase)], axis=-1)  # (..., L, 2)
    return encoded.reshape(-1)


def pool_feature_map(feature_map: np.ndarray, mode: str = "mean") -> np.ndarray:
    """Spatially pool an implicit (C, H, W) feature map into a (C,) vector."""
    fm = np.asarray(feature_map, dtype=np.float64)
    if fm.ndim != 3:
        raise ValueError(f"expected (C, H, W) feature map, got shape {fm.shape}")
    if mode == "mean":
        return fm.mean(axis=(1, 2))
    if mode == "max":
        return fm.max(axis=(1, 2))
    raise ValueError(f"unknown pooling mode {mode!r}")


def assemble_dahyf(v_fm: np.ndarray, v_pe: np.ndarray) -> np.ndarray:
    """Concatenate pooled implicit features with the positional encoding,
    implicit part first.  Slicing the result at len(v_fm) recovers both."""
    a = np.asarray(v_fm, dtype=np.float64).reshape(-1)
    b = np.asarray(v_pe, dtype=np.float64).reshape(-1)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("feature vectors must be finite")
    return np.concatenate([a, b])

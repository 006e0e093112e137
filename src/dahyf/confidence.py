"""Contrastive pose confidence.

Detected 2D joints and reprojected model joints are each normalized into a
crop-relative 42-vector (21 joints, x/y interleaved in canonical joint
order); their cosine similarity is the motion-capture confidence of the
frame.  Patches containing a hand form positive pairs, random non-hand
patches negative pairs.

Normalization and cosine also run over a clip at once: (T, 21, 2) stacks
with a `SpecColumns` give (T, 42) vectors and T confidences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import PatchSpec, RowError, SpecColumns, per_point

DEGENERATE_NORM = 1e-12
DEFAULT_OVERLAP_THRESHOLD = 0.05


class DegenerateJointsError(RowError):
    """All joints coincide with the patch center; cosine similarity is
    undefined.  Unreachable for real hands, so it flags upstream failure."""


def _joints(joints: np.ndarray) -> np.ndarray:
    pts = np.asarray(joints, dtype=np.float64)
    if pts.ndim not in (2, 3) or pts.shape[-1] != 2:
        raise ValueError(f"expected (K, 2) or (T, K, 2) joints, got {pts.shape}")
    return pts


def _flatten(pts: np.ndarray) -> np.ndarray:
    """(..., K, 2) joints to (..., 2K) vectors, x/y interleaved."""
    return pts.reshape(pts.shape[:-2] + (-1,))


def normalize_pred(j2d: np.ndarray, spec: PatchSpec | SpecColumns) -> np.ndarray:
    """Normalize detected patch-pixel joints: (J * s_i/s_p - s_i/2) / s_i.

    Non-finite joints are an error naming their row.
    """
    pts = _joints(j2d)
    RowError.check(~np.isfinite(pts).all(axis=(-2, -1)), "joints2d contains non-finite values")
    size = per_point(spec.patch_size)
    scaled = pts * per_point(spec.patch_size / spec.net_size) - size / 2.0
    return _flatten(scaled / size)


def normalize_proj(j2d_proj: np.ndarray, spec: PatchSpec | SpecColumns) -> np.ndarray:
    """Normalize reprojected frame-pixel joints: (J - C) / s_i, with C the
    patch center in frame coordinates."""
    pts = _joints(j2d_proj)
    return _flatten((pts - per_point(spec.center)) / per_point(spec.patch_size))


def cosine_confidence(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Cosine similarity in [-1, 1] between two normalized joint vectors;
    (T, D) stacks give one per row, as a (T,) array."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim != 2:
        va, vb = va.reshape(-1), vb.reshape(-1)
    if va.shape != vb.shape:
        raise ValueError("joint vectors must have matching length")
    na, nb = np.sqrt(np.add.reduce(va * va, axis=-1)), np.sqrt(np.add.reduce(vb * vb, axis=-1))  # the 2-norms
    DegenerateJointsError.check((na < DEGENERATE_NORM) | (nb < DEGENERATE_NORM),
                                "joint vector norm below 1e-12; all joints centered")
    cos = np.clip(np.einsum("...d,...d->...", va, vb) / (na * nb), -1.0, 1.0)
    return float(cos) if cos.ndim == 0 else cos


def cosine_confidence_grad(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Analytic gradient of cosine_confidence with respect to `a`."""
    va = np.asarray(a, dtype=np.float64).reshape(-1)
    vb = np.asarray(b, dtype=np.float64).reshape(-1)
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na < DEGENERATE_NORM or nb < DEGENERATE_NORM:
        raise DegenerateJointsError("joint vector norm below 1e-12; all joints centered")
    cos = va @ vb / (na * nb)
    return vb / (na * nb) - cos * va / (na * na)


@dataclass(frozen=True)
class ContrastivePair:
    """A detected/reprojected joint-vector pair with its hand/no-hand label."""

    pred: np.ndarray
    proj: np.ndarray
    positive: bool

    def __post_init__(self):
        object.__setattr__(self, "pred", np.asarray(self.pred, dtype=np.float64).reshape(-1))
        object.__setattr__(self, "proj", np.asarray(self.proj, dtype=np.float64).reshape(-1))


def contrastive_loss(pairs: Sequence[ContrastivePair], negative_target: float = -1.0) -> float:
    """Mean squared deviation of each pair's cosine from its target.

    Positive pairs target +1, negative pairs `negative_target` (default -1),
    realizing "pull positives together, push negatives apart" as an L2 loss
    on the cosine.
    """
    if len(pairs) == 0:
        raise ValueError("contrastive loss requires at least one pair")
    total = 0.0
    for pair in pairs:
        target = 1.0 if pair.positive else negative_target
        cos = cosine_confidence(pair.pred, pair.proj)
        total += (cos - target) ** 2
    return total / len(pairs)


def _patch_box_overlap(ulx: float, uly: float, size: float, box: tuple) -> float:
    """Intersection area between a square patch and a box, over patch area."""
    bx0, by0, bx1, by1 = box
    ix = max(0.0, min(ulx + size, bx1) - max(ulx, bx0))
    iy = max(0.0, min(uly + size, by1) - max(uly, by0))
    return ix * iy / (size * size)


def sample_negative_patches(
    frame_w: int,
    frame_h: int,
    hand_boxes: Sequence[tuple],
    count: int,
    rng_seed: int,
    overlap_threshold: float = DEFAULT_OVERLAP_THRESHOLD,
    size_range: tuple[float, float] = (0.1, 0.4),
    max_attempts_per_patch: int = 200,
    net_size: int = 224,
    feat_size: int = 56,
) -> list[PatchSpec]:
    """Deterministically sample square crops that avoid all hand boxes.

    Boxes are (x0, y0, x1, y1) in frame pixels.  A candidate is accepted when
    its intersection-over-patch-area with every box stays below
    `overlap_threshold`.  Patch sides are drawn uniformly from `size_range`
    (fractions of the smaller frame dimension).  Raises if `count` patches
    cannot be placed within the attempt budget.
    """
    if frame_w <= 0 or frame_h <= 0:
        raise ValueError("frame dimensions must be positive")
    rng = np.random.default_rng(rng_seed)
    lo, hi = size_range
    min_dim = min(frame_w, frame_h)
    patches: list[PatchSpec] = []
    attempts = 0
    budget = max_attempts_per_patch * count
    while len(patches) < count:
        if attempts >= budget:
            raise ValueError(
                f"could not place {count} non-hand patches in {budget} attempts"
            )
        attempts += 1
        size = rng.uniform(lo, hi) * min_dim
        if size > min_dim:
            continue
        ulx = rng.uniform(0.0, frame_w - size)
        uly = rng.uniform(0.0, frame_h - size)
        if all(
            _patch_box_overlap(ulx, uly, size, box) < overlap_threshold
            for box in hand_boxes
        ):
            patches.append(
                PatchSpec(
                    frame_w=frame_w,
                    frame_h=frame_h,
                    upper_left=(ulx, uly),
                    patch_size=size,
                    net_size=net_size,
                    feat_size=feat_size,
                )
            )
    return patches

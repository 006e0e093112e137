"""Weak-perspective camera head semantics and full-perspective projection.

The regressor's camera head predicts (scale, tx, ty) relative to the crop.
Converting to a full-perspective camera in the frame coordinate system uses
the standard crop-aware construction: depth from the inverse of the on-screen
scale, and x/y translation from the crop center offset plus the head's own
translation, both in normalized patch units.

Both maps also run over a clip at once: a (T, 3) array of (scale, tx, ty)
rows with a `SpecColumns` gives a camera whose fields hold one entry per
frame, which projects (T, N, 3) point stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PatchSpec, RowError, SpecColumns, per_point
from .jsonrecord import JsonRecord

MIN_DEPTH = 1e-6


@dataclass(frozen=True)
class WeakCamera(JsonRecord):
    """Weak-perspective parameters (scale, tx, ty) in normalized patch units."""

    scale: float
    tx: float
    ty: float

    @staticmethod
    def check(scale, tx, ty) -> None:
        if not (math.isfinite(scale) and math.isfinite(tx) and math.isfinite(ty)):
            raise ValueError("weak camera parameters must be finite")
        if scale <= 0:
            raise ValueError("weak camera scale must be positive")


@dataclass(frozen=True)
class FullCamera:
    """Pinhole camera: focal (pixels), principal point at the frame center,
    and a camera-frame translation applied to the wrist-rooted hand.

    A camera per frame of a clip holds (T,) focals, two (T,) principal
    columns and (T, 3) translations.
    """

    focal: float
    principal: tuple[float, float]
    translation: np.ndarray  # (3,) or (T, 3) meters

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=np.float64)
        if t.ndim not in (1, 2) or t.shape[-1] != 3:
            raise ValueError("translation must be a 3-vector or a (T, 3) stack")
        if np.any(np.asarray(self.focal) <= 0):
            raise ValueError("focal must be positive")
        if np.any(t[..., 2] <= 0):
            raise ValueError("camera translation must place the hand in front (T_z > 0)")
        object.__setattr__(self, "translation", t)
        if t.ndim == 1:
            object.__setattr__(self, "principal", (float(self.principal[0]), float(self.principal[1])))


def weak_to_full(weak: WeakCamera | np.ndarray, spec: PatchSpec | SpecColumns) -> FullCamera:
    """Lift a crop-relative weak camera to a frame-level perspective camera.

    T_z = 2f / (s * s_i); T_x and T_y pick up the crop center's offset from
    the frame center, scaled by the same factor, plus the head's translation.
    Over a clip, `weak` is a (T, 3) array of (scale, tx, ty) rows and `spec`
    a SpecColumns, and the camera holds one entry per frame.
    """
    if isinstance(weak, WeakCamera):
        scale, head_x, head_y = weak.scale, weak.tx, weak.ty
    else:
        rows = np.asarray(weak, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError(f"weak camera rows must be (T, 3), got {rows.shape}")
        RowError.check(~np.isfinite(rows).all(axis=1) | (rows[:, 0] <= 0),
                       "weak camera parameters must be finite with positive scale")
        scale, head_x, head_y = rows.T
    f = spec.focal_or_default
    cx, cy = spec.center
    ox, oy = spec.frame_w / 2.0, spec.frame_h / 2.0
    denom = scale * spec.patch_size
    tz = 2.0 * f / denom
    tx = head_x + 2.0 * (cx - ox) / denom
    ty = head_y + 2.0 * (cy - oy) / denom
    return FullCamera(focal=f, principal=(ox, oy), translation=np.stack([tx, ty, tz], axis=-1))


def project_points(points: np.ndarray, cam: FullCamera) -> np.ndarray:
    """Pinhole projection of camera-frame points to absolute frame pixels.

    u = f (X + T_x) / (Z + T_z) + O_x, and likewise for v.  Points at or
    behind the camera are a hard error: they signal upstream divergence.
    (T, N, 3) stacks go through a camera per frame, row t through camera t.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim not in (2, 3) or pts.shape[-1] != 3:
        raise ValueError(f"expected (N, 3) or (T, N, 3) points, got {pts.shape}")
    shifted = pts + cam.translation[..., None, :]
    depth = shifted[..., 2]
    RowError.check((depth <= MIN_DEPTH).any(axis=-1), "point at or behind camera (depth <= 1e-6)")
    uv = per_point(cam.focal) * shifted[..., :2] / depth[..., None]
    return uv + per_point(cam.principal)

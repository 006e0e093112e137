"""Coordinate-frame bookkeeping between feature map, hand patch, and full
frame, plus local and global direction maps.

Three frames are used throughout:

* feature coords: integer pixel indices of the s_f x s_f feature grid;
* patch coords: pixels of the resized s_p x s_p network input;
* frame coords: pixels of the full frame, either with the origin at the
  top-left corner ("absolute") or at the frame center ("centered").

The direction of a frame pixel is its centered coordinate divided by the
focal length, i.e. the viewing-ray direction in the camera frame.  All maps
are pure affine geometry; crops may extend past the frame edges.

`frame_to_patch_abs` and the camera and confidence maps also run over a
whole clip: given a `SpecColumns` (T specs as columns) in place of a
`PatchSpec`, they take (T, K, 2) point stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .jsonrecord import JsonRecord


class RowError(ValueError):
    """A check failed on one row of a (T, …) stack.  `row` indexes it, so a
    caller can name the frame; a single-frame call reports row 0."""

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row

    @classmethod
    def check(cls, bad, message: str) -> None:
        """Raise for the first row whose flag in `bad` (a bool, or one per
        row of a stack) is set."""
        bad = np.asarray(bad)
        if bad.any():
            raise cls(message, int(np.argmax(bad.ravel())))


@dataclass(frozen=True)
class PatchSpec(JsonRecord):
    """Square hand crop tied to its full frame and camera.

    `upper_left` is the crop's top-left corner in absolute frame pixels,
    `patch_size` the crop side length before resizing to `net_size`.
    `focal` may be None, in which case the sqrt(H^2 + W^2) fallback applies.
    `flipped` records that the patch content was mirrored (left-hand
    handling), so direction maps sample mirrored patch columns.
    """

    format_version = 1
    frame_w: int
    frame_h: int
    upper_left: tuple[float, float]
    patch_size: float
    net_size: int = 224
    feat_size: int = 56
    focal: float | None = None
    handedness: str = "right"
    flipped: bool = False

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "upper_left", (float(self.upper_left[0]), float(self.upper_left[1])))

    @staticmethod
    def check(frame_w, frame_h, upper_left, patch_size, net_size, feat_size, focal, handedness, flipped) -> None:
        if frame_w <= 0 or frame_h <= 0:
            raise ValueError("frame dimensions must be positive")
        if not patch_size > 0:
            raise ValueError("patch_size must be positive")
        if net_size <= 0 or feat_size <= 0:
            raise ValueError("net_size and feat_size must be positive")
        if focal is not None and not focal > 0:  # NaN too: it marks a missing focal in SpecColumns
            raise ValueError("focal must be positive when given")
        if not (math.isfinite(upper_left[0]) and math.isfinite(upper_left[1])):
            raise ValueError("upper_left must be finite")
        if not math.isfinite(patch_size):
            raise ValueError("patch_size must be finite")
        if focal is not None and not math.isfinite(focal):
            raise ValueError("focal must be finite when given")
        if handedness not in ("left", "right"):
            raise ValueError(f"handedness must be 'left' or 'right', got {handedness!r}")

    @property
    def focal_or_default(self) -> float:
        return float(self.focal) if self.focal is not None else default_focal(self.frame_w, self.frame_h)

    @property
    def center(self) -> tuple[float, float]:
        """Patch center in absolute frame pixels."""
        half = self.patch_size / 2.0
        return (self.upper_left[0] + half, self.upper_left[1] + half)


@dataclass(frozen=True)
class SpecColumns:
    """T patch specs as columns, under PatchSpec's names: every field is a
    (T,) array, `focal` NaN where a spec has none, and the `upper_left` pair
    a tuple of two (T,) arrays.  The spec consumers accept it in place of a
    PatchSpec and then map (T, …) stacks, row t with spec t.  Build it with
    `of` or `stack`, which take checked values."""

    frame_w: np.ndarray                      # int64
    frame_h: np.ndarray                      # int64
    upper_left: tuple[np.ndarray, np.ndarray]
    patch_size: np.ndarray
    net_size: np.ndarray                     # int64
    feat_size: np.ndarray                    # int64
    focal: np.ndarray                        # NaN where none is given
    handedness: np.ndarray                   # str
    flipped: np.ndarray                      # bool

    @classmethod
    def of(cls, rows: Sequence[tuple]) -> "SpecColumns":
        """Columns of specs given as tuples of their checked field values, as
        `PatchSpec.columns` gives them; a None focal becomes NaN."""
        if len(rows) == 0:
            raise ValueError("need at least one spec to stack")
        w, h, upper_left, size, net, feat, focal, handedness, flipped = zip(*rows)
        ulx, uly = np.array(upper_left, dtype=np.float64).T
        return cls(
            np.array(w, dtype=np.int64), np.array(h, dtype=np.int64), (ulx, uly), np.array(size, dtype=np.float64),
            np.array(net, dtype=np.int64), np.array(feat, dtype=np.int64), np.array(focal, dtype=np.float64),
            np.array(handedness, dtype=str), np.array(flipped, dtype=bool),
        )

    @classmethod
    def stack(cls, specs: Sequence[PatchSpec]) -> "SpecColumns":
        return cls.of([_field_values(s) for s in specs])

    def __eq__(self, other):
        return isinstance(other, SpecColumns) and self.to_dicts() == other.to_dicts()

    def rows(self, index: np.ndarray) -> "SpecColumns":
        """The columns of the specs at `index`, an integer array."""
        return SpecColumns(*(tuple(c[index] for c in col) if isinstance(col, tuple) else col[index]
                             for col in _field_values(self)))

    def _json_rows(self):
        """Per spec, its field values in JSON form."""
        focal = [None if math.isnan(f) else f for f in self.focal.tolist()]
        return zip(self.frame_w.tolist(), self.frame_h.tolist(),
                   map(list, zip(self.upper_left[0].tolist(), self.upper_left[1].tolist())),
                   self.patch_size.tolist(), self.net_size.tolist(), self.feat_size.tolist(), focal,
                   self.handedness.tolist(), self.flipped.tolist())

    def to_dicts(self) -> list[dict]:
        """Each spec's `PatchSpec.to_dict`."""
        return PatchSpec.dicts(self._json_rows())

    def to_specs(self) -> list[PatchSpec]:
        return [PatchSpec(*row) for row in self._json_rows()]

    @property
    def focal_or_default(self) -> np.ndarray:
        return np.where(np.isnan(self.focal), np.hypot(self.frame_w, self.frame_h), self.focal)

    @property
    def center(self) -> tuple[np.ndarray, np.ndarray]:
        """Patch centers in absolute frame pixels."""
        half = self.patch_size / 2.0
        return (self.upper_left[0] + half, self.upper_left[1] + half)


def _field_values(record) -> tuple:
    return tuple(getattr(record, f.name) for f in fields(record))


def per_point(value):
    """Shape one spec field to broadcast against the points it maps.

    A PatchSpec float or (x, y) tuple applies to (K, 2) points as it is; a
    SpecColumns (T,) column, or tuple of two, becomes (T, 1, 1) or (T, 1, 2)
    so that row t of a (T, K, 2) stack meets spec t.
    """
    if isinstance(value, tuple):
        pair = np.array(value).T  # (2,), or (T, 2) from two columns
        return pair[:, None, :] if pair.ndim == 2 else pair
    return value[:, None, None] if np.ndim(value) else value


@dataclass(frozen=True)
class DirectionMap:
    """Dense per-pixel direction planes, shape (channels, height, width).

    Channels alternate x-direction / y-direction; all x-planes are identical,
    as are all y-planes.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3 or v.shape[0] % 2 != 0:
            raise ValueError("direction map must be (even channels, H, W)")
        object.__setattr__(self, "values", v)

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]


def default_focal(frame_w: float, frame_h: float) -> float:
    """Focal-length fallback sqrt(W^2 + H^2) for frames with unknown intrinsics."""
    if frame_w <= 0 or frame_h <= 0:
        raise ValueError("frame dimensions must be positive")
    return float(np.hypot(frame_w, frame_h))


def feat_to_patch(p_f: np.ndarray, spec: PatchSpec) -> np.ndarray:
    """Map feature-grid coordinates to patch pixels: p * sc_p + sc_p / 2.

    The half-cell offset centers each feature pixel in its receptive cell.
    """
    sc_p = spec.net_size / spec.feat_size
    return np.asarray(p_f, dtype=np.float64) * sc_p + sc_p / 2.0


def patch_to_frame(p_l: np.ndarray, spec: PatchSpec) -> np.ndarray:
    """Map patch pixels to centered frame coords: p * sc_o + P_ulc - O."""
    return patch_to_frame_abs(p_l, spec) - np.array([spec.frame_w / 2.0, spec.frame_h / 2.0])


def patch_to_frame_abs(p_l: np.ndarray, spec: PatchSpec) -> np.ndarray:
    """Patch pixels to absolute (top-left origin) frame pixels."""
    sc_o = spec.patch_size / spec.net_size
    return np.asarray(p_l, dtype=np.float64) * sc_o + np.asarray(spec.upper_left)


def frame_to_patch_abs(p_g: np.ndarray, spec: PatchSpec | SpecColumns) -> np.ndarray:
    """Absolute frame pixels to patch pixels (inverse of `patch_to_frame_abs`);
    (T, K, 2) stacks with a SpecColumns."""
    sc_o = per_point(spec.patch_size / spec.net_size)
    return (np.asarray(p_g, dtype=np.float64) - per_point(spec.upper_left)) / sc_o


def frame_to_direction(p_g: np.ndarray, focal: float) -> np.ndarray:
    """Normalize centered frame coords into viewing-ray directions: p / f."""
    if focal <= 0:
        raise ValueError("focal must be positive")
    return np.asarray(p_g, dtype=np.float64) / focal


def _replicate_planes(x: np.ndarray, y: np.ndarray, channels: int) -> np.ndarray:
    """(channels, len(y), len(x)) planes: x along every row of the even
    channels, y down every column of the odd ones."""
    if channels <= 0 or channels % 2 != 0:
        raise ValueError("channel count must be a positive even number")
    out = np.empty((channels, len(y), len(x)))
    out[0::2] = x
    out[1::2] = y[:, None]
    return out


def local_direction_map(feat_size: int, channels: int = 2) -> DirectionMap:
    """Raw feature-grid index planes: x-plane holds the column index, y-plane
    the row index, origin at the upper-left corner, replicated to `channels`.

    Identical for every crop of a given feature size, which is exactly why it
    cannot disambiguate where the hand sits in the frame.
    """
    if feat_size <= 0:
        raise ValueError("feat_size must be positive")
    idx = np.arange(feat_size, dtype=np.float64)
    return DirectionMap(_replicate_planes(idx, idx, channels))


def global_direction_map(spec: PatchSpec, channels: int = 2) -> DirectionMap:
    """Viewing-ray direction planes for every feature pixel of a crop: the
    crop chain `feat_to_patch`, `mirror_joints_x` when flipped (the x lookup
    runs over the mirrored columns the content came from), `patch_to_frame`
    and `frame_to_direction`, run on the grid diagonal (column j, row j)."""
    idx = np.arange(spec.feat_size, dtype=np.float64)
    p_l = feat_to_patch(np.stack([idx, idx], axis=-1), spec)
    if spec.flipped:
        p_l = mirror_joints_x(p_l, spec.net_size)
    d = frame_to_direction(patch_to_frame(p_l, spec), spec.focal_or_default)
    return DirectionMap(_replicate_planes(d[:, 0], d[:, 1], channels))


def mirror_joints_x(joints: np.ndarray, net_size: int) -> np.ndarray:
    """Mirror pixel-indexed x-coordinates about the patch center: x' = s_p - 1 - x."""
    pts = np.array(joints, dtype=np.float64, copy=True)
    pts[..., 0] = (net_size - 1) - pts[..., 0]
    return pts


def flip_left_patch(spec: PatchSpec, joints_2d: np.ndarray) -> tuple[PatchSpec, np.ndarray]:
    """Mirror a left-hand patch into right-hand convention.

    Joint x-coordinates are mirrored about the patch center and the returned
    spec records the flip so direction maps and frame-space projections stay
    consistent.  Raises on right-hand specs; flipping is a one-way move into
    the canonical right-hand space.
    """
    if spec.handedness != "left":
        raise ValueError("flip_left_patch requires a left-hand spec")
    flipped_spec = replace(spec, handedness="right", flipped=not spec.flipped)
    return flipped_spec, mirror_joints_x(joints_2d, spec.net_size)

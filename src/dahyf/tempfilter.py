"""Video post-processing: confidence-gated replacement of unreliable frames
and causal temporal smoothing of pose, shape, and camera parameters.

Gating first, smoothing second.  Gating replaces a low-confidence frame's
pose/shape/camera with those of the most recent high-confidence frame
(within a bounded hold), leaving the raw 2D observations and the confidence
value untouched.  Smoothing then runs per scalar channel over the gated
sequence; pose axis-angles are canonicalized to [0, pi] magnitude and then
unwrapped along the clip first, so the filter never sees 2-pi
representation jumps, not even where a rotation turns through pi.

A clip is one `FrameArrays` struct of (T, …) arrays: `from_records` parses
the JSON frame records into it, `gate_arrays` and `smooth_arrays` filter it
and `to_records` writes it back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .camera import WeakCamera
from .geometry import PatchSpec, SpecColumns
from .hand_model import N_KEYPOINTS, N_ROTATIONS, N_SHAPE_COEFFS, HandPose, HandShape, canonicalize_axis_angle
from .jsonrecord import JsonRecord, numbers, parse_rows

FRAME_FORMAT_VERSION = 1

SMOOTHING_MODES = ("off", "exponential", "one_euro")

# `FrameArrays.replaced_from` of a frame that kept its own parameters
NOT_REPLACED = np.iinfo(np.int64).min

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class SmoothingConfig(JsonRecord):
    mode: str = "off"
    alpha: float = 0.5            # exponential
    min_cutoff: float = 1.0       # one euro
    beta: float = 0.0
    d_cutoff: float = 1.0

    def __post_init__(self):
        if self.mode not in SMOOTHING_MODES:
            raise ValueError(f"smoothing mode must be one of {SMOOTHING_MODES}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.min_cutoff <= 0 or self.d_cutoff <= 0:
            raise ValueError("cutoff frequencies must be positive")


@dataclass(frozen=True)
class FilterConfig(JsonRecord):
    threshold: float = 0.5
    smoothing: SmoothingConfig = SmoothingConfig()
    max_hold_frames: int = 30

    def __post_init__(self):
        # -1 is allowed: it turns gating into the identity
        if not -1.0 <= self.threshold < 1.0:
            raise ValueError("threshold must lie in [-1, 1)")
        if self.max_hold_frames < 1:
            raise ValueError("max_hold_frames must be >= 1")


@dataclass(frozen=True)
class _Scalars(JsonRecord):
    """The fields of a frame record other than its arrays, which
    `FrameArrays.from_records` reads as columns."""

    frame_index: int
    weak: WeakCamera
    spec: PatchSpec
    confidence: float | None = None
    unreliable: bool = False
    replaced_from: int | None = None

    @staticmethod
    def check(frame_index, weak, spec, confidence, unreliable, replaced_from) -> None:
        if confidence is not None and not -1.0 <= confidence <= 1.0:
            raise ValueError("confidence must lie in [-1, 1]")
        if NOT_REPLACED in (frame_index, replaced_from):
            name = "frame_index" if frame_index == NOT_REPLACED else "replaced_from"
            raise ValueError(f"{name}: {NOT_REPLACED} is reserved to mark a frame that was not replaced")


@dataclass(frozen=True)
class FrameResult:
    """One frame's motion-capture record, for callers that build records
    one by one; a clip is parsed, filtered and written as `FrameArrays`."""

    frame_index: int
    pose: HandPose
    shape: HandShape
    weak: WeakCamera
    joints2d: np.ndarray  # (21, 2) patch pixels
    spec: PatchSpec
    confidence: float | None = None
    unreliable: bool = False
    replaced_from: int | None = None

    def __post_init__(self):
        pts = np.asarray(self.joints2d, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"joints2d must be (K, 2), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("joints2d contains non-finite values")
        _Scalars.check(self.frame_index, self.weak, self.spec, self.confidence, self.unreliable, self.replaced_from)
        object.__setattr__(self, "joints2d", pts)

    def __eq__(self, other):
        return isinstance(other, FrameResult) and self.to_dict() == other.to_dict()

    def to_dict(self) -> dict:
        """The record as `FrameArrays.to_records` writes it."""
        return FrameArrays(
            np.array([self.frame_index]), self.pose.rotations[None], self.shape.betas[None],
            np.array([(self.weak.scale, self.weak.tx, self.weak.ty)]), self.joints2d[None],
            SpecColumns.stack((self.spec,)), np.array([math.nan if self.confidence is None else self.confidence]),
            np.array([self.unreliable]), np.array([NOT_REPLACED if self.replaced_from is None else self.replaced_from]),
        ).to_records()[0]

    @classmethod
    def from_dict(cls, doc: dict) -> "FrameResult":
        """One record through `FrameArrays.from_records`."""
        row = FrameArrays.from_records([doc])
        confidence, donor = row.confidence.item(), row.replaced_from.item()
        return cls(row.frame_index.item(), HandPose(row.rotations[0]), HandShape(row.betas[0]),
                   WeakCamera(*row.weak[0].tolist()), row.joints2d[0], row.specs.to_specs()[0],
                   None if math.isnan(confidence) else confidence, row.unreliable.item(),
                   None if donor == NOT_REPLACED else donor)


@dataclass(frozen=True)
class FrameArrays:
    """A clip's frame records as (T, …) arrays, row t for frame t: the form
    a clip takes from parsing through gating and smoothing to writing.
    `confidence` is NaN where a frame has none and `replaced_from` is
    NOT_REPLACED where a frame kept its own parameters."""

    frame_index: np.ndarray    # (T,) int64
    rotations: np.ndarray      # (T, 16, 3) axis-angle radians
    betas: np.ndarray          # (T, 10)
    weak: np.ndarray           # (T, 3) rows of (scale, tx, ty)
    joints2d: np.ndarray       # (T, 21, 2) patch pixels
    specs: SpecColumns
    confidence: np.ndarray     # (T,)
    unreliable: np.ndarray     # (T,) bool
    replaced_from: np.ndarray  # (T,) int64

    @classmethod
    def from_records(cls, docs: Sequence[dict]) -> "FrameArrays":
        """Parse frame records, as `to_records` writes them, into columns.

        Scalars follow the `JsonRecord` rules and checks, `weak` and `spec`
        as records, and `pose`, `shape` and `joints2d` must be nested lists
        of finite JSON numbers; no per-record object is built.  Other keys
        are ignored.  The first bad record fails as `frame N: <field.path>: …`.
        """
        return parse_rows(cls._parse, docs)

    @classmethod
    def _parse(cls, docs: Sequence[dict]) -> "FrameArrays":
        frame_index, weak, spec, confidence, unreliable, replaced_from = _Scalars.columns(docs, strict=False)
        return cls(
            frame_index=np.array(frame_index, dtype=np.int64),
            rotations=numbers([doc["pose"] for doc in docs], (N_ROTATIONS, 3), "pose"),
            betas=numbers([doc["shape"] for doc in docs], (N_SHAPE_COEFFS,), "shape"),
            weak=np.array(weak, dtype=np.float64),
            joints2d=numbers([doc["joints2d"] for doc in docs], (N_KEYPOINTS, 2), "joints2d"),
            specs=SpecColumns.of(spec),
            confidence=np.array(confidence, dtype=np.float64),  # None reads as NaN
            unreliable=np.array(unreliable, dtype=bool),
            replaced_from=np.array([NOT_REPLACED if r is None else r for r in replaced_from], dtype=np.int64),
        )

    def to_records(self) -> list[dict]:
        """One JSON frame record per row: arrays as nested lists, `weak` as
        {scale, tx, ty} and `spec` as its record."""
        confidence = [None if math.isnan(c) else c for c in self.confidence.tolist()]
        replaced_from = [None if r == NOT_REPLACED else r for r in self.replaced_from.tolist()]
        return [
            {
                "format_version": FRAME_FORMAT_VERSION, "frame_index": index, "pose": pose, "shape": shape,
                "weak": {"scale": scale, "tx": tx, "ty": ty}, "joints2d": joints2d, "spec": spec,
                "confidence": c, "unreliable": unreliable, "replaced_from": donor,
            }
            for index, pose, shape, (scale, tx, ty), joints2d, spec, c, unreliable, donor in zip(
                self.frame_index.tolist(), self.rotations.tolist(), self.betas.tolist(), self.weak.tolist(),
                self.joints2d.tolist(), self.specs.to_dicts(), confidence, self.unreliable.tolist(), replaced_from,
            )
        ]

    def reposed_rows(self, other: "FrameArrays") -> np.ndarray:
        """(T,) mask of the rows whose pose, shape or camera differ from
        `other`'s in any bit: the rows whose joints must be recomputed."""
        return _rows_differ(self.rotations, other.rotations) | _rows_differ(self.betas, other.betas) \
            | _rows_differ(self.weak, other.weak)


def _rows_differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of two (T, …) float64 stacks, whether any element differs in
    any bit (so -0.0 differs from 0.0)."""
    return (a.view(np.uint64) != b.view(np.uint64)).reshape(len(a), -1).any(axis=1)


def check_indices(frame_index: np.ndarray) -> None:
    late = np.flatnonzero(frame_index[1:] <= frame_index[:-1])
    if late.size:
        t = late[0] + 1
        raise ValueError(
            f"frame {frame_index[t]}: frame_index {frame_index[t]} is not greater than the previous "
            f"frame's ({frame_index[t - 1]}); frame indices must be strictly increasing"
        )


def gate_arrays(clip: FrameArrays, cfg: FilterConfig) -> FrameArrays:
    """Replace low-confidence frames' pose/shape/camera with the most recent
    high-confidence frame's, within `max_hold_frames`.

    Frames with no eligible donor are marked unreliable and keep their own
    parameters.  Confidence values and 2D observations are never rewritten,
    which makes the operation idempotent.
    """
    check_indices(clip.frame_index)
    missing = np.isnan(clip.confidence)
    if missing.any():
        raise ValueError(f"frame {clip.frame_index[np.argmax(missing)]} has no confidence; compute it before gating")
    confident = clip.confidence >= cfg.threshold
    rows = np.arange(len(confident))
    donor = np.maximum.accumulate(np.where(confident, rows, -1))  # latest confident row, -1 if none yet
    held = ~confident & (donor >= 0)
    held[held] = clip.frame_index[held] - clip.frame_index[donor[held]] <= cfg.max_hold_frames
    source = np.where(held, donor, rows)
    return replace(
        clip,
        rotations=clip.rotations[source],
        betas=clip.betas[source],
        weak=clip.weak[source],
        unreliable=np.where(held, False, clip.unreliable | ~(confident | held)),
        replaced_from=np.where(held, clip.frame_index[source], clip.replaced_from),
    )


def _exp_alpha(cutoff, dt):
    r = 2.0 * math.pi * cutoff * dt
    return r / (r + 1.0)


def _turns(v: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whole turns k (…, 1) and unit axes n (…, 3) such that v + 2 pi k n,
    the rotation of axis-angle `v` (|v| <= pi), lies nearest `p` along v's
    axis.  A zero `v` takes the axis of its `p`."""
    theta = np.linalg.norm(v, axis=-1, keepdims=True)
    axis = np.where(theta > 0, v, p)
    length = np.linalg.norm(axis, axis=-1, keepdims=True)
    axis = axis / np.where(length > 0, length, 1.0)
    return np.rint((np.sum(axis * p, axis=-1, keepdims=True) - theta) / TAU), axis


def _unwrap(rotations: np.ndarray) -> np.ndarray:
    """(T, J, 3) canonical axis-angles made continuous along T, like
    `np.unwrap`: each row moves by whole turns to lie nearest the previous
    unwrapped row.  Rows before the first that turns against the canonical
    rows stay as they are, so the loop starts there."""
    k, _ = _turns(rotations[1:], rotations[:-1])
    turned = np.flatnonzero(k.any(axis=(1, 2)))
    if not turned.size:
        return rotations
    rotations = rotations.copy()
    for t in range(turned[0] + 1, len(rotations)):
        k, axis = _turns(rotations[t], rotations[t - 1])
        rotations[t] = np.where(k != 0, rotations[t] + TAU * k * axis, rotations[t])  # k = 0 keeps -0.0
    return rotations


def smooth_arrays(clip: FrameArrays, cfg: FilterConfig) -> FrameArrays:
    """Causal per-channel smoothing of pose, shape, and weak camera.

    Each row's 61 channels (unwrapped canonical axis-angles, betas,
    scale/tx/ty) follow the configured exponential or one-euro recurrence,
    with time in frame units; the first row passes through after pose
    canonicalization.  2D observations and confidences are untouched.
    """
    check_indices(clip.frame_index)
    smoothing = cfg.smoothing
    if smoothing.mode == "off":
        return clip
    n = len(clip.frame_index)
    rotations = _unwrap(canonicalize_axis_angle(clip.rotations))
    state = np.concatenate([rotations.reshape(n, -1), clip.betas, clip.weak], axis=1)
    if smoothing.mode == "exponential":
        keep = 1.0 - smoothing.alpha
        for t in range(1, n):
            state[t] = smoothing.alpha * state[t] + keep * state[t - 1]
    else:  # one_euro, after Casiez et al. (CHI 2012)
        dts = np.diff(clip.frame_index.astype(np.float64))
        a_ds = _exp_alpha(smoothing.d_cutoff, dts)
        dx_hat = np.zeros(state.shape[1])
        for t in range(1, n):
            x, x_prev, dt, a_d = state[t], state[t - 1], dts[t - 1], a_ds[t - 1]
            dx_hat = a_d * ((x - x_prev) / dt) + (1.0 - a_d) * dx_hat
            a = _exp_alpha(smoothing.min_cutoff + smoothing.beta * np.abs(dx_hat), dt)
            state[t] = a * x + (1.0 - a) * x_prev
    return replace(clip, rotations=state[:, :48].reshape(n, 16, 3), betas=state[:, 48:58], weak=state[:, 58:])

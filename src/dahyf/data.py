"""JSONL I/O, ground-truth labels and synthetic sequence generation.

Sequences are JSONL, one frame record per line.  An observed record is a
`FrameArrays` row (confidence null until the pipeline computes it); a
ground-truth record additionally carries the posed 3D joints and an
`is_outlier` flag naming the frames that were deliberately corrupted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .camera import WeakCamera, project_points, weak_to_full
from .confidence import cosine_confidence, normalize_pred, normalize_proj
from .geometry import PatchSpec, SpecColumns, frame_to_patch_abs
from .hand_model import N_KEYPOINTS, N_ROTATIONS, HandModelParams, HandPose, HandShape, forward_kinematics, posed_joints
from .jsonrecord import field, numbers, parse_rows
from .tempfilter import NOT_REPLACED, FrameArrays, check_indices


def write_jsonl(records, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def read_jsonl(path: str | Path) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}: line {number}, column {exc.colno}: {exc.msg}") from exc
    return records


# The arrays a labeled frame line may hold, by shape; None takes any length.
LABEL_SHAPES = {"joints3d": (N_KEYPOINTS, 3), "joints2d": (N_KEYPOINTS, 2), "vertices": (None, 3)}


def read_labels(path: str | Path, fields: tuple[str, ...] | None = None) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """`frame_index` (T,) and (T, …) float64 stacks of `fields` (by default
    the LABEL_SHAPES fields that any line holds) of a JSONL file.  Each line
    holds an integer `frame_index`, strictly increasing, and every field as
    finite JSON numbers of its shape; an error names file, frame and field."""
    docs = read_jsonl(path)
    if fields is None:
        fields = [name for name in LABEL_SHAPES if any(isinstance(doc, dict) and name in doc for doc in docs)]

    def parse(rows):
        return (np.array([field(doc, "frame_index", int) for doc in rows], dtype=np.int64),
                {name: numbers([doc[name] for doc in rows], LABEL_SHAPES[name], name) for name in fields})

    try:
        frame_index, columns = parse_rows(parse, docs)
        check_indices(frame_index)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return frame_index, columns


def match_labels(frame_index: np.ndarray, path: str | Path, fields: tuple[str, ...] | None = None):
    """The rows of `frame_index` (strictly increasing) whose frames the labels
    at `path` hold, and `read_labels`' stacks at those frames, row for row."""
    label_index, columns = read_labels(path, fields)
    _, rows, matched = np.intersect1d(frame_index, label_index, assume_unique=True, return_indices=True)
    return rows, {name: column[matched] for name, column in columns.items()}


@dataclass(frozen=True)
class SynthSequence:
    gt: list[dict]
    observed: list[dict]
    outlier_indices: list[int]


MOTION_PRESETS = ("wave", "still")

_FRAME_W, _FRAME_H = 640, 480
_FOCAL = 800.0
_PATCH_SIZE = 200.0


def _wave_pose(phase: float) -> np.ndarray:
    """Smooth sinusoidal joint-angle curves: finger curls about x plus a
    gently swaying wrist."""
    rot = np.zeros((N_ROTATIONS, 3))
    rot[0] = [0.1 * np.sin(0.7 * phase), 0.15 * np.sin(0.5 * phase), 0.2 * np.sin(0.6 * phase)]
    for r in range(1, N_ROTATIONS):
        rot[r, 0] = 0.35 + 0.25 * np.sin(phase + 0.4 * r)
        rot[r, 2] = 0.05 * np.sin(0.8 * phase + 0.2 * r)
    return rot


def _spec_at(phase: float) -> PatchSpec:
    ulx = 180.0 + 60.0 * np.sin(0.2 * phase)
    uly = 120.0 + 40.0 * np.cos(0.14 * phase)
    return PatchSpec(
        frame_w=_FRAME_W,
        frame_h=_FRAME_H,
        upper_left=(ulx, uly),
        patch_size=_PATCH_SIZE,
        focal=_FOCAL,
    )


def _weak_at(phase: float) -> tuple[float, float, float]:
    """The weak camera's (scale, tx, ty)."""
    return 4.0 + 0.4 * np.sin(0.5 * phase + 0.3), 0.02 * np.sin(phase / 3.0), -0.1 + 0.02 * np.cos(phase / 3.0)


def synth_sequence(
    model: HandModelParams,
    n_frames: int,
    motion: str = "wave",
    noise_px: float = 0.0,
    outlier_rate: float = 0.0,
    seed: int = 0,
) -> SynthSequence:
    """Generate a deterministic ground-truth sequence and a noisy observation.

    Ground truth follows smooth sinusoidal pose/camera trajectories with 2D
    joints obtained by projecting the posed skeleton (all frames in one FK
    call) into the moving crop.  The observed variant adds seeded Gaussian
    noise to the 2D joints and, at `outlier_rate`, replaces whole frames
    with confidence-killing garbage (scrambled joints, randomized pose and
    camera).  Identical seeds yield bit-identical output.
    """
    if motion not in MOTION_PRESETS:
        raise ValueError(f"unknown motion preset {motion!r}; options: {MOTION_PRESETS}")
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    rng = np.random.default_rng(seed)
    shape = HandShape(0.2 * np.sin(1.0 + np.arange(10)))

    n_outliers = int(round(outlier_rate * n_frames))
    outliers: set[int] = set()
    if n_outliers > 0:
        if n_frames < 2:
            raise ValueError("outliers need at least 2 frames")
        # frame 0 stays clean so gating always has a donor
        outliers = set(rng.choice(np.arange(1, n_frames), size=min(n_outliers, n_frames - 1), replace=False).tolist())

    phases = [2.0 * np.pi * t / 120.0 for t in range(n_frames)]
    specs = tuple(_spec_at(phase) for phase in phases)
    columns = SpecColumns.stack(specs)
    rotations = np.stack([_wave_pose(phase) if motion == "wave" else np.zeros((N_ROTATIONS, 3)) for phase in phases])
    betas = np.tile(shape.betas, (n_frames, 1))
    weak = np.array([_weak_at(phase) for phase in phases])
    joints3d = posed_joints(model, betas, rotations)
    joints2d = frame_to_patch_abs(project_points(joints3d, weak_to_full(weak, columns)), columns)
    gt = FrameArrays(
        frame_index=np.arange(n_frames, dtype=np.int64), rotations=rotations, betas=betas, weak=weak,
        joints2d=joints2d, specs=columns, confidence=np.full(n_frames, np.nan),
        unreliable=np.zeros(n_frames, dtype=bool), replaced_from=np.full(n_frames, NOT_REPLACED),
    )

    observed_rotations, observed_weak, observed_joints2d = rotations.copy(), weak.copy(), joints2d.copy()
    for t in range(n_frames):
        if t in outliers:
            observed_rotations[t], observed_weak[t], observed_joints2d[t] = _corrupt_frame(
                model, shape, joints2d[t], specs[t], rng)
        elif noise_px > 0:
            observed_joints2d[t] += rng.normal(0.0, noise_px, size=joints2d[t].shape)
    observed = replace(gt, rotations=observed_rotations, weak=observed_weak, joints2d=observed_joints2d)

    gt_records = gt.to_records()
    for t, (doc, frame_joints3d) in enumerate(zip(gt_records, joints3d.tolist())):
        doc["joints3d"] = frame_joints3d
        doc["is_outlier"] = t in outliers
    return SynthSequence(gt=gt_records, observed=observed.to_records(), outlier_indices=sorted(outliers))


def _corrupt_frame(model: HandModelParams, shape: HandShape, joints2d: np.ndarray, spec: PatchSpec, rng):
    """Garbage rotations, weak camera and joints2d for one frame, such that
    its detected and reprojected joints decorrelate.

    Resamples (bounded) until the would-be confidence drops below 0.3, so
    seeded outliers are confidence-killing by construction.
    """
    for _ in range(50):
        scrambled = rng.permutation(joints2d) + rng.normal(0.0, 40.0, size=(21, 2))
        pose = HandPose(rng.normal(0.0, 0.7, size=(16, 3)))
        weak = WeakCamera(
            scale=float(rng.uniform(2.0, 7.0)),
            tx=float(rng.uniform(-0.3, 0.3)),
            ty=float(rng.uniform(-0.4, 0.2)),
        )
        try:
            joints3d = forward_kinematics(model, shape, pose)
            frame_uv = project_points(joints3d, weak_to_full(weak, spec))
            conf = cosine_confidence(
                normalize_pred(scrambled, spec), normalize_proj(frame_uv, spec)
            )
        except ValueError:
            continue
        if conf < 0.3:
            return pose.rotations, (weak.scale, weak.tx, weak.ty), scrambled
    raise RuntimeError("failed to synthesize a low-confidence outlier frame")

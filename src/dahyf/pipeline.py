"""Pipeline composition: per-frame decode -> FK -> projection -> confidence,
then sequence-level gating and smoothing, with metrics against ground truth.

Input records are parsed straight into one `FrameArrays` struct of (T, …)
arrays, so each per-frame stage runs once over the whole clip, gating and
smoothing run on the arrays, and the output records are written straight
from them.  Output ordering always matches input ordering.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import toy
from .arrayio import read_coord_array
from .camera import project_points, weak_to_full
from .codec import CodecConfig, decode_soft_argmax
from .confidence import cosine_confidence, normalize_pred, normalize_proj
from .data import match_labels, read_jsonl, write_jsonl
from .geometry import RowError, frame_to_patch_abs
from .hand_model import N_KEYPOINTS, HandModelParams, load_model, posed_joints
from .jsonrecord import JsonRecord, read_json, write_json
from .metrics import epe_2d, summarize
from .tempfilter import NOT_REPLACED, FilterConfig, FrameArrays, gate_arrays, smooth_arrays

CONFIG_FORMAT_VERSION = 2
REPORT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class PipelineConfig(JsonRecord):
    format_version = CONFIG_FORMAT_VERSION
    codec: CodecConfig = CodecConfig()
    filter: FilterConfig = FilterConfig()
    model_path: str | None = None          # None -> bundled toy model
    focal_policy: str = "explicit"         # or "sqrt_fallback"

    def __post_init__(self):
        if self.focal_policy not in ("explicit", "sqrt_fallback"):
            raise ValueError("focal_policy must be 'explicit' or 'sqrt_fallback'")

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        # version 1 also held four fields that no stage read; only those are dropped
        if isinstance(doc, dict) and doc.get("format_version") == 1:
            doc = {key: value for key, value in doc.items()
                   if key not in ("pe_octaves", "pooling", "negative_target", "seed")}
        return super().from_dict(doc)


def load_config(path: str | Path) -> PipelineConfig:
    return PipelineConfig.from_dict(read_json(path))


def save_config(config: PipelineConfig, path: str | Path) -> None:
    write_json(config.to_dict(), path)


def _resolve_model(config: PipelineConfig) -> HandModelParams:
    if config.model_path is None:
        return load_model(toy.bundled_model_path())
    return load_model(config.model_path)


def _read_clip(in_path: Path, config: PipelineConfig) -> FrameArrays:
    """Read the input records into one clip.  A record that names a logits
    file takes its joints from it (every file decoded through one buffer),
    in place of any `joints2d` it holds.  Then the focal policy applies:
    'sqrt_fallback' drops any explicit focal so every downstream consumer
    picks up the sqrt(W^2 + H^2) default, 'explicit' demands one.  A bad
    record fails naming its frame."""
    docs = read_jsonl(in_path)
    if not docs:
        raise ValueError(f"no frames in {in_path}")
    logits_buf = np.empty((N_KEYPOINTS, 2, config.codec.n_bins))
    for t, doc in enumerate(docs):
        if isinstance(doc, dict) and doc.get("logits_file"):
            try:
                logits = read_coord_array(in_path.parent / doc["logits_file"], out=logits_buf)
                joints2d = decode_soft_argmax(logits, config.codec, scratch=logits)
            except (ValueError, TypeError, OSError) as exc:
                raise RuntimeError(f"frame {doc.get('frame_index', t)}: {exc}") from exc
            docs[t] = {**doc, "joints2d": joints2d.tolist()}
    try:
        clip = FrameArrays.from_records(docs)
    except ValueError as exc:
        raise RuntimeError(str(exc)) from exc
    no_focal = np.isnan(clip.specs.focal)
    if config.focal_policy == "sqrt_fallback":
        return replace(clip, specs=replace(clip.specs, focal=np.full(len(no_focal), np.nan)))
    with _naming_frames(clip.frame_index):
        RowError.check(no_focal, "focal_policy 'explicit' requires a focal in the spec")
    return clip


@contextmanager
def _naming_frames(frame_index: np.ndarray):
    """Re-raise a failed row check on a stack of frames naming the frame."""
    try:
        yield
    except RowError as exc:
        raise RuntimeError(f"frame {frame_index[exc.row]}: {exc}") from exc


def _repose_changed(model, raw: FrameArrays, out: FrameArrays, joints3d, uv):
    """The FK joints (T, 21, 3) and frame-pixel projections (T, 21, 2) of
    `out`, given those of `raw`: only the rows whose pose, shape or camera
    gating and smoothing changed are projected again.  FK is
    row-independent, so a changed row whose pose and shape equal some raw
    row's in every bit, as a gated row's equal its donor's, takes that row's
    joints; only the others are posed again."""
    rows = np.flatnonzero(out.reposed_rows(raw))
    if rows.size == 0:
        return joints3d, uv
    posed = {key.tobytes(): t for t, key in enumerate(_pose_keys(raw))}
    source = np.array([posed.get(key.tobytes(), -1) for key in _pose_keys(out)[rows]], dtype=np.int64)
    joints3d, uv = joints3d.copy(), uv.copy()
    known = source >= 0
    joints3d[rows[known]] = joints3d[source[known]]
    fresh = rows[~known]
    if fresh.size:
        joints3d[fresh] = posed_joints(model, out.betas[fresh], out.rotations[fresh])
    with _naming_frames(out.frame_index[rows]):
        uv[rows] = project_points(joints3d[rows], weak_to_full(out.weak[rows], out.specs.rows(rows)))
    return joints3d, uv


def _pose_keys(clip: FrameArrays) -> np.ndarray:
    """(T, 58) rows of each frame's rotations and betas: FK's whole input."""
    return np.concatenate([clip.rotations.reshape(len(clip.rotations), -1), clip.betas], axis=1)


def run_pipeline(
    config: PipelineConfig,
    in_path: str | Path,
    out_path: str | Path,
    report_path: str | Path | None = None,
    gt_path: str | Path | None = None,
) -> dict:
    """Run decode/FK/project/confidence, gate, smooth; write results + report.

    Every input frame produces exactly one output line, in order.  Errors in
    any stage are re-raised with the offending frame index.  Every logits
    file of the clip is read and decoded through one buffer.
    """
    model = _resolve_model(config)
    raw = _read_clip(Path(in_path), config)
    specs = raw.specs
    pre_joints3d = posed_joints(model, raw.betas, raw.rotations)
    with _naming_frames(raw.frame_index):
        pre_uv = project_points(pre_joints3d, weak_to_full(raw.weak, specs))
        confidence = cosine_confidence(normalize_pred(raw.joints2d, specs), normalize_proj(pre_uv, specs))
    raw = replace(raw, confidence=confidence)

    out = smooth_arrays(gate_arrays(raw, config.filter), config.filter)
    post_joints3d, post_uv = _repose_changed(model, raw, out, pre_joints3d, pre_uv)

    out_docs = out.to_records()
    for doc, joints3d in zip(out_docs, post_joints3d.tolist()):
        doc["joints3d"] = joints3d
    write_jsonl(out_docs, out_path)

    report = _build_report(config, raw, out, specs, pre_uv, post_joints3d, post_uv, gt_path)
    if report_path is not None:
        write_json(report, report_path)
    return report


def _build_report(config, raw: FrameArrays, out: FrameArrays, specs, pre_uv, post_joints3d, post_uv, gt_path) -> dict:
    confidences = raw.confidence.tolist()
    report = {
        "format_version": REPORT_FORMAT_VERSION,
        "n_frames": len(confidences),
        "threshold": config.filter.threshold,
        "replaced_frames": out.frame_index[out.replaced_from != NOT_REPLACED].tolist(),
        "unreliable_frames": out.frame_index[out.unreliable].tolist(),
        "confidence": {
            "min": min(confidences),
            "mean": sum(confidences) / len(confidences),
        },
    }
    if gt_path is None:
        return report

    rows, gt = match_labels(raw.frame_index, gt_path, ("joints3d", "joints2d"))
    if not rows.size:
        return report
    with _naming_frames(raw.frame_index[rows]):
        summary = summarize(post_joints3d[rows], gt["joints3d"])
    report["metrics"] = {
        "mpjpe_mm": summary["mpjpe_mm"],
        "pa_mpjpe_mm": summary["pa_mpjpe_mm"],
        "epe_observed_px": float(np.mean(epe_2d(raw.joints2d[rows], gt["joints2d"]))),
        "epe_reproj_pre_px": float(np.mean(epe_2d(frame_to_patch_abs(pre_uv, specs)[rows], gt["joints2d"]))),
        "epe_reproj_post_px": float(np.mean(epe_2d(frame_to_patch_abs(post_uv, specs)[rows], gt["joints2d"]))),
        "pck": summary["pck"],
    }
    return report

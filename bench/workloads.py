"""Seeded inputs, the timed call and the correctness gate of each workload.

Every workload is a sequence of clips (for `train_targets`, batches).  Clip
`i` of a workload depends only on the seed and `i`, so a run that measures
more clips sees the same first clips as a shorter one.  Inputs are generated
in small chunks before each chunk is timed: the logits files of
`live_logits` are too large to hold a whole run on disk at once.

`synth_sequence` repeats its clean pose and camera trajectory across clips,
so each clip adds its own seeded pose, shape and camera offset and the ground
truth is recomputed with forward kinematics.  No FK input repeats within a
workload, and a memo cache cannot win on repeats that real captures lack.
"""

from __future__ import annotations

import inspect
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import dahyf
import dahyf.pipeline as pipeline_module
from dahyf import toy
from dahyf.arrayio import write_coord_array
from dahyf.camera import WeakCamera, project_points, weak_to_full
from dahyf.codec import CodecConfig, encode_labels, log_probs
from dahyf.confidence import cosine_confidence, normalize_pred, normalize_proj
from dahyf.data import synth_sequence, write_jsonl
from dahyf.geometry import frame_to_patch_abs
from dahyf.hand_model import HandPose, HandShape, forward_kinematics, load_model
from dahyf.losses import bone_loss_grad, kl_divergence_grad
from dahyf.pipeline import PipelineConfig
from dahyf.tempfilter import FilterConfig, FrameResult, SmoothingConfig
from host import Host, kernel_ms

DEFAULT_SEED = 0

# A run stops starting new chunks after this much wall time, so that a much
# slower program still ends well inside the 180 s a run is allowed.
WALL_LIMIT_S = 120.0

# Same cut-off as dahyf.data._corrupt_frame: an outlier must kill confidence.
OUTLIER_MAX_CONFIDENCE = 0.3
DECODE_TOL_PX = 1e-3
ROW_SUM_TOL = 1e-12


def _frame_doc(frame: FrameResult, **extra) -> dict:
    doc = frame.to_dict()
    doc.update(extra)
    return doc


def clip_length(seed: int, clip: int, lengths: tuple[int, ...]) -> int:
    """Length of clip `clip`: every block of len(lengths) clips is a seeded
    permutation of `lengths`, so the length mix, and with it the clip-time
    percentiles, does not drift with the seed."""
    block, pos = divmod(clip, len(lengths))
    order = np.random.default_rng([seed, block, 7]).permutation(len(lengths))
    return lengths[int(order[pos])]


@dataclass
class SynthClip:
    gt: list[FrameResult]
    joints3d: list[np.ndarray]
    observed: list[FrameResult]
    outliers: list[int]


def synth_clip(model, seed: int, clip: int, n_frames: int, noise_px: float, outlier_rate: float,
               margin_px: float | None = None) -> SynthClip:
    """One clip from `synth_sequence` with the clip's own pose, shape and
    camera offset.  Outlier frames stay confidence-killing after the offset;
    with `margin_px`, observed joints are clamped that far inside the patch
    so the codec can represent them."""
    rng = np.random.default_rng([seed, clip])
    base = synth_sequence(model, n_frames, noise_px=0.0, outlier_rate=outlier_rate,
                          seed=int(rng.integers(2**31)))
    pose_offset = rng.normal(0.0, 0.1, size=(16, 3))
    shape = HandShape(rng.normal(0.0, 0.5, size=10))
    scale_mul = rng.uniform(0.9, 1.1)
    dtx, dty = rng.uniform(-0.01, 0.01, size=2)
    dux, duy = rng.uniform(-15.0, 15.0, size=2)
    outliers = set(base.outlier_indices)

    def clamp(j2d, spec):
        return j2d if margin_px is None else np.clip(j2d, margin_px, spec.net_size - margin_px)

    gt, joints3d, observed = [], [], []
    for gt_doc, obs_doc in zip(base.gt, base.observed):
        f = FrameResult.from_dict(gt_doc)
        spec = replace(f.spec, upper_left=(f.spec.upper_left[0] + dux, f.spec.upper_left[1] + duy))
        weak = WeakCamera(f.weak.scale * scale_mul, f.weak.tx + dtx, f.weak.ty + dty)
        pose = HandPose(f.pose.rotations + pose_offset)
        j3d = forward_kinematics(model, shape, pose)
        j2d = frame_to_patch_abs(project_points(j3d, weak_to_full(weak, spec)), spec)
        truth = replace(f, pose=pose, shape=shape, weak=weak, spec=spec, joints2d=j2d)
        if f.frame_index in outliers:
            corrupt = FrameResult.from_dict(obs_doc)
            obs = _outlier(model, truth, replace(corrupt, shape=shape, spec=spec,
                                                  joints2d=clamp(corrupt.joints2d, spec)), rng, clamp)
        else:
            obs = replace(truth, joints2d=clamp(j2d + rng.normal(0.0, noise_px, size=j2d.shape), spec))
        gt.append(truth)
        joints3d.append(j3d)
        observed.append(obs)
    return SynthClip(gt, joints3d, observed, sorted(outliers))


def _confidence(model, frame: FrameResult) -> float:
    j3d = forward_kinematics(model, frame.shape, frame.pose)
    uv = project_points(j3d, weak_to_full(frame.weak, frame.spec))
    return cosine_confidence(normalize_pred(frame.joints2d, frame.spec), normalize_proj(uv, frame.spec))


def _outlier(model, truth: FrameResult, candidate: FrameResult, rng, clamp) -> FrameResult:
    """Keep the corrupted frame if it still kills confidence under the clip's
    offsets, else resample it the way synth_sequence corrupts frames."""
    for _ in range(50):
        try:
            if _confidence(model, candidate) < OUTLIER_MAX_CONFIDENCE:
                return candidate
        except ValueError:
            pass
        scrambled = rng.permutation(truth.joints2d) + rng.normal(0.0, 40.0, size=(21, 2))
        candidate = replace(
            truth,
            pose=HandPose(rng.normal(0.0, 0.7, size=(16, 3))),
            weak=WeakCamera(float(rng.uniform(2.0, 7.0)), float(rng.uniform(-0.3, 0.3)),
                            float(rng.uniform(-0.4, 0.2))),
            joints2d=clamp(scrambled, truth.spec),
        )
    raise RuntimeError(f"frame {truth.frame_index}: no low-confidence outlier after 50 draws")


@dataclass
class Clip:
    index: int
    frames: int
    dir: Path | None = None   # the clip's input and output files, if it has any
    data: dict = field(default_factory=dict)


def _read_lines(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _check_lines(clip: Clip, out_docs: list[dict]) -> list[str]:
    """One output line per input line, in input order."""
    indices = [d.get("frame_index") for d in out_docs]
    if indices != list(range(clip.frames)):
        return [f"clip {clip.index}: output frame indices {indices[:5]}... "
                f"do not match the {clip.frames} input lines"]
    return []


class PipelineWorkload:
    """A clip is one `run_pipeline` call on files written before timing."""

    config: PipelineConfig
    lengths: tuple[int, ...]
    chunk = 10
    gold_clips = 100        # clips whose report the golden file holds
    gold_joints_clips = 3   # clips whose output joints3d it holds too

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.model = load_model(toy.bundled_model_path())
        self.api = SimpleNamespace(run_pipeline=dahyf.run_pipeline)

    def make_clip(self, index: int) -> Clip:
        n = clip_length(self.seed, index, self.lengths)
        clip = Clip(index, n, dir=self.workdir / f"clip{index:05d}")
        clip.dir.mkdir(parents=True)
        self.write_inputs(clip, synth_clip(self.model, self.seed, index, n, **self.synth_args))
        return clip

    def run(self, clip: Clip) -> dict:
        return self.api.run_pipeline(self.config, clip.dir / "obs.jsonl", clip.dir / "out.jsonl",
                                     clip.dir / "report.json", clip.data.get("gt"))

    def check(self, clip: Clip, report: dict) -> tuple[list[str], dict]:
        out_docs = _read_lines(clip.dir / "out.jsonl")
        errors = _check_lines(clip, out_docs) or self.check_outputs(clip, report, out_docs)
        record = {"report": report}
        if clip.index < self.gold_joints_clips:
            record["joints3d"] = [d["joints3d"] for d in out_docs]
        return errors, record

    def discard(self, clip: Clip) -> None:
        shutil.rmtree(clip.dir, ignore_errors=True)

    def trace_targets(self) -> list[tuple[object, str]]:
        """`run_pipeline`, the FrameResult (de)serializers and every dahyf
        function that `dahyf.pipeline` imports."""
        targets = [(self.api, "run_pipeline"), (FrameResult, "from_dict"), (FrameResult, "to_dict")]
        for name, obj in vars(pipeline_module).items():
            if inspect.isfunction(obj) and obj.__module__.startswith("dahyf.") \
                    and obj.__module__ != pipeline_module.__name__:
                targets.append((pipeline_module, name))
        return targets


class EvalShort(PipelineWorkload):
    """Research evaluation: short clips with ground truth, default config."""

    name = "eval_short"
    config = PipelineConfig()
    lengths = (8, 16, 24, 32, 40)
    synth_args = {"noise_px": 0.5, "outlier_rate": 0.1}

    def write_inputs(self, clip: Clip, sc: SynthClip) -> None:
        clip.data["outliers"] = sc.outliers
        clip.data["gt"] = clip.dir / "gt.jsonl"
        write_jsonl([_frame_doc(f) for f in sc.observed], clip.dir / "obs.jsonl")
        write_jsonl([_frame_doc(f, joints3d=j.tolist(), is_outlier=f.frame_index in sc.outliers)
                     for f, j in zip(sc.gt, sc.joints3d)], clip.data["gt"])

    def check_outputs(self, clip, report, out_docs) -> list[str]:
        errors = []
        if report["replaced_frames"] != clip.data["outliers"]:
            errors.append(f"clip {clip.index}: replaced frames {report['replaced_frames']} "
                          f"!= synthesized outliers {clip.data['outliers']}")
        if report["unreliable_frames"]:
            errors.append(f"clip {clip.index}: unreliable frames {report['unreliable_frames']}")
        if "metrics" not in report:
            errors.append(f"clip {clip.index}: report has no metrics against ground truth")
        return errors


class LiveLogits(PipelineWorkload):
    """Deployment behind a backbone: every frame decoded from its own logits
    file, one-euro smoothing, no ground truth."""

    name = "live_logits"
    config = PipelineConfig(filter=FilterConfig(smoothing=SmoothingConfig(mode="one_euro")))
    lengths = (20, 25, 30, 35, 40)
    chunk = 4  # each frame's logits file is ~225 KB
    # Coordinates within 5 sigma of the patch edge lose Gaussian mass to the
    # truncated bins and no longer decode to within 1e-3 px.
    synth_args = {"noise_px": 0.5, "outlier_rate": 0.1,
                  "margin_px": 5.0 * CodecConfig().sigma_bins / CodecConfig().scale + 2.0}

    def write_inputs(self, clip: Clip, sc: SynthClip) -> None:
        (clip.dir / "logits").mkdir()
        docs = []
        for f in sc.observed:
            name = f"logits/f{f.frame_index:04d}.bin"
            write_coord_array(log_probs(encode_labels(f.joints2d, self.config.codec)), clip.dir / name)
            # joints2d is a placeholder; the pipeline decodes it from the logits file
            docs.append(_frame_doc(replace(f, joints2d=np.zeros_like(f.joints2d)), logits_file=name))
        clip.data["encoded"] = np.stack([f.joints2d for f in sc.observed])
        write_jsonl(docs, clip.dir / "obs.jsonl")

    def check_outputs(self, clip, report, out_docs) -> list[str]:
        decoded = np.array([d["joints2d"] for d in out_docs], dtype=np.float64)
        err = float(np.max(np.abs(decoded - clip.data["encoded"])))
        if not err <= DECODE_TOL_PX:
            return [f"clip {clip.index}: decoded joints2d off the encoded ones by {err:.3g} px"]
        return []


class TrainTargets:
    """Training-side targets, fused features and losses for batches of
    synthesized ground-truth frames.  A clip is a batch; a sample is a frame.
    Batch sizes are mixed like clip lengths, so batch-time percentiles mean
    the same as clip-time ones."""

    name = "train_targets"
    lengths = (8, 12, 16, 20, 24)
    chunk = 5
    gold_clips = 25
    implicit_channels = 6
    logit_sigma_bins = 8.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.model = load_model(toy.bundled_model_path())
        self.codec = CodecConfig()
        self.api = SimpleNamespace(**{name: getattr(dahyf, name) for name in (
            "global_direction_map", "encode_labels", "pe_normalize", "positional_encode",
            "pool_feature_map", "assemble_dahyf", "kl_divergence", "bone_loss", "homoscedastic_total")},
            kl_divergence_grad=kl_divergence_grad, bone_loss_grad=bone_loss_grad)

    def make_clip(self, index: int) -> Clip:
        n = clip_length(self.seed, index, self.lengths)
        sc = synth_clip(self.model, self.seed, index, n, noise_px=0.0, outlier_rate=0.0)
        rng = np.random.default_rng([self.seed, index, 3])
        bins = np.arange(self.codec.n_bins, dtype=np.float64)
        samples = []
        for f, j3d in zip(sc.gt, sc.joints3d):
            # a backbone's prediction: a Gaussian bump near the true bin plus noise
            mu = (f.joints2d + rng.normal(0.0, 1.0, size=f.joints2d.shape))[..., None] * self.codec.scale
            logits = -0.5 * ((bins - mu) / self.logit_sigma_bins) ** 2
            logits += rng.normal(0.0, 0.05, size=logits.shape)
            samples.append(SimpleNamespace(
                spec=f.spec, joints2d=f.joints2d, joints3d=j3d, logits=logits,
                pred3d=j3d + rng.normal(0.0, 0.005, size=j3d.shape),
                implicit=rng.normal(size=(self.implicit_channels, f.spec.feat_size, f.spec.feat_size)),
            ))
        weights = dahyf.LossWeights(*rng.uniform(0.5, 2.0, size=5))
        return Clip(index, n, data={"samples": samples, "weights": weights})

    def run(self, clip: Clip) -> list[tuple]:
        api, codec, parent = self.api, self.codec, self.model.parent
        weights = clip.data["weights"]
        out = []
        for s in clip.data["samples"]:
            dmap = api.global_direction_map(s.spec)
            targets = api.encode_labels(s.joints2d, codec)
            pe = api.positional_encode(api.pe_normalize(s.joints2d, codec.net_size, s.spec.focal_or_default))
            feat = api.assemble_dahyf(api.pool_feature_map(np.concatenate([s.implicit, dmap.values])), pe)
            kl = api.kl_divergence(targets, s.logits)
            kl_grad = api.kl_divergence_grad(targets, s.logits)
            bone = api.bone_loss(s.pred3d, s.joints3d, parent)
            bone_grad = api.bone_loss_grad(s.pred3d, s.joints3d, parent)
            # the other three backbone terms have no input in this workload
            total = api.homoscedastic_total((kl, 0.0, 0.0, 0.0, bone), weights)
            out.append((targets, feat, kl, kl_grad, bone, bone_grad, total))
        return out

    def check(self, clip: Clip, out: list[tuple]) -> tuple[list[str], dict]:
        errors, losses = [], []
        for i, (targets, feat, kl, kl_grad, bone, bone_grad, total) in enumerate(out):
            if not np.all(np.abs(targets.sum(axis=-1) - 1.0) <= ROW_SUM_TOL):
                errors.append(f"batch {clip.index} sample {i}: target rows do not sum to 1")
            arrays = (feat, kl_grad, bone_grad, np.array([kl, bone, total.total, total.regularizer]))
            if not all(np.all(np.isfinite(a)) for a in arrays):
                errors.append(f"batch {clip.index} sample {i}: non-finite loss, gradient or feature")
            losses.append([kl, bone, total.total])
        return errors, {"losses": losses}

    def discard(self, clip: Clip) -> None:
        clip.data.clear()

    def trace_targets(self) -> list[tuple[object, str]]:
        return [(self.api, name) for name in vars(self.api)]


WORKLOADS = {w.name: w for w in (EvalShort, LiveLogits, TrainTargets)}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    frames: list[int] = field(default_factory=list)      # per clip that returned
    seconds: list[float] = field(default_factory=list)   # per clip that returned, untraced
    cpu_seconds: list[float] = field(default_factory=list)
    kernel_before_ms: list[float] = field(default_factory=list)  # calibration kernel around each clip
    kernel_after_ms: list[float] = field(default_factory=list)
    traced_frames: list[int] = field(default_factory=list)
    traced_seconds: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)    # golden records of the first clips


def _timed(workload, clip):
    cpu, start = time.process_time(), time.perf_counter()
    result = workload.run(clip)
    return result, time.perf_counter() - start, time.process_time() - cpu


def _run_clip(workload, clip, outcome: Outcome, host: Host, tracer) -> list[str]:
    before = host.settle()
    result, dt, cpu = _timed(workload, clip)
    outcome.kernel_before_ms.append(before)
    outcome.kernel_after_ms.append(kernel_ms())
    outcome.frames.append(clip.frames)
    outcome.seconds.append(dt)
    outcome.cpu_seconds.append(cpu)
    errors, record = workload.check(clip, result)
    if clip.index < workload.gold_clips:
        outcome.records.append(record)
    if tracer is not None and not errors:
        with tracer.installed(workload.trace_targets(), clip.index):
            result, dt, _ = _timed(workload, clip)
        outcome.traced_frames.append(clip.frames)
        outcome.traced_seconds.append(dt)
        errors = workload.check(clip, result)[0]
    return errors


def drive(workload, seconds: float, min_clips: int, tracer=None) -> Outcome:
    """Closed loop, one client: the next clip starts when the previous one
    returns.  Runs until `seconds` of clip time and `min_clips` clips are
    done.  With a tracer, each clip runs untraced and then again traced.
    Each clip runs on the CPU that is least contended just before it."""
    outcome, host = Outcome(), Host()
    try:
        _drive(workload, seconds, min_clips, tracer, outcome, host)
    finally:
        host.release()
    return outcome


def _drive(workload, seconds, min_clips, tracer, outcome: Outcome, host: Host) -> None:
    wall0 = time.perf_counter()
    while (outcome.attempted < min_clips or sum(outcome.seconds) + sum(outcome.traced_seconds) < seconds) \
            and time.perf_counter() - wall0 < WALL_LIMIT_S:
        first = outcome.attempted
        chunk = [workload.make_clip(i) for i in range(first, first + workload.chunk)]
        for clip in chunk:
            outcome.attempted += 1
            try:
                errors = _run_clip(workload, clip, outcome, host, tracer)
            except Exception as exc:  # a failing clip is counted and the run goes on
                traceback.print_exc(file=sys.stderr)
                errors = [f"clip {clip.index}: {type(exc).__name__}: {exc}"]
            finally:
                workload.discard(clip)
            if errors:
                outcome.failed += 1
                outcome.errors.extend(errors)

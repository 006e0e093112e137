"""Command-line interface.

Subcommands: dirmap, codec encode|decode, pe, fk, project, confidence,
filter, eval, synth, gradcheck, run.  All JSON artifacts carry a
format_version field; dense arrays use the binary containers in `arrayio`.
The DAHYF_SEED environment variable overrides any seed argument.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import toy
from .arrayio import read_coord_array, write_coord_array, write_direction_map
from .camera import WeakCamera, project_points, weak_to_full
from .codec import CodecConfig, decode_soft_argmax, encode_labels
from .confidence import cosine_confidence, cosine_confidence_grad, normalize_pred, normalize_proj
from .data import read_jsonl, synth_sequence, write_jsonl
from .fusion import pe_normalize, positional_encode
from .geometry import PatchSpec, global_direction_map, local_direction_map
from .hand_model import HandPose, HandShape, forward_kinematics, load_model
from .losses import (
    bone_loss,
    bone_loss_grad,
    finite_diff_gradient,
    kl_divergence,
    kl_divergence_grad,
    l1_loss,
    l1_loss_grad,
    l2_loss,
    l2_loss_grad,
)
from .jsonrecord import read_json, write_json
from .metrics import epe_2d, f_score, summarize
from .pipeline import PipelineConfig, load_config, run_pipeline
from .tempfilter import SMOOTHING_MODES, FilterConfig, FrameArrays, SmoothingConfig, gate_arrays, smooth_arrays

JSON_FORMAT_VERSION = 1

SEED_ENV_VAR = "DAHYF_SEED"


def _load_joints(path, dim):
    doc = read_json(path)
    joints = np.asarray(doc["joints"], dtype=np.float64)
    if joints.ndim != 2 or joints.shape[1] != dim:
        raise ValueError(f"{path}: expected joints of dimension {dim}")
    return joints


def _seed_override(seed: int) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    return int(env) if env is not None else seed


def _cmd_dirmap(args) -> int:
    spec = PatchSpec.from_dict(read_json(args.spec))
    if args.local:
        dmap = local_direction_map(spec.feat_size, args.channels)
    else:
        dmap = global_direction_map(spec, args.channels)
    write_direction_map(dmap, args.out)
    print(f"wrote {dmap.channels}x{dmap.height}x{dmap.width} direction map to {args.out}")
    return 0


def _cmd_codec_encode(args) -> int:
    cfg = CodecConfig.from_dict(read_json(args.cfg)) if args.cfg else CodecConfig()
    targets = encode_labels(_load_joints(args.joints, 2), cfg)
    write_coord_array(targets, args.out)
    print(f"wrote targets {targets.shape} to {args.out}")
    return 0


def _cmd_codec_decode(args) -> int:
    cfg = CodecConfig.from_dict(read_json(args.cfg)) if args.cfg else CodecConfig()
    joints = decode_soft_argmax(read_coord_array(args.logits), cfg)
    write_json({"format_version": JSON_FORMAT_VERSION, "joints": joints.tolist()}, args.out)
    print(f"wrote {joints.shape[0]} decoded joints to {args.out}")
    return 0


def _cmd_pe(args) -> int:
    joints = _load_joints(args.joints, 2)
    mu = pe_normalize(joints, args.sp, args.focal)
    encoding = positional_encode(mu, args.octaves)
    write_json(
        {
            "format_version": JSON_FORMAT_VERSION,
            "mu": mu.tolist(),
            "encoding": encoding.tolist(),
        },
        args.out,
    )
    print(f"wrote length-{encoding.size} encoding to {args.out}")
    return 0


def _cmd_fk(args) -> int:
    model = load_model(args.model if args.model else toy.bundled_model_path())
    pose = HandPose(np.asarray(read_json(args.pose)["pose"], dtype=np.float64))
    shape = HandShape(np.asarray(read_json(args.shape)["shape"], dtype=np.float64)) if args.shape else HandShape.zeros()
    joints = forward_kinematics(model, shape, pose)
    write_json({"format_version": JSON_FORMAT_VERSION, "joints": joints.tolist()}, args.out)
    print(f"wrote 21 posed joints to {args.out}")
    return 0


def _cmd_project(args) -> int:
    joints3d = _load_joints(args.joints, 3)
    weak = WeakCamera.from_dict(read_json(args.weak))
    spec = PatchSpec.from_dict(read_json(args.spec))
    uv = project_points(joints3d, weak_to_full(weak, spec))
    write_json({"format_version": JSON_FORMAT_VERSION, "joints": uv.tolist()}, args.out)
    print(f"wrote {uv.shape[0]} projected joints to {args.out}")
    return 0


def _cmd_confidence(args) -> int:
    if args.batch:
        for doc in read_jsonl(args.batch):
            spec = PatchSpec.from_dict(doc["spec"])
            conf = cosine_confidence(
                normalize_pred(np.asarray(doc["pred"], dtype=np.float64), spec),
                normalize_proj(np.asarray(doc["proj"], dtype=np.float64), spec),
            )
            print(f"{conf:.6f}")
        return 0
    spec = PatchSpec.from_dict(read_json(args.spec))
    conf = cosine_confidence(
        normalize_pred(_load_joints(args.pred, 2), spec),
        normalize_proj(_load_joints(args.proj, 2), spec),
    )
    print(f"{conf:.6f}")
    return 0


def _cmd_filter(args) -> int:
    clip = FrameArrays.from_records(read_jsonl(args.infile))
    cfg = FilterConfig(
        threshold=args.threshold,
        max_hold_frames=args.max_hold,
        smoothing=SmoothingConfig(mode=args.smooth, alpha=args.alpha),
    )
    records = smooth_arrays(gate_arrays(clip, cfg), cfg).to_records()
    write_jsonl(records, args.out)
    replaced = sum(doc["replaced_from"] is not None for doc in records)
    print(f"filtered {len(records)} frames ({replaced} replaced) to {args.out}")
    return 0


def _matched(pairs, key):
    """(pred, gt) stacks of `key` over the matched frames that hold it in
    both documents, or None when none does."""
    rows = [(pred[key], gt[key]) for pred, gt in pairs if key in pred and key in gt]
    if not rows:
        return None
    pred, gt = zip(*rows)
    return np.asarray(pred, dtype=np.float64), np.asarray(gt, dtype=np.float64)


def _cmd_eval(args) -> int:
    pred_docs = read_jsonl(args.pred)
    gt_by_index = {doc.get("frame_index", i): doc for i, doc in enumerate(read_jsonl(args.gt))}
    matched = ((doc, gt_by_index.get(doc.get("frame_index", i))) for i, doc in enumerate(pred_docs))
    pairs = [(doc, gt_doc) for doc, gt_doc in matched if gt_doc is not None]
    report: dict = {"format_version": JSON_FORMAT_VERSION, "n_samples": len(pred_docs)}
    joints3d = _matched(pairs, "joints3d")
    if joints3d is not None:
        report.update(summarize(*joints3d))
    joints2d = _matched(pairs, "joints2d")
    if joints2d is not None:
        report["epe_px"] = float(np.mean(epe_2d(*joints2d)))
    vertices = _matched(pairs, "vertices")
    if vertices is not None:
        for mm in (5, 15):
            report[f"f_at_{mm}"] = float(np.mean([f_score(p, g, mm, correspondence="index") for p, g in zip(*vertices)]))
    write_json(report, args.report)
    print(f"wrote evaluation report to {args.report}")
    return 0


def _cmd_synth(args) -> int:
    model = load_model(args.model if args.model else toy.bundled_model_path())
    seq = synth_sequence(
        model,
        n_frames=args.frames,
        motion=args.motion,
        noise_px=args.noise,
        outlier_rate=args.outlier_rate,
        seed=_seed_override(args.seed),
    )
    write_jsonl(seq.gt, args.gt)
    write_jsonl(seq.observed, args.out)
    print(
        f"wrote {args.frames} frames (outliers: {seq.outlier_indices}) "
        f"to {args.out} with ground truth {args.gt}"
    )
    return 0


def _cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(_seed_override(args.seed))
    if args.loss == "kl":
        t = rng.dirichlet(np.ones(17), size=(3, 2))
        f = rng.normal(size=(3, 2, 17))
        analytic = kl_divergence_grad(t, f)
        numeric = finite_diff_gradient(lambda x: kl_divergence(t, x), f)
    elif args.loss == "l1":
        gt = rng.normal(size=12)
        x = gt + rng.normal(size=12)  # keep away from kinks
        analytic = l1_loss_grad(x, gt)
        numeric = finite_diff_gradient(lambda v: l1_loss(v, gt), x)
    elif args.loss == "l2":
        gt = rng.normal(size=12)
        x = rng.normal(size=12)
        analytic = l2_loss_grad(x, gt)
        numeric = finite_diff_gradient(lambda v: l2_loss(v, gt), x)
    elif args.loss == "bone":
        model = load_model(toy.bundled_model_path())
        gt = model.rest_joints
        x = gt + 0.01 * rng.normal(size=gt.shape)
        analytic = bone_loss_grad(x, gt, model.parent)
        numeric = finite_diff_gradient(lambda v: bone_loss(v, gt, model.parent), x)
    elif args.loss == "cosine":
        a = rng.normal(size=42)
        b = rng.normal(size=42)
        analytic = cosine_confidence_grad(a, b)
        numeric = finite_diff_gradient(lambda v: cosine_confidence(v, b), a)
    else:
        raise ValueError(f"unknown loss {args.loss!r}")
    denom = np.max(np.abs(numeric)) + 1e-12
    deviation = float(np.max(np.abs(analytic - numeric)) / denom)
    print(f"{args.loss}: max relative gradient deviation {deviation:.3e}")
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config) if args.config else PipelineConfig()
    report = run_pipeline(
        config,
        in_path=args.infile,
        out_path=args.out,
        report_path=args.report,
        gt_path=args.gt,
    )
    metrics = report.get("metrics")
    replaced = report["replaced_frames"]
    print(f"processed {report['n_frames']} frames, replaced {len(replaced)}")
    if metrics:
        print(
            f"mpjpe {metrics['mpjpe_mm']:.4f} mm, "
            f"epe(observed) {metrics['epe_observed_px']:.4f} px, "
            f"epe(reproj pre/post) {metrics['epe_reproj_pre_px']:.4f}/"
            f"{metrics['epe_reproj_post_px']:.4f} px"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dahyf", description="Direction-aware hand mocap numerics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dirmap", help="compute a direction map for a patch spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--channels", type=int, default=2)
    p.add_argument("--local", action="store_true", help="local index map instead of global directions")
    p.set_defaults(func=_cmd_dirmap)

    p = sub.add_parser("codec", help="sub-pixel coordinate codec")
    codec_sub = p.add_subparsers(dest="codec_command", required=True)
    enc = codec_sub.add_parser("encode")
    enc.add_argument("--joints", required=True)
    enc.add_argument("--cfg")
    enc.add_argument("--out", required=True)
    enc.set_defaults(func=_cmd_codec_encode)
    dec = codec_sub.add_parser("decode")
    dec.add_argument("--logits", required=True)
    dec.add_argument("--cfg")
    dec.add_argument("--out", required=True)
    dec.set_defaults(func=_cmd_codec_decode)

    p = sub.add_parser("pe", help="positional-encode 2D joints")
    p.add_argument("--joints", required=True)
    p.add_argument("--sp", type=int, default=224)
    p.add_argument("--focal", type=float, required=True)
    p.add_argument("-L", "--octaves", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pe)

    p = sub.add_parser("fk", help="forward kinematics")
    p.add_argument("--model")
    p.add_argument("--pose", required=True)
    p.add_argument("--shape")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fk)

    p = sub.add_parser("project", help="project 3D joints through a weak camera")
    p.add_argument("--joints", required=True)
    p.add_argument("--weak", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("confidence", help="cosine confidence between detections and reprojections")
    p.add_argument("--pred")
    p.add_argument("--proj")
    p.add_argument("--spec")
    p.add_argument("--batch", help="JSONL with pred/proj/spec per line")
    p.set_defaults(func=_cmd_confidence)

    p = sub.add_parser("filter", help="gate and smooth a frame sequence")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=FilterConfig.threshold)
    p.add_argument("--smooth", default=SmoothingConfig.mode, choices=SMOOTHING_MODES)
    p.add_argument("--alpha", type=float, default=SmoothingConfig.alpha)
    p.add_argument("--max-hold", type=int, default=FilterConfig.max_hold_frames)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic sequence")
    p.add_argument("--model")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--motion", default="wave", choices=["wave", "still"])
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--outlier-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("gradcheck", help="compare analytic and finite-difference gradients")
    p.add_argument("--loss", required=True, choices=["kl", "l1", "l2", "bone", "cosine"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("run", help="run the full pipeline over a sequence")
    p.add_argument("--config")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gt")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a clean diagnostic, nonzero exit
        print(f"dahyf: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

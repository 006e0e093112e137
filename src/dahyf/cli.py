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
from .data import match_labels, read_jsonl, read_labels, synth_sequence, write_jsonl
from .fusion import pe_normalize, positional_encode
from .geometry import PatchSpec, SpecColumns, global_direction_map, local_direction_map
from .hand_model import N_KEYPOINTS, N_ROTATIONS, N_SHAPE_COEFFS, HandPose, HandShape, forward_kinematics, load_model
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
from .jsonrecord import field, numbers, parse_rows, read_json, write_json
from .metrics import epe_2d, f_score, summarize
from .pipeline import PipelineConfig, load_config, run_pipeline
from .tempfilter import SMOOTHING_MODES, FilterConfig, FrameArrays, SmoothingConfig, gate_arrays, smooth_arrays

JSON_FORMAT_VERSION = 1

SEED_ENV_VAR = "DAHYF_SEED"


def _load_array(path, key: str, shape: tuple[int | None, ...]) -> np.ndarray:
    """The `key` array of a JSON file, through the package's number decoder."""
    try:
        return numbers([read_json(path)[key]], shape, key)[0]
    except KeyError:
        raise ValueError(f"{path}: missing field {key!r}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write_arrays(path, **arrays: np.ndarray) -> None:
    write_json({"format_version": JSON_FORMAT_VERSION, **{key: a.tolist() for key, a in arrays.items()}}, path)


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
    targets = encode_labels(_load_array(args.joints, "joints", (None, 2)), cfg)
    write_coord_array(targets, args.out)
    print(f"wrote targets {targets.shape} to {args.out}")
    return 0


def _cmd_codec_decode(args) -> int:
    cfg = CodecConfig.from_dict(read_json(args.cfg)) if args.cfg else CodecConfig()
    joints = decode_soft_argmax(read_coord_array(args.logits), cfg)
    _write_arrays(args.out, joints=joints)
    print(f"wrote {joints.shape[0]} decoded joints to {args.out}")
    return 0


def _cmd_pe(args) -> int:
    joints = _load_array(args.joints, "joints", (None, 2))
    mu = pe_normalize(joints, args.sp, args.focal)
    encoding = positional_encode(mu, args.octaves)
    _write_arrays(args.out, mu=mu, encoding=encoding)
    print(f"wrote length-{encoding.size} encoding to {args.out}")
    return 0


def _cmd_fk(args) -> int:
    model = load_model(args.model if args.model else toy.bundled_model_path())
    pose = HandPose(_load_array(args.pose, "pose", (N_ROTATIONS, 3)))
    shape = HandShape(_load_array(args.shape, "shape", (N_SHAPE_COEFFS,))) if args.shape else HandShape.zeros()
    joints = forward_kinematics(model, shape, pose)
    _write_arrays(args.out, joints=joints)
    print(f"wrote 21 posed joints to {args.out}")
    return 0


def _cmd_project(args) -> int:
    joints3d = _load_array(args.joints, "joints", (None, 3))
    weak = WeakCamera.from_dict(read_json(args.weak))
    spec = PatchSpec.from_dict(read_json(args.spec))
    uv = project_points(joints3d, weak_to_full(weak, spec))
    _write_arrays(args.out, joints=uv)
    print(f"wrote {uv.shape[0]} projected joints to {args.out}")
    return 0


def _cmd_confidence(args) -> int:
    if args.batch:
        pred, proj, specs = parse_rows(_confidence_pairs, read_jsonl(args.batch), unit="line")
    else:
        pred, proj = (_load_array(path, "joints", (None, 2))[None] for path in (args.pred, args.proj))
        specs = SpecColumns.stack([PatchSpec.from_dict(read_json(args.spec))])
    for conf in cosine_confidence(normalize_pred(pred, specs), normalize_proj(proj, specs)):
        print(f"{conf:.6f}")
    return 0


def _confidence_pairs(docs):
    """The (T, 21, 2) `pred` and `proj` stacks of confidence batch lines, and their specs."""
    pred, proj = (numbers([doc[key] for doc in docs], (N_KEYPOINTS, 2), key) for key in ("pred", "proj"))
    return pred, proj, SpecColumns.stack([field(doc, "spec", PatchSpec) for doc in docs])


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


def _cmd_eval(args) -> int:
    frame_index, pred = read_labels(args.pred)
    rows, gt = match_labels(frame_index, args.gt)
    scored = {name: (pred[name][rows], gt[name]) for name in pred.keys() & gt.keys()} if rows.size else {}
    report: dict = {"format_version": JSON_FORMAT_VERSION, "n_samples": len(frame_index)}
    if "joints3d" in scored:
        report.update(summarize(*scored["joints3d"]))
    if "joints2d" in scored:
        report["epe_px"] = float(np.mean(epe_2d(*scored["joints2d"])))
    if "vertices" in scored:
        for mm in (5, 15):
            report[f"f_at_{mm}"] = float(np.mean([f_score(p, g, mm, correspondence="index")
                                                  for p, g in zip(*scored["vertices"])]))
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

    def command(subparsers, name: str, func, required=(), **kwargs) -> argparse.ArgumentParser:
        """A subcommand that calls `func`, with a required option for each flag in `required`."""
        p = subparsers.add_parser(name, **kwargs)
        for flag in required:
            p.add_argument(flag, required=True)
        p.set_defaults(func=func)
        return p

    p = command(sub, "dirmap", _cmd_dirmap, ("--spec", "--out"), help="compute a direction map for a patch spec")
    p.add_argument("--channels", type=int, default=2)
    p.add_argument("--local", action="store_true", help="local index map instead of global directions")

    codec_sub = sub.add_parser("codec", help="sub-pixel coordinate codec").add_subparsers(
        dest="codec_command", required=True)
    command(codec_sub, "encode", _cmd_codec_encode, ("--joints", "--out")).add_argument("--cfg")
    command(codec_sub, "decode", _cmd_codec_decode, ("--logits", "--out")).add_argument("--cfg")

    p = command(sub, "pe", _cmd_pe, ("--joints", "--out"), help="positional-encode 2D joints")
    p.add_argument("--sp", type=int, default=224)
    p.add_argument("--focal", type=float, required=True)
    p.add_argument("-L", "--octaves", type=int, default=4)

    p = command(sub, "fk", _cmd_fk, ("--pose", "--out"), help="forward kinematics")
    p.add_argument("--model")
    p.add_argument("--shape")

    command(sub, "project", _cmd_project, ("--joints", "--weak", "--spec", "--out"),
            help="project 3D joints through a weak camera")

    p = command(sub, "confidence", _cmd_confidence, help="cosine confidence between detections and reprojections")
    p.add_argument("--pred")
    p.add_argument("--proj")
    p.add_argument("--spec")
    p.add_argument("--batch", help="JSONL with pred/proj/spec per line; replaces --pred, --proj and --spec")

    p = command(sub, "filter", _cmd_filter, ("--out",), help="gate and smooth a frame sequence")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--threshold", type=float, default=FilterConfig.threshold)
    p.add_argument("--smooth", default=SmoothingConfig.mode, choices=SMOOTHING_MODES)
    p.add_argument("--alpha", type=float, default=SmoothingConfig.alpha)
    p.add_argument("--max-hold", type=int, default=FilterConfig.max_hold_frames)

    command(sub, "eval", _cmd_eval, ("--pred", "--gt", "--report"), help="evaluate predictions against ground truth")

    p = command(sub, "synth", _cmd_synth, ("--gt", "--out"), help="generate a synthetic sequence")
    p.add_argument("--model")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--motion", default="wave", choices=["wave", "still"])
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--outlier-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)

    p = command(sub, "gradcheck", _cmd_gradcheck, help="compare analytic and finite-difference gradients")
    p.add_argument("--loss", required=True, choices=["kl", "l1", "l2", "bone", "cosine"])
    p.add_argument("--seed", type=int, default=0)

    p = command(sub, "run", _cmd_run, ("--out",), help="run the full pipeline over a sequence")
    p.add_argument("--config")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gt")
    p.add_argument("--report")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "confidence" and not args.batch and None in (args.pred, args.proj, args.spec):
        parser.error("confidence needs --batch, or all of --pred, --proj and --spec")
    try:
        return args.func(args)
    except Exception as exc:  # surface a clean diagnostic, nonzero exit
        print(f"dahyf: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

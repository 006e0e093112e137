"""`run_pipeline` outputs against committed golden files.

Each case rebuilds its inputs from a seeded synthetic sequence in a
temporary directory, runs the pipeline and compares `out.jsonl` and
`report.json` with `tests/golden/<case>/`.  A case with ground truth also
runs `dahyf eval` on its `out.jsonl` and compares the report with
`eval.json`.  Integers, booleans, strings and index lists must match
exactly; floats within 1e-12 (relative above magnitude 1), the tolerance
the ROADMAP allows for reordered sums.

Regenerate the files only when outputs are meant to change:
`PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dahyf.arrayio import write_coord_array
from dahyf.cli import main
from dahyf.codec import CodecConfig, encode_labels, log_probs
from dahyf.data import read_jsonl, synth_sequence, write_jsonl
from dahyf.hand_model import load_model
from dahyf.pipeline import PipelineConfig, run_pipeline
from dahyf.tempfilter import FilterConfig, SmoothingConfig
from dahyf.toy import bundled_model_path

GOLDEN_DIR = Path(__file__).with_name("golden")
TOLERANCE = 1e-12


def _write_obs_gt(seq, workdir: Path, gt: bool = True):
    obs = workdir / "obs.jsonl"
    write_jsonl(seq.observed, obs)
    if not gt:
        return obs, None
    write_jsonl(seq.gt, workdir / "gt.jsonl")
    return obs, workdir / "gt.jsonl"


def _off_with_outliers(model, workdir):
    """Default config: gating only, with ground truth and outliers."""
    seq = synth_sequence(model, 10, noise_px=0.5, outlier_rate=0.2, seed=11)
    return PipelineConfig(), *_write_obs_gt(seq, workdir)


def _exponential(model, workdir):
    seq = synth_sequence(model, 8, noise_px=1.0, outlier_rate=0.15, seed=12)
    config = PipelineConfig(filter=FilterConfig(smoothing=SmoothingConfig(mode="exponential", alpha=0.35)))
    return config, *_write_obs_gt(seq, workdir)


def _one_euro_logits(model, workdir):
    """Every frame decoded from its own logits file; frames 2 and 5 are
    missing, so the one-euro filter sees gaps of two frames."""
    seq = synth_sequence(model, 8, noise_px=0.5, outlier_rate=0.0, seed=13)
    codec = CodecConfig()
    docs = [doc for doc in seq.observed if doc["frame_index"] not in (2, 5)]
    for doc in docs:
        name = f"f{doc['frame_index']}.bin"
        write_coord_array(log_probs(encode_labels(np.asarray(doc["joints2d"]), codec)), workdir / name)
        doc["logits_file"] = name
        doc["joints2d"] = np.zeros((21, 2)).tolist()  # decoded from the file instead
    write_jsonl(docs, workdir / "obs.jsonl")
    config = PipelineConfig(filter=FilterConfig(
        smoothing=SmoothingConfig(mode="one_euro", min_cutoff=0.5, beta=0.05)))
    return config, workdir / "obs.jsonl", None


def _sqrt_fallback(model, workdir):
    """The focal policy drops the records' focal; a one-frame hold leaves
    some outliers without a donor, so they are marked unreliable."""
    seq = synth_sequence(model, 8, noise_px=0.5, outlier_rate=0.4, seed=15)
    for doc in seq.observed:
        doc["spec"]["focal"] = 1000.0
    config = PipelineConfig(focal_policy="sqrt_fallback", filter=FilterConfig(threshold=0.6, max_hold_frames=1))
    return config, *_write_obs_gt(seq, workdir)


CASES = {
    "off_gt_outliers": _off_with_outliers,
    "exponential": _exponential,
    "one_euro_logits": _one_euro_logits,
    "sqrt_fallback": _sqrt_fallback,
}


# the cases with ground truth, which `dahyf eval` also scores
EVAL_CASES = ("exponential", "off_gt_outliers", "sqrt_fallback")


def _run_case(name: str, model, workdir: Path) -> tuple[list[dict], dict]:
    config, obs, gt = CASES[name](model, workdir)
    run_pipeline(config, obs, workdir / "out.jsonl", workdir / "report.json", gt)
    if gt is not None:
        argv = ["eval", "--pred", str(workdir / "out.jsonl"), "--gt", str(gt), "--report", str(workdir / "eval.json")]
        assert main(argv) == 0
    return read_jsonl(workdir / "out.jsonl"), json.loads((workdir / "report.json").read_text(encoding="utf-8"))


def _diff(ref, got, where: str, out: list[str]) -> None:
    if isinstance(ref, float) or isinstance(got, float):
        ok = isinstance(got, (int, float)) and not isinstance(got, bool) \
            and abs(got - ref) <= TOLERANCE * max(1.0, abs(ref))
        if not ok:
            out.append(f"{where}: {got!r} != golden {ref!r}")
    elif isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            out.append(f"{where}: keys {sorted(got)} != golden {sorted(ref)}")
            return
        for key in ref:
            _diff(ref[key], got[key], f"{where}.{key}", out)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            out.append(f"{where}: length {len(got)} != golden {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _diff(r, g, f"{where}[{i}]", out)
    elif type(ref) is not type(got) or ref != got:
        out.append(f"{where}: {got!r} != golden {ref!r}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_pipeline_matches_golden(name, toy_model, tmp_path):
    out_docs, report = _run_case(name, toy_model, tmp_path)
    ref_docs = read_jsonl(GOLDEN_DIR / name / "out.jsonl")
    ref_report = json.loads((GOLDEN_DIR / name / "report.json").read_text(encoding="utf-8"))
    diffs: list[str] = []
    _diff(ref_docs, out_docs, f"{name}/out.jsonl", diffs)
    _diff(ref_report, report, f"{name}/report.json", diffs)
    assert not diffs, "\n".join(diffs[:10])


@pytest.mark.parametrize("name", EVAL_CASES)
def test_eval_matches_golden(name, toy_model, tmp_path):
    _run_case(name, toy_model, tmp_path)
    diffs: list[str] = []
    _diff(json.loads((GOLDEN_DIR / name / "eval.json").read_text(encoding="utf-8")),
          json.loads((tmp_path / "eval.json").read_text(encoding="utf-8")), f"{name}/eval.json", diffs)
    assert not diffs, "\n".join(diffs[:10])


def test_cases_exercise_the_filter():
    """The golden cases cover replaced, held and unreliable frames."""
    reports = {name: json.loads((GOLDEN_DIR / name / "report.json").read_text(encoding="utf-8"))
               for name in CASES}
    assert reports["off_gt_outliers"]["replaced_frames"] and "metrics" in reports["off_gt_outliers"]
    assert reports["sqrt_fallback"]["unreliable_frames"]
    assert "metrics" not in reports["one_euro_logits"]
    assert sorted(name for name in CASES if (GOLDEN_DIR / name / "eval.json").exists()) == list(EVAL_CASES)


def _write_golden() -> None:
    model = load_model(bundled_model_path())
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            _run_case(name, model, workdir)
            dest = GOLDEN_DIR / name
            dest.mkdir(parents=True, exist_ok=True)
            for file in ("out.jsonl", "report.json", "eval.json"):
                if (workdir / file).exists():
                    (dest / file).write_bytes((workdir / file).read_bytes())
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)


if __name__ == "__main__":
    _write_golden()

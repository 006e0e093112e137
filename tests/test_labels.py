"""The ground-truth boundary shared by `run` and `eval`: `read_labels`
parses every line strictly and `match_labels` joins on `frame_index`.

Each defect runs through both `run_pipeline` and `dahyf eval`, and must
fail naming the file, the frame and the field.
"""

import json
import re

import numpy as np
import pytest

from dahyf.cli import main
from dahyf.data import match_labels, read_labels, synth_sequence, write_jsonl
from dahyf.pipeline import PipelineConfig, run_pipeline


def _set(doc, key, value):
    return {**doc, key: value}


def _planted(doc, value):
    joints = [list(row) for row in doc["joints3d"]]
    joints[3][1] = value
    return {**doc, "joints3d": joints}


DEFECTS = [
    (2, lambda doc: _planted(doc, "0.25"), r"frame 2: joints3d: expected a number, got '0\.25'"),
    (2, lambda doc: {k: v for k, v in doc.items() if k != "joints3d"}, r"frame 2: missing field 'joints3d'"),
    (2, lambda doc: _planted(doc, float("nan")), r"frame 2: joints3d contains non-finite values"),
    (2, lambda doc: _set(doc, "frame_index", 1), r"frame 1: frame_index 1 is not greater than the previous "
                                                  r"frame's \(1\)"),
    (3, lambda doc: _set(doc, "frame_index", 0), r"frame 0: frame_index 0 is not greater than the previous "
                                                  r"frame's \(2\)"),
    (1, lambda doc: _set(doc, "frame_index", 1.5), r"frame 1\.5: frame_index: expected an integer, got 1\.5"),
    (3, lambda doc: _set(doc, "frame_index", 2**63), f"frame {2**63}: frame_index: expected an integer within "
                                                      f"int64, got {2**63}"),
]
DEFECT_IDS = ["string_in_joints3d", "missing_joints3d", "nan_in_joints3d", "repeated_index",
              "decreasing_index", "fractional_index", "index_beyond_int64"]


@pytest.fixture()
def clip(toy_model, tmp_path):
    """A 4-frame observation, its ground truth and a clean run's output."""
    seq = synth_sequence(toy_model, 4, noise_px=0.5, seed=1)
    write_jsonl(seq.observed, tmp_path / "obs.jsonl")
    write_jsonl(seq.gt, tmp_path / "clean_gt.jsonl")
    run_pipeline(PipelineConfig(), tmp_path / "obs.jsonl", tmp_path / "out.jsonl", gt_path=tmp_path / "clean_gt.jsonl")
    return seq, tmp_path


@pytest.mark.parametrize("row, edit, message", DEFECTS, ids=DEFECT_IDS)
def test_run_rejects_bad_ground_truth(clip, row, edit, message):
    seq, tmp_path = clip
    gt = [dict(doc) for doc in seq.gt]
    gt[row] = edit(gt[row])
    write_jsonl(gt, tmp_path / "gt.jsonl")
    with pytest.raises(ValueError, match=r"gt\.jsonl: " + message):
        run_pipeline(PipelineConfig(), tmp_path / "obs.jsonl", tmp_path / "o.jsonl", gt_path=tmp_path / "gt.jsonl")


@pytest.mark.parametrize("row, edit, message", DEFECTS, ids=DEFECT_IDS)
def test_eval_rejects_bad_ground_truth(clip, capsys, row, edit, message):
    seq, tmp_path = clip
    gt = [dict(doc) for doc in seq.gt]
    gt[row] = edit(gt[row])
    write_jsonl(gt, tmp_path / "gt.jsonl")
    rc = main(["eval", "--pred", str(tmp_path / "out.jsonl"), "--gt", str(tmp_path / "gt.jsonl"),
               "--report", str(tmp_path / "eval.json")])
    assert rc == 1
    assert not (tmp_path / "eval.json").exists()
    assert re.search(r"gt\.jsonl: " + message, capsys.readouterr().err)


def test_eval_requires_frame_index_in_predictions(clip, capsys):
    _, tmp_path = clip
    docs = [json.loads(line) for line in (tmp_path / "out.jsonl").read_text().splitlines()]
    del docs[1]["frame_index"]
    write_jsonl(docs, tmp_path / "pred.jsonl")
    rc = main(["eval", "--pred", str(tmp_path / "pred.jsonl"), "--gt", str(tmp_path / "clean_gt.jsonl"),
               "--report", str(tmp_path / "eval.json")])
    assert rc == 1
    assert "pred.jsonl: frame 1: missing field 'frame_index'" in capsys.readouterr().err


def test_eval_field_must_be_in_every_line(clip, capsys):
    seq, tmp_path = clip
    gt = [dict(doc) for doc in seq.gt]
    gt[0]["vertices"] = [[0.0, 0.0, 0.0]] * 5
    write_jsonl(gt, tmp_path / "gt.jsonl")
    rc = main(["eval", "--pred", str(tmp_path / "out.jsonl"), "--gt", str(tmp_path / "gt.jsonl"),
               "--report", str(tmp_path / "eval.json")])
    assert rc == 1
    assert "gt.jsonl: frame 1: missing field 'vertices'" in capsys.readouterr().err


def test_match_labels_joins_on_frame_index(toy_model, tmp_path):
    seq = synth_sequence(toy_model, 6, seed=2)
    write_jsonl([doc for doc in seq.gt if doc["frame_index"] != 3], tmp_path / "gt.jsonl")
    rows, gt = match_labels(np.array([1, 3, 4, 9]), tmp_path / "gt.jsonl", ("joints3d",))
    assert rows.tolist() == [0, 2]
    np.testing.assert_array_equal(gt["joints3d"], np.array([seq.gt[1]["joints3d"], seq.gt[4]["joints3d"]]))


def test_read_labels_takes_the_fields_lines_hold(toy_model, tmp_path):
    seq = synth_sequence(toy_model, 3, seed=2)
    write_jsonl(seq.gt, tmp_path / "gt.jsonl")
    frame_index, columns = read_labels(tmp_path / "gt.jsonl")
    assert frame_index.tolist() == [0, 1, 2]
    assert sorted(columns) == ["joints2d", "joints3d"]
    assert columns["joints3d"].shape == (3, 21, 3) and columns["joints2d"].shape == (3, 21, 2)


def test_eval_scores_vertices_both_files_hold(clip):
    seq, tmp_path = clip
    vertices = np.random.default_rng(0).normal(size=(4, 5, 3)) * 0.01
    pred = [json.loads(line) for line in (tmp_path / "out.jsonl").read_text().splitlines()]
    write_jsonl([{**doc, "vertices": v} for doc, v in zip(pred, vertices.tolist())], tmp_path / "pred.jsonl")
    write_jsonl([{**doc, "vertices": v} for doc, v in zip(seq.gt, (vertices + 0.005).tolist())], tmp_path / "gt.jsonl")
    assert main(["eval", "--pred", str(tmp_path / "pred.jsonl"), "--gt", str(tmp_path / "gt.jsonl"),
                 "--report", str(tmp_path / "eval.json")]) == 0
    report = json.loads((tmp_path / "eval.json").read_text())
    assert (report["f_at_5"], report["f_at_15"]) == (0.0, 100.0)  # every vertex is 8.7 mm off

import json
from pathlib import Path

import pytest

from dahyf.camera import project_points, weak_to_full
from dahyf.confidence import cosine_confidence, normalize_pred, normalize_proj
from dahyf.data import (
    HandSample,
    load_freihand_annotations,
    read_jsonl,
    synth_sequence,
    write_jsonl,
)
from dahyf.hand_model import forward_kinematics
from dahyf.tempfilter import FrameResult

FIXTURE = Path(__file__).parent / "fixtures" / "freihand_mini"


class TestFreihandLoader:
    def test_mini_fixture_loads(self):
        samples = load_freihand_annotations(FIXTURE)
        assert len(samples) == 3
        for s in samples:
            assert isinstance(s, HandSample)
            assert s.joints3d.shape == (21, 3)
            assert s.intrinsics.shape == (3, 3)
        assert samples[0].vertices is not None

    def test_length_mismatch(self, tmp_path):
        k = json.loads((FIXTURE / "training_K.json").read_text())
        xyz = json.loads((FIXTURE / "training_xyz.json").read_text())
        (tmp_path / "training_K.json").write_text(json.dumps(k))
        (tmp_path / "training_xyz.json").write_text(json.dumps(xyz[:2]))
        with pytest.raises(ValueError, match="annotation length mismatch"):
            load_freihand_annotations(tmp_path)

    def test_degenerate_intrinsics(self, tmp_path):
        k = json.loads((FIXTURE / "training_K.json").read_text())
        xyz = json.loads((FIXTURE / "training_xyz.json").read_text())
        k[1][0][0] = 0.0
        (tmp_path / "training_K.json").write_text(json.dumps(k))
        (tmp_path / "training_xyz.json").write_text(json.dumps(xyz))
        with pytest.raises(ValueError, match="degenerate intrinsics"):
            load_freihand_annotations(tmp_path)

    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_freihand_annotations(tmp_path)

    def test_unknown_split(self):
        with pytest.raises(ValueError):
            load_freihand_annotations(FIXTURE, split="validation")

    @pytest.mark.parametrize("bad", ["0.069", True])
    def test_joint_of_wrong_kind_names_file_and_sample(self, tmp_path, bad):
        for name in ("training_K.json", "training_xyz.json", "training_verts.json"):
            (tmp_path / name).write_text((FIXTURE / name).read_text())
        xyz = json.loads((FIXTURE / "training_xyz.json").read_text())
        xyz[2][7][1] = bad
        (tmp_path / "training_xyz.json").write_text(json.dumps(xyz))
        with pytest.raises(ValueError, match=r"training_xyz\.json: sample 2: joints: expected a number"):
            load_freihand_annotations(tmp_path)


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        records = [{"a": 1, "b": [1.5, 2.5]}, {"a": 2, "b": None}]
        path = tmp_path / "x.jsonl"
        write_jsonl(records, path)
        assert read_jsonl(path) == records

    def test_malformed_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n{"a": 3}\n{oops\n{"a": 5}\n')
        with pytest.raises(ValueError, match=r"x\.jsonl: line 5, column 2: Expecting property name"):
            read_jsonl(path)


class TestSynth:
    def test_deterministic(self, toy_model):
        a = synth_sequence(toy_model, 20, noise_px=0.5, outlier_rate=0.2, seed=11)
        b = synth_sequence(toy_model, 20, noise_px=0.5, outlier_rate=0.2, seed=11)
        assert json.dumps(a.gt) == json.dumps(b.gt)
        assert json.dumps(a.observed) == json.dumps(b.observed)
        assert a.outlier_indices == b.outlier_indices

    def test_noiseless_observation_equals_ground_truth(self, toy_model):
        seq = synth_sequence(toy_model, 10, noise_px=0.0, outlier_rate=0.0, seed=3)
        for gt_doc, obs_doc in zip(seq.gt, seq.observed):
            assert gt_doc["pose"] == obs_doc["pose"]
            assert gt_doc["joints2d"] == obs_doc["joints2d"]
            assert not gt_doc["is_outlier"]

    def test_noiseless_self_confidence(self, toy_model):
        seq = synth_sequence(toy_model, 10, noise_px=0.0, outlier_rate=0.0, seed=3)
        for doc in seq.observed:
            frame = FrameResult.from_dict(doc)
            joints3d = forward_kinematics(toy_model, frame.shape, frame.pose)
            uv = project_points(joints3d, weak_to_full(frame.weak, frame.spec))
            conf = cosine_confidence(
                normalize_pred(frame.joints2d, frame.spec), normalize_proj(uv, frame.spec)
            )
            assert conf >= 0.999

    def test_outliers_are_confidence_killing(self, toy_model):
        seq = synth_sequence(toy_model, 30, noise_px=0.5, outlier_rate=0.2, seed=5)
        assert len(seq.outlier_indices) == 6
        assert 0 not in seq.outlier_indices
        for doc, gt_doc in zip(seq.observed, seq.gt):
            frame = FrameResult.from_dict(doc)
            joints3d = forward_kinematics(toy_model, frame.shape, frame.pose)
            uv = project_points(joints3d, weak_to_full(frame.weak, frame.spec))
            conf = cosine_confidence(
                normalize_pred(frame.joints2d, frame.spec), normalize_proj(uv, frame.spec)
            )
            if gt_doc["is_outlier"]:
                assert conf < 0.3
            else:
                assert conf > 0.5

    def test_invalid_arguments(self, toy_model):
        with pytest.raises(ValueError):
            synth_sequence(toy_model, 0)
        with pytest.raises(ValueError):
            synth_sequence(toy_model, 10, motion="jazz_hands")

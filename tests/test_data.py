import json

import pytest

from dahyf.camera import project_points, weak_to_full
from dahyf.confidence import cosine_confidence, normalize_pred, normalize_proj
from dahyf.data import read_jsonl, synth_sequence, write_jsonl
from dahyf.hand_model import forward_kinematics
from dahyf.tempfilter import FrameResult


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

import json
from dataclasses import replace

import numpy as np
import pytest

from dahyf import pipeline
from dahyf.arrayio import write_coord_array
from dahyf.cli import main
from dahyf.codec import CodecConfig, encode_labels, log_probs
from dahyf.data import read_jsonl, synth_sequence, write_jsonl
from dahyf.hand_model import posed_joints, save_model
from dahyf.jsonrecord import write_json
from dahyf.pipeline import PipelineConfig, load_config, run_pipeline
from dahyf.tempfilter import FilterConfig, SmoothingConfig


@pytest.fixture()
def clean_sequence(toy_model, tmp_path):
    seq = synth_sequence(toy_model, 12, noise_px=0.0, outlier_rate=0.0, seed=21)
    gt = tmp_path / "gt.jsonl"
    obs = tmp_path / "obs.jsonl"
    write_jsonl(seq.gt, gt)
    write_jsonl(seq.observed, obs)
    return gt, obs


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        config = PipelineConfig(
            codec=CodecConfig(net_size=128, scale=2, sigma_bins=4.0),
            filter=FilterConfig(threshold=0.4, max_hold_frames=10,
                                smoothing=SmoothingConfig(mode="one_euro", beta=0.01)),
            focal_policy="sqrt_fallback",
        )
        path = tmp_path / "cfg.json"
        write_json(config.to_dict(), path)
        assert load_config(path) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(focal_policy="guess")


class TestRunPipeline:
    def test_frame_count_and_order_preserved(self, clean_sequence, tmp_path):
        gt, obs = clean_sequence
        out = tmp_path / "out.jsonl"
        run_pipeline(PipelineConfig(), obs, out, gt_path=gt)
        docs = read_jsonl(out)
        assert [d["frame_index"] for d in docs] == list(range(12))
        assert all("joints3d" in d for d in docs)

    @pytest.mark.parametrize("mode", ["off", "exponential"])
    def test_joints3d_are_fk_of_the_output_parameters(self, toy_model, tmp_path, mode):
        """Gated rows take their donors' joints and smoothed rows are posed
        again; either way each row's joints3d are FK of its written pose and
        shape, bit for bit."""
        seq = synth_sequence(toy_model, 24, noise_px=0.5, outlier_rate=0.25, seed=5)
        obs = tmp_path / "obs.jsonl"
        write_jsonl(seq.observed, obs)
        config = PipelineConfig(filter=FilterConfig(smoothing=SmoothingConfig(mode=mode)))
        report = run_pipeline(config, obs, tmp_path / "out.jsonl")
        assert report["replaced_frames"]
        docs = read_jsonl(tmp_path / "out.jsonl")
        posed = posed_joints(toy_model, np.array([d["shape"] for d in docs]), np.array([d["pose"] for d in docs]))
        assert np.array([d["joints3d"] for d in docs]).tobytes() == posed.tobytes()

    def test_gating_alone_poses_each_frame_once(self, toy_model, tmp_path, monkeypatch):
        calls = []

        def counting(model, betas, rotations):
            calls.append(len(betas))
            return posed_joints(model, betas, rotations)

        monkeypatch.setattr(pipeline, "posed_joints", counting)
        seq = synth_sequence(toy_model, 12, noise_px=0.5, outlier_rate=0.25, seed=5)
        write_jsonl(seq.observed, tmp_path / "obs.jsonl")
        report = run_pipeline(PipelineConfig(), tmp_path / "obs.jsonl", tmp_path / "out.jsonl")
        assert report["replaced_frames"] and calls == [12]

    def test_sqrt_fallback_changes_geometry(self, clean_sequence, tmp_path):
        gt, obs = clean_sequence
        explicit = run_pipeline(PipelineConfig(), obs, tmp_path / "a.jsonl", gt_path=gt)
        fallback = run_pipeline(
            PipelineConfig(focal_policy="sqrt_fallback"), obs, tmp_path / "b.jsonl", gt_path=gt
        )
        # synth uses focal 800 = sqrt(640^2 + 480^2), so the fallback agrees
        assert fallback["confidence"]["min"] == pytest.approx(explicit["confidence"]["min"], abs=1e-12)

    def test_explicit_policy_requires_focal(self, toy_model, tmp_path):
        seq = synth_sequence(toy_model, 3, seed=1)
        for doc in seq.observed:
            doc["spec"]["focal"] = None
        obs = tmp_path / "obs.jsonl"
        write_jsonl(seq.observed, obs)
        with pytest.raises(RuntimeError, match="frame 0.*focal"):
            run_pipeline(PipelineConfig(), obs, tmp_path / "out.jsonl")
        # and the fallback policy accepts the same input
        report = run_pipeline(PipelineConfig(focal_policy="sqrt_fallback"), obs, tmp_path / "out2.jsonl")
        assert report["n_frames"] == 3

    def test_logits_file_decoded_in_place(self, toy_model, tmp_path):
        seq = synth_sequence(toy_model, 2, noise_px=0.0, seed=2)
        cfg = CodecConfig()
        for i, doc in enumerate(seq.observed):
            joints = np.asarray(doc["joints2d"])
            write_coord_array(log_probs(encode_labels(joints, cfg)), tmp_path / f"logits_{i}.bin")
            doc["logits_file"] = f"logits_{i}.bin"
            doc["joints2d"] = np.zeros((21, 2)).tolist()  # must be ignored
        obs = tmp_path / "obs.jsonl"
        write_jsonl(seq.observed, obs)
        out = tmp_path / "out.jsonl"
        report = run_pipeline(PipelineConfig(), obs, out)
        # decoded joints land within codec tolerance of the originals, so the
        # self-consistency confidence stays near 1 instead of degenerating
        assert report["confidence"]["min"] > 0.999
        decoded = np.asarray(read_jsonl(out)[0]["joints2d"])
        np.testing.assert_allclose(decoded, np.asarray(seq.gt[0]["joints2d"]), atol=2e-3)

    def test_all_minus_inf_logits_name_frame(self, toy_model, tmp_path):
        seq = synth_sequence(toy_model, 3, noise_px=0.0, seed=2)
        cfg = CodecConfig()
        for i, doc in enumerate(seq.observed):
            logits = log_probs(encode_labels(np.asarray(doc["joints2d"]), cfg))
            if i == 1:
                logits[4, 0] = -np.inf
            write_coord_array(logits, tmp_path / f"logits_{i}.bin")
            doc["logits_file"] = f"logits_{i}.bin"
        obs = tmp_path / "obs.jsonl"
        write_jsonl(seq.observed, obs)
        with pytest.raises(RuntimeError, match=r"frame 1: logits row \(joint 4, axis 0\) is all -inf"):
            run_pipeline(PipelineConfig(), obs, tmp_path / "out.jsonl")

    def test_error_names_frame_index(self, toy_model, tmp_path):
        seq = synth_sequence(toy_model, 3, seed=1)
        seq.observed[1]["weak"]["scale"] = 1e9  # depth ~ 0: behind-camera error
        obs = tmp_path / "obs.jsonl"
        write_jsonl(seq.observed, obs)
        with pytest.raises(RuntimeError, match="frame 1"):
            run_pipeline(PipelineConfig(), obs, tmp_path / "out.jsonl")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_joints2d_names_frame(self, toy_model, tmp_path, bad):
        seq = synth_sequence(toy_model, 4, seed=1)
        seq.observed[2]["joints2d"][5][0] = bad
        obs = tmp_path / "obs.jsonl"
        write_jsonl(seq.observed, obs)
        with pytest.raises(RuntimeError, match="frame 2: joints2d"):
            run_pipeline(PipelineConfig(), obs, tmp_path / "out.jsonl")

    @pytest.mark.parametrize("indices, bad, prev", [([0, 1, 1, 2], 1, 1), ([0, 2, 1, 3], 1, 2)],
                             ids=["duplicate", "decreasing"])
    def test_bad_frame_index_names_frame(self, toy_model, tmp_path, indices, bad, prev):
        seq = synth_sequence(toy_model, 4, seed=1)
        for doc, index in zip(seq.observed, indices):
            doc["frame_index"] = index
        obs = tmp_path / "obs.jsonl"
        write_jsonl(seq.observed, obs)
        with pytest.raises(ValueError, match=rf"frame {bad}: frame_index {bad} is not greater than "
                                             rf"the previous frame's \({prev}\)"):
            run_pipeline(PipelineConfig(), obs, tmp_path / "out.jsonl")

    def test_malformed_record_names_frame(self, toy_model, tmp_path):
        seq = synth_sequence(toy_model, 3, seed=1)
        seq.observed[1]["pose"] = seq.observed[1]["pose"][:15]
        del seq.observed[2]["weak"]
        obs = tmp_path / "obs.jsonl"
        write_jsonl(seq.observed, obs)
        with pytest.raises(RuntimeError, match="frame 1: pose must have shape"):
            run_pipeline(PipelineConfig(), obs, tmp_path / "out.jsonl")
        write_jsonl([seq.observed[0], seq.observed[2]], obs)
        with pytest.raises(RuntimeError, match="frame 2: missing field 'weak'"):
            run_pipeline(PipelineConfig(), obs, tmp_path / "out.jsonl")

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: {**doc, "unreliable": "false"}, "frame 2: unreliable: expected true or false, got 'false'"),
        (lambda doc: {**doc, "frame_index": 2.9}, r"frame 2\.9: frame_index: expected an integer, got 2\.9"),
        (lambda doc: {**doc, "replaced_from": 1.5}, r"frame 2: replaced_from: expected an integer, got 1\.5"),
        (lambda doc: {**doc, "confidence": "0.5"}, r"frame 2: confidence: expected a number, got '0\.5'"),
        (lambda doc: {**doc, "pose": [*doc["pose"][:3], [0.0, "0.25", 0.0], *doc["pose"][4:]]},
         r"frame 2: pose: expected a number, got '0\.25'"),
        (lambda doc: {**doc, "pose": [*doc["pose"][:3], [0.0, True, 0.0], *doc["pose"][4:]]},
         "frame 2: pose: expected a number, got True"),
        (lambda doc: {**doc, "joints2d": doc["joints2d"][:20]},
         r"frame 2: joints2d must have shape \(21, 2\), got \(20, 2\)"),
        (lambda doc: {**doc, "weak": {"scale": 4.0, "ty": 0.0}}, r"frame 2: missing field 'weak\.tx'"),
        (lambda doc: list(doc), "frame 2: expected a JSON object, got list"),
        (lambda doc: {**doc, "spec": {**doc["spec"], "focal": float("inf")}},
         "frame 2: spec: focal must be finite when given"),
        (lambda doc: {**doc, "spec": {**doc["spec"], "frame_w": 10**30}},
         f"frame 2: spec.frame_w: expected an integer within int64, got {10**30}"),
    ], ids=["string_flag", "fractional_index", "fractional_donor", "string_confidence", "string_in_pose",
            "boolean_in_pose", "short_joints2d", "missing_nested_key", "not_an_object", "infinite_focal",
            "width_beyond_int64"])
    def test_bad_record_names_frame_and_field(self, toy_model, tmp_path, edit, message):
        docs = synth_sequence(toy_model, 4, seed=1).observed
        docs[2] = edit(docs[2])
        write_jsonl(docs, tmp_path / "obs.jsonl")
        with pytest.raises(RuntimeError, match=message):
            run_pipeline(PipelineConfig(), tmp_path / "obs.jsonl", tmp_path / "out.jsonl")

    def test_missing_model_path(self, clean_sequence, tmp_path):
        _, obs = clean_sequence
        config = PipelineConfig(model_path=str(tmp_path / "nowhere.model"))
        with pytest.raises(FileNotFoundError, match="nowhere.model"):
            run_pipeline(config, obs, tmp_path / "out.jsonl")

    def test_rewritten_model_is_reloaded(self, toy_model, clean_sequence, tmp_path):
        _, obs = clean_sequence
        model_path = tmp_path / "hand.model"
        config = PipelineConfig(model_path=str(model_path))
        bigger = replace(toy_model, rest_joints=toy_model.rest_joints * 1.25)
        for model in (toy_model, bigger):
            save_model(model, model_path)
            run_pipeline(config, obs, tmp_path / "out.jsonl")
            docs = read_jsonl(tmp_path / "out.jsonl")
            expected = posed_joints(model, np.array([d["shape"] for d in docs]), np.array([d["pose"] for d in docs]))
            np.testing.assert_allclose([d["joints3d"] for d in docs], expected, rtol=0, atol=1e-12)

    def test_smoothing_engages(self, toy_model, tmp_path):
        seq = synth_sequence(toy_model, 20, noise_px=2.0, outlier_rate=0.0, seed=5)
        gt = tmp_path / "gt.jsonl"
        obs = tmp_path / "obs.jsonl"
        write_jsonl(seq.gt, gt)
        write_jsonl(seq.observed, obs)
        config = PipelineConfig(
            filter=FilterConfig(smoothing=SmoothingConfig(mode="exponential", alpha=0.3))
        )
        report = run_pipeline(config, obs, tmp_path / "out.jsonl", gt_path=gt)
        assert report["n_frames"] == 20


class TestCliConfigAndBatch:
    def test_run_with_config_file(self, clean_sequence, tmp_path):
        gt, obs = clean_sequence
        cfg_path = tmp_path / "cfg.json"
        write_json(PipelineConfig(filter=FilterConfig(threshold=0.25)).to_dict(), cfg_path)
        out = tmp_path / "out.jsonl"
        report = tmp_path / "rep.json"
        rc = main(["run", "--config", str(cfg_path), "--in", str(obs), "--gt", str(gt),
                   "--out", str(out), "--report", str(report)])
        assert rc == 0
        assert json.loads(report.read_text())["threshold"] == 0.25

    def test_confidence_batch_mode(self, tmp_path, capsys):
        spec = {"format_version": 1, "frame_w": 640, "frame_h": 480,
                "upper_left": [0.0, 0.0], "patch_size": 224.0, "net_size": 224,
                "feat_size": 56, "focal": 800.0, "handedness": "right", "flipped": False}
        rng = np.random.default_rng(0)
        pred = rng.uniform(0, 224, (21, 2))
        lines = [
            {"pred": pred.tolist(), "proj": pred.tolist(), "spec": spec},
            {"pred": pred.tolist(), "proj": (2 * (pred - 112) + 112).tolist(), "spec": spec},
        ]
        batch = tmp_path / "pairs.jsonl"
        write_jsonl(lines, batch)
        assert main(["confidence", "--batch", str(batch)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert float(out[0]) == pytest.approx(1.0)
        assert float(out[1]) == pytest.approx(1.0)  # scaled about the center: same direction

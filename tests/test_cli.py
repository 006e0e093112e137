import json
import struct
from pathlib import Path

import numpy as np
import pytest

from dahyf.arrayio import (
    BinaryFormatError,
    read_coord_array,
    read_direction_map,
    write_coord_array,
    write_direction_map,
)
from dahyf.cli import main
from dahyf.codec import log_probs
from dahyf.geometry import PatchSpec, global_direction_map


def write_json(doc, path):
    Path(path).write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def spec_file(tmp_path):
    spec = PatchSpec(640, 480, (100.0, 50.0), 200.0, focal=800.0)
    return write_json(spec.to_dict(), tmp_path / "spec.json")


class TestArrayIO:
    def test_direction_map_roundtrip(self, tmp_path):
        dmap = global_direction_map(PatchSpec(640, 480, (100.0, 50.0), 200.0, focal=800.0), 4)
        path = tmp_path / "map.bin"
        write_direction_map(dmap, path)
        again = read_direction_map(path)
        assert again.values.tobytes() == dmap.values.tobytes()

    def test_coord_array_roundtrip(self, tmp_path, rng):
        arr = rng.normal(size=(21, 2, 672))
        path = tmp_path / "arr.bin"
        write_coord_array(arr, path)
        assert read_coord_array(path).tobytes() == arr.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            read_coord_array(path)

    @pytest.mark.parametrize("read, write", [
        (read_coord_array, lambda p: write_coord_array(np.ones((21, 2, 672)), p)),
        (read_direction_map, lambda p: write_direction_map(
            global_direction_map(PatchSpec(640, 480, (100.0, 50.0), 200.0, focal=800.0), 4), p)),
    ])
    def test_truncated_payload(self, tmp_path, read, write):
        path = tmp_path / "arr.bin"
        write(path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(BinaryFormatError, match="end of file"):
            read(path)

    @pytest.mark.parametrize("read, magic", [(read_coord_array, b"CARR"), (read_direction_map, b"DMAP")])
    def test_huge_header_on_tiny_file(self, tmp_path, read, magic):
        # the header declares 8 * 5000 * 2500 * 1000 bytes (100 GB): it must be refused
        # from the file size, before any allocation
        path = tmp_path / "huge.bin"
        path.write_bytes(magic + struct.pack("<IIII", 1, 5000, 2500, 1000) + b"\x00" * 20)
        assert path.stat().st_size == 40
        with pytest.raises(BinaryFormatError, match="declares 100000000000 payload bytes, file has 20"):
            read(path)


class TestCliCommands:
    def test_dirmap(self, tmp_path, spec_file):
        out = tmp_path / "map.bin"
        assert main(["dirmap", "--spec", spec_file, "--out", str(out), "--channels", "4"]) == 0
        dmap = read_direction_map(out)
        assert dmap.channels == 4
        np.testing.assert_allclose(dmap.values[0, 0, 0], -0.27276785714285715, atol=1e-12)

    def test_dirmap_local(self, tmp_path, spec_file):
        out = tmp_path / "local.bin"
        assert main(["dirmap", "--spec", spec_file, "--out", str(out), "--local"]) == 0
        assert read_direction_map(out).values[0, 0, 1] == 1.0

    def test_codec_roundtrip(self, tmp_path):
        joints = [[100.0, 57.0], [13.25, 200.5]]
        jfile = write_json({"format_version": 1, "joints": joints}, tmp_path / "j.json")
        targets_bin = tmp_path / "targets.bin"
        assert main(["codec", "encode", "--joints", jfile, "--out", str(targets_bin)]) == 0

        logits_bin = tmp_path / "logits.bin"
        write_coord_array(log_probs(read_coord_array(targets_bin)), logits_bin)
        out = tmp_path / "decoded.json"
        assert main(["codec", "decode", "--logits", str(logits_bin), "--out", str(out)]) == 0
        decoded = np.asarray(json.loads(out.read_text())["joints"])
        np.testing.assert_allclose(decoded, joints, atol=1e-3)

    def test_pe(self, tmp_path):
        jfile = write_json({"format_version": 1, "joints": [[112.0, 112.0]] * 21}, tmp_path / "j.json")
        out = tmp_path / "pe.json"
        assert main(["pe", "--joints", jfile, "--focal", "800", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["encoding"]) == 336

    def test_fk_and_project_and_confidence(self, tmp_path, spec_file, toy_model):
        pose = np.zeros((16, 3))
        pose_file = write_json({"format_version": 1, "pose": pose.tolist()}, tmp_path / "pose.json")
        j3d = tmp_path / "j3d.json"
        assert main(["fk", "--pose", pose_file, "--out", str(j3d)]) == 0
        joints = np.asarray(json.loads(j3d.read_text())["joints"])
        np.testing.assert_allclose(joints, toy_model.rest_joints, atol=1e-12)

        weak_file = write_json({"scale": 4.0, "tx": 0.0, "ty": -0.1}, tmp_path / "weak.json")
        j2d = tmp_path / "j2d.json"
        assert main(["project", "--joints", str(j3d), "--weak", weak_file, "--spec", spec_file, "--out", str(j2d)]) == 0

        # a frame-space projection compared against the matching patch-space
        # detection scores as a perfect positive pair
        uv = np.asarray(json.loads(j2d.read_text())["joints"])
        spec = PatchSpec.from_dict(json.loads(Path(spec_file).read_text()))
        patch = (uv - np.asarray(spec.upper_left)) * spec.net_size / spec.patch_size
        pred_file = write_json({"format_version": 1, "joints": patch.tolist()}, tmp_path / "pred.json")
        assert main(["confidence", "--pred", pred_file, "--proj", str(j2d), "--spec", spec_file]) == 0

    def test_gradcheck_all_losses(self):
        for loss in ("kl", "l1", "l2", "bone", "cosine"):
            assert main(["gradcheck", "--loss", loss, "--seed", "7"]) == 0

    def test_synth_run_filter_eval(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        obs = tmp_path / "obs.jsonl"
        assert main([
            "synth", "--frames", "25", "--noise", "0.5", "--outlier-rate", "0.12",
            "--seed", "9", "--gt", str(gt), "--out", str(obs),
        ]) == 0

        filtered = tmp_path / "filtered.jsonl"
        report = tmp_path / "report.json"
        assert main([
            "run", "--in", str(obs), "--gt", str(gt), "--out", str(filtered), "--report", str(report),
        ]) == 0
        rep = json.loads(report.read_text())
        gt_docs = [json.loads(line) for line in gt.read_text().splitlines()]
        injected = [d["frame_index"] for d in gt_docs if d["is_outlier"]]
        assert rep["replaced_frames"] == injected
        assert rep["metrics"]["epe_reproj_post_px"] < rep["metrics"]["epe_reproj_pre_px"]

        refiltered = tmp_path / "refiltered.jsonl"
        assert main([
            "filter", "--in", str(filtered), "--out", str(refiltered),
            "--threshold", "0.5", "--smooth", "exponential", "--alpha", "0.6",
        ]) == 0
        assert len(refiltered.read_text().splitlines()) == 25

        eval_report = tmp_path / "eval.json"
        assert main(["eval", "--pred", str(filtered), "--gt", str(gt), "--report", str(eval_report)]) == 0
        edoc = json.loads(eval_report.read_text())
        assert "mpjpe_mm" in edoc and "epe_px" in edoc

    def test_missing_model_file_fails_with_diagnostic(self, tmp_path, capsys):
        pose_file = write_json({"format_version": 1, "pose": np.zeros((16, 3)).tolist()}, tmp_path / "p.json")
        rc = main(["fk", "--model", str(tmp_path / "absent.model"), "--pose", pose_file, "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert "absent.model" in capsys.readouterr().err

    def test_seed_env_override(self, tmp_path, monkeypatch):
        def run(seed_env):
            if seed_env is None:
                monkeypatch.delenv("DAHYF_SEED", raising=False)
            else:
                monkeypatch.setenv("DAHYF_SEED", seed_env)
            gt = tmp_path / f"gt_{seed_env}.jsonl"
            obs = tmp_path / f"obs_{seed_env}.jsonl"
            main(["synth", "--frames", "8", "--noise", "1.0", "--seed", "1", "--gt", str(gt), "--out", str(obs)])
            return obs.read_text()

        base = run(None)
        overridden = run("999")
        same_as_cli_seed = run("1")
        assert overridden != base
        assert same_as_cli_seed == base

import numpy as np
import pytest

from dahyf.camera import WeakCamera
from dahyf.geometry import PatchSpec
from dahyf.hand_model import HandPose, HandShape
from dahyf.tempfilter import (
    FilterConfig,
    FrameResult,
    SmoothingConfig,
    gate_sequence,
    smooth_sequence,
)


def make_frame(index, confidence, tx=0.0, pose_angle=0.1):
    rot = np.zeros((16, 3))
    rot[0, 2] = pose_angle
    return FrameResult(
        frame_index=index,
        pose=HandPose(rot),
        shape=HandShape.zeros(),
        weak=WeakCamera(4.0, tx, -0.1),
        joints2d=np.zeros((21, 2)),
        spec=PatchSpec(640, 480, (100.0, 50.0), 200.0, focal=800.0),
        confidence=confidence,
    )


class TestFrameSerialization:
    def test_jsonl_roundtrip(self):
        frame = make_frame(3, 0.87, tx=0.25)
        again = FrameResult.from_dict(frame.to_dict())
        assert again.frame_index == 3
        assert again.confidence == 0.87
        np.testing.assert_array_equal(again.pose.rotations, frame.pose.rotations)
        assert again.weak == frame.weak
        assert again.spec == frame.spec

    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            make_frame(0, 1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_joints2d_rejected(self, bad):
        doc = make_frame(0, 0.9).to_dict()  # zero joints, as a logits-only record carries, are legal
        doc["joints2d"][4][1] = bad
        with pytest.raises(ValueError, match="joints2d contains non-finite values"):
            FrameResult.from_dict(doc)


class TestGate:
    def test_single_dropout_takes_previous(self):
        frames = [make_frame(0, 0.9, tx=0.0), make_frame(1, 0.3, tx=0.5), make_frame(2, 0.95, tx=0.9)]
        out = gate_sequence(frames, FilterConfig(threshold=0.5))
        assert out[1].weak == frames[0].weak
        assert out[1].replaced_from == 0
        assert out[1].confidence == 0.3  # confidence itself is never rewritten
        np.testing.assert_array_equal(out[1].joints2d, frames[1].joints2d)
        assert out[0] == frames[0] and out[2] == frames[2]

    def test_all_confident_is_identity(self):
        frames = [make_frame(i, 0.8) for i in range(5)]
        assert gate_sequence(frames, FilterConfig(threshold=0.5)) == frames

    def test_leading_dropout_marked_unreliable(self):
        frames = [make_frame(0, 0.1), make_frame(1, 0.9)]
        out = gate_sequence(frames, FilterConfig(threshold=0.5))
        assert out[0].unreliable and out[0].replaced_from is None
        assert out[0].pose == frames[0].pose

    def test_hold_expires(self):
        frames = [make_frame(0, 0.9)] + [make_frame(i, 0.0) for i in range(1, 6)]
        out = gate_sequence(frames, FilterConfig(threshold=0.5, max_hold_frames=3))
        assert [f.replaced_from for f in out[1:4]] == [0, 0, 0]
        assert out[4].unreliable and out[5].unreliable

    def test_idempotent(self):
        frames = [make_frame(0, 0.9), make_frame(1, 0.2), make_frame(2, 0.1), make_frame(3, 0.7)]
        cfg = FilterConfig(threshold=0.5)
        once = gate_sequence(frames, cfg)
        twice = gate_sequence(once, cfg)
        assert once == twice

    def test_threshold_minus_one_is_identity(self):
        frames = [make_frame(0, -0.9), make_frame(1, 0.0)]
        assert gate_sequence(frames, FilterConfig(threshold=-1.0)) == frames

    def test_requires_confidence(self):
        frame = make_frame(0, None)
        with pytest.raises(ValueError, match="confidence"):
            gate_sequence([frame], FilterConfig())

    def test_ordering_validated(self):
        frames = [make_frame(1, 0.9), make_frame(0, 0.9)]
        with pytest.raises(ValueError, match="increasing"):
            gate_sequence(frames, FilterConfig())
        with pytest.raises(ValueError):
            gate_sequence([], FilterConfig())


class TestSmoothing:
    def test_constant_sequence_fixed_point(self):
        frames = [make_frame(i, 0.9, tx=0.3) for i in range(6)]
        for mode in ("exponential", "one_euro"):
            cfg = FilterConfig(smoothing=SmoothingConfig(mode=mode, alpha=0.4))
            out = smooth_sequence(frames, cfg)
            for f in out:
                assert f.weak.tx == pytest.approx(0.3, abs=1e-12)
                np.testing.assert_allclose(f.pose.rotations, frames[0].pose.rotations, atol=1e-12)

    def test_alpha_one_is_identity(self):
        frames = [make_frame(i, 0.9, tx=float(i)) for i in range(4)]
        out = smooth_sequence(frames, FilterConfig(smoothing=SmoothingConfig(mode="exponential", alpha=1.0)))
        assert [f.weak.tx for f in out] == [0.0, 1.0, 2.0, 3.0]

    def test_step_response_unrolled(self):
        frames = [make_frame(0, 0.9, tx=0.0)] + [make_frame(i, 0.9, tx=1.0) for i in range(1, 5)]
        out = smooth_sequence(frames, FilterConfig(smoothing=SmoothingConfig(mode="exponential", alpha=0.5)))
        np.testing.assert_allclose([f.weak.tx for f in out], [0.0, 0.5, 0.75, 0.875, 0.9375], atol=1e-12)

    def test_off_mode_passthrough(self):
        frames = [make_frame(i, 0.9, tx=float(i)) for i in range(3)]
        assert smooth_sequence(frames, FilterConfig()) == frames

    def test_total_variation_non_increasing(self, rng):
        frames = [make_frame(i, 0.9, tx=float(v)) for i, v in enumerate(rng.normal(size=40))]
        out = smooth_sequence(frames, FilterConfig(smoothing=SmoothingConfig(mode="exponential", alpha=0.3)))
        tv_in = np.abs(np.diff([f.weak.tx for f in frames])).sum()
        tv_out = np.abs(np.diff([f.weak.tx for f in out])).sum()
        assert tv_out <= tv_in + 1e-12

    def test_indices_and_observations_preserved(self, rng):
        frames = [make_frame(i, 0.9, tx=float(v)) for i, v in enumerate(rng.normal(size=10))]
        out = smooth_sequence(frames, FilterConfig(smoothing=SmoothingConfig(mode="one_euro")))
        assert [f.frame_index for f in out] == [f.frame_index for f in frames]
        for a, b in zip(frames, out):
            np.testing.assert_array_equal(a.joints2d, b.joints2d)
            assert a.confidence == b.confidence

    def test_pose_canonicalized_before_filtering(self):
        # a 3pi/2 rotation and its canonical -pi/2 form are the same motion;
        # smoothing must not see a 2pi jump between them
        a = make_frame(0, 0.9, pose_angle=3 * np.pi / 2)
        b = make_frame(1, 0.9, pose_angle=-np.pi / 2)
        out = smooth_sequence([a, b], FilterConfig(smoothing=SmoothingConfig(mode="exponential", alpha=0.5)))
        assert out[1].pose.rotations[0, 2] == pytest.approx(-np.pi / 2, abs=1e-12)

    def test_smoothing_config_validation(self):
        with pytest.raises(ValueError):
            SmoothingConfig(mode="kalman")
        with pytest.raises(ValueError):
            SmoothingConfig(alpha=0.0)
        with pytest.raises(ValueError):
            FilterConfig(threshold=1.0)

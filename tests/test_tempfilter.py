from dataclasses import replace

import numpy as np
import pytest

from dahyf.camera import WeakCamera
from dahyf.geometry import PatchSpec, SpecColumns
from dahyf.hand_model import HandPose, HandShape
from dahyf.tempfilter import (
    NOT_REPLACED,
    FilterConfig,
    FrameArrays,
    FrameResult,
    SmoothingConfig,
    gate_arrays,
    smooth_arrays,
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


def clip(frames) -> FrameArrays:
    return FrameArrays.from_records([f.to_dict() for f in frames])


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

    def test_records_compare_by_value(self):
        assert HandPose(np.zeros((16, 3))) == HandPose(np.zeros((16, 3)))
        assert HandShape(np.zeros(10)) == HandShape.zeros() != HandShape(np.ones(10))
        frame = make_frame(2, 0.5, tx=0.25)
        again = FrameResult.from_dict(frame.to_dict())  # equal values in distinct arrays
        assert again == frame and again.pose == frame.pose and again.shape == frame.shape
        assert make_frame(2, 0.5, tx=0.5) != frame
        assert replace(frame, joints2d=frame.joints2d + 1.0) != frame


class TestRecordErrors:
    """A bad record fails naming its frame and field.  The messages are
    pinned as the record-by-record parse gave them before records were
    parsed into columns."""

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["weak"].__setitem__("scale", 0), "frame 1: weak: weak camera scale must be positive"),
        (lambda d: d["weak"].__setitem__("tx", float("nan")), "frame 1: weak: weak camera parameters must be finite"),
        (lambda d: d["spec"].__setitem__("frame_w", 0), "frame 1: spec: frame dimensions must be positive"),
        (lambda d: d["spec"].__setitem__("handedness", "up"),
         "frame 1: spec: handedness must be 'left' or 'right', got 'up'"),
        (lambda d: d["spec"].__setitem__("focal", -1), "frame 1: spec: focal must be positive when given"),
        (lambda d: d["weak"].__setitem__("zoom", 1.0), "frame 1: weak: unknown key 'zoom' for WeakCamera"),
        (lambda d: d["spec"].__setitem__("zoom", 1.0), "frame 1: spec: unknown key 'zoom' for PatchSpec"),
        (lambda d: d.__setitem__("unreliable", "false"), "frame 1: unreliable: expected true or false, got 'false'"),
        (lambda d: d.pop("spec"), "frame 1: missing field 'spec'"),
        (lambda d: d["weak"].pop("tx"), "frame 1: missing field 'weak.tx'"),
        (lambda d: d.__setitem__("confidence", 1.5), "frame 1: confidence must lie in [-1, 1]"),
    ], ids=["weak_scale_zero", "weak_tx_nan", "frame_w_zero", "handedness_up", "focal_negative", "weak_unknown_key",
            "spec_unknown_key", "unreliable_string", "missing_spec", "missing_weak_tx", "confidence_range"])
    def test_message(self, edit, message):
        docs = [make_frame(i, 0.9).to_dict() for i in range(3)]
        edit(docs[1])
        with pytest.raises(ValueError) as info:
            FrameArrays.from_records(docs)
        assert str(info.value) == message

    def test_nan_focal_is_refused(self):
        """A NaN focal is not positive: the columns read NaN as no focal, and
        a NaN camera would reach every projection."""
        docs = [make_frame(i, 0.9).to_dict() for i in range(2)]
        docs[0]["spec"]["focal"] = float("nan")
        with pytest.raises(ValueError, match="frame 0: spec: focal must be positive when given"):
            FrameArrays.from_records(docs)

    def test_specs_round_trip_as_columns(self):
        frames = [replace(make_frame(i, 0.9), spec=PatchSpec(640, 480, (1.5 * i, 2.0), 200.0 + i, net_size=128,
                                                             feat_size=32, focal=None if i % 2 else 900.0,
                                                             handedness=("left", "right")[i % 2], flipped=i == 1))
                  for i in range(3)]
        specs = clip(frames).specs
        assert specs.to_specs() == [f.spec for f in frames]
        assert specs.to_dicts() == [f.spec.to_dict() for f in frames]
        assert np.isnan(specs.focal).tolist() == [False, True, False]
        assert specs == SpecColumns.stack([f.spec for f in frames]) != SpecColumns.stack([frames[0].spec] * 3)


class TestGate:
    def test_single_dropout_takes_previous(self):
        frames = clip([make_frame(0, 0.9, tx=0.0), make_frame(1, 0.3, tx=0.5), make_frame(2, 0.95, tx=0.9)])
        out = gate_arrays(frames, FilterConfig(threshold=0.5))
        assert out.weak[1].tolist() == frames.weak[0].tolist()
        assert out.replaced_from[1] == 0
        assert out.confidence[1] == 0.3  # confidence itself is never rewritten
        np.testing.assert_array_equal(out.joints2d[1], frames.joints2d[1])
        records, before = out.to_records(), frames.to_records()
        assert records[0] == before[0] and records[2] == before[2]

    def test_all_confident_is_identity(self):
        frames = clip([make_frame(i, 0.8) for i in range(5)])
        assert gate_arrays(frames, FilterConfig(threshold=0.5)).to_records() == frames.to_records()

    def test_leading_dropout_marked_unreliable(self):
        frames = clip([make_frame(0, 0.1), make_frame(1, 0.9)])
        out = gate_arrays(frames, FilterConfig(threshold=0.5))
        assert out.unreliable[0] and out.replaced_from[0] == NOT_REPLACED
        np.testing.assert_array_equal(out.rotations[0], frames.rotations[0])

    def test_hold_expires(self):
        frames = clip([make_frame(0, 0.9)] + [make_frame(i, 0.0) for i in range(1, 6)])
        out = gate_arrays(frames, FilterConfig(threshold=0.5, max_hold_frames=3))
        assert out.replaced_from[1:4].tolist() == [0, 0, 0]
        assert out.unreliable[4] and out.unreliable[5]

    def test_idempotent(self):
        frames = clip([make_frame(0, 0.9), make_frame(1, 0.2), make_frame(2, 0.1), make_frame(3, 0.7)])
        cfg = FilterConfig(threshold=0.5)
        once = gate_arrays(frames, cfg)
        twice = gate_arrays(once, cfg)
        assert once.to_records() == twice.to_records()

    def test_threshold_minus_one_is_identity(self):
        frames = clip([make_frame(0, -0.9), make_frame(1, 0.0)])
        assert gate_arrays(frames, FilterConfig(threshold=-1.0)).to_records() == frames.to_records()

    def test_requires_confidence(self):
        frames = clip([make_frame(0, None)])
        with pytest.raises(ValueError, match="confidence"):
            gate_arrays(frames, FilterConfig())

    def test_ordering_validated(self):
        frames = clip([make_frame(1, 0.9), make_frame(0, 0.9)])
        with pytest.raises(ValueError, match="increasing"):
            gate_arrays(frames, FilterConfig())
        with pytest.raises(ValueError):
            FrameArrays.from_records([])


class TestSmoothing:
    def test_constant_sequence_fixed_point(self):
        frames = clip([make_frame(i, 0.9, tx=0.3) for i in range(6)])
        for mode in ("exponential", "one_euro"):
            cfg = FilterConfig(smoothing=SmoothingConfig(mode=mode, alpha=0.4))
            out = smooth_arrays(frames, cfg)
            np.testing.assert_allclose(out.weak[:, 1], 0.3, atol=1e-12)
            np.testing.assert_allclose(out.rotations, np.broadcast_to(frames.rotations[0], out.rotations.shape),
                                       atol=1e-12)

    def test_alpha_one_is_identity(self):
        frames = clip([make_frame(i, 0.9, tx=float(i)) for i in range(4)])
        out = smooth_arrays(frames, FilterConfig(smoothing=SmoothingConfig(mode="exponential", alpha=1.0)))
        assert out.weak[:, 1].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_step_response_unrolled(self):
        frames = clip([make_frame(0, 0.9, tx=0.0)] + [make_frame(i, 0.9, tx=1.0) for i in range(1, 5)])
        out = smooth_arrays(frames, FilterConfig(smoothing=SmoothingConfig(mode="exponential", alpha=0.5)))
        np.testing.assert_allclose(out.weak[:, 1], [0.0, 0.5, 0.75, 0.875, 0.9375], atol=1e-12)

    def test_off_mode_passthrough(self):
        frames = clip([make_frame(i, 0.9, tx=float(i)) for i in range(3)])
        assert smooth_arrays(frames, FilterConfig()).to_records() == frames.to_records()

    def test_total_variation_non_increasing(self, rng):
        frames = clip([make_frame(i, 0.9, tx=float(v)) for i, v in enumerate(rng.normal(size=40))])
        out = smooth_arrays(frames, FilterConfig(smoothing=SmoothingConfig(mode="exponential", alpha=0.3)))
        tv_in = np.abs(np.diff(frames.weak[:, 1])).sum()
        tv_out = np.abs(np.diff(out.weak[:, 1])).sum()
        assert tv_out <= tv_in + 1e-12

    def test_indices_and_observations_preserved(self, rng):
        frames = clip([make_frame(i, 0.9, tx=float(v)) for i, v in enumerate(rng.normal(size=10))])
        out = smooth_arrays(frames, FilterConfig(smoothing=SmoothingConfig(mode="one_euro")))
        np.testing.assert_array_equal(out.frame_index, frames.frame_index)
        np.testing.assert_array_equal(out.joints2d, frames.joints2d)
        np.testing.assert_array_equal(out.confidence, frames.confidence)

    def test_pose_canonicalized_before_filtering(self):
        # a 3pi/2 rotation and its canonical -pi/2 form are the same motion;
        # smoothing must not see a 2pi jump between them
        frames = clip([make_frame(0, 0.9, pose_angle=3 * np.pi / 2), make_frame(1, 0.9, pose_angle=-np.pi / 2)])
        out = smooth_arrays(frames, FilterConfig(smoothing=SmoothingConfig(mode="exponential", alpha=0.5)))
        assert out.rotations[1, 0, 2] == pytest.approx(-np.pi / 2, abs=1e-12)

    def test_smoothing_config_validation(self):
        with pytest.raises(ValueError):
            SmoothingConfig(mode="kalman")
        with pytest.raises(ValueError):
            SmoothingConfig(alpha=0.0)
        with pytest.raises(ValueError):
            FilterConfig(threshold=1.0)

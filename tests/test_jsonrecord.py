"""The dataclass <-> JSON codec: round trips, the written layout, and strict
conversion at the boundary.

`reference_spec_dict` and `reference_frame_dict` are copies of the
hand-written `PatchSpec.to_dict` and `FrameResult.to_dict` that the generic
codec replaced; they must not be changed to follow the codec.
"""

import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dahyf.camera import WeakCamera
from dahyf.codec import CodecConfig
from dahyf.data import synth_sequence, write_jsonl
from dahyf.geometry import PatchSpec
from dahyf.hand_model import HandPose, HandShape
from dahyf.jsonrecord import JsonRecord, numbers, read_json, write_json
from dahyf.pipeline import PipelineConfig, load_config, run_pipeline
from dahyf.tempfilter import SMOOTHING_MODES, FilterConfig, FrameResult, SmoothingConfig

props = settings(max_examples=60, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
sizes = st.integers(min_value=1, max_value=10_000)

codec_configs = st.builds(CodecConfig, net_size=sizes, scale=st.integers(1, 8), sigma_bins=positive)
smoothing_configs = st.builds(
    SmoothingConfig,
    mode=st.sampled_from(SMOOTHING_MODES),
    alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    min_cutoff=positive,
    beta=finite,
    d_cutoff=positive,
)
filter_configs = st.builds(
    FilterConfig,
    threshold=st.floats(min_value=-1.0, max_value=1.0, exclude_max=True),
    smoothing=smoothing_configs,
    max_hold_frames=sizes,
)
pipeline_configs = st.builds(
    PipelineConfig,
    codec=codec_configs,
    filter=filter_configs,
    model_path=st.none() | st.text(),
    focal_policy=st.sampled_from(["explicit", "sqrt_fallback"]),
)
patch_specs = st.builds(
    PatchSpec,
    frame_w=sizes,
    frame_h=sizes,
    upper_left=st.tuples(finite, finite),
    patch_size=positive,
    net_size=sizes,
    feat_size=sizes,
    focal=st.none() | positive,
    handedness=st.sampled_from(["left", "right"]),
    flipped=st.booleans(),
)
weak_cameras = st.builds(WeakCamera, scale=positive, tx=finite, ty=finite)


def reference_spec_dict(spec: PatchSpec) -> dict:
    return {
        "format_version": 1,
        "frame_w": spec.frame_w,
        "frame_h": spec.frame_h,
        "upper_left": [spec.upper_left[0], spec.upper_left[1]],
        "patch_size": spec.patch_size,
        "net_size": spec.net_size,
        "feat_size": spec.feat_size,
        "focal": spec.focal,
        "handedness": spec.handedness,
        "flipped": spec.flipped,
    }


def reference_frame_dict(frame: FrameResult) -> dict:
    return {
        "format_version": 1,
        "frame_index": frame.frame_index,
        "pose": frame.pose.rotations.tolist(),
        "shape": frame.shape.betas.tolist(),
        "weak": {"scale": frame.weak.scale, "tx": frame.weak.tx, "ty": frame.weak.ty},
        "joints2d": frame.joints2d.tolist(),
        "spec": reference_spec_dict(frame.spec),
        "confidence": frame.confidence,
        "unreliable": frame.unreliable,
        "replaced_from": frame.replaced_from,
    }


def through_json(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize("strategy", [codec_configs, smoothing_configs, filter_configs, pipeline_configs,
                                      patch_specs, weak_cameras],
                         ids=["CodecConfig", "SmoothingConfig", "FilterConfig", "PipelineConfig", "PatchSpec",
                              "WeakCamera"])
@props
@given(data=st.data())
def test_round_trip_through_json(strategy, data):
    record = data.draw(strategy)
    assert type(record).from_dict(through_json(record.to_dict())) == record


@props
@given(spec=patch_specs)
def test_spec_layout_matches_the_hand_written_one(spec):
    assert json.dumps(spec.to_dict()) == json.dumps(reference_spec_dict(spec))
    assert spec.to_dict() == reference_spec_dict(spec)  # lists, not tuples


@props
@given(spec=patch_specs, camera=weak_cameras, seed=st.integers(0, 2**32 - 1),
       confidence=st.none() | st.floats(min_value=-1.0, max_value=1.0), unreliable=st.booleans(),
       replaced_from=st.none() | st.integers(-(2**40), 2**40))
def test_frame_layout_matches_the_hand_written_one(spec, camera, seed, confidence, unreliable, replaced_from):
    rng = np.random.default_rng(seed)
    frame = FrameResult(
        frame_index=int(rng.integers(0, 10_000)), pose=HandPose(rng.normal(size=(16, 3))),
        shape=HandShape(rng.normal(size=10)), weak=camera, joints2d=rng.uniform(0.0, 224.0, size=(21, 2)),
        spec=spec, confidence=confidence, unreliable=unreliable, replaced_from=replaced_from,
    )
    assert json.dumps(frame.to_dict()) == json.dumps(reference_frame_dict(frame))


json_numbers = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**70), 2**70)
array_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)


def _nested(flat, shape):
    """`flat` as nested lists of `shape`."""
    if len(shape) == 1:
        return list(flat)
    step = len(flat) // shape[0]
    return [_nested(flat[i * step:(i + 1) * step], shape[1:]) for i in range(shape[0])]


@props
@given(data=st.data(), shape=array_shapes, rows=st.integers(1, 3))
def test_numbers_match_np_array_bit_for_bit(data, shape, rows):
    size = rows * int(np.prod(shape))
    flat = data.draw(st.lists(json_numbers, min_size=size, max_size=size))
    values = through_json(_nested(flat, (rows, *shape)))
    got = numbers(values, shape, "x")
    want = np.array(values, dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert numbers(values, tuple(None for _ in shape), "x").tobytes() == want.tobytes()  # any length


@props
@given(data=st.data(), shape=array_shapes, rows=st.integers(1, 3),
       bad=st.sampled_from(["1.5", True, False, float("nan"), float("inf"), -float("inf")]))
def test_numbers_reject_a_planted_non_number(data, shape, rows, bad):
    size = rows * int(np.prod(shape))
    flat = data.draw(st.lists(json_numbers, min_size=size, max_size=size))
    flat[data.draw(st.integers(0, size - 1))] = bad
    with pytest.raises(ValueError, match=r"x: expected a number|x contains non-finite values"):
        numbers(_nested(flat, (rows, *shape)), shape, "x")


def test_numbers_reject_a_wrong_shape():
    with pytest.raises(ValueError, match=r"x must have shape \(21, 2\), got \(20, 2\)"):
        numbers([[[0.0, 0.0]] * 20], (21, 2), "x")
    with pytest.raises(ValueError, match=r"x must have shape \(None, 3\), got \(2,\)"):
        numbers([[[0.0, 0.0, 0.0], [0.0, 0.0]]], (None, 3), "x")


@dataclass(frozen=True)
class Placed(JsonRecord):
    weak: WeakCamera


def spec_doc(**changes) -> dict:
    return {**PatchSpec(640, 480, (100.0, 50.0), 200.0, focal=800.0).to_dict(), **changes}


class TestStrictConversion:
    def test_string_boolean_is_rejected(self):
        with pytest.raises(ValueError, match="flipped"):
            PatchSpec.from_dict(spec_doc(flipped="false"))

    def test_tuple_of_wrong_length_is_rejected(self):
        with pytest.raises(ValueError, match="upper_left"):
            PatchSpec.from_dict(spec_doc(upper_left=[1.0, 2.0, 3.0]))

    def test_fractional_integer_is_rejected(self):
        with pytest.raises(ValueError, match="frame_w"):
            PatchSpec.from_dict(spec_doc(frame_w=640.7))

    def test_integral_float_is_an_integer(self):
        assert PatchSpec.from_dict(spec_doc(frame_w=640.0)).frame_w == 640

    def test_fractional_hold_is_rejected(self):
        with pytest.raises(ValueError, match="max_hold_frames"):
            PipelineConfig.from_dict({"filter": {"max_hold_frames": 2.9}})

    def test_misspelt_key_is_rejected(self):
        with pytest.raises(ValueError, match="'fliter'"):
            PipelineConfig.from_dict({"format_version": 2, "fliter": {"threshold": 0.9}})

    def test_number_as_string_is_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            WeakCamera.from_dict({"scale": "4.0", "tx": 0.0, "ty": 0.0})

    def test_missing_required_key_names_it(self):
        doc = spec_doc()
        del doc["patch_size"]
        with pytest.raises(KeyError, match="patch_size"):
            PatchSpec.from_dict(doc)

    def test_nested_failure_keeps_its_path(self):
        with pytest.raises(KeyError, match=r"weak\.tx"):
            Placed.from_dict({"weak": {"scale": 4.0, "ty": 0.0}})
        with pytest.raises(ValueError, match=r"^filter\.smoothing\.alpha: expected a number, got '0\.5'$"):
            PipelineConfig.from_dict({"filter": {"smoothing": {"alpha": "0.5"}}})

    def test_missing_optional_key_takes_the_default(self):
        doc = spec_doc()
        del doc["feat_size"], doc["format_version"]
        assert PatchSpec.from_dict(doc).feat_size == 56

    def test_bad_spec_field_names_the_frame(self, toy_model, tmp_path):
        docs = synth_sequence(toy_model, 3, seed=1).observed
        docs[1]["spec"]["flipped"] = "false"
        write_jsonl(docs, tmp_path / "obs.jsonl")
        with pytest.raises(RuntimeError, match=r"frame 1: spec\.flipped: expected true or false"):
            run_pipeline(PipelineConfig(), tmp_path / "obs.jsonl", tmp_path / "out.jsonl")


class TestConfigVersions:
    V1 = {
        "format_version": 1,
        "codec": {"format_version": 1, "net_size": 128, "scale": 2, "sigma_bins": 4.0},
        "filter": {
            "threshold": 0.4,
            "max_hold_frames": 10,
            "smoothing": {"mode": "one_euro", "alpha": 0.5, "min_cutoff": 1.0, "beta": 0.01, "d_cutoff": 1.0},
        },
        "model_path": None,
        "focal_policy": "sqrt_fallback",
        "pe_octaves": 4,
        "pooling": "max",
        "negative_target": -1.0,
        "seed": 77,
    }

    def test_version_1_file_with_retired_keys_loads(self, tmp_path):
        write_json(self.V1, tmp_path / "cfg.json")
        assert load_config(tmp_path / "cfg.json") == PipelineConfig(
            codec=CodecConfig(net_size=128, scale=2, sigma_bins=4.0),
            filter=FilterConfig(threshold=0.4, max_hold_frames=10,
                                smoothing=SmoothingConfig(mode="one_euro", beta=0.01)),
            focal_policy="sqrt_fallback",
        )

    def test_version_1_drops_only_the_retired_keys(self):
        with pytest.raises(ValueError, match="'octaves'"):
            PipelineConfig.from_dict({**self.V1, "octaves": 4})

    def test_retired_key_in_version_2_is_rejected(self):
        with pytest.raises(ValueError, match="'seed'"):
            PipelineConfig.from_dict({"format_version": 2, "seed": 77})

    def test_saved_config_is_version_2(self, tmp_path):
        write_json(PipelineConfig().to_dict(), tmp_path / "cfg.json")
        doc = read_json(tmp_path / "cfg.json")
        assert list(doc) == ["format_version", "codec", "filter", "model_path", "focal_policy"]
        assert doc["format_version"] == 2

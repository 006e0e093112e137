"""Property tests for the clip-array paths: gating and smoothing on
`FrameArrays`, decoding through a caller's buffer and reading logits into
one.

The reference functions are the per-frame loops the array forms replaced;
they must not be changed to follow the array code.
"""

import json
import math
import tempfile
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clips
from dahyf.arrayio import BinaryFormatError, read_coord_array, write_coord_array
from dahyf.camera import WeakCamera
from dahyf.codec import CodecConfig, decode_soft_argmax, encode_labels, log_probs
from dahyf.data import synth_sequence, write_jsonl
from dahyf.geometry import PatchSpec
from dahyf.hand_model import HandPose, HandShape, canonicalize_axis_angle, rodrigues
from dahyf.pipeline import PipelineConfig, run_pipeline
from dahyf.tempfilter import (
    FilterConfig,
    FrameArrays,
    FrameResult,
    SmoothingConfig,
    gate_arrays,
    smooth_arrays,
)

props = settings(max_examples=60, deadline=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
SPEC = PatchSpec(640, 480, (100.0, 50.0), 200.0, focal=800.0)


def random_frames(seed: int, n: int, gated_input: bool = False) -> list[FrameResult]:
    """`n` frames with gaps of 1-3 between indices, some axis-angles pushed
    a full turn (2 pi) along their axis, and confidences that include the
    sampled thresholds exactly."""
    rng = np.random.default_rng(seed)
    indices = np.cumsum(rng.integers(1, 4, size=n)) + int(rng.integers(0, 5))
    frames = []
    for i in indices.tolist():
        rot = rng.normal(0.0, 0.8, size=(16, 3))
        turn = rng.random(16) < 0.2
        norms = np.linalg.norm(rot, axis=1, keepdims=True)
        rot[turn] += (2.0 * np.pi * rot / norms)[turn] * rng.choice([-1.0, 1.0])
        frames.append(FrameResult(
            frame_index=i,
            pose=HandPose(rot),
            shape=HandShape(rng.normal(0.0, 0.5, size=10)),
            weak=WeakCamera(float(rng.uniform(2.0, 6.0)), float(rng.normal(0.0, 0.1)), float(rng.normal(0.0, 0.1))),
            joints2d=rng.uniform(0.0, 224.0, size=(21, 2)),
            spec=SPEC,
            confidence=float(rng.choice([rng.uniform(-1.0, 1.0), 0.5, 0.2])),
            unreliable=bool(gated_input and rng.random() < 0.2),
            replaced_from=int(rng.integers(0, 100)) if gated_input and rng.random() < 0.2 else None,
        ))
    return frames


def arrays(frames: list[FrameResult]) -> FrameArrays:
    return FrameArrays.from_records([f.to_dict() for f in frames])


def reference_gate(frames, cfg):
    out, donor = [], None
    for frame in frames:
        if frame.confidence >= cfg.threshold:
            donor = frame
            out.append(frame)
        elif donor is not None and frame.frame_index - donor.frame_index <= cfg.max_hold_frames:
            out.append(replace(frame, pose=donor.pose, shape=donor.shape, weak=donor.weak,
                               unreliable=False, replaced_from=donor.frame_index))
        else:
            out.append(replace(frame, unreliable=True))
    return out


def _ref_exp_alpha(cutoff, dt):
    r = 2.0 * math.pi * cutoff * dt
    return r / (r + 1.0)


class ReferenceOneEuro:
    def __init__(self, cfg, t0, x0):
        self.cfg, self.t_prev, self.x_prev, self.dx_prev = cfg, t0, x0, np.zeros_like(x0)

    def __call__(self, t, x):
        dt = t - self.t_prev
        a_d = _ref_exp_alpha(self.cfg.d_cutoff, dt)
        dx = (x - self.x_prev) / dt
        dx_hat = a_d * dx + (1.0 - a_d) * self.dx_prev
        cutoff = self.cfg.min_cutoff + self.cfg.beta * np.abs(dx_hat)
        a = _ref_exp_alpha(cutoff, dt)
        x_hat = a * x + (1.0 - a) * self.x_prev
        self.t_prev, self.x_prev, self.dx_prev = t, x_hat, dx_hat
        return x_hat


def reference_unwrap(rot, prev):
    """Each axis-angle v of `rot` (16, 3), magnitude at most pi, moved by
    the whole turns along its axis n that bring it nearest the same joint's
    p in `prev`: v + 2 pi k n, k = rint((<n, p> - |v|) / 2 pi), and v itself
    where k = 0.  A zero v takes the axis of p."""
    theta = np.linalg.norm(rot, axis=1, keepdims=True)
    out = rot.copy()
    for j in range(len(rot)):
        axis = rot[j] if theta[j] > 0 else prev[j]
        length = np.linalg.norm(axis, axis=-1, keepdims=True)
        if length > 0:
            axis = axis / length
        turns = np.rint((np.sum(axis * prev[j], axis=-1, keepdims=True) - theta[j]) / (2.0 * np.pi))
        if turns != 0:
            out[j] = rot[j] + 2.0 * np.pi * turns * axis
    return out


def reference_state(frame, rot):
    """The 61 channels of a frame given its axis-angles `rot`: axis-angles,
    betas and scale/tx/ty."""
    return np.concatenate([rot.reshape(-1), frame.shape.betas, [frame.weak.scale, frame.weak.tx, frame.weak.ty]])


def reference_smooth(frames, cfg) -> list[np.ndarray]:
    """Per frame, the 61 smoothed channels (axis-angles, betas, scale/tx/ty):
    each frame's canonical axis-angles unwrapped against the previous
    frame's, then the recurrence."""
    smoothing = cfg.smoothing
    if smoothing.mode == "off":
        return [reference_state(f, f.pose.rotations) for f in frames]
    rots = [canonicalize_axis_angle(frames[0].pose.rotations)]
    for frame in frames[1:]:
        rots.append(reference_unwrap(canonicalize_axis_angle(frame.pose.rotations), rots[-1]))
    states = [reference_state(f, rot) for f, rot in zip(frames, rots)]
    out = [states[0]]
    if smoothing.mode == "exponential":
        y = out[0]
        for x in states[1:]:
            y = smoothing.alpha * x + (1.0 - smoothing.alpha) * y
            out.append(y)
    else:
        filt = ReferenceOneEuro(smoothing, float(frames[0].frame_index), out[0])
        out += [filt(float(f.frame_index), x) for f, x in zip(frames[1:], states[1:])]
    return out


def array_states(clip: FrameArrays) -> np.ndarray:
    return np.concatenate([clip.rotations.reshape(len(clip.rotations), -1), clip.betas, clip.weak], axis=1)


filter_configs = st.builds(
    FilterConfig,
    threshold=st.sampled_from([-1.0, 0.2, 0.5, 0.9]),
    max_hold_frames=st.integers(min_value=1, max_value=5),
    smoothing=st.builds(
        SmoothingConfig,
        mode=st.sampled_from(["off", "exponential", "one_euro"]),
        alpha=st.sampled_from([0.1, 0.5, 1.0]),
        min_cutoff=st.sampled_from([0.05, 1.0, 4.0]),
        beta=st.sampled_from([0.0, 0.3, 5.0]),
        d_cutoff=st.sampled_from([0.5, 1.0]),
    ),
)


COLUMNS = ("frame_index", "rotations", "betas", "weak", "joints2d", "confidence", "unreliable", "replaced_from")


def assert_same_arrays(got: FrameArrays, want: FrameArrays):
    """Every column, spec columns included, equal bit for bit."""
    for name in COLUMNS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for got_column, want_column in zip(astuple(got.specs), astuple(want.specs)):
        assert np.array(got_column).tobytes() == np.array(want_column).tobytes()


class TestArraySmoothing:
    @props
    @given(seeds, st.integers(min_value=1, max_value=40), filter_configs)
    def test_matches_per_frame_loop_bit_for_bit(self, seed, n, cfg):
        frames = random_frames(seed, n)
        ref = np.stack(reference_smooth(frames, cfg))
        clip = arrays(frames)
        got = smooth_arrays(clip, cfg)
        assert array_states(got).tobytes() == ref.tobytes()
        for name in ("frame_index", "joints2d", "confidence", "unreliable", "replaced_from"):
            assert getattr(got, name).tobytes() == getattr(clip, name).tobytes(), name

    @props
    @given(seeds, st.integers(min_value=2, max_value=20))
    def test_full_turns_do_not_move_the_filter(self, seed, n):
        """Adding 2 pi along an axis-angle's own axis changes nothing the
        filter sees beyond rounding."""
        frames = random_frames(seed, n)
        turned = [replace(f, pose=HandPose(f.pose.rotations * (1.0 + 2.0 * np.pi / np.linalg.norm(
            f.pose.rotations, axis=1, keepdims=True)))) for f in frames]
        cfg = FilterConfig(smoothing=SmoothingConfig(mode="one_euro", beta=0.5))
        a = smooth_arrays(arrays(frames), cfg)
        b = smooth_arrays(arrays(turned), cfg)
        np.testing.assert_allclose(b.rotations, a.rotations, atol=1e-9)


TAU = 2.0 * np.pi
SMOOTHINGS = [SmoothingConfig(mode="exponential", alpha=0.3), SmoothingConfig(mode="one_euro"),
              SmoothingConfig(mode="one_euro", min_cutoff=0.5, beta=0.5)]


def clip_with_root(root: np.ndarray, betas: np.ndarray | None = None) -> FrameArrays:
    """A clip of consecutive frames whose root axis-angles are `root`
    (T, 3), and whose first betas are `betas` (T, k) when given."""
    n = len(root)
    clip = arrays(random_frames(3, n))
    rotations, new_betas = clip.rotations.copy(), clip.betas.copy()
    rotations[:, 0] = root
    if betas is not None:
        new_betas[:, :betas.shape[1]] = betas
    return replace(clip, frame_index=np.arange(n), rotations=rotations, betas=new_betas)


def geodesic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angles (radians) between the rotations of axis-angle stacks a and b,
    from |Ra - Rb|_F = 2 sqrt(2) sin(angle / 2)."""
    diff = np.linalg.norm(rodrigues(a) - rodrigues(b), axis=(-2, -1))
    return 2.0 * np.arcsin(np.minimum(diff / (2.0 * np.sqrt(2.0)), 1.0))


class TestTurningThroughPi:
    """A rotation that turns through pi keeps its axis-angle continuous,
    so the filter sees the motion, not a jump of 2 pi."""

    @pytest.mark.parametrize("start, speed", [
        (0.3, 0.05), (2.8, 0.05), (5.9, 0.05), (-3.4, 0.05), (0.0, TAU / 10), (0.3, TAU / 10),
    ], ids=["neither", "pi", "two_pi", "minus_pi", "whole_turns", "several_turns"])
    @pytest.mark.parametrize("axis", [(0.48, -0.6, 0.64), (0.0, 0.0, 1.0)], ids=["oblique", "z"])
    @pytest.mark.parametrize("smoothing", SMOOTHINGS, ids=["exponential", "one_euro", "one_euro_beta"])
    def test_lags_as_the_unwrapped_angle(self, start, speed, axis, smoothing):
        """A constant-speed turn about one axis is smoothed as the same
        angle ramp in three unbounded channels (betas): up to whole turns
        along the axis, the same output, so the same lag within 1e-9 rad,
        whether its path crosses pi, 2 pi, several turns or neither.  About
        z, the whole-turn frames canonicalize to the zero vector."""
        axis = np.array(axis)
        ramp = (start + speed * np.arange(40))[:, None] * axis
        out = smooth_arrays(clip_with_root(ramp, ramp), FilterConfig(smoothing=smoothing))
        offset = out.rotations[:, 0] - out.betas[:, :3]
        turns = np.rint(offset[0] @ axis / TAU)
        np.testing.assert_allclose(offset, np.tile(TAU * turns * axis, (40, 1)), rtol=0, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seeds, st.integers(min_value=8, max_value=40), st.floats(min_value=0.02, max_value=0.1),
           st.floats(min_value=0.25, max_value=0.75), st.sampled_from([
               SmoothingConfig(mode="exponential", alpha=0.5), SmoothingConfig(mode="exponential", alpha=0.8),
               SmoothingConfig(mode="one_euro", min_cutoff=0.5), SmoothingConfig(mode="one_euro", beta=2.0)]))
    def test_error_bounded_by_the_lag(self, seed, n, speed, crossing, smoothing):
        """Along a smooth trajectory whose root turns through pi about a
        drifting axis, every frame's geodesic error is at most the filter's
        lag: (1 - a) / a times the largest per-frame step, a the smallest
        smoothing weight, channel by channel."""
        rng = np.random.default_rng(seed)
        t = np.arange(n)[:, None]
        drift = rng.normal(0.0, 1.0, 3) + 0.2 * np.sin(rng.uniform(0.0, 0.2, 3) * t + rng.uniform(0.0, TAU, 3))
        angle = np.pi + speed * (t - crossing * (n - 1))
        root = angle * drift / np.linalg.norm(drift, axis=1, keepdims=True)
        out = smooth_arrays(clip_with_root(root), FilterConfig(smoothing=smoothing))
        weight = smoothing.alpha if smoothing.mode == "exponential" else _ref_exp_alpha(smoothing.min_cutoff, 1.0)
        lag = (1.0 - weight) / weight * np.linalg.norm(np.abs(np.diff(root, axis=0)).max(axis=0))
        assert geodesic(out.rotations[:, 0], root).max() <= lag + 1e-9


class TestArrayGating:
    @props
    @given(seeds, st.integers(min_value=1, max_value=40), filter_configs, st.booleans())
    def test_matches_per_frame_loop(self, seed, n, cfg, gated_input):
        frames = random_frames(seed, n, gated_input)
        assert_same_arrays(gate_arrays(arrays(frames), cfg), arrays(reference_gate(frames, cfg)))

    @props
    @given(seeds, st.integers(min_value=1, max_value=40), filter_configs, st.booleans())
    def test_idempotent(self, seed, n, cfg, gated_input):
        once = gate_arrays(arrays(random_frames(seed, n, gated_input)), cfg)
        assert_same_arrays(gate_arrays(once, cfg), once)

    def test_missing_confidence_names_frame(self):
        frames = random_frames(5, 3)
        frames[1] = replace(frames[1], confidence=None)
        with pytest.raises(ValueError, match=f"frame {frames[1].frame_index} has no confidence"):
            gate_arrays(arrays(frames), FilterConfig())

    @pytest.mark.parametrize("indices, bad, prev", [([3, 4, 4], 4, 4), ([3, 7, 5], 5, 7)],
                             ids=["duplicate", "decreasing"])
    def test_order_error_names_frame(self, indices, bad, prev):
        frames = [replace(f, frame_index=i) for f, i in zip(random_frames(1, 3), indices)]
        clip = arrays(frames)
        message = rf"frame {bad}: frame_index {bad} is not greater than the previous frame's \({prev}\)"
        for fn in (gate_arrays, smooth_arrays):
            with pytest.raises(ValueError, match=message):
                fn(clip, FilterConfig())


class TestRecords:
    @props
    @given(seeds, st.integers(min_value=1, max_value=10), st.booleans())
    def test_to_records_matches_to_dict(self, seed, n, gated_input):
        frames = random_frames(seed, n, gated_input)
        frames[0] = replace(frames[0], confidence=None)
        got = [json.dumps(doc) for doc in arrays(frames).to_records()]
        assert got == [json.dumps(f.to_dict()) for f in frames]

    @props
    @given(seeds, st.integers(min_value=1, max_value=10), st.booleans())
    def test_round_trip_through_json(self, seed, n, gated_input):
        """Parsing the written records gives back every column bit for bit,
        -0.0 entries and missing confidences included."""
        frames = random_frames(seed, n, gated_input)
        frames[0] = replace(frames[0], confidence=None, pose=HandPose(-0.0 * frames[0].pose.rotations))
        clip = arrays(frames)
        assert_same_arrays(FrameArrays.from_records(json.loads(json.dumps(clip.to_records()))), clip)


class TestClipContracts:
    """Whole-clip properties over `conftest.clips`, under the one
    `clip_contracts` settings profile."""

    @settings(settings.get_profile("clip_contracts"))
    @given(clips())
    def test_records_parse_back_bit_for_bit(self, clip):
        assert_same_arrays(FrameArrays.from_records(json.loads(json.dumps(clip.to_records()))), clip)

    @settings(settings.get_profile("clip_contracts"))
    @given(clips(scored=True), st.builds(FilterConfig, threshold=st.floats(-1.0, 1.0, exclude_max=True),
                                         max_hold_frames=st.integers(1, 4) | st.integers(1, 2**40)))
    def test_gating_twice_is_gating_once(self, clip, cfg):
        once = gate_arrays(clip, cfg)
        assert_same_arrays(gate_arrays(once, cfg), once)


def random_logits(rng, cfg: CodecConfig, k: int = 21) -> np.ndarray:
    joints = rng.uniform(0.0, cfg.net_size, size=(k, 2))
    logits = log_probs(encode_labels(joints, cfg))
    logits[np.isfinite(logits)] += rng.normal(0.0, 0.1, size=np.isfinite(logits).sum())
    return logits


codecs = st.builds(CodecConfig, net_size=st.sampled_from([16, 64, 224]), scale=st.integers(1, 3),
                   sigma_bins=st.sampled_from([0.5, 6.0, 40.0]))


class TestDecodeScratch:
    @props
    @given(seeds, codecs)
    def test_scratch_forms_match_fresh_decode(self, seed, cfg):
        logits = random_logits(np.random.default_rng(seed), cfg)
        saved = logits.tobytes()
        fresh = decode_soft_argmax(logits, cfg)
        scratch = np.full_like(logits, np.nan)
        assert decode_soft_argmax(logits, cfg, scratch=scratch).tobytes() == fresh.tobytes()
        assert logits.tobytes() == saved
        assert not np.isnan(scratch).any()  # overwritten
        in_place = logits.copy()
        assert decode_soft_argmax(in_place, cfg, scratch=in_place).tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("scratch", [np.empty((21, 2, 671)), np.empty((21, 2, 672), dtype=np.float32)])
    def test_bad_scratch_rejected(self, scratch):
        cfg = CodecConfig()
        with pytest.raises(ValueError, match="scratch must be float64"):
            decode_soft_argmax(np.zeros((21, 2, cfg.n_bins)), cfg, scratch=scratch)


class TestReadInto:
    coord_dims = st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 9))

    @settings(max_examples=20, deadline=None)
    @given(seeds, coord_dims, st.one_of(st.none(), coord_dims))
    def test_reads_into_matching_buffer_and_rejects_other_dims(self, seed, dims, other_dims):
        buf_dims = dims if other_dims is None else other_dims
        values = np.random.default_rng(seed).normal(size=dims)
        buf = np.full(buf_dims, np.nan)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a.bin"
            write_coord_array(values, path)
            if dims == buf_dims:
                got = read_coord_array(path, out=buf)
                assert np.shares_memory(got, buf) and got.tobytes() == values.tobytes()
            else:
                with pytest.raises(BinaryFormatError, match=rf"dims \({dims[0]}, {dims[1]}, {dims[2]}\) .*"
                                                            rf"\({buf_dims[0]}, {buf_dims[1]}, {buf_dims[2]}\)"):
                    read_coord_array(path, out=buf)

    @pytest.mark.parametrize("buf", [
        np.empty((2, 2, 3), dtype=np.float32),
        np.empty((2, 2, 6))[..., ::2],
        np.empty((2, 2, 3), dtype=">f8"),
    ], ids=["float32", "strided", "big-endian"])
    def test_rejects_unusable_buffer(self, buf, tmp_path):
        write_coord_array(np.ones((2, 2, 3)), tmp_path / "a.bin")
        with pytest.raises(ValueError, match="C-contiguous, writable float64"):
            read_coord_array(tmp_path / "a.bin", out=buf)


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=2), st.sampled_from([(20, 2, 672), (21, 2, 600), (21, 1, 672)]))
def test_wrong_dims_logits_file_names_frame(toy_model, bad_row, dims):
    seq = synth_sequence(toy_model, 3, noise_px=0.0, seed=2)
    cfg = CodecConfig()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, doc in enumerate(seq.observed):
            logits = log_probs(encode_labels(np.asarray(doc["joints2d"]), cfg))
            write_coord_array(np.zeros(dims) if i == bad_row else logits, tmp / f"f{i}.bin")
            doc["logits_file"] = f"f{i}.bin"
        write_jsonl(seq.observed, tmp / "obs.jsonl")
        with pytest.raises(RuntimeError, match=rf"frame {bad_row}: coordinate-array file dims"):
            run_pipeline(PipelineConfig(), tmp / "obs.jsonl", tmp / "out.jsonl")

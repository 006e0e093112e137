import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dahyf.geometry import (
    DirectionMap,
    PatchSpec,
    default_focal,
    feat_to_patch,
    flip_left_patch,
    frame_to_direction,
    frame_to_patch_abs,
    global_direction_map,
    local_direction_map,
    mirror_joints_x,
    patch_to_frame,
    patch_to_frame_abs,
)


def make_spec(**kw):
    base = dict(frame_w=640, frame_h=480, upper_left=(100.0, 50.0), patch_size=200.0, focal=800.0)
    base.update(kw)
    return PatchSpec(**base)


class TestFocal:
    def test_three_four_five(self):
        assert default_focal(640, 480) == 800.0

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            default_focal(1000, 0)

    def test_hd_frame(self):
        np.testing.assert_allclose(default_focal(1920, 1080), 2202.9071700822983, atol=1e-9)


class TestAffineChain:
    def test_feat_origin(self):
        got = feat_to_patch(np.array([0.0, 0.0]), make_spec())
        np.testing.assert_array_equal(got, [2.0, 2.0])

    def test_feat_last_pixel(self):
        got = feat_to_patch(np.array([55.0, 55.0]), make_spec())
        np.testing.assert_array_equal(got, [222.0, 222.0])

    def test_unit_scale_is_half_pixel_shift(self):
        spec = make_spec(net_size=56, feat_size=56)
        p = np.array([3.0, 17.0])
        np.testing.assert_array_equal(feat_to_patch(p, spec), p + 0.5)

    def test_patch_to_frame_worked_example(self):
        got = patch_to_frame(np.array([2.0, 2.0]), make_spec())
        np.testing.assert_allclose(got, [-218.21428571428572, -188.21428571428572], atol=1e-9)

    def test_patch_center_on_frame_center(self):
        spec = make_spec(upper_left=(208.0, 128.0), patch_size=224.0)
        got = patch_to_frame(np.array([112.0, 112.0]), spec)
        np.testing.assert_allclose(got, [0.0, 0.0], atol=1e-12)

    def test_identity_configuration(self):
        spec = make_spec(upper_left=(320.0, 240.0), patch_size=224.0, net_size=224)
        p = np.array([[10.0, 20.0], [200.5, 3.25]])
        np.testing.assert_allclose(patch_to_frame(p, spec), p, atol=1e-12)

    def test_abs_roundtrip(self):
        spec = make_spec()
        p = np.array([[0.0, 0.0], [112.3, 87.9], [223.0, 223.0]])
        np.testing.assert_allclose(frame_to_patch_abs(patch_to_frame_abs(p, spec), spec), p, atol=1e-9)

    def test_direction_examples(self):
        np.testing.assert_array_equal(frame_to_direction(np.array([0.0, 0.0]), 800.0), [0.0, 0.0])
        np.testing.assert_allclose(
            frame_to_direction(np.array([-218.21428571428572, -188.21428571428572]), 800.0),
            [-0.27276785714285715, -0.23526785714285714],
            atol=1e-12,
        )
        np.testing.assert_array_equal(frame_to_direction(np.array([800.0, 0.0]), 800.0), [1.0, 0.0])
        with pytest.raises(ValueError):
            frame_to_direction(np.array([1.0, 1.0]), 0.0)


class TestLocalMap:
    def test_index_ramps(self):
        dmap = local_direction_map(56, 2)
        np.testing.assert_array_equal(dmap.values[0, 0], np.arange(56.0))
        np.testing.assert_array_equal(dmap.values[1, :, 0], np.arange(56.0))
        assert dmap.values[0, 0, 0] == 0.0 and dmap.values[1, 0, 0] == 0.0

    def test_crop_independent(self):
        # identical for any two crops: the local map carries no frame context
        a = local_direction_map(56, 4)
        b = local_direction_map(56, 4)
        assert a.values.tobytes() == b.values.tobytes()

    def test_odd_channels_rejected(self):
        with pytest.raises(ValueError):
            local_direction_map(56, 3)


class TestGlobalMap:
    def test_worked_example_corner(self):
        dmap = global_direction_map(make_spec(), 2)
        np.testing.assert_allclose(dmap.values[0, 0, 0], -0.27276785714285715, atol=1e-12)
        np.testing.assert_allclose(dmap.values[1, 0, 0], -0.23526785714285714, atol=1e-12)

    def test_ulc_shift_moves_x_by_constant(self):
        a = global_direction_map(make_spec(), 2)
        b = global_direction_map(make_spec(upper_left=(150.0, 50.0)), 2)
        np.testing.assert_allclose(b.values[0] - a.values[0], 50.0 / 800.0, atol=1e-12)
        np.testing.assert_allclose(b.values[1], a.values[1], atol=0)

    def test_replication_pattern(self):
        dmap = global_direction_map(make_spec(), 8)
        for c in (2, 4, 6):
            np.testing.assert_array_equal(dmap.values[c], dmap.values[0])
        for c in (3, 5, 7):
            np.testing.assert_array_equal(dmap.values[c], dmap.values[1])

    def test_odd_channels_rejected(self):
        with pytest.raises(ValueError):
            global_direction_map(make_spec(), 5)

    def test_monotone_along_axes(self):
        dmap = global_direction_map(make_spec(), 2)
        assert np.all(np.diff(dmap.values[0], axis=1) > 0)
        assert np.all(np.diff(dmap.values[1], axis=0) > 0)

    def test_translation_covariance_general(self, rng):
        for _ in range(50):
            spec = make_spec(
                upper_left=(rng.uniform(-100, 500), rng.uniform(-100, 400)),
                patch_size=rng.uniform(50, 400),
            )
            dx, dy = rng.uniform(-200, 200, 2)
            shifted = PatchSpec(
                spec.frame_w, spec.frame_h,
                (spec.upper_left[0] + dx, spec.upper_left[1] + dy),
                spec.patch_size, focal=spec.focal,
            )
            a = global_direction_map(spec, 2)
            b = global_direction_map(shifted, 2)
            np.testing.assert_allclose(b.values[0] - a.values[0], dx / 800.0, atol=1e-12)
            np.testing.assert_allclose(b.values[1] - a.values[1], dy / 800.0, atol=1e-12)

    def test_translation_covariance_bit_exact_for_binary_inputs(self):
        # power-of-two focal and integer geometry: shifts are exactly representable
        spec = make_spec(upper_left=(96.0, 32.0), patch_size=224.0, focal=512.0)
        shifted = make_spec(upper_left=(96.0 + 64.0, 32.0), patch_size=224.0, focal=512.0)
        a = global_direction_map(spec, 2)
        b = global_direction_map(shifted, 2)
        assert np.array_equal(b.values[0], a.values[0] + 64.0 / 512.0)
        assert np.array_equal(b.values[1], a.values[1])

    def test_discriminability_vs_local(self, rng):
        spec_a = make_spec()
        for _ in range(50):
            if rng.uniform() < 0.5:
                spec_b = make_spec(upper_left=(100.0 + rng.uniform(0.1, 50), 50.0))
            else:
                spec_b = make_spec(patch_size=200.0 + rng.uniform(0.1, 50))
            ga = global_direction_map(spec_a, 2)
            gb = global_direction_map(spec_b, 2)
            assert np.abs(ga.values - gb.values).max() > 1e-12
            la = local_direction_map(spec_a.feat_size, 2)
            lb = local_direction_map(spec_b.feat_size, 2)
            assert la.values.tobytes() == lb.values.tobytes()

    def test_default_focal_fallback(self):
        spec = make_spec(focal=None)
        assert spec.focal_or_default == 800.0
        dmap = global_direction_map(spec, 2)
        np.testing.assert_allclose(dmap.values[0, 0, 0], -0.27276785714285715, atol=1e-12)


def reference_global_map(spec: PatchSpec, channels: int) -> np.ndarray:
    """The global map as one inline formula, as it was written before the
    package built it from the crop maps; not to be changed to follow them."""
    f = spec.focal_or_default
    sc_p = spec.net_size / spec.feat_size
    px = np.arange(spec.feat_size, dtype=np.float64) * sc_p + sc_p / 2.0
    py = px
    if spec.flipped:
        px = (spec.net_size - 1) - px
    sc_o = spec.patch_size / spec.net_size
    gx = px * sc_o + spec.upper_left[0] - spec.frame_w / 2.0
    gy = py * sc_o + spec.upper_left[1] - spec.frame_h / 2.0
    out = np.empty((channels, spec.feat_size, spec.feat_size))
    out[0::2] = np.tile(gx / f, (spec.feat_size, 1))
    out[1::2] = np.tile((gy / f)[:, None], (1, spec.feat_size))
    return out


def reference_local_map(feat_size: int, channels: int) -> np.ndarray:
    cols, rows = np.meshgrid(np.arange(feat_size, dtype=np.float64), np.arange(feat_size, dtype=np.float64))
    out = np.empty((channels, feat_size, feat_size))
    out[0::2], out[1::2] = cols, rows
    return out


crop_specs = st.builds(
    PatchSpec,
    frame_w=st.integers(1, 4000), frame_h=st.integers(1, 4000),
    upper_left=st.tuples(st.floats(-500.0, 4000.0), st.floats(-500.0, 4000.0)),
    patch_size=st.floats(0.5, 2000.0), net_size=st.integers(1, 301), feat_size=st.integers(1, 89),
    focal=st.none() | st.floats(1.0, 5000.0), flipped=st.booleans(),
)


class TestMapsMatchTheirFormulas:
    @settings(max_examples=100, deadline=None)
    @given(crop_specs, st.sampled_from([2, 4, 6]))
    def test_bytes_equal_the_reference_formulas(self, spec, channels):
        assert global_direction_map(spec, channels).values.tobytes() == reference_global_map(spec, channels).tobytes()
        assert local_direction_map(spec.feat_size, channels).values.tobytes() \
            == reference_local_map(spec.feat_size, channels).tobytes()


class TestFlip:
    def test_mirror_edge_joint(self):
        spec = make_spec(handedness="left", net_size=224)
        joints = np.array([[0.0, 10.0]])
        _, flipped = flip_left_patch(spec, joints)
        np.testing.assert_array_equal(flipped, [[223.0, 10.0]])

    def test_mirror_fixed_point(self):
        spec = make_spec(handedness="left")
        c = (spec.net_size - 1) / 2.0
        _, flipped = flip_left_patch(spec, np.array([[c, 40.0]]))
        np.testing.assert_array_equal(flipped, [[c, 40.0]])

    def test_mirror_involution(self, rng):
        joints = rng.uniform(0, 224, (21, 2))
        np.testing.assert_allclose(mirror_joints_x(mirror_joints_x(joints, 224), 224), joints, atol=0)

    def test_right_hand_rejected(self):
        with pytest.raises(ValueError, match="left"):
            flip_left_patch(make_spec(), np.zeros((21, 2)))

    def test_flip_sets_right_and_records(self):
        spec = make_spec(handedness="left")
        flipped_spec, _ = flip_left_patch(spec, np.zeros((21, 2)))
        assert flipped_spec.handedness == "right"
        assert flipped_spec.flipped

    def test_flipped_map_samples_mirrored_columns(self):
        spec = make_spec(handedness="left")
        flipped_spec, _ = flip_left_patch(spec, np.zeros((21, 2)))
        plain = global_direction_map(make_spec(), 2)
        flipped = global_direction_map(flipped_spec, 2)
        # column j of the flipped map looks where the mirrored content came
        # from; explicit chain check at the corner
        sc_p = spec.net_size / spec.feat_size
        mirrored_px = (spec.net_size - 1) - (0 * sc_p + sc_p / 2)
        expected_x = (mirrored_px * spec.patch_size / spec.net_size + 100.0 - 320.0) / 800.0
        np.testing.assert_allclose(flipped.values[0, 0, 0], expected_x, atol=1e-12)
        # y-plane is untouched by the horizontal mirror
        np.testing.assert_array_equal(flipped.values[1], plain.values[1])

    def test_flipped_map_keeps_translation_covariance(self):
        spec = make_spec(handedness="left")
        flipped_spec, _ = flip_left_patch(spec, np.zeros((21, 2)))
        shifted = PatchSpec(
            flipped_spec.frame_w, flipped_spec.frame_h,
            (flipped_spec.upper_left[0] + 32.0, flipped_spec.upper_left[1]),
            flipped_spec.patch_size, focal=flipped_spec.focal,
            handedness="right", flipped=True,
        )
        a = global_direction_map(flipped_spec, 2)
        b = global_direction_map(shifted, 2)
        np.testing.assert_allclose(b.values[0] - a.values[0], 32.0 / 800.0, atol=1e-12)


class TestSpecValidation:
    def test_bad_patch_size(self):
        with pytest.raises(ValueError):
            make_spec(patch_size=0)

    def test_bad_handedness(self):
        with pytest.raises(ValueError):
            make_spec(handedness="ambidextrous")

    def test_dict_roundtrip(self):
        spec = make_spec(handedness="left", focal=None)
        again = PatchSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_direction_map_shape_validation(self):
        with pytest.raises(ValueError):
            DirectionMap(np.zeros((3, 8, 8)))

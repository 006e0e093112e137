"""Batch-vs-single oracles: every (T, …) form of the numeric core must give,
row by row, what T separate single-frame calls give."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dahyf.camera import WeakCamera, project_points, weak_to_full
from dahyf.confidence import DegenerateJointsError, cosine_confidence, normalize_pred, normalize_proj
from dahyf.geometry import PatchSpec, RowError, SpecColumns, frame_to_patch_abs
from dahyf.hand_model import HandModelParams, HandPose, HandShape, forward_kinematics, posed_joints, rodrigues
from dahyf.metrics import epe_2d, joint_errors, procrustes_align

TOL = 1e-12

stacks = settings(max_examples=25, deadline=None)
frames = st.integers(min_value=1, max_value=40)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_params(rng, t):
    betas = rng.normal(0, 1.0, (t, 10))
    rotations = rng.normal(0, 0.5, (t, 16, 3))
    return betas, rotations


def random_specs(rng, t):
    specs = []
    for _ in range(t):
        w, h = int(rng.integers(320, 1280)), int(rng.integers(240, 960))
        size = float(rng.uniform(80, 300))
        specs.append(PatchSpec(
            frame_w=w,
            frame_h=h,
            upper_left=(float(rng.uniform(-50, w - 50)), float(rng.uniform(-50, h - 50))),
            patch_size=size,
            net_size=int(rng.choice([128, 224, 256])),
            focal=None if rng.random() < 0.3 else float(rng.uniform(400, 1500)),
        ))
    return specs


def random_weak(rng, t):
    return np.column_stack([rng.uniform(0.5, 2.0, t), rng.normal(0, 0.1, t), rng.normal(0, 0.1, t)])


def reference_fk(model, betas, rotations):
    """Joint-by-joint FK in index order, independent of the level schedule."""
    rest = model.rest_joints + np.einsum("k,kjc->jc", betas, model.shape_basis)
    local = np.broadcast_to(np.eye(3), (21, 3, 3)).copy()
    local[model.articulated_indices] = rodrigues(rotations)
    world, pos = np.zeros((21, 3, 3)), np.zeros((21, 3))
    world[0], pos[0] = local[0], rest[0]
    for j in range(1, 21):
        p = model.parent[j]
        world[j] = world[p] @ local[j]
        pos[j] = world[p] @ (rest[j] - rest[p]) + pos[p]
    return pos


@stacks
@given(t=frames, seed=seeds)
def test_fk_stack_matches_single_frames(toy_model, t, seed):
    rng = np.random.default_rng(seed)
    betas, rotations = random_params(rng, t)
    stacked = posed_joints(toy_model, betas, rotations)
    assert stacked.shape == (t, 21, 3)
    for i in range(t):
        single = forward_kinematics(toy_model, HandShape(betas[i]), HandPose(rotations[i]))
        np.testing.assert_allclose(stacked[i], single, rtol=0, atol=TOL)
        np.testing.assert_allclose(stacked[i], reference_fk(toy_model, betas[i], rotations[i]), rtol=0, atol=TOL)


def test_fk_composes_a_rotation_free_joint_with_children(toy_model, rng):
    """A joint that carries no rotation but has children passes its parent's
    rotation on: the level schedule matches the joint-by-joint oracle on
    such a tree too."""
    parent = toy_model.parent.copy()
    parent[20] = 4  # the pinky tip hangs off the thumb tip, which carries no rotation
    model = HandModelParams(toy_model.rest_joints, parent, toy_model.articulated, toy_model.shape_basis)
    betas, rotations = random_params(rng, 5)
    stacked = posed_joints(model, betas, rotations)
    for i in range(5):
        np.testing.assert_allclose(stacked[i], reference_fk(model, betas[i], rotations[i]), rtol=0, atol=TOL)


@stacks
@given(t=frames, seed=seeds)
def test_projection_stack_matches_single_frames(toy_model, t, seed):
    rng = np.random.default_rng(seed)
    joints = posed_joints(toy_model, *random_params(rng, t))
    specs, weak = random_specs(rng, t), random_weak(rng, t)
    columns = SpecColumns.stack(specs)
    cam = weak_to_full(weak, columns)
    uv = project_points(joints, cam)
    patch = frame_to_patch_abs(uv, columns)
    for i in range(t):
        single_cam = weak_to_full(WeakCamera(*weak[i]), specs[i])
        np.testing.assert_allclose(cam.translation[i], single_cam.translation, rtol=0, atol=TOL)
        single_uv = project_points(joints[i], single_cam)
        np.testing.assert_allclose(uv[i], single_uv, rtol=TOL, atol=TOL)
        np.testing.assert_allclose(patch[i], frame_to_patch_abs(single_uv, specs[i]), rtol=TOL, atol=TOL)


@stacks
@given(t=frames, seed=seeds)
def test_confidence_stack_matches_single_frames(t, seed):
    rng = np.random.default_rng(seed)
    specs = random_specs(rng, t)
    columns = SpecColumns.stack(specs)
    detected = rng.uniform(0, 224, (t, 21, 2))
    projected = np.array([np.asarray(s.center) + rng.normal(0, s.patch_size / 4, (21, 2)) for s in specs])
    pred, proj = normalize_pred(detected, columns), normalize_proj(projected, columns)
    conf = cosine_confidence(pred, proj)
    assert conf.shape == (t,)
    for i in range(t):
        single_pred = normalize_pred(detected[i], specs[i])
        single_proj = normalize_proj(projected[i], specs[i])
        np.testing.assert_allclose(pred[i], single_pred, rtol=0, atol=TOL)
        np.testing.assert_allclose(proj[i], single_proj, rtol=0, atol=TOL)
        assert conf[i] == pytest.approx(cosine_confidence(single_pred, single_proj), rel=0, abs=TOL)


@stacks
@given(t=frames, seed=seeds, data=st.data())
def test_procrustes_stack_matches_single_frames(t, seed, data):
    rng = np.random.default_rng(seed)
    gt = rng.normal(0, 0.05, (t, 21, 3))
    q = np.linalg.qr(rng.normal(size=(t, 3, 3)))[0]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0  # proper rotations
    pred = rng.uniform(0.5, 2.0, (t, 1, 1)) * gt @ q + rng.normal(0, 0.1, (t, 1, 3))
    pred += rng.normal(0, 1e-3, pred.shape)
    mirrored = data.draw(st.integers(min_value=0, max_value=t - 1))
    pred[mirrored] *= np.array([-1.0, 1.0, 1.0])  # det-sign flip needed on this row only
    stacked = procrustes_align(pred, gt)
    errs = joint_errors(pred, gt)
    for i in range(t):
        single = procrustes_align(pred[i], gt[i])
        np.testing.assert_allclose(stacked.rotation[i], single.rotation, rtol=0, atol=TOL)
        assert stacked.scale[i] == pytest.approx(single.scale, rel=TOL, abs=TOL)
        np.testing.assert_allclose(stacked.translation[i], single.translation, rtol=0, atol=TOL)
        np.testing.assert_allclose(stacked.aligned_points[i], single.aligned_points, rtol=0, atol=TOL)
        single_errs = joint_errors(pred[i], gt[i])
        assert errs["mpjpe"][i] == pytest.approx(single_errs["mpjpe"], rel=TOL)
        assert errs["pa_mpjpe"][i] == pytest.approx(single_errs["pa_mpjpe"], rel=TOL)
    assert np.allclose(np.linalg.det(stacked.rotation), 1.0)
    assert errs["pa_mpjpe"][mirrored] > 1.0  # a mirrored hand does not align


def test_epe_stack_is_per_row():
    rng = np.random.default_rng(3)
    pred, gt = rng.normal(size=(5, 21, 2)), rng.normal(size=(5, 21, 2))
    np.testing.assert_allclose(epe_2d(pred, gt), [epe_2d(p, g) for p, g in zip(pred, gt)], rtol=0, atol=TOL)


class TestRowErrors:
    def test_behind_camera_names_first_row(self, toy_model):
        rng = np.random.default_rng(1)
        specs = random_specs(rng, 6)
        joints = posed_joints(toy_model, *random_params(rng, 6))
        joints[[2, 4], 3, 2] = -1e3
        with pytest.raises(RowError, match="behind camera") as err:
            project_points(joints, weak_to_full(random_weak(rng, 6), SpecColumns.stack(specs)))
        assert err.value.row == 2

    def test_nonfinite_joints2d_names_row(self):
        specs = random_specs(np.random.default_rng(2), 4)
        detected = np.full((4, 21, 2), 100.0)
        detected[3, 7, 1] = np.inf
        with pytest.raises(RowError, match="joints2d") as err:
            normalize_pred(detected, SpecColumns.stack(specs))
        assert err.value.row == 3

    def test_degenerate_row_named(self):
        a = np.ones((3, 42))
        a[1] = 0.0
        with pytest.raises(DegenerateJointsError) as err:
            cosine_confidence(a, np.ones((3, 42)))
        assert err.value.row == 1

    def test_procrustes_degenerate_row_named(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(3, 21, 3))
        pts[2] = 0.5
        with pytest.raises(RowError, match="zero spread") as err:
            procrustes_align(pts, pts)
        assert err.value.row == 2

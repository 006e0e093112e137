import json

import numpy as np
import pytest

from dahyf.hand_model import (
    PARENT_TREE,
    HandModelParams,
    HandPose,
    HandShape,
    ModelFormatError,
    bone_vectors,
    canonicalize_axis_angle,
    forward_kinematics,
    load_model,
    rodrigues,
    save_model,
    shaped_rest_joints,
    skin_vertices,
    so3_log,
)
from dahyf.toy import build_toy_model, bundled_model_path


def _pose_with_wrist(aa):
    rot = np.zeros((16, 3))
    rot[0] = aa
    return HandPose(rot)


class TestModelLoading:
    def test_bundled_toy_model(self, toy_model):
        assert toy_model.rest_joints.shape == (21, 3)
        assert int(toy_model.articulated.sum()) == 16
        assert toy_model.skinning is not None

    def test_bundled_matches_builder(self, toy_model):
        built = build_toy_model()
        np.testing.assert_array_equal(toy_model.rest_joints, built.rest_joints)
        np.testing.assert_array_equal(toy_model.shape_basis, built.shape_basis)
        np.testing.assert_array_equal(toy_model.skinning.weights, built.skinning.weights)

    def test_save_load_roundtrip(self, toy_model, tmp_path):
        path = tmp_path / "copy.model"
        save_model(toy_model, path)
        again = load_model(path)
        np.testing.assert_array_equal(again.rest_joints, toy_model.rest_joints)
        np.testing.assert_array_equal(again.parent, toy_model.parent)
        np.testing.assert_array_equal(again.skinning.vertices, toy_model.skinning.vertices)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no_such"):
            load_model(tmp_path / "no_such.model")

    def test_parent_cycle_rejected(self, tmp_path):
        doc = json.loads(bundled_model_path().read_text())
        doc["parent"][5] = 6
        doc["parent"][6] = 5
        path = tmp_path / "cyclic.model"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="cycle"):
            load_model(path)

    def test_short_shape_basis_rejected(self, tmp_path):
        doc = json.loads(bundled_model_path().read_text())
        doc["shape_basis"] = doc["shape_basis"][:9]
        path = tmp_path / "short.model"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="shape basis rank mismatch"):
            load_model(path)

    def test_unnormalized_weights_rejected(self, tmp_path):
        doc = json.loads(bundled_model_path().read_text())
        doc["skinning"]["weights"][0][0] += 0.5
        path = tmp_path / "badw.model"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="not normalized"):
            load_model(path)

    def test_articulated_count_enforced(self, toy_model):
        artic = toy_model.articulated.copy()
        artic[4] = True  # 17 flags
        with pytest.raises(ModelFormatError, match="exactly 16"):
            HandModelParams(toy_model.rest_joints, toy_model.parent, artic, toy_model.shape_basis)


class TestRotations:
    def test_rodrigues_small_angle(self):
        aa = np.array([1e-10, -2e-10, 5e-11])
        k = np.array([[0, -aa[2], aa[1]], [aa[2], 0, -aa[0]], [-aa[1], aa[0], 0]])
        np.testing.assert_allclose(rodrigues(aa), np.eye(3) + k, atol=1e-18)

    def test_rodrigues_quarter_turn(self):
        got = rodrigues(np.array([0.0, 0.0, np.pi / 2]))
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_log_inverts_rodrigues(self, rng):
        for _ in range(200):
            aa = rng.normal(0, 1.0, 3)
            np.testing.assert_allclose(so3_log(rodrigues(aa)), canonicalize_axis_angle(aa), atol=1e-9)

    def test_canonicalize_wraps_magnitude(self):
        aa = np.array([0.0, 0.0, 3 * np.pi / 2])
        canon = canonicalize_axis_angle(aa)
        assert np.linalg.norm(canon) <= np.pi + 1e-12
        np.testing.assert_allclose(rodrigues(canon), rodrigues(aa), atol=1e-12)

    def test_pose_validation(self):
        with pytest.raises(ValueError):
            HandPose(np.zeros((15, 3)))
        bad = np.zeros((16, 3))
        bad[3, 1] = np.nan
        with pytest.raises(ValueError):
            HandPose(bad)


class TestShapedRest:
    def test_zero_betas_is_mean_shape(self, toy_model):
        out = shaped_rest_joints(toy_model, HandShape.zeros())
        np.testing.assert_array_equal(out, toy_model.rest_joints)

    def test_unit_beta_adds_one_basis(self, toy_model):
        betas = np.zeros(10)
        betas[0] = 1.0
        out = shaped_rest_joints(toy_model, HandShape(betas))
        np.testing.assert_allclose(out, toy_model.rest_joints + toy_model.shape_basis[0], atol=1e-15)

    def test_mixed_betas_match_direct_summation(self, toy_model):
        betas = np.zeros(10)
        betas[0], betas[1] = 0.5, -0.5
        # independent oracle: accumulate term by term
        expected = toy_model.rest_joints.copy()
        for k, b in enumerate(betas):
            expected = expected + b * toy_model.shape_basis[k]
        np.testing.assert_allclose(shaped_rest_joints(toy_model, HandShape(betas)), expected, atol=1e-15)

    def test_superposition(self, toy_model, rng):
        a = rng.normal(0, 1, 10)
        b = rng.normal(0, 1, 10)
        lhs = shaped_rest_joints(toy_model, HandShape(a + b))
        rhs = (
            shaped_rest_joints(toy_model, HandShape(a))
            + shaped_rest_joints(toy_model, HandShape(b))
            - toy_model.rest_joints
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestForwardKinematics:
    def test_zero_pose_identity(self, toy_model):
        out = forward_kinematics(toy_model, HandShape.zeros(), HandPose.zeros())
        np.testing.assert_array_equal(out, toy_model.rest_joints)

    def test_wrist_quarter_turn_matches_matrix_oracle(self, toy_model):
        pose = _pose_with_wrist([0.0, 0.0, np.pi / 2])
        out = forward_kinematics(toy_model, HandShape.zeros(), pose)
        r = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        wrist = toy_model.rest_joints[0]
        expected = (toy_model.rest_joints - wrist) @ r.T + wrist
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_bone_lengths_preserved(self, toy_model, rng):
        shape = HandShape(rng.normal(0, 0.5, 10))
        rest = shaped_rest_joints(toy_model, shape)
        rest_lengths = np.linalg.norm(bone_vectors(rest, toy_model.parent), axis=1)
        for _ in range(300):
            pose = HandPose(rng.normal(0, 1.0, (16, 3)))
            joints = forward_kinematics(toy_model, shape, pose)
            lengths = np.linalg.norm(bone_vectors(joints, toy_model.parent), axis=1)
            assert np.abs(lengths - rest_lengths).max() < 1e-9

    def test_global_rotation_equivariance(self, toy_model, rng):
        shape = HandShape.zeros()
        for _ in range(100):
            pose = HandPose(rng.normal(0, 0.8, (16, 3)))
            extra = rng.normal(0, 1.0, 3)
            base = forward_kinematics(toy_model, shape, pose)

            rotations = pose.rotations.copy()
            rotations[0] = so3_log(rodrigues(extra) @ rodrigues(pose.rotations[0]))
            rotated = forward_kinematics(toy_model, shape, HandPose(rotations))

            wrist = base[0]
            expected = (base - wrist) @ rodrigues(extra).T + wrist
            assert np.abs(rotated - expected).max() < 1e-9


class TestSkinning:
    def test_zero_pose_returns_shaped_rest_vertices(self, toy_model):
        betas = np.zeros(10)
        betas[2] = 0.7
        shape = HandShape(betas)
        out = skin_vertices(toy_model, shape, HandPose.zeros())
        expected = toy_model.skinning.vertices + 0.7 * toy_model.skinning.vertex_shape_basis[2]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_unit_weight_vertex_moves_rigidly(self, toy_model):
        # vertex 0 carries weight 1.0 on the wrist
        assert toy_model.skinning.weights[0, 0] == 1.0
        pose = _pose_with_wrist([0.0, 0.0, np.pi / 2])
        out = skin_vertices(toy_model, HandShape.zeros(), pose)
        r = rodrigues(np.array([0.0, 0.0, np.pi / 2]))
        wrist = toy_model.rest_joints[0]
        expected = r @ (toy_model.skinning.vertices[0] - wrist) + wrist
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_half_half_blend_is_mean_of_rigid_maps(self, toy_model, rng):
        skin = toy_model.skinning
        v_idx = next(i for i in range(skin.weights.shape[0]) if np.count_nonzero(skin.weights[i]) == 2
                     and np.allclose(sorted(skin.weights[i][skin.weights[i] > 0]), [0.5, 0.5]))
        pose = HandPose(rng.normal(0, 0.6, (16, 3)))
        positions_all = forward_kinematics(toy_model, HandShape.zeros(), pose)

        # hand oracle: rigid transform under each of the two joints, averaged
        from dahyf.hand_model import _forward_transforms  # test-only peek at FK internals

        positions, world_rot = (a[0] for a in _forward_transforms(toy_model, HandShape.zeros().betas[None], pose.rotations[None]))
        np.testing.assert_array_equal(positions, positions_all)
        slots = np.flatnonzero(skin.weights[v_idx])
        artic = toy_model.articulated_indices
        vertex = skin.vertices[v_idx]
        rigid = [
            world_rot[artic[s]] @ (vertex - toy_model.rest_joints[artic[s]]) + positions[artic[s]]
            for s in slots
        ]
        expected = 0.5 * rigid[0] + 0.5 * rigid[1]
        out = skin_vertices(toy_model, HandShape.zeros(), pose)
        np.testing.assert_allclose(out[v_idx], expected, atol=1e-12)

    def test_requires_skinning_block(self, toy_model):
        bare = HandModelParams(
            toy_model.rest_joints, toy_model.parent, toy_model.articulated, toy_model.shape_basis
        )
        with pytest.raises(ValueError, match="skinning"):
            skin_vertices(bare, HandShape.zeros(), HandPose.zeros())


class TestBoneVectors:
    def test_direct_subtraction(self, toy_model):
        joints = np.arange(63, dtype=np.float64).reshape(21, 3)
        bones = bone_vectors(joints, toy_model.parent)
        children = np.flatnonzero(toy_model.parent >= 0)
        for row, child in enumerate(children):
            np.testing.assert_array_equal(bones[row], joints[child] - joints[toy_model.parent[child]])

    def test_rest_bones(self, toy_model):
        bones = bone_vectors(toy_model.rest_joints, toy_model.parent)
        assert bones.shape == (20, 3)
        # first bone: wrist -> thumb MCP
        np.testing.assert_array_equal(bones[0], toy_model.rest_joints[1] - toy_model.rest_joints[0])

    def test_telescoping_reassembly(self, toy_model, rng):
        joints = rng.normal(size=(21, 3))
        bones = bone_vectors(joints, toy_model.parent)
        children = np.flatnonzero(toy_model.parent >= 0)
        bone_by_child = {int(c): bones[i] for i, c in enumerate(children)}
        rebuilt = np.zeros_like(joints)
        rebuilt[0] = joints[0]
        for j in range(1, 21):
            path = []
            k = j
            while k != 0:
                path.append(k)
                k = int(PARENT_TREE[k])
            rebuilt[j] = joints[0] + sum(bone_by_child[c] for c in path)
        np.testing.assert_allclose(rebuilt, joints, atol=1e-12)

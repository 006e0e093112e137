import json
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    posed_joints,
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


def _write_model(path, doc):
    path.write_text(json.dumps(doc))
    return path


class TestStrictModelDecoding:
    """A value of the wrong kind is a ModelFormatError naming its field,
    where raw `np.asarray` once converted it."""

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d["rest_joints"][5].__setitem__(1, "0.09"), "rest_joints"),
        (lambda d: d["parent"].__setitem__(3, 2.7), "parent"),
        (lambda d: d["articulated"].__setitem__(2, "no"), "articulated"),
        (lambda d: d.__setitem__("version", True), "version"),
        (lambda d: d["skinning"]["faces"][0].__setitem__(1, 1.5), "skinning.faces"),
    ], ids=["string_number", "fractional_parent", "string_flag", "boolean_version", "fractional_face"])
    def test_wrong_kind_names_field(self, tmp_path, edit, field):
        doc = json.loads(bundled_model_path().read_text())
        edit(doc)
        with pytest.raises(ModelFormatError, match=field):
            load_model(_write_model(tmp_path / "bad.model", doc))

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.__setitem__("skinnning", d.pop("skinning")), "unknown key 'skinnning' in model file"),
        (lambda d: d["skinning"].__setitem__("weight", []), "unknown key 'weight' in skinning block"),
    ], ids=["misspelled_block", "skinning_key"])
    def test_unknown_key_is_format_error(self, tmp_path, edit, message):
        doc = json.loads(bundled_model_path().read_text())
        edit(doc)
        with pytest.raises(ModelFormatError, match=message):
            load_model(_write_model(tmp_path / "typo.model", doc))

    def test_integral_floats_are_indices(self, toy_model, tmp_path):
        doc = json.loads(bundled_model_path().read_text())
        doc["parent"] = [float(p) for p in doc["parent"]]
        np.testing.assert_array_equal(load_model(_write_model(tmp_path / "f.model", doc)).parent, toy_model.parent)

    def test_bad_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "latin1.model"
        path.write_bytes(bundled_model_path().read_bytes() + b" \xff")
        with pytest.raises(ModelFormatError, match="UTF-8"):
            load_model(path)

    def test_bad_json_is_format_error(self, tmp_path):
        path = tmp_path / "cut.model"
        path.write_bytes(bundled_model_path().read_bytes()[:-1])
        with pytest.raises(ModelFormatError, match="not valid JSON"):
            load_model(path)


class TestModelCache:
    """`load_model` parses each file content once and shares the model."""

    def _doc(self, marker):
        doc = json.loads(bundled_model_path().read_text())
        doc["rest_joints"][5][1] = marker
        return doc

    def test_unchanged_bytes_give_same_object(self, tmp_path):
        path = _write_model(tmp_path / "a.model", self._doc(0.0123451))
        assert load_model(path) is load_model(path)

    def test_same_size_rewrite_loads_new_values(self, tmp_path):
        path = _write_model(tmp_path / "a.model", self._doc(0.0123451))
        before = os.stat(path)
        first = load_model(path)
        text = path.read_text()
        path.write_text(text.replace("0.0123451", "0.0123457"))  # same size, same inode
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))  # and the same mtime
        again = os.stat(path)
        assert (again.st_size, again.st_ino, again.st_mtime_ns) == (before.st_size, before.st_ino, before.st_mtime_ns)
        second = load_model(path)
        assert first.rest_joints[5, 1] == 0.0123451
        assert second.rest_joints[5, 1] == 0.0123457

    def test_failed_load_keeps_last_model(self, tmp_path):
        path = _write_model(tmp_path / "a.model", self._doc(0.0123451))
        first = load_model(path)
        path.write_text("{")
        with pytest.raises(ModelFormatError):
            load_model(path)
        _write_model(path, self._doc(0.0123451))
        assert load_model(path) is first
        _write_model(path, self._doc(0.0123457))
        assert load_model(path).rest_joints[5, 1] == 0.0123457

    def test_threads_get_the_model_of_the_bytes_they_read(self, tmp_path):
        markers = (0.0123451, 0.0123457)
        paths = [_write_model(tmp_path / f"{i}.model", self._doc(m)) for i, m in enumerate(markers)]
        wrong, done = [], []

        def worker(k):
            for i in range(20):
                j = (i + k) % 2
                if load_model(paths[j]).rest_joints[5, 1] != markers[j]:
                    wrong.append((k, i))
            done.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == [0, 1, 2, 3] and wrong == []

    def test_loaded_arrays_are_read_only(self, toy_model):
        for arr in (toy_model.rest_joints, toy_model.parent, toy_model.articulated, toy_model.shape_basis,
                    toy_model.skinning.vertices, toy_model.skinning.faces, *toy_model.levels[1]):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]

    def test_caller_arrays_stay_writable(self, toy_model):
        rest = toy_model.rest_joints.copy()
        model = HandModelParams(rest, toy_model.parent, toy_model.articulated, toy_model.shape_basis)
        assert model.rest_joints is rest and rest.flags.writeable


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

    @settings(max_examples=25, deadline=None)
    @given(t=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), spread=st.floats(0.0, 3.0))
    def test_stack_keeps_bones_and_wrist(self, toy_model, t, seed, spread):
        rng = np.random.default_rng(seed)
        betas = rng.normal(0, 1.0, (t, 10))
        joints = posed_joints(toy_model, betas, rng.normal(0, spread, (t, 16, 3)))
        rest = shaped_rest_joints(toy_model, betas)
        children = np.arange(1, 21)

        def lengths(j):
            return np.linalg.norm(j[:, children] - j[:, toy_model.parent[children]], axis=-1)

        np.testing.assert_allclose(lengths(joints), lengths(rest), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(joints[:, 0], rest[:, 0])

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_rows_pose_alone_bit_for_bit(self, toy_model, t, seed, data):
        """Posing any subset of a stack's rows gives exactly those rows of the
        whole stack, so a row with another row's pose and shape may take its
        joints."""
        rng = np.random.default_rng(seed)
        betas, rotations = rng.normal(0, 1.0, (t, 10)), rng.normal(0, 1.0, (t, 16, 3))
        rotations[rng.random((t, 16)) < 0.1] = 0.0  # the small-angle branch too
        rows = np.array(data.draw(st.lists(st.integers(0, t - 1), min_size=1, max_size=t)))
        full = posed_joints(toy_model, betas, rotations)
        assert posed_joints(toy_model, betas[rows], rotations[rows]).tobytes() == full[rows].tobytes()

    @settings(max_examples=25, deadline=None)
    @given(t=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_stack_is_root_equivariant(self, toy_model, t, seed):
        """Turning row t's wrist rotation by R_t turns row t's joints by R_t
        about its wrist."""
        rng = np.random.default_rng(seed)
        betas, rotations = rng.normal(0, 1.0, (t, 10)), rng.normal(0, 0.8, (t, 16, 3))
        extra = rodrigues(rng.normal(0, 1.0, (t, 3)))
        turned = rotations.copy()
        turned[:, 0] = [so3_log(r @ rodrigues(w)) for r, w in zip(extra, rotations[:, 0])]
        base = posed_joints(toy_model, betas, rotations)
        wrist = base[:, :1]
        expected = np.einsum("tij,tkj->tki", extra, base - wrist) + wrist
        np.testing.assert_allclose(posed_joints(toy_model, betas, turned), expected, rtol=0, atol=1e-9)


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

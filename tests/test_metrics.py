import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dahyf.hand_model import rodrigues
from dahyf.metrics import (
    epe_2d,
    f_score,
    joint_errors,
    pck_curve,
    procrustes_align,
    vertex_errors,
)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q


def hand_like_cloud(rng, n=21):
    return rng.normal(0, 0.05, size=(n, 3))


class TestProcrustes:
    def test_identity_on_equal_sets(self, rng):
        g = hand_like_cloud(rng)
        res = procrustes_align(g, g)
        np.testing.assert_allclose(res.rotation, np.eye(3), atol=1e-9)
        assert res.scale == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(res.translation, 0.0, atol=1e-9)

    def test_recovers_known_similarity(self, rng):
        for _ in range(50):
            g = hand_like_cloud(rng)
            r = random_rotation(rng)
            p = 2.0 * g @ r.T + rng.normal(size=3)
            res = procrustes_align(p, g)
            assert np.abs(res.aligned_points - g).max() < 1e-9
            assert np.linalg.det(res.rotation) == pytest.approx(1.0, abs=1e-9)
            np.testing.assert_allclose(res.rotation.T @ res.rotation, np.eye(3), atol=1e-9)

    def test_alignment_never_hurts(self, rng):
        # Procrustes is optimal in the least-squares sense; the mean-of-norms
        # error follows it up to sub-micrometer fluctuations when the optimal
        # transform is already near the identity (pure-noise case)
        for _ in range(100):
            g = hand_like_cloud(rng)
            p = g + rng.normal(0, 1e-3, size=g.shape)
            aligned = procrustes_align(p, g).aligned_points
            assert ((aligned - g) ** 2).sum() <= ((p - g) ** 2).sum() + 1e-15
            raw = np.linalg.norm(p - g, axis=1).mean()
            after = np.linalg.norm(aligned - g, axis=1).mean()
            assert after <= raw + 1e-5

    def test_reflection_excluded(self, rng):
        g = hand_like_cloud(rng)
        mirrored = g * np.array([-1.0, 1.0, 1.0])
        res = procrustes_align(mirrored, g)
        assert np.linalg.det(res.rotation) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(res.aligned_points - g, axis=1).mean() > 1e-6

    def test_degenerate_rejected(self):
        line = np.column_stack([np.arange(5.0), np.zeros(5), np.zeros(5)])
        with pytest.raises(ValueError, match="degenerate|rank"):
            procrustes_align(line, line)
        with pytest.raises(ValueError):
            procrustes_align(np.zeros((2, 3)), np.zeros((2, 3)))


class TestProcrustesProperties:
    """The alignment of pred onto gt is a property of the point sets, not of
    where pred sits, how it is sized or oriented, or the order of the points."""

    props = settings(max_examples=40, deadline=None)
    seeds = st.integers(0, 2**32 - 1)
    vec3 = st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3)

    @staticmethod
    def _pair(seed, n=21):
        rng = np.random.default_rng(seed)
        g = hand_like_cloud(rng, n)
        return g @ random_rotation(rng).T + rng.normal(0, 0.01, g.shape), g

    @props
    @given(seed=seeds, axis_angle=vec3, log_scale=st.floats(-2.0, 2.0), shift=vec3)
    def test_invariant_to_similarity_of_pred(self, seed, axis_angle, log_scale, shift):
        p, g = self._pair(seed)
        moved = np.exp(log_scale) * p @ rodrigues(np.array(axis_angle)).T + np.array(shift)
        np.testing.assert_allclose(procrustes_align(moved, g).aligned_points,
                                   procrustes_align(p, g).aligned_points, rtol=0, atol=1e-12)

    @props
    @given(seed=seeds, axis_angle=vec3, log_scale=st.floats(-2.0, 2.0), shift=vec3)
    def test_equivariant_to_similarity_of_gt(self, seed, axis_angle, log_scale, shift):
        """Moving gt by a similarity moves the aligned points with it."""
        p, g = self._pair(seed)
        rotation, scale, shift = rodrigues(np.array(axis_angle)), np.exp(log_scale), np.array(shift)
        moved = scale * g @ rotation.T + shift
        np.testing.assert_allclose(procrustes_align(p, moved).aligned_points,
                                   scale * procrustes_align(p, g).aligned_points @ rotation.T + shift,
                                   rtol=0, atol=1e-11)

    @props
    @given(seed=seeds, perm=st.integers(3, 30).flatmap(lambda n: st.permutations(range(n))))
    def test_invariant_to_point_order(self, seed, perm):
        p, g = self._pair(seed, len(perm))
        a, b = procrustes_align(p, g), procrustes_align(p[perm], g[perm])
        np.testing.assert_allclose(b.aligned_points, a.aligned_points[perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.rotation, a.rotation, rtol=0, atol=1e-12)
        assert b.scale == pytest.approx(a.scale, rel=1e-12)


class TestJointErrors:
    def test_exact_prediction(self, rng):
        g = hand_like_cloud(rng)
        errs = joint_errors(g, g)
        assert errs["mpjpe"] == 0.0
        assert errs["pa_mpjpe"] == pytest.approx(0.0, abs=1e-9)

    def test_translation_removed_by_alignment(self, rng):
        g = hand_like_cloud(rng)
        p = g + np.array([0.003, 0.0, 0.0])
        errs = joint_errors(p, g)
        assert errs["mpjpe"] == pytest.approx(3.0, abs=1e-9)
        assert errs["pa_mpjpe"] == pytest.approx(0.0, abs=1e-6)

    def test_scale_absorbed_by_alignment(self, rng):
        g = hand_like_cloud(rng)
        errs = joint_errors(1.1 * g, g)
        expected_mpjpe = 0.1 * np.linalg.norm(g, axis=1).mean() * 1000.0
        assert errs["mpjpe"] == pytest.approx(expected_mpjpe, abs=1e-9)
        assert errs["pa_mpjpe"] == pytest.approx(0.0, abs=1e-6)

    def test_pa_never_exceeds_raw(self, rng):
        # perturbed hands: a similarity transform plus noise, which is what
        # the alignment is there to remove
        for _ in range(100):
            g = hand_like_cloud(rng)
            p = rng.uniform(0.8, 1.2) * (g + rng.normal(0, 0.002, size=g.shape)) @ random_rotation(
                rng
            ).T + rng.normal(0, 0.1, size=3)
            errs = joint_errors(p, g)
            assert errs["pa_mpjpe"] <= errs["mpjpe"] + 1e-9

    def test_pa_invariant_under_similarity_of_pred(self, rng):
        g = hand_like_cloud(rng)
        p = g + rng.normal(0, 0.002, size=g.shape)
        base = joint_errors(p, g)["pa_mpjpe"]
        transformed = 1.7 * p @ random_rotation(rng).T + np.array([0.4, -0.1, 2.0])
        assert joint_errors(transformed, g)["pa_mpjpe"] == pytest.approx(base, abs=1e-9)

    def test_vertex_errors(self, rng):
        g = hand_like_cloud(rng, n=48)
        assert vertex_errors(g, g)["pa_mpvpe"] == pytest.approx(0.0, abs=1e-9)


class TestEPE:
    def test_examples(self):
        g = np.zeros((4, 2))
        assert epe_2d(g, g) == 0.0
        assert epe_2d(g + [3.0, 4.0], g) == pytest.approx(5.0)
        half = np.vstack([np.tile([3.0, 4.0], (2, 1)), np.zeros((2, 2))])
        assert epe_2d(half, g) == pytest.approx(2.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            epe_2d(np.zeros((3, 2)), np.zeros((4, 2)))


class TestFScore:
    def test_identical_meshes(self, rng):
        g = hand_like_cloud(rng, n=30)
        assert f_score(g, g, threshold_mm=1.0) == pytest.approx(100.0)
        assert f_score(g, g, threshold_mm=5.0, correspondence="index") == pytest.approx(100.0)

    def test_everything_too_far(self, rng):
        g = hand_like_cloud(rng, n=30)
        assert f_score(g + 1.0, g, threshold_mm=15.0) == pytest.approx(0.0)

    def test_harmonic_mean_value(self, rng):
        # pred sits exactly on half of gt: precision 1, recall 0.5
        g = hand_like_cloud(rng, n=40)
        p = g[:20]
        assert f_score(p, g, threshold_mm=0.5, correspondence="nearest") == pytest.approx(200.0 / 3.0, abs=1e-9)

    def test_monotone_in_threshold(self, rng):
        g = hand_like_cloud(rng, n=30)
        p = g + rng.normal(0, 0.004, size=g.shape)
        scores = [f_score(p, g, threshold_mm=t) for t in (1.0, 3.0, 5.0, 10.0, 20.0)]
        assert all(a <= b + 1e-9 for a, b in zip(scores, scores[1:]))

    def test_symmetry_for_corresponding_sets(self, rng):
        g = hand_like_cloud(rng, n=30)
        p = g + rng.normal(0, 0.004, size=g.shape)
        assert f_score(p, g, 5.0, correspondence="index") == pytest.approx(
            f_score(g, p, 5.0, correspondence="index")
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            f_score(np.zeros((0, 3)), np.zeros((3, 3)), 5.0)


class TestPCK:
    def test_perfect_predictions(self, rng):
        g = [hand_like_cloud(rng) for _ in range(3)]
        curve = pck_curve(g, g, np.array([0.0, 10.0, 50.0]))
        assert [v for _, v in curve] == [1.0, 1.0, 1.0]

    def test_step_at_common_error(self, rng):
        g = [hand_like_cloud(rng)]
        # offset of 2^-7 m: the error in mm (7.8125) is exactly representable
        p = [g[0] + np.array([2.0**-7, 0.0, 0.0])]
        curve = dict(pck_curve(p, g, np.array([5.0, 7.8125, 15.0])))
        assert curve[5.0] == 0.0
        assert curve[7.8125] == 1.0
        assert curve[15.0] == 1.0

    def test_uniform_errors_match_cdf(self, rng):
        n = 20000
        radii = rng.uniform(0.0, 0.05, size=n)
        dirs = rng.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        gt = [np.zeros((n, 3))]
        pred = [dirs * radii[:, None]]
        for t, v in pck_curve(pred, gt, np.arange(0.0, 55.0, 5.0)):
            assert v == pytest.approx(min(t / 50.0, 1.0), abs=0.02)

    def test_monotone(self, rng):
        g = [hand_like_cloud(rng) for _ in range(4)]
        p = [x + rng.normal(0, 0.01, size=x.shape) for x in g]
        curve = pck_curve(p, g, np.arange(0.0, 55.0, 5.0))
        values = [v for _, v in curve]
        assert all(a <= b for a, b in zip(values, values[1:]))

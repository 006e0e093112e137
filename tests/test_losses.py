import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from dahyf.confidence import cosine_confidence, cosine_confidence_grad
from dahyf.losses import (
    LossWeights,
    bone_loss,
    bone_loss_grad,
    finite_diff_gradient,
    homoscedastic_total,
    kl_divergence,
    kl_divergence_grad,
    l1_loss,
    l1_loss_grad,
    l2_loss,
    l2_loss_grad,
)


class TestElementwiseLosses:
    def test_l1_examples(self):
        assert l1_loss(np.ones(4), np.ones(4)) == 0.0
        assert l1_loss(np.ones(4) + 1.0, np.ones(4)) == 1.0
        assert l1_loss(np.array([0.0, 2.0]), np.array([1.0, 0.0])) == 1.5

    def test_l2_examples(self):
        assert l2_loss(np.ones(4), np.ones(4)) == 0.0
        assert l2_loss(np.ones(4) + 2.0, np.ones(4)) == 4.0
        assert l2_loss(np.array([0.0, 2.0]), np.array([1.0, 0.0])) == 2.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            l1_loss(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            l2_loss(np.ones((2, 2)), np.ones(4))

    def test_nonnegative_and_zero_iff_equal(self, rng):
        for _ in range(50):
            a, b = rng.normal(size=(2, 8))
            assert l1_loss(a, b) >= 0
            assert l2_loss(a, b) >= 0
        assert l1_loss(a, a) == 0.0
        assert l2_loss(a, a) == 0.0


class TestKL:
    def _softmax(self, f):
        e = np.exp(f - f.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    def test_zero_on_matching_distribution(self, rng):
        t = rng.dirichlet(np.ones(11), size=(3, 2))
        logits = np.log(t) + 7.3  # additive constant is absorbed by softmax
        assert kl_divergence(t, logits) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_vs_uniform(self):
        n = 64
        t = np.zeros((1, 1, n))
        t[0, 0, 17] = 1.0
        assert kl_divergence(t, np.zeros((1, 1, n))) == pytest.approx(np.log(n), abs=1e-12)

    def test_gibbs_nonnegativity(self, rng):
        for _ in range(100):
            t = rng.dirichlet(np.ones(9), size=(2, 2))
            f = rng.normal(size=(2, 2, 9))
            assert kl_divergence(t, f) >= -1e-15

    def test_rejects_unnormalized_target(self):
        t = np.full((1, 1, 4), 0.3)
        with pytest.raises(ValueError, match="sum to 1"):
            kl_divergence(t, np.zeros((1, 1, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("fn", [kl_divergence, kl_divergence_grad])
    def test_rejects_nonfinite_target_bin(self, fn, bad):
        t = np.array([[[0.5, 0.5, 0.0, 0.0]]])
        t[0, 0, 3] = bad
        with pytest.raises(ValueError, match="target distributions must"):
            fn(t, np.zeros((1, 1, 4)))

    def test_zero_entries_do_not_nan(self):
        t = np.array([[[0.5, 0.5, 0.0, 0.0]]])
        value = kl_divergence(t, np.zeros((1, 1, 4)))
        assert np.isfinite(value)
        assert value == pytest.approx(np.log(4) - np.log(2), abs=1e-12)


class TestBoneLoss:
    def test_identity(self, toy_model):
        assert bone_loss(toy_model.rest_joints, toy_model.rest_joints, toy_model.parent) == 0.0

    def test_translation_invariance_each_argument(self, toy_model, rng):
        pred = toy_model.rest_joints + rng.normal(0, 0.01, (21, 3))
        gt = toy_model.rest_joints
        base = bone_loss(pred, gt, toy_model.parent)
        assert bone_loss(pred + [1.0, -2.0, 0.5], gt, toy_model.parent) == pytest.approx(base, abs=1e-12)
        assert bone_loss(pred, gt + [0.3, 0.3, 0.3], toy_model.parent) == pytest.approx(base, abs=1e-12)

    def test_doubling_about_wrist_oracle(self, toy_model):
        from dahyf.hand_model import bone_vectors

        wrist = toy_model.rest_joints[0]
        doubled = wrist + 2.0 * (toy_model.rest_joints - wrist)
        # bones double, so the deviation per element is the original bone entry
        expected = np.abs(bone_vectors(toy_model.rest_joints, toy_model.parent)).mean()
        assert bone_loss(doubled, toy_model.rest_joints, toy_model.parent) == pytest.approx(expected, abs=1e-12)


class TestHomoscedastic:
    def test_unit_sigmas(self):
        report = homoscedastic_total((1.0,) * 5, LossWeights(), l_c=0.0)
        assert report.total == pytest.approx(5.0)
        assert report.regularizer == 0.0

    def test_one_inflated_sigma(self):
        report = homoscedastic_total((1.0,) * 5, LossWeights(sigma_2d=2.0), l_c=0.0)
        # 1/4 + 4 terms at sigma 1, plus the log 4 regularizer
        assert report.total == pytest.approx(0.25 + 4.0 + np.log(4.0), abs=1e-12)
        assert report.regularizer == pytest.approx(np.log(4.0), abs=1e-12)

    def test_contrastive_term_added(self):
        report = homoscedastic_total((1.0,) * 5, LossWeights(), l_c=0.75)
        assert report.total == pytest.approx(5.75)
        assert report.contrastive == 0.75

    def test_regularizer_can_be_disabled(self):
        report = homoscedastic_total((1.0,) * 5, LossWeights(sigma_2d=2.0), include_regularizer=False)
        assert report.total == pytest.approx(4.25)
        assert report.regularizer == 0.0

    def test_stationary_sigma_squares_equal_terms(self):
        # minimizing t/s + log s over s = sigma^2 lands at s = t
        for term in (0.2, 1.0, 3.7):
            res = minimize_scalar(
                lambda s: term / s + np.log(s), bounds=(1e-6, 100.0), method="bounded",
                options={"xatol": 1e-10},
            )
            assert res.x == pytest.approx(term, abs=1e-6)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            LossWeights(sigma_m=0.0)


class TestGradients:
    def test_finite_diff_quadratic_exact(self):
        grad = finite_diff_gradient(lambda x: float(x @ x), np.array([1.0, 2.0]), eps=1e-5)
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_l1_subgradient_away_from_kink(self):
        x = np.array([3.0, -3.0])
        np.testing.assert_allclose(l1_loss_grad(x, np.zeros(2)), [0.5, -0.5], atol=0)
        numeric = finite_diff_gradient(lambda v: l1_loss(v, np.zeros(2)), x)
        np.testing.assert_allclose(l1_loss_grad(x, np.zeros(2)), numeric, atol=1e-9)

    def test_l2_matches_fd(self, rng):
        gt = rng.normal(size=10)
        x = rng.normal(size=10)
        numeric = finite_diff_gradient(lambda v: l2_loss(v, gt), x)
        np.testing.assert_allclose(l2_loss_grad(x, gt), numeric, atol=1e-8)

    def test_kl_matches_fd_and_analytic_formula(self, rng):
        t = rng.dirichlet(np.ones(13), size=(2, 2))
        f = rng.normal(size=(2, 2, 13))
        analytic = kl_divergence_grad(t, f)
        numeric = finite_diff_gradient(lambda v: kl_divergence(t, v), f)
        np.testing.assert_allclose(analytic, numeric, atol=1e-8)
        # independent closed form: (softmax - target) / number of distributions
        e = np.exp(f - f.max(axis=-1, keepdims=True))
        softmax = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(analytic, (softmax - t) / 4, atol=1e-12)

    def test_cosine_matches_fd(self, rng):
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        numeric = finite_diff_gradient(lambda v: cosine_confidence(v, b), a)
        np.testing.assert_allclose(cosine_confidence_grad(a, b), numeric, atol=1e-8)

    def test_bone_grad_matches_fd(self, toy_model, rng):
        gt = toy_model.rest_joints
        x = gt + 0.01 * rng.normal(size=gt.shape)
        numeric = finite_diff_gradient(lambda v: bone_loss(v, gt, toy_model.parent), x)
        np.testing.assert_allclose(bone_loss_grad(x, gt, toy_model.parent), numeric, atol=1e-8)

    def test_fd_validates_inputs(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda x: float(x.sum()), np.zeros(2), eps=0.0)
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda x: float("nan"), np.zeros(2))

"""Training losses: elementwise L1/L2, KL divergence for the coordinate
codec, bone loss, and homoscedastic uncertainty aggregation, plus analytic
gradients and a central finite-difference oracle for verifying them.

All reductions are means over elements so values are batch-size independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .codec import exp_inplace
from .hand_model import bone_vectors


@dataclass(frozen=True)
class LossWeights:
    """Learned homoscedastic uncertainties for the five backbone sub-losses."""

    sigma_2d: float = 1.0
    sigma_3d: float = 1.0
    sigma_2dp: float = 1.0
    sigma_m: float = 1.0
    sigma_b: float = 1.0

    def __post_init__(self):
        sigmas = self.as_array()
        if not np.all(np.isfinite(sigmas)) or np.any(sigmas <= 0):
            raise ValueError("all sigmas must be positive and finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.sigma_2d, self.sigma_3d, self.sigma_2dp, self.sigma_m, self.sigma_b])


@dataclass(frozen=True)
class LossReport:
    """Raw per-term values and their weighted aggregate."""

    terms: tuple  # (l_2d, l_3d, l_2dp, l_m, l_b)
    contrastive: float
    regularizer: float
    total: float


def _match(pred, gt):
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
    return p, g


def l1_loss(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean absolute deviation."""
    p, g = _match(pred, gt)
    return float(np.mean(np.abs(p - g)))


def l1_loss_grad(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Subgradient of l1_loss w.r.t. pred; 0 at kinks."""
    p, g = _match(pred, gt)
    return np.sign(p - g) / p.size


def l2_loss(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean squared deviation."""
    p, g = _match(pred, gt)
    return float(np.mean((p - g) ** 2))


def l2_loss_grad(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    p, g = _match(pred, gt)
    return 2.0 * (p - g) / p.size


def _log_softmax(f: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis; `scratch`, a buffer of f's shape,
    is overwritten with exp(f - max)."""
    log_q = f - f.max(axis=-1, keepdims=True)
    np.copyto(scratch, log_q)
    log_q -= np.log(exp_inplace(scratch).sum(axis=-1, keepdims=True))
    return log_q


def kl_divergence(target: np.ndarray, logits: np.ndarray) -> float:
    """KL(target || softmax(logits)), averaged over the leading axes.

    Targets must be distributions along the last axis; 0 log 0 counts as 0.
    """
    t, f = _match(target, logits)
    if np.any(t < 0):
        raise ValueError("target distributions must be non-negative")
    sums = t.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValueError("target distributions must sum to 1 within 1e-9")
    terms = np.empty_like(f)
    log_q = _log_softmax(f, terms)
    # t * (log t - log q) where t > 0, else 0, built in one buffer; the
    # masked lanes are never computed, so a -inf log q there cannot make 0 * inf
    positive = t > 0
    np.log(t, out=terms, where=positive)
    np.subtract(terms, log_q, out=terms, where=positive)
    np.multiply(terms, t, out=terms, where=positive)
    np.copyto(terms, 0.0, where=~positive)
    return float(terms.sum(axis=-1).mean())


def kl_divergence_grad(target: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Analytic gradient of kl_divergence w.r.t. logits: (softmax - t) / count."""
    t, f = _match(target, logits)
    count = int(np.prod(t.shape[:-1])) if t.ndim > 1 else 1
    q = exp_inplace(_log_softmax(f, np.empty_like(f)))
    q -= t
    q /= count
    return q


def bone_loss(pred_joints: np.ndarray, gt_joints: np.ndarray, parent: np.ndarray) -> float:
    """Mean absolute deviation between predicted and ground-truth bone
    vectors.  Translation-invariant in each argument independently."""
    return l1_loss(bone_vectors(pred_joints, parent), bone_vectors(gt_joints, parent))


def bone_loss_grad(pred_joints: np.ndarray, gt_joints: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Subgradient of bone_loss w.r.t. pred joints, via the bone chain rule."""
    parent = np.asarray(parent, dtype=np.int64)
    g_bones = l1_loss_grad(bone_vectors(pred_joints, parent), bone_vectors(gt_joints, parent))
    grad = np.zeros_like(np.asarray(pred_joints, dtype=np.float64))
    children = np.flatnonzero(parent >= 0)
    np.add.at(grad, children, g_bones)
    np.add.at(grad, parent[children], -g_bones)
    return grad


def homoscedastic_total(
    terms: tuple,
    weights: LossWeights,
    l_c: float = 0.0,
    include_regularizer: bool = True,
) -> LossReport:
    """Aggregate the five backbone sub-losses under learned uncertainties.

    total = sum(term_j / sigma_j^2) + sum(log sigma_j^2) + l_c.  The log
    regularizer makes the strategy well-posed (otherwise sigma -> inf wins);
    set include_regularizer=False for the bare weighted sum.
    """
    values = np.asarray(terms, dtype=np.float64)
    if values.shape != (5,):
        raise ValueError("expected 5 backbone loss terms")
    if not np.all(np.isfinite(values)):
        raise ValueError("loss terms must be finite")
    sigmas = weights.as_array()
    weighted = float(np.sum(values / sigmas**2))
    reg = float(np.sum(np.log(sigmas**2))) if include_regularizer else 0.0
    return LossReport(
        terms=tuple(float(v) for v in values),
        contrastive=float(l_c),
        regularizer=reg,
        total=weighted + reg + float(l_c),
    )


def finite_diff_gradient(
    fn: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient oracle: (fn(x + eps e_i) - fn(x - eps e_i)) / 2eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        step = np.zeros_like(flat)
        step[i] = eps
        hi = fn((flat + step).reshape(x.shape))
        lo = fn((flat - step).reshape(x.shape))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("function evaluated to a non-finite value near x")
        out[i] = (hi - lo) / (2.0 * eps)
    return grad

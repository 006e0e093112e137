"""Evaluation metrics: similarity Procrustes alignment, MPJPE / PA-MPJPE /
PA-MPVPE, 2D endpoint error, F-score at distance thresholds, and PCK curves.

Points are in meters; every reported distance is converted to millimeters
(2D errors stay in pixels).

Procrustes, MPJPE / PA-MPJPE and EPE also run over a clip at once: (T, N, …)
stacks give one result per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RowError

MM_PER_M = 1000.0

PCK_THRESHOLDS_MM = tuple(float(t) for t in range(0, 55, 5))


@dataclass(frozen=True)
class AlignmentResult:
    """Similarity transform p -> scale * rotation @ p + translation and the
    transformed points; for a stack, one transform per row."""

    rotation: np.ndarray     # (3, 3) or (T, 3, 3), det +1
    scale: float             # or (T,)
    translation: np.ndarray  # (3,) or (T, 3)
    aligned_points: np.ndarray


def procrustes_align(pred: np.ndarray, gt: np.ndarray) -> AlignmentResult:
    """Least-squares similarity alignment of pred onto gt, reflections excluded.

    Solves min over (s, R, t) of sum ||s R p_i + t - g_i||^2 via the SVD of
    the centered cross-covariance, forcing det(R) = +1 by flipping the
    smallest singular direction when needed: a mirrored hand must not align.
    (T, N, 3) stacks are aligned row by row, with one SVD of the (T, 3, 3)
    covariance stack (Umeyama 1991).
    """
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape or p.ndim not in (2, 3) or p.shape[-1] != 3:
        raise ValueError("point sets must share shape (N, 3) or (T, N, 3)")
    if p.shape[-2] < 3:
        raise ValueError("alignment needs at least 3 points")
    single = p.ndim == 2
    if single:
        p, g = p[None], g[None]

    n = p.shape[1]
    mu_p = np.add.reduce(p, axis=1) / n  # p.mean(axis=1), bit for bit, as every mean here
    mu_g = np.add.reduce(g, axis=1) / n
    pc = p - mu_p[:, None]
    gc = g - mu_g[:, None]
    var_p = np.add.reduce(pc * pc, axis=(1, 2)) / n
    RowError.check(var_p < 1e-18, "degenerate point set: zero spread")

    cov = pc.transpose(0, 2, 1) @ gc / n
    u, s, vt = np.linalg.svd(cov)
    # rank < 2: fewer than two singular values above 1e-12 of the largest
    RowError.check(~(s[:, 1] > 1e-12 * np.maximum(s[:, 0], 1e-300)), "degenerate point set: rank < 2")
    det_u, det_vt = np.linalg.det(np.stack((u, vt)))
    sign = np.ones_like(s)
    sign[:, -1] = np.where(det_u * det_vt < 0, -1.0, 1.0)
    rotation = ((u * sign[:, None, :]) @ vt).transpose(0, 2, 1)  # maps pred frame into gt frame
    scale = np.add.reduce(s * sign, axis=1) / var_p
    translation = mu_g - ((scale[:, None, None] * rotation) @ mu_p[:, :, None])[:, :, 0]
    aligned = (scale[:, None, None] * p) @ rotation.transpose(0, 2, 1) + translation[:, None, :]
    if single:
        return AlignmentResult(rotation[0], float(scale[0]), translation[0], aligned[0])
    return AlignmentResult(rotation=rotation, scale=scale, translation=translation, aligned_points=aligned)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a - b, axis=-1), bit for bit, in fewer calls."""
    d = a - b
    return np.sqrt(np.add.reduce(d * d, axis=-1))


def _mean(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=-1), bit for bit, in fewer calls."""
    return np.add.reduce(x, axis=-1) / x.shape[-1]


def _mean_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Mean point distance per set: a float for one set, (T,) for a stack."""
    d = _mean(_distances(a, b))
    return float(d) if d.ndim == 0 else d


def joint_errors(pred: np.ndarray, gt: np.ndarray) -> dict:
    """Mean per-joint position error in mm, raw and Procrustes-aligned;
    (T, J, 3) stacks give (T,) arrays."""
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError("joint sets must share shape")
    mpjpe = _mean_distance(p, g) * MM_PER_M
    pa_mpjpe = _mean_distance(procrustes_align(p, g).aligned_points, g) * MM_PER_M
    return {"mpjpe": mpjpe, "pa_mpjpe": pa_mpjpe}


def vertex_errors(pred: np.ndarray, gt: np.ndarray) -> dict:
    """Mean per-vertex error in mm after Procrustes alignment (PA-MPVPE)."""
    aligned = procrustes_align(pred, gt).aligned_points
    return {"pa_mpvpe": _mean_distance(aligned, np.asarray(gt, dtype=np.float64)) * MM_PER_M}


def epe_2d(pred: np.ndarray, gt: np.ndarray) -> float | np.ndarray:
    """Average 2D endpoint error in pixels; (T, K, 2) stacks give (T,)."""
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError("keypoint sets must share shape")
    return _mean_distance(p, g)


def f_score(
    pred_vertices: np.ndarray,
    gt_vertices: np.ndarray,
    threshold_mm: float,
    correspondence: str = "nearest",
) -> float:
    """Harmonic mean of precision and recall at a distance threshold, x100.

    With `correspondence="index"` distances are taken between same-index
    points (both meshes from the same model); with "nearest" each point
    matches its nearest neighbor in the other set.
    """
    p = np.asarray(pred_vertices, dtype=np.float64)
    g = np.asarray(gt_vertices, dtype=np.float64)
    if p.size == 0 or g.size == 0:
        raise ValueError("point sets must be non-empty")
    thr = threshold_mm / MM_PER_M
    if correspondence == "index":
        if p.shape != g.shape:
            raise ValueError("index correspondence requires equal shapes")
        d = np.linalg.norm(p - g, axis=-1)
        precision = float(np.mean(d <= thr))
        recall = precision
    elif correspondence == "nearest":
        d2 = ((p[:, None, :] - g[None, :, :]) ** 2).sum(-1)
        precision = float(np.mean(np.sqrt(d2.min(axis=1)) <= thr))
        recall = float(np.mean(np.sqrt(d2.min(axis=0)) <= thr))
    else:
        raise ValueError(f"unknown correspondence {correspondence!r}")
    if precision + recall == 0:
        return 0.0
    return 200.0 * precision * recall / (precision + recall)


def pck_curve(pred: np.ndarray, gt: np.ndarray, thresholds_mm: np.ndarray) -> list[tuple[float, float]]:
    """Fraction of joints within each threshold (absolute mm), pooled over the
    samples of (T, J, 3) stacks or of T (J, 3) sets of one shape; the curve
    is monotone non-decreasing by construction."""
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if len(p) == 0 or p.shape != g.shape:
        raise ValueError("need equally many non-empty pred and gt samples of one shape")
    return _pck(_distances(p, g), thresholds_mm)


def _pck(distances: np.ndarray, thresholds_mm) -> list[tuple[float, float]]:
    """The PCK curve of point distances in meters, every threshold in one comparison."""
    thresholds = np.asarray(thresholds_mm, dtype=np.float64)
    pooled = distances.reshape(1, -1) * MM_PER_M
    fractions = np.count_nonzero(pooled <= thresholds[:, None], axis=1) / pooled.size
    return list(zip(thresholds.tolist(), fractions.tolist()))


def summarize(pred3d: np.ndarray, gt3d: np.ndarray) -> dict:
    """The 3D summary of (T, J, 3) prediction and ground-truth stacks that
    `dahyf run` reports and `dahyf eval` computes: MPJPE and PA-MPJPE in mm,
    each the mean over frames, and the PCK curve at PCK_THRESHOLDS_MM."""
    p = np.asarray(pred3d, dtype=np.float64)
    g = np.asarray(gt3d, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError("joint sets must share shape")
    if len(p) == 0:
        raise ValueError("need equally many non-empty pred and gt samples of one shape")
    distances = _distances(p, g)  # joint_errors' raw distances, which the PCK curve pools too
    mpjpe = _mean(distances) * MM_PER_M
    pa_mpjpe = _mean(_distances(procrustes_align(p, g).aligned_points, g)) * MM_PER_M
    return {
        "mpjpe_mm": float(_mean(mpjpe)),
        "pa_mpjpe_mm": float(_mean(pa_mpjpe)),
        "pck": _pck(distances, PCK_THRESHOLDS_MM),
    }

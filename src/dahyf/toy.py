"""Deterministic toy hand model bundled with the package.

The skeleton is a right hand with the wrist at the origin, fingers pointing
along +y and the thumb toward +x, with hand-measured segment proportions at
desk scale (meters).  It exists so every test and CLI example runs without
any third-party model assets; `assets/toyhand.model` is the serialized form
and can be regenerated with `write_bundled_asset()`.
"""

from __future__ import annotations

import functools
from importlib import resources
from pathlib import Path

import numpy as np

from .hand_model import (
    ARTICULATED_MASK,
    N_SHAPE_COEFFS,
    PARENT_TREE,
    HandModelParams,
    SkinningBlock,
    save_model,
)

# Rest keypoints (meters): wrist, then MCP/PIP/DIP/TIP per finger.
_REST_JOINTS = np.array(
    [
        [0.000, 0.000, 0.000],    # wrist
        [0.030, 0.020, -0.010],   # thumb
        [0.055, 0.040, -0.015],
        [0.070, 0.055, -0.018],
        [0.080, 0.068, -0.020],
        [0.028, 0.090, 0.000],    # index
        [0.032, 0.130, -0.002],
        [0.034, 0.155, -0.004],
        [0.036, 0.175, -0.006],
        [0.004, 0.095, 0.002],    # middle
        [0.005, 0.140, 0.000],
        [0.006, 0.168, -0.003],
        [0.007, 0.190, -0.006],
        [-0.018, 0.090, 0.000],   # ring
        [-0.021, 0.132, -0.002],
        [-0.023, 0.158, -0.004],
        [-0.025, 0.178, -0.006],
        [-0.038, 0.082, -0.002],  # pinky
        [-0.042, 0.112, -0.004],
        [-0.044, 0.132, -0.005],
        [-0.046, 0.148, -0.006],
    ]
)


def _shape_basis() -> np.ndarray:
    basis = np.zeros((N_SHAPE_COEFFS, 21, 3))
    # beta 0: uniform scale about the wrist, 5% per unit.
    basis[0] = 0.05 * _REST_JOINTS
    # beta 1: finger lengthening along +y, proportional to distance from palm.
    basis[1, :, 1] = 0.08 * _REST_JOINTS[:, 1]
    # betas 2..9: small deterministic per-joint displacements.
    k = np.arange(2, N_SHAPE_COEFFS)[:, None, None]
    j = np.arange(21)[None, :, None]
    c = np.arange(3)[None, None, :]
    basis[2:] = 0.003 * np.sin(1.7 * k + 0.9 * j + 0.4 * c)
    basis[:, 0, :] = 0.0  # wrist is the root anchor; shape never moves it
    return basis


def _skinning(shape_basis: np.ndarray) -> SkinningBlock:
    articulated = [i for i, flag in enumerate(ARTICULATED_MASK) if flag]
    offsets = np.array([[0.008, 0.0, 0.0], [0.0, 0.008, 0.0], [0.0, 0.0, 0.008]])
    vertices = []
    weights = []
    owner_joint = []
    for slot, joint in enumerate(articulated):
        parent_kp = PARENT_TREE[joint]
        parent_slot = articulated.index(parent_kp) if parent_kp >= 0 else None
        for offset, blend in zip(offsets, (1.0, 0.7, 0.5)):
            vertices.append(_REST_JOINTS[joint] + offset)
            row = np.zeros(len(articulated))
            if parent_slot is None:
                row[slot] = 1.0
            else:
                row[slot] = blend
                row[parent_slot] = 1.0 - blend
            weights.append(row)
            owner_joint.append(joint)
    vertices = np.array(vertices)
    weights = np.array(weights)
    vertex_basis = shape_basis[:, owner_joint, :]
    n = vertices.shape[0]
    faces = np.arange(n).reshape(-1, 3)
    return SkinningBlock(vertices, weights, vertex_basis, faces)


def build_toy_model() -> HandModelParams:
    """Construct the toy model in memory (identical to the bundled asset)."""
    basis = _shape_basis()
    return HandModelParams(
        rest_joints=_REST_JOINTS.copy(),
        parent=np.array(PARENT_TREE, dtype=np.int64),
        articulated=np.array(ARTICULATED_MASK, dtype=bool),
        shape_basis=basis,
        skinning=_skinning(basis),
    )


@functools.cache
def bundled_model_path() -> Path:
    """Filesystem path of the packaged `toyhand.model` asset, looked up once:
    the lookup costs more than the cached model load it precedes."""
    return Path(resources.files("dahyf").joinpath("assets/toyhand.model"))


def write_bundled_asset(path: str | Path | None = None) -> Path:
    """Regenerate the bundled asset file; returns the path written."""
    target = Path(path) if path is not None else bundled_model_path()
    save_model(build_toy_model(), target)
    return target

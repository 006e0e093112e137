"""Parametric hand skeleton: shape-blended rest joints, axis-angle forward
kinematics over a 21-keypoint tree, and linear blend skinning.

Keypoint ordering is fixed throughout the package: wrist first, then thumb,
index, middle, ring, pinky, each finger as MCP, PIP, DIP, TIP.  The wrist and
the fifteen non-tip finger joints carry one axis-angle rotation each (16
total); the five fingertips are leaf sites that rigidly follow their parents.

All positions are in meters.  Joint sets are plain float64 arrays of shape
(21, 3) in the ordering above; `posed_joints` poses a clip of T frames at
once into a (T, 21, 3) stack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .jsonrecord import field, numbers

N_KEYPOINTS = 21
N_ROTATIONS = 16
N_SHAPE_COEFFS = 10

# Parent index per keypoint; -1 marks the wrist root.
PARENT_TREE = (-1, 0, 1, 2, 3, 0, 5, 6, 7, 0, 9, 10, 11, 0, 13, 14, 15, 0, 17, 18, 19)

TIP_INDICES = (4, 8, 12, 16, 20)
ARTICULATED_MASK = tuple(i not in TIP_INDICES for i in range(N_KEYPOINTS))

_SMALL_ANGLE = 1e-8
_EYE = np.eye(3)
_EYE.flags.writeable = False
_SKEW_ENTRIES = np.array([0, 6, 2, 3, 0, 4, 5, 1, 0])

MODEL_FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised when a hand model file violates the documented schema."""


@dataclass(frozen=True)
class HandPose:
    """16 axis-angle joint rotations; index 0 is the global wrist rotation."""

    rotations: np.ndarray  # (16, 3) radians

    def __post_init__(self):
        rot = np.asarray(self.rotations, dtype=np.float64)
        if rot.shape != (N_ROTATIONS, 3):
            raise ValueError(f"pose must have shape ({N_ROTATIONS}, 3), got {rot.shape}")
        if not np.all(np.isfinite(rot)):
            raise ValueError("pose contains non-finite components")
        object.__setattr__(self, "rotations", rot)

    def __eq__(self, other):
        return isinstance(other, HandPose) and np.array_equal(self.rotations, other.rotations)

    @classmethod
    def zeros(cls) -> "HandPose":
        return cls(np.zeros((N_ROTATIONS, 3)))


@dataclass(frozen=True)
class HandShape:
    """10 PCA shape coefficients; the zero vector is the mean shape."""

    betas: np.ndarray  # (10,)

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=np.float64)
        if b.shape != (N_SHAPE_COEFFS,):
            raise ValueError(f"shape must have {N_SHAPE_COEFFS} coefficients, got {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("shape contains non-finite coefficients")
        object.__setattr__(self, "betas", b)

    def __eq__(self, other):
        return isinstance(other, HandShape) and np.array_equal(self.betas, other.betas)

    @classmethod
    def zeros(cls) -> "HandShape":
        return cls(np.zeros(N_SHAPE_COEFFS))


@dataclass(frozen=True)
class SkinningBlock:
    """Optional mesh data: rest vertices, per-vertex weights over the 16
    articulated joints, per-vertex shape basis, and triangle faces."""

    vertices: np.ndarray            # (N, 3)
    weights: np.ndarray             # (N, 16), rows sum to 1
    vertex_shape_basis: np.ndarray  # (10, N, 3)
    faces: np.ndarray               # (M, 3) int

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        vb = np.asarray(self.vertex_shape_basis, dtype=np.float64)
        f = np.asarray(self.faces, dtype=np.int64)
        n = v.shape[0]
        if v.ndim != 2 or v.shape[1] != 3:
            raise ModelFormatError("skinning vertices must be N x 3")
        if w.shape != (n, N_ROTATIONS):
            raise ModelFormatError(f"skinning weights must be {n} x {N_ROTATIONS}")
        if vb.shape != (N_SHAPE_COEFFS, n, 3):
            raise ModelFormatError("vertex shape basis rank mismatch")
        if f.ndim != 2 or f.shape[1] != 3:
            raise ModelFormatError("faces must be M x 3")
        if f.size and (f.min() < 0 or f.max() >= n):
            raise ModelFormatError("face indices out of range")
        if np.any(w < -1e-12):
            raise ModelFormatError("skinning weights must be non-negative")
        row_sums = w.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-6):
            raise ModelFormatError("skinning weight rows not normalized")
        for name, arr in (("vertices", v), ("weights", w), ("vertex_shape_basis", vb)):
            if not np.all(np.isfinite(arr)):
                raise ModelFormatError(f"skinning {name} contain non-finite values")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "vertex_shape_basis", vb)
        object.__setattr__(self, "faces", f)


@dataclass(frozen=True)
class HandModelParams:
    """Immutable hand model: rest skeleton, kinematic tree, shape basis, and
    an optional skinning block.  Safe to share across threads after load."""

    rest_joints: np.ndarray   # (21, 3) meters, mean shape
    parent: np.ndarray        # (21,) int, root (wrist) has parent -1
    articulated: np.ndarray   # (21,) bool, exactly 16 True
    shape_basis: np.ndarray   # (10, 21, 3) meters per unit beta
    skinning: SkinningBlock | None = None

    def __post_init__(self):
        rest = np.asarray(self.rest_joints, dtype=np.float64)
        parent = np.asarray(self.parent, dtype=np.int64)
        artic = np.asarray(self.articulated, dtype=bool)
        basis = np.asarray(self.shape_basis, dtype=np.float64)
        if rest.shape != (N_KEYPOINTS, 3):
            raise ModelFormatError(f"rest_joints must be {N_KEYPOINTS} x 3, got {rest.shape}")
        if parent.shape != (N_KEYPOINTS,):
            raise ModelFormatError("parent must list one index per keypoint")
        if artic.shape != (N_KEYPOINTS,):
            raise ModelFormatError("articulated must flag each keypoint")
        if basis.shape != (N_SHAPE_COEFFS, N_KEYPOINTS, 3):
            raise ModelFormatError("shape basis rank mismatch")
        if not np.all(np.isfinite(rest)) or not np.all(np.isfinite(basis)):
            raise ModelFormatError("model arrays contain non-finite values")
        if int(artic.sum()) != N_ROTATIONS:
            raise ModelFormatError(
                f"articulated mask must mark exactly {N_ROTATIONS} keypoints, got {int(artic.sum())}"
            )
        _check_tree(parent)
        if not artic[0]:
            raise ModelFormatError("wrist (index 0) must be articulated")
        object.__setattr__(self, "rest_joints", rest)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "articulated", artic)
        object.__setattr__(self, "shape_basis", basis)

    @property
    def articulated_indices(self) -> np.ndarray:
        """Keypoint indices carrying the 16 rotations, in keypoint order."""
        return np.flatnonzero(self.articulated)

    @cached_property
    def levels(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(children, their parents) index arrays for each tree depth below
        the wrist: MCP, PIP, DIP, TIP for the hand.  Parents precede their
        children, so one pass in index order gives every depth.  Read-only,
        like a loaded model's arrays, since FK of every clip reads them."""
        depth = np.zeros(N_KEYPOINTS, dtype=np.int64)
        for j in range(1, N_KEYPOINTS):
            depth[j] = depth[self.parent[j]] + 1
        children = [np.flatnonzero(depth == d) for d in range(1, int(depth.max()) + 1)]
        levels = tuple((c, self.parent[c]) for c in children)
        for index in (a for level in levels for a in level):
            index.flags.writeable = False
        return levels

    @cached_property
    def fk_schedule(self) -> tuple[np.ndarray, np.ndarray, bool, tuple]:
        """`levels` as FK walks them: every bone's child and parent index
        arrays, level after level; whether some joint composes the identity
        as its local rotation; and per level (children, parents, the level's
        slice of the bones, and the row of each child's local rotation: its
        index among the articulated joints, N_ROTATIONS for the identity).
        The rows are None for a level whose joints carry no rotation and have
        no children, since no world rotation of theirs is read.  Read-only,
        like `levels`."""
        rotation_row = np.full(N_KEYPOINTS, N_ROTATIONS)
        rotation_row[self.articulated_indices] = np.arange(N_ROTATIONS)
        rotation_read = self.articulated.copy()  # by skinning, and by FK for the children
        rotation_read[self.parent[1:]] = True
        steps, start = [], 0
        for children, parents in self.levels:
            rows = rotation_row[children] if rotation_read[children].any() else None
            steps.append((children, parents, slice(start, start + len(children)), rows))
            start += len(children)
        bone_children = np.concatenate([children for children, _ in self.levels])
        schedule = (bone_children, self.parent[bone_children],
                    any(rows is not None and (rows == N_ROTATIONS).any() for *_, rows in steps), tuple(steps))
        for index in (schedule[0], schedule[1], *(rows for *_, rows in steps if rows is not None)):
            index.flags.writeable = False
        return schedule


def _check_tree(parent: np.ndarray) -> None:
    """Validate that `parent` encodes a single-rooted tree with root 0 in
    which every parent precedes its children, so no cycle can occur."""
    roots = np.flatnonzero(parent < 0)
    if roots.size != 1 or roots[0] != 0:
        raise ModelFormatError("kinematic tree must have exactly one root at index 0")
    late = np.flatnonzero(parent >= np.arange(parent.shape[0]))
    if late.size:
        j = int(late[0])
        raise ModelFormatError(
            f"keypoint {j} has parent {parent[j]}, which does not precede it; "
            "parents must come first, which also rules out a cycle"
        )


def rodrigues(axis_angle: np.ndarray) -> np.ndarray:
    """Convert axis-angle vectors (..., 3) to rotation matrices (..., 3, 3).

    Uses the closed-form exponential map with a second-order Taylor branch for
    magnitudes below 1e-8, so the identity neighborhood is exact and free of
    division by zero.
    """
    aa = np.asarray(axis_angle, dtype=np.float64)
    if aa.shape[-1] != 3:
        raise ValueError("axis-angle vectors must have 3 components")
    theta = np.sqrt(np.add.reduce(aa * aa, axis=-1))  # np.linalg.norm(aa, axis=-1), bit for bit
    t2 = theta * theta
    small = theta < _SMALL_ANGLE
    safe_theta = np.where(small, 1.0, theta)
    sin_coeff = np.where(small, 1.0 - t2 / 6.0, np.sin(safe_theta) / safe_theta)
    cos_coeff = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(safe_theta)) / (safe_theta * safe_theta))

    # the skew matrix [a]x, its entries picked from (0, ax, ay, az, -ax, -ay, -az)
    k = np.concatenate((np.zeros(aa.shape[:-1] + (1,)), aa, -aa), axis=-1)[..., _SKEW_ENTRIES]
    k = k.reshape(aa.shape[:-1] + (3, 3))
    return _EYE + sin_coeff[..., None, None] * k + cos_coeff[..., None, None] * (k @ k)


def so3_log(rotation: np.ndarray) -> np.ndarray:
    """Inverse of `rodrigues` for a single 3x3 rotation matrix.

    Returns an axis-angle vector with magnitude in [0, pi].  Goes through a
    quaternion so the extraction stays well-conditioned at every angle,
    including near pi where the skew part of R vanishes.
    """
    r = np.asarray(rotation, dtype=np.float64)
    if r.shape != (3, 3):
        raise ValueError("expected a single 3x3 rotation matrix")

    # branch on the largest of (trace, diagonal entries) for stability
    tr = r[0, 0] + r[1, 1] + r[2, 2]
    if tr > max(r[0, 0], r[1, 1], r[2, 2]):
        s = 2.0 * np.sqrt(max(tr + 1.0, 0.0))
        w = 0.25 * s
        v = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]) / s
    elif r[0, 0] >= r[1, 1] and r[0, 0] >= r[2, 2]:
        s = 2.0 * np.sqrt(max(1.0 + r[0, 0] - r[1, 1] - r[2, 2], 0.0))
        w = (r[2, 1] - r[1, 2]) / s
        v = np.array([0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s])
    elif r[1, 1] >= r[2, 2]:
        s = 2.0 * np.sqrt(max(1.0 + r[1, 1] - r[0, 0] - r[2, 2], 0.0))
        w = (r[0, 2] - r[2, 0]) / s
        v = np.array([(r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s])
    else:
        s = 2.0 * np.sqrt(max(1.0 + r[2, 2] - r[0, 0] - r[1, 1], 0.0))
        w = (r[1, 0] - r[0, 1]) / s
        v = np.array([(r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s])

    if w < 0.0:  # pick the quaternion hemisphere that gives angle <= pi
        w, v = -w, -v
    norm_v = np.linalg.norm(v)
    if norm_v < _SMALL_ANGLE:
        return 2.0 * v  # first-order: axis-angle ~ 2 * vector part
    theta = 2.0 * np.arctan2(norm_v, w)
    return theta * v / norm_v


def canonicalize_axis_angle(axis_angle: np.ndarray) -> np.ndarray:
    """Wrap axis-angle magnitudes into [0, pi], flipping the axis as needed."""
    aa = np.asarray(axis_angle, dtype=np.float64)
    theta = np.linalg.norm(aa, axis=-1, keepdims=True)
    wrapped = np.mod(theta, 2.0 * np.pi)
    over = wrapped > np.pi
    target = np.where(over, wrapped - 2.0 * np.pi, wrapped)  # signed angle in (-pi, pi]
    scale = np.where(theta > 0, target / np.where(theta > 0, theta, 1.0), 1.0)
    return aa * scale


def shaped_rest_joints(model: HandModelParams, shape: HandShape | np.ndarray) -> np.ndarray:
    """Rest skeleton displaced by the linear shape basis: rest + sum_k beta_k basis_k.

    `shape` is a HandShape, or a (T, 10) betas array for a (T, 21, 3) stack.
    """
    betas = shape.betas if isinstance(shape, HandShape) else np.asarray(shape, dtype=np.float64)
    return model.rest_joints + np.einsum("...k,kjc->...jc", betas, model.shape_basis)


def forward_kinematics(model: HandModelParams, shape: HandShape, pose: HandPose) -> np.ndarray:
    """Pose the shaped skeleton and return the 21 keypoints, wrist-rooted.

    Each articulated joint's world rotation composes its ancestors' rotations;
    children rigidly follow parents, and fingertip sites follow their parent's
    world transform.  The wrist stays at its shaped rest position; global
    placement is the camera's job.
    """
    return posed_joints(model, shape.betas[None], pose.rotations[None])[0]


def posed_joints(model: HandModelParams, betas: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """`forward_kinematics` over a clip: betas (T, 10) and rotations
    (T, 16, 3) give the (T, 21, 3) keypoint stack."""
    return _forward_transforms(model, betas, rotations)[0]


def _forward_transforms(model, betas, rotations):
    """FK core over T frames: world positions (T, 21, 3) and world rotations
    (T, 21, 3, 3).  A joint that carries no rotation and has no children
    has none that anything reads, so it is left NaN.

    One batched step per tree depth composes every joint of that depth with
    its parent's world transform, as in MANO's batched rigid transforms.
    """
    betas = np.asarray(betas, dtype=np.float64)
    rotations = np.asarray(rotations, dtype=np.float64)
    if betas.ndim != 2 or betas.shape[1] != N_SHAPE_COEFFS:
        raise ValueError(f"betas must be (T, {N_SHAPE_COEFFS}), got {betas.shape}")
    if rotations.shape != (betas.shape[0], N_ROTATIONS, 3):
        raise ValueError(f"rotations must be ({betas.shape[0]}, {N_ROTATIONS}, 3), got {rotations.shape}")
    rest = shaped_rest_joints(model, betas)
    local_rot = rodrigues(rotations)  # row r for articulated joint r
    bone_children, bone_parents, identity, steps = model.fk_schedule
    if identity:
        local_rot = np.concatenate((local_rot, np.broadcast_to(_EYE, (len(rest), 1, 3, 3))), axis=1)
    bones = rest[:, bone_children] - rest[:, bone_parents]

    positions = np.empty_like(rest)
    world_rot = np.full(rest.shape + (3,), np.nan)
    positions[:, 0] = rest[:, 0]
    world_rot[:, 0] = local_rot[:, 0]  # the wrist carries rotation 0
    for children, parents, bone_rows, rotation_rows in steps:
        parent_rot = world_rot[:, parents]
        if rotation_rows is not None:
            world_rot[:, children] = parent_rot @ local_rot[:, rotation_rows]
        positions[:, children] = (parent_rot @ bones[:, bone_rows, :, None])[..., 0] + positions[:, parents]
    return positions, world_rot


def skin_vertices(model: HandModelParams, shape: HandShape, pose: HandPose) -> np.ndarray:
    """Linear blend skinning of the model's mesh vertices, (N, 3) meters.

    Each vertex is the weight-blended application of the articulated joints'
    world transforms to its shaped rest position.  Requires a skinning block.
    """
    if model.skinning is None:
        raise ValueError("model lacks skinning block")
    skin = model.skinning
    rest = shaped_rest_joints(model, shape)
    positions, world_rot = (a[0] for a in _forward_transforms(model, shape.betas[None], pose.rotations[None]))

    verts = skin.vertices + np.einsum("k,kvc->vc", shape.betas, skin.vertex_shape_basis)
    idx = model.articulated_indices
    # Rigid map per articulated joint a: x -> R_a (x - rest_a) + pos_a
    rotated = np.einsum("aij,vj->avi", world_rot[idx], verts)                    # (16, N, 3)
    offsets = positions[idx] - np.einsum("aij,aj->ai", world_rot[idx], rest[idx])  # (16, 3)
    return np.einsum("va,avi->vi", skin.weights, rotated + offsets[:, None, :])


def bone_vectors(joints: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per non-root keypoint, the vector child - parent, in tree order (20, 3)."""
    pts = np.asarray(joints, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    if pts.shape != (N_KEYPOINTS, 3):
        raise ValueError(f"expected {N_KEYPOINTS} x 3 joints, got {pts.shape}")
    children = np.flatnonzero(parent >= 0)
    return pts[children] - pts[parent[children]]


# The last model file content loaded and its model: (bytes, HandModelParams).
_last_load: tuple[bytes, HandModelParams] | None = None


def load_model(path: str | Path) -> HandModelParams:
    """Load and validate a hand model file (see the schema in the README).

    The file is UTF-8 JSON with fields `version`, `rest_joints`, `parent`,
    `articulated`, `shape_basis`, and an optional `skinning` block.

    Every call reads the file, but parses and validates it only when its
    bytes differ from those the last model came from; otherwise it returns
    that same model.  The model is shared, so its arrays are read-only.
    Keying on the bytes, not on the file's stat, means a rewrite can never
    return a stale model.  A failed load leaves the last model in place.
    """
    global _last_load
    try:
        with open(path, "rb", buffering=0) as fh:  # unbuffered: one fstat and one read
            raw = fh.readall()
    except FileNotFoundError as exc:
        raise FileNotFoundError(f"hand model file not found: {path}") from exc
    last = _last_load  # read the slot once, so these bytes are never paired with another thread's model
    if last is not None and last[0] == raw:
        return last[1]
    model = _decode_model(raw)
    _freeze(model)
    _last_load = (raw, model)
    return model


def _freeze(record) -> None:
    """Make a loaded record's arrays, and its skinning block's, read-only."""
    for value in vars(record).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        elif isinstance(value, SkinningBlock):
            _freeze(value)


def _decode_model(raw: bytes) -> HandModelParams:
    """The validated model of a model file's bytes; every array is decoded
    strictly, so a string, a boolean or a fraction where a number or an index
    belongs is a `ModelFormatError` naming the field."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"model file is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    _check_keys(doc, ("version", "rest_joints", "parent", "articulated", "shape_basis"), ("skinning",), "model file")
    sk = doc.get("skinning")
    if sk is not None:
        if not isinstance(sk, dict):
            raise ModelFormatError("skinning block must be a JSON object")
        _check_keys(sk, ("vertices", "weights", "vertex_shape_basis", "faces"), (), "skinning block")
    try:
        version = field(doc, "version", int)
        if version != MODEL_FORMAT_VERSION:
            raise ModelFormatError(f"unsupported model format version {version}")
        artic = doc["articulated"]
        bad = [v for v in artic if type(v) is not bool] if isinstance(artic, list) else [artic]
        if bad:
            raise ModelFormatError(f"articulated: expected true or false, got {bad[0]!r}")
        skinning = None if sk is None else SkinningBlock(
            vertices=numbers(sk["vertices"], (3,), "skinning.vertices"),
            weights=numbers(sk["weights"], (N_ROTATIONS,), "skinning.weights"),
            vertex_shape_basis=numbers(sk["vertex_shape_basis"], (None, 3), "skinning.vertex_shape_basis"),
            faces=_indices(sk["faces"], (3,), "skinning.faces"),
        )
        return HandModelParams(
            rest_joints=numbers(doc["rest_joints"], (3,), "rest_joints"),
            parent=_indices(doc["parent"], (), "parent"),
            articulated=np.array(artic, dtype=bool),
            shape_basis=numbers(doc["shape_basis"], (N_KEYPOINTS, 3), "shape_basis"),
            skinning=skinning,
        )
    except ModelFormatError:
        raise
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc


def _check_keys(doc: dict, required: tuple, optional: tuple, where: str) -> None:
    """Every required key present and no key beyond the optional ones, so a
    misspelled block fails here rather than loading as absent."""
    for key in required:
        if key not in doc:
            raise ModelFormatError(f"{where} missing field '{key}'")
    unknown = doc.keys() - set(required) - set(optional)
    if unknown:
        raise ModelFormatError(f"unknown key {min(unknown)!r} in {where}")


def _indices(values, shape: tuple[int | None, ...], name: str) -> np.ndarray:
    """`jsonrecord.numbers` as int64, each value integral under the
    `JsonRecord` int rule (2 and 2.0 pass, 2.7 and true do not)."""
    out = numbers(values, shape, name)
    bad = out[(out != np.round(out)) | (np.abs(out) > 2.0**53)]
    if bad.size:
        raise ValueError(f"{name}: expected an integer, got {float(bad[0])!r}")
    return out.astype(np.int64)


def save_model(model: HandModelParams, path: str | Path) -> None:
    """Write a model back out in the documented file format."""
    doc: dict = {
        "version": MODEL_FORMAT_VERSION,
        "rest_joints": model.rest_joints.tolist(),
        "parent": model.parent.tolist(),
        "articulated": model.articulated.tolist(),
        "shape_basis": model.shape_basis.tolist(),
    }
    if model.skinning is not None:
        doc["skinning"] = {
            "vertices": model.skinning.vertices.tolist(),
            "weights": model.skinning.weights.tolist(),
            "vertex_shape_basis": model.skinning.vertex_shape_basis.tolist(),
            "faces": model.skinning.faces.tolist(),
        }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")

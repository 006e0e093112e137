"""Closed-form computational core of a direction-aware hand motion-capture
pipeline: crop/frame geometry and direction maps, a sub-pixel coordinate
codec, positional-encoding fusion, parametric hand forward kinematics,
camera projection, contrastive confidence, temporal gating, training losses,
and evaluation metrics."""

from .camera import FullCamera, WeakCamera, project_points, weak_to_full
from .codec import CodecConfig, decode_soft_argmax, encode_labels, log_probs
from .confidence import (
    ContrastivePair,
    DegenerateJointsError,
    contrastive_loss,
    cosine_confidence,
    normalize_pred,
    normalize_proj,
    sample_negative_patches,
)
from .fusion import assemble_dahyf, pe_normalize, pool_feature_map, positional_encode
from .geometry import (
    DirectionMap,
    PatchSpec,
    RowError,
    SpecColumns,
    default_focal,
    feat_to_patch,
    flip_left_patch,
    frame_to_direction,
    global_direction_map,
    local_direction_map,
    patch_to_frame,
)
from .hand_model import (
    HandModelParams,
    HandPose,
    HandShape,
    bone_vectors,
    canonicalize_axis_angle,
    forward_kinematics,
    load_model,
    posed_joints,
    rodrigues,
    save_model,
    shaped_rest_joints,
    skin_vertices,
)
from .losses import (
    LossReport,
    LossWeights,
    bone_loss,
    finite_diff_gradient,
    homoscedastic_total,
    kl_divergence,
    l1_loss,
    l2_loss,
)
from .metrics import (
    AlignmentResult,
    epe_2d,
    f_score,
    joint_errors,
    pck_curve,
    procrustes_align,
    summarize,
    vertex_errors,
)
from .pipeline import PipelineConfig, run_pipeline
from .tempfilter import (
    FilterConfig,
    FrameArrays,
    FrameResult,
    SmoothingConfig,
    gate_arrays,
    smooth_arrays,
)

__version__ = "0.1.0"

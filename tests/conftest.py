import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dahyf.geometry import SpecColumns
from dahyf.hand_model import N_KEYPOINTS, N_ROTATIONS, N_SHAPE_COEFFS, load_model
from dahyf.tempfilter import NOT_REPLACED, FrameArrays
from dahyf.toy import bundled_model_path

# The budget of the whole-clip properties, the tests that draw from `clips`.
settings.register_profile("clip_contracts", max_examples=40, deadline=None)

INT64 = (NOT_REPLACED + 1, 2**63 - 1)  # the values a frame index or donor index may take
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# rotation angles: signed zeros, +-pi and just inside it, whole turns, and anything up to +-5 pi
angles = st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.nextafter(math.pi, 0.0), 2 * math.pi, -4 * math.pi]) \
    | st.floats(-5 * math.pi, 5 * math.pi)
specs = st.tuples(st.integers(1, INT64[1]), st.integers(1, INT64[1]), st.tuples(finite, finite), positive,
                  st.integers(1, INT64[1]), st.integers(1, INT64[1]), st.none() | positive,
                  st.sampled_from(["left", "right"]), st.booleans())


@st.composite
def clips(draw, scored: bool = False) -> FrameArrays:
    """A clip of 1-8 frames that parsing records could give: frame indices
    strictly increasing with gaps of any size, poses with signed zeros,
    near-pi rotations and whole turns (angle times unit axis), specs with
    and without a focal, confidences NaN (never when `scored`) or in
    [-1, 1], and any legal donor index."""
    t = draw(st.integers(1, 8))
    gaps = draw(st.lists(st.integers(1, 3) | st.integers(1, 2**61), min_size=t - 1, max_size=t - 1))
    start = draw(st.integers(INT64[0], INT64[1] - sum(gaps)))
    axes = draw(arrays(np.float64, (t, N_ROTATIONS, 3), elements=st.floats(-1.0, 1.0)))
    norms = np.linalg.norm(axes, axis=-1, keepdims=True)
    rotations = draw(arrays(np.float64, (t, N_ROTATIONS, 1), elements=angles)) * axes / np.where(norms > 0, norms, 1.0)
    weak = draw(st.lists(st.tuples(positive, finite, finite), min_size=t, max_size=t))
    confidence = st.floats(-1.0, 1.0) if scored else st.just(math.nan) | st.floats(-1.0, 1.0)
    donor = st.none() | st.integers(*INT64) | st.sampled_from(INT64)
    return FrameArrays(
        frame_index=np.cumsum([start, *gaps], dtype=np.int64),
        rotations=rotations,
        betas=draw(arrays(np.float64, (t, N_SHAPE_COEFFS), elements=finite)),
        weak=np.array(weak, dtype=np.float64),
        joints2d=draw(arrays(np.float64, (t, N_KEYPOINTS, 2), elements=finite)),
        specs=SpecColumns.of(draw(st.lists(specs, min_size=t, max_size=t))),
        confidence=np.array(draw(st.lists(confidence, min_size=t, max_size=t)), dtype=np.float64),
        unreliable=np.array(draw(st.lists(st.booleans(), min_size=t, max_size=t)), dtype=bool),
        replaced_from=np.array([NOT_REPLACED if r is None else r
                                for r in draw(st.lists(donor, min_size=t, max_size=t))], dtype=np.int64),
    )


@pytest.fixture(scope="session")
def toy_model():
    return load_model(bundled_model_path())


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ted.model import FrameFeatures, PAIN_PROFILE, SequenceRecord


def make_frame(index, rng=None, au_levels=None, tracking_ok=True, n_landmarks=4):
    """Small frame with random (or supplied) features for unit tests."""
    rng = rng or np.random.default_rng(index)
    if au_levels is None:
        au_levels = {au: float(rng.uniform(0, 5)) for au in PAIN_PROFILE.au_ids}
    lm = rng.normal(0, 1, (n_landmarks, 2))
    return FrameFeatures(
        frame_index=index,
        landmarks=tuple((float(x), float(y)) for x, y in lm),
        head_translation=tuple(rng.normal(0, 10, 3)),
        head_rotation=tuple(rng.normal(0, 0.2, 3)),
        gaze_left=tuple(rng.normal(0, 0.5, 3)),
        gaze_right=tuple(rng.normal(0, 0.5, 3)),
        au_intensities=dict(au_levels),
        tracking_ok=tracking_ok,
    )


def make_random_sequence(n_frames, seed=0, subject="S001", sequence="01"):
    rng = np.random.default_rng(seed)
    frames = [make_frame(i + 1, rng) for i in range(n_frames)]
    return SequenceRecord(subject_id=subject, sequence_id=sequence, frames=frames)


def make_constant_sequence(n_frames, subject="S001", sequence="01"):
    """All frames identical, pain AUs zero."""
    rng = np.random.default_rng(42)
    template = make_frame(1, rng, au_levels={au: 0.0 for au in PAIN_PROFILE.au_ids})
    frames = [
        FrameFeatures(
            frame_index=i + 1,
            landmarks=template.landmarks,
            head_translation=template.head_translation,
            head_rotation=template.head_rotation,
            gaze_left=template.gaze_left,
            gaze_right=template.gaze_right,
            au_intensities=template.au_intensities,
        )
        for i in range(n_frames)
    ]
    return SequenceRecord(subject_id=subject, sequence_id=sequence, frames=frames)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

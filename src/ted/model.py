"""Shared domain types: frame columns, profiles, configs, scored frames.

All types are immutable (or treated as such) after construction and carry
their own invariant checks. No I/O and no scoring logic lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ComputeError, ConfigError

# Canonical ordering of the six per-frame feature streams: landmarks, head
# translation, head rotation, left gaze, right gaze, action-unit intensities.
FEATURE_SETS = ("L", "Ho", "Hr", "Gl", "Gr", "I")

GENDERS = ("male", "female", "unspecified")


@dataclass(frozen=True)
class AuProfile:
    """Named subset of action units an expressiveness score is computed over."""

    name: str
    au_ids: tuple[int, ...]

    def __post_init__(self):
        if not self.au_ids:
            raise ConfigError(f"profile {self.name!r} has no action units")
        if len(set(self.au_ids)) != len(self.au_ids):
            raise ConfigError(f"profile {self.name!r} has duplicate action units")
        for au in self.au_ids:
            if not 1 <= au <= 64:
                raise ConfigError(f"profile {self.name!r} has AU {au} outside FACS range 1..64")
        object.__setattr__(self, "au_ids", tuple(sorted(self.au_ids)))

    def __len__(self) -> int:
        return len(self.au_ids)


PAIN_PROFILE = AuProfile("pain", (4, 6, 9, 10, 25, 43))
# AU43 (eye closure) is not available from intensity-predicting trackers.
PAIN_PREDICTED_PROFILE = AuProfile("pain_predicted", (4, 6, 9, 10, 25))
HAPPY_PROFILE = AuProfile("happy", (6, 7, 12, 25, 26))

BUILTIN_PROFILES = {
    p.name: p for p in (PAIN_PROFILE, PAIN_PREDICTED_PROFILE, HAPPY_PROFILE)
}


def overall_profile(records: Sequence["SequenceRecord"]) -> AuProfile:
    """Profile covering every action unit present anywhere in the input."""
    ids = {au for rec in records for au in rec.frames.au_ids}
    if not ids:
        raise ConfigError("input carries no action-unit intensities")
    return AuProfile("overall", tuple(sorted(ids)))


@dataclass(frozen=True)
class FrameFeatures:
    """One video frame's multimodal feature vectors."""

    frame_index: int
    landmarks: tuple[tuple[float, float], ...]
    head_translation: tuple[float, float, float]
    head_rotation: tuple[float, float, float]
    gaze_left: tuple[float, float, float]
    gaze_right: tuple[float, float, float]
    au_intensities: Mapping[int, float]  # AU id -> level on the 0-5 scale
    tracking_ok: bool = True

    def au_level(self, au_id: int) -> float:
        return self.au_intensities.get(au_id, 0.0)


@dataclass(frozen=True, eq=False)
class FrameColumns:
    """A sequence's frames as aligned columns; row t holds frame t.

    `geometry` keeps the tracker file's column order: the k landmark x
    coordinates, their k y coordinates, then head translation, head rotation,
    left gaze and right gaze, three columns each.
    """

    frame_index: np.ndarray  # (n,) int
    tracking_ok: np.ndarray  # (n,) bool
    geometry: np.ndarray  # (n, 2k + 12)
    au_ids: tuple[int, ...]
    au_levels: np.ndarray  # (n, m); column j is action unit au_ids[j]

    def __post_init__(self):
        for au in self.au_ids:
            if not 1 <= au <= 64:
                raise ConfigError(f"au_id {au} outside FACS range 1..64")

    @classmethod
    def from_frames(cls, frames: Sequence[FrameFeatures]) -> "FrameColumns":
        """Columns of per-frame objects; an AU missing from a frame reads 0."""
        n = len(frames)
        sizes = {len(f.landmarks) for f in frames}
        if len(sizes) > 1:
            raise ComputeError(
                f"landmark streams must be constant-length, got lengths {sorted(sizes)}"
            )
        au_ids = tuple(sorted({au for f in frames for au in f.au_intensities}))
        geometry = [
            [*(x for x, _ in f.landmarks), *(y for _, y in f.landmarks), *f.head_translation,
             *f.head_rotation, *f.gaze_left, *f.gaze_right]
            for f in frames
        ]
        return cls(
            frame_index=np.array([f.frame_index for f in frames], dtype=np.int64),
            tracking_ok=np.array([f.tracking_ok for f in frames], dtype=bool),
            geometry=np.array(geometry, dtype=float).reshape(n, 2 * max(sizes, default=0) + 12),
            au_ids=au_ids,
            au_levels=np.array(
                [[f.au_level(au) for au in au_ids] for f in frames], dtype=float
            ).reshape(n, len(au_ids)),
        )

    def __len__(self) -> int:
        return self.frame_index.size

    def __getitem__(self, i: int) -> FrameFeatures:
        """Frame i as one FrameFeatures, for per-frame reference code."""
        i = range(len(self))[i]
        xy, ho, hr, gl, gr = (tuple(self.stream(fs)[i].tolist()) for fs in FEATURE_SETS[:5])
        k = len(xy) // 2
        return FrameFeatures(
            frame_index=int(self.frame_index[i]),
            landmarks=tuple(zip(xy[:k], xy[k:])),
            head_translation=ho,
            head_rotation=hr,
            gaze_left=gl,
            gaze_right=gr,
            au_intensities=dict(zip(self.au_ids, self.au_levels[i].tolist())),
            tracking_ok=bool(self.tracking_ok[i]),
        )

    def stream(self, fs: str, au_ids: Sequence[int] = ()) -> np.ndarray:
        """(n, d) matrix of one feature set.

        L, Ho, Hr, Gl and Gr are views of `geometry`; landmarks give all x
        coordinates, then all y coordinates. The `I` stream is a new matrix
        with one column per entry of `au_ids`, with absent AUs at 0.
        """
        if fs == "I":
            padded = np.concatenate([self.au_levels, np.zeros((len(self), 1))], axis=1)
            return padded[:, [self.au_ids.index(au) if au in self.au_ids else -1 for au in au_ids]]
        if fs not in FEATURE_SETS:
            raise ComputeError(f"unknown feature set {fs!r}")
        end = self.geometry.shape[1] - 12 + 3 * FEATURE_SETS.index(fs)
        return self.geometry[:, end - 3 : end] if fs != "L" else self.geometry[:, :end]


@dataclass(frozen=True)
class TedConfig:
    """Scoring configuration: window, orientation, profile and feature-stream selection."""

    window: int = 10
    window_orientation: str = "trailing"  # or "forward"
    profile: AuProfile = PAIN_PROFILE
    feature_sets: frozenset[str] = frozenset(FEATURE_SETS)

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.window_orientation not in ("trailing", "forward"):
            raise ConfigError(
                f"unknown window orientation {self.window_orientation!r}"
            )
        fs = frozenset(self.feature_sets)
        if not fs:
            raise ConfigError("at least one feature set must be enabled")
        unknown = fs - set(FEATURE_SETS)
        if unknown:
            raise ConfigError(f"unknown feature sets: {sorted(unknown)}")
        if "I" in fs and len(self.profile) < 2:  # relative change needs two components
            raise ConfigError(f"feature set I needs at least 2 action units; "
                              f"profile {self.profile.name!r} has {len(self.profile)}")
        object.__setattr__(self, "feature_sets", fs)


@dataclass(frozen=True)
class ScoredFrame:
    """Per-frame output: static score, per-stream dynamics, final score."""

    frame_index: int
    static_score: float
    dynamics: Mapping[str, float]
    ted_score: float
    tracking_ok: bool = True


@dataclass(frozen=True)
class SequenceLabels:
    """Sequence-level subjective pain labels."""

    vas: Optional[int] = None
    sen: Optional[int] = None
    aff: Optional[int] = None
    opi: Optional[int] = None

    def __post_init__(self):
        for name, hi in (("vas", 10), ("sen", 10), ("aff", 10), ("opi", 5)):
            value = getattr(self, name)
            if value is None:
                continue
            if type(value) is not int:  # JSON true and false are bools, a subclass of int
                raise TypeError(f"{name} label {value!r} is not an integer")
            if not 0 <= value <= hi:
                raise ConfigError(f"{name} label {value} outside [0, {hi}]")

    def get(self, scale: str) -> Optional[int]:
        return getattr(self, scale.lower())


@dataclass
class SequenceRecord:
    """One video sequence: ordered frames plus optional labels.

    A list of FrameFeatures passed as `frames` is converted to columns, and
    PSPI labels passed as a list to a float64 array.
    """

    subject_id: str
    sequence_id: str
    frames: FrameColumns
    pspi: Optional[np.ndarray] = None  # (n,) float64, one label per frame
    labels: Optional[SequenceLabels] = None
    gender: str = "unspecified"

    def __post_init__(self):
        if not isinstance(self.frames, FrameColumns):
            self.frames = FrameColumns.from_frames(self.frames)
        if self.pspi is not None:
            self.pspi = np.asarray(self.pspi, dtype=np.float64)

    @property
    def key(self) -> tuple[str, str]:
        return (self.subject_id, self.sequence_id)

    def pspi_array(self) -> np.ndarray:
        """PSPI labels aligned with the frames."""
        name = "/".join(self.key)
        if self.pspi is None:
            raise ComputeError(f"sequence {name} has no PSPI labels")
        if len(self.pspi) != len(self.frames):
            raise ComputeError(
                f"sequence {name} has {len(self.pspi)} PSPI labels for {len(self.frames)} frames"
            )
        return self.pspi


@dataclass(frozen=True)
class ManifestEntry:
    subject_id: str
    sequence_id: str
    feature_file_path: str
    pspi_file_path: Optional[str] = None
    manual_au_file_path: Optional[str] = None
    labels: Optional[SequenceLabels] = None
    gender: str = "unspecified"


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry] = field(default_factory=list)
    path: Path = Path("manifest.json")  # entry file paths are relative to its directory

    def __post_init__(self):
        keys = [(e.subject_id, e.sequence_id) for e in self.entries]
        if len(set(keys)) != len(keys):
            dupes = ", ".join(f"{s}/{q}" for s, q in sorted({k for k in keys if keys.count(k) > 1}))
            raise ConfigError(f"duplicate (subject, sequence) entries: {dupes}")


def validate_sequence(seq: SequenceRecord) -> list[str]:
    """One text per broken frame invariant, reported and never raised: an empty list iff they
    hold. PSPI labels are checked by `parse_pspi_file` (values) and `pspi_array` (count)."""
    cols = seq.frames
    n = len(cols)
    if not n:
        return ["frames: sequence has no frames"]

    idx = cols.frame_index.tolist()
    steps_back = cols.frame_index[1:] <= cols.frame_index[:-1]
    per_frame = [
        (p + 1, f"frame_index (frame {idx[p + 1]}): not strictly increasing after {idx[p]}")
        for p in np.flatnonzero(steps_back).tolist()
    ]
    finite = np.isfinite(cols.geometry).all(axis=1) & np.isfinite(cols.au_levels).all(axis=1)
    per_frame += [
        (p, f"features (frame {idx[p]}): non-finite value")
        for p in np.flatnonzero(cols.tracking_ok & ~finite).tolist()
    ]
    findings = [f for _, f in sorted(per_frame, key=lambda pf: pf[0])]
    # no valid frame precedes them, so the dynamics read the first frame's tracker output
    leading = int(np.append(cols.tracking_ok, True).argmax())
    if leading:
        findings.insert(0, f"tracking: leading {leading} frame(s) failed tracking; "
                           "dynamics use the first frame's tracker output")
    return findings

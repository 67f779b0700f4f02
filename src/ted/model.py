"""Shared domain types: frame features, profiles, configs, scored frames.

All types are immutable (or treated as such) after construction and carry
their own invariant checks. No I/O and no scoring logic lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .errors import ConfigError

# Canonical ordering of the six per-frame feature streams: landmarks, head
# translation, head rotation, left gaze, right gaze, action-unit intensities.
FEATURE_SETS = ("L", "Ho", "Hr", "Gl", "Gr", "I")

GENDERS = ("male", "female", "unspecified")


@dataclass(frozen=True)
class AuIntensity:
    """One action unit's intensity on the 0-5 scale (0 = inactive)."""

    au_id: int
    level: float

    def __post_init__(self):
        if not 1 <= self.au_id <= 64:
            raise ConfigError(f"au_id {self.au_id} outside FACS range 1..64")
        if not 0.0 <= self.level <= 5.0:
            raise ConfigError(f"AU{self.au_id} level {self.level} outside [0, 5]")


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
    ids: set[int] = set()
    for rec in records:
        for frame in rec.frames:
            ids.update(frame.au_intensities)
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
    au_intensities: Mapping[int, AuIntensity]
    tracking_ok: bool = True

    def au_level(self, au_id: int) -> float:
        au = self.au_intensities.get(au_id)
        return au.level if au is not None else 0.0


@dataclass(frozen=True)
class TedConfig:
    """Scoring configuration: window, profile and feature-stream selection."""

    window: int = 10
    window_orientation: str = "trailing"  # or "forward"
    profile: AuProfile = PAIN_PROFILE
    au_source: str = "manual"  # or "predicted"
    feature_sets: frozenset[str] = frozenset(FEATURE_SETS)

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.window_orientation not in ("trailing", "forward"):
            raise ConfigError(
                f"unknown window orientation {self.window_orientation!r}"
            )
        if self.au_source not in ("manual", "predicted"):
            raise ConfigError(f"unknown AU source {self.au_source!r}")
        fs = frozenset(self.feature_sets)
        if not fs:
            raise ConfigError("at least one feature set must be enabled")
        unknown = fs - set(FEATURE_SETS)
        if unknown:
            raise ConfigError(f"unknown feature sets: {sorted(unknown)}")
        object.__setattr__(self, "feature_sets", fs)
        if self.au_source == "predicted" and 43 in self.profile.au_ids:
            raise ConfigError(
                "predicted AU source cannot score AU 43; "
                "use the pain_predicted profile"
            )

    def with_window(self, window: int) -> "TedConfig":
        return TedConfig(
            window=window,
            window_orientation=self.window_orientation,
            profile=self.profile,
            au_source=self.au_source,
            feature_sets=self.feature_sets,
        )


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
            if value is not None and not 0 <= value <= hi:
                raise ConfigError(f"{name} label {value} outside [0, {hi}]")

    def get(self, scale: str) -> Optional[int]:
        return getattr(self, scale.lower())


@dataclass
class SequenceRecord:
    """One video sequence: ordered frames plus optional labels."""

    subject_id: str
    sequence_id: str
    frames: list[FrameFeatures]
    pspi: Optional[list[float]] = None
    labels: Optional[SequenceLabels] = None
    gender: str = "unspecified"

    @property
    def key(self) -> tuple[str, str]:
        return (self.subject_id, self.sequence_id)


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
    base_dir: Path = Path(".")  # manifest file paths are relative to this

    def __post_init__(self):
        keys = [(e.subject_id, e.sequence_id) for e in self.entries]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ConfigError(f"duplicate (subject, sequence) entries: {dupes}")


@dataclass(frozen=True)
class Finding:
    """One validation problem; findings are reported, never raised."""

    field: str
    message: str
    frame_index: Optional[int] = None

    def __str__(self) -> str:
        where = f" (frame {self.frame_index})" if self.frame_index is not None else ""
        return f"{self.field}{where}: {self.message}"


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def validate_sequence(seq: SequenceRecord) -> list[Finding]:
    """Check all sequence invariants; returns an empty list iff they hold."""
    findings: list[Finding] = []
    if not seq.frames:
        findings.append(Finding("frames", "sequence has no frames"))
        return findings

    n_landmarks = len(seq.frames[0].landmarks)
    prev_index = None
    for frame in seq.frames:
        idx = frame.frame_index
        if prev_index is not None and idx <= prev_index:
            findings.append(
                Finding("frame_index", f"not strictly increasing after {prev_index}", idx)
            )
        prev_index = idx
        if len(frame.landmarks) != n_landmarks:
            findings.append(
                Finding(
                    "landmarks",
                    f"length {len(frame.landmarks)} != {n_landmarks} of frame "
                    f"{seq.frames[0].frame_index}",
                    idx,
                )
            )
        if frame.tracking_ok:
            flat = [c for point in frame.landmarks for c in point]
            flat += list(frame.head_translation) + list(frame.head_rotation)
            flat += list(frame.gaze_left) + list(frame.gaze_right)
            flat += [au.level for au in frame.au_intensities.values()]
            if not _finite(flat):
                findings.append(Finding("features", "non-finite value", idx))

    if seq.pspi is not None:
        if len(seq.pspi) != len(seq.frames):
            findings.append(
                Finding(
                    "pspi",
                    f"length {len(seq.pspi)} != frame count {len(seq.frames)}",
                )
            )
        for frame, value in zip(seq.frames, seq.pspi):
            if not (math.isfinite(value) and 0.0 <= value <= 16.0):
                findings.append(
                    Finding("pspi", f"value {value} outside [0, 16]", frame.frame_index)
                )
    return findings

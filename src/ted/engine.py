"""Per-frame expressiveness scoring.

The score of frame i combines a static action-unit term S with windowed
dynamics: Score_i = S_i * (1 + M_L * M_Ho * M_Hr * M_Gl * M_Gr * M_I), where
each M is the moving average of signed relative-change products for one
feature stream. Frame 1 is the reference frame and scores S_1.
"""

from __future__ import annotations

import csv
import io
import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ComputeError
from .model import (
    FEATURE_SETS,
    AuProfile,
    ScoredFrame,
    SequenceRecord,
    TedConfig,
)


def _static_scores(levels: np.ndarray) -> np.ndarray:
    """S per row of an (n, m) AU-level matrix: sum of e^level (exponential weighting)."""
    return np.exp(levels).sum(axis=1)


def _row_var(mat: np.ndarray) -> np.ndarray:
    """Unbiased variance of each row of a 2-d matrix, exactly 0 for a constant row: the
    float computation can miss by an ulp of the mean and poison the guarded ratio below."""
    var = mat.var(axis=1, ddof=1)
    var[mat.max(axis=1) == mat.min(axis=1)] = 0.0
    return var


def _relative_changes(mat: np.ndarray, step: np.ndarray) -> np.ndarray:
    """C_r between consecutive rows of an (n, d) feature matrix (length n-1);
    `step` is `np.diff(mat, axis=0)`.

    var(f_next - f_prev) / (var(f_prev) + var(f_next)) with unbiased sample
    variance over vector components, and 0 when both input variances vanish.
    """
    var = _row_var(mat)
    denom = var[:-1] + var[1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom == 0.0, 0.0, _row_var(step) / denom)


def _direction_signs(step: np.ndarray) -> np.ndarray:
    """D_s from the row differences `step` of a feature matrix: +1 where the summed
    displacement is >= 0, else -1."""
    return np.where(step.sum(axis=1) >= 0.0, 1.0, -1.0)


def static_score(au_levels: Sequence[float], profile: AuProfile) -> float:
    """Sum of e^level over the profile's action units (exponential weighting)."""
    if len(au_levels) != len(profile.au_ids):
        raise ComputeError(
            f"expected {len(profile.au_ids)} levels for profile "
            f"{profile.name!r}, got {len(au_levels)}"
        )
    for level in au_levels:
        if not 0.0 <= level <= 5.0:
            raise ComputeError(f"AU level {level} outside [0, 5]")
    return float(_static_scores(np.asarray([au_levels], dtype=float))[0])


def _vector_pair(f_prev, f_next) -> np.ndarray:
    a = np.asarray(f_prev, dtype=float)
    b = np.asarray(f_next, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ComputeError("feature vectors must be 1-d")
    if a.size != b.size:
        raise ComputeError(f"vector length mismatch: {a.size} vs {b.size}")
    return np.stack([a, b])


def relative_change(f_prev, f_next) -> float:
    """Variance-ratio change between consecutive feature vectors; always >= 0."""
    pair = _vector_pair(f_prev, f_next)
    if pair.shape[1] < 2:
        raise ComputeError("relative change needs vectors of length >= 2")
    return float(_relative_changes(pair, np.diff(pair, axis=0))[0])


def direction_sign(f_prev, f_next) -> int:
    """+1 if the summed element-wise displacement is >= 0, else -1."""
    return int(_direction_signs(np.diff(_vector_pair(f_prev, f_next), axis=0))[0])


class DynamicsState:
    """Streaming per-stream window over signed change products.

    Keeps the last `window` product values per feature set; the mean of the
    buffered values is the moving-average dynamics M. During warm-up the mean
    runs over however many values have arrived.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ComputeError(f"window must be >= 1, got {window}")
        self.window = window
        self._buffers: dict[str, deque[float]] = {
            fs: deque(maxlen=window) for fs in FEATURE_SETS
        }

    def push_product(self, feature_set: str, product: float) -> float:
        if not math.isfinite(product):
            raise ComputeError(f"non-finite product for {feature_set}")
        buf = self._buffers[feature_set]
        buf.append(product)
        return sum(buf) / len(buf)


def _window_sums(products: np.ndarray, window: int) -> np.ndarray:
    """The sum of every run of `window` consecutive products, in order; the runs
    are rows of one strided view, as `sliding_window_view` lays them out."""
    step = products.strides[0]
    runs = as_strided(products, (products.size - window + 1, window), (step, step),
                      writeable=False)
    return runs.sum(axis=1)


def _trailing_means(products: np.ndarray, window: int) -> np.ndarray:
    """M per frame (length len(products)+1, index 0 is the reference frame)."""
    m = products.size
    out = np.zeros(m + 1)
    k = min(window, m)
    out[1 : k + 1] = np.cumsum(products[:k]) / np.arange(1, k + 1)
    if m > window:
        sums = _window_sums(products, window)
        out[window + 1 :] = sums[1:] / window
    return out


@dataclass(frozen=True)
class SequenceScores:
    """Scored output of one sequence as per-frame columns."""

    frame_index: np.ndarray  # (n,) int
    static: np.ndarray  # (n,) S
    dynamics: np.ndarray  # (n, 6) M_* in FEATURE_SETS order; 0 for disabled streams and frame 1
    ted: np.ndarray  # (n,) score
    tracking_ok: np.ndarray  # (n,) bool


class SequenceDynamics:
    """Window-independent intermediates for one sequence.

    Precomputing the static scores and per-stream change products once lets a
    window sweep reuse them; only the moving averages depend on the window.
    """

    def __init__(self, seq: SequenceRecord, cfg: TedConfig):
        cols = seq.frames
        if not len(cols):
            raise ComputeError("no frames")
        self.frame_indices = cols.frame_index
        self.tracking_ok = cols.tracking_ok
        self.enabled = sorted(cfg.feature_sets, key=FEATURE_SETS.index)
        self.forward = cfg.window_orientation == "forward"

        levels = cols.stream("I", cfg.profile.au_ids)
        bad = (levels < 0.0) | (levels > 5.0) | ~np.isfinite(levels)
        if bad.any():
            frame = cols.frame_index[np.argwhere(bad)[0][0]]
            raise ComputeError(f"AU level outside [0, 5] at frame {frame}")
        self.static = _static_scores(levels)

        # Failed-tracking frames reuse the last valid frame's features for
        # dynamics so tracker garbage cannot spike the change measure.
        positions = np.arange(len(cols))
        eff = np.maximum.accumulate(np.where(self.tracking_ok, positions, 0))

        self.products: dict[str, np.ndarray] = {}
        for fs in self.enabled:
            mat = cols.stream(fs, cfg.profile.au_ids)[eff]
            if mat.shape[1] < 2:
                raise ComputeError(
                    f"feature set {fs} has {mat.shape[1]} component(s); "
                    "relative change needs at least 2"
                )
            if not np.isfinite(mat).all():
                frame = cols.frame_index[np.argwhere(~np.isfinite(mat))[0][0]]
                raise ComputeError(f"non-finite {fs} feature at frame {frame}")
            step = np.diff(mat, axis=0)
            self.products[fs] = _direction_signs(step) * _relative_changes(mat, step)

    def scores(self, window: int) -> SequenceScores:
        """The moving averages of the enabled streams at `window`, and the scores."""
        dynamics = np.zeros((len(self.static), len(FEATURE_SETS)))
        prod = np.ones(len(self.static))
        for fs in self.enabled:
            if self.forward:  # the trailing means of the reversed products, read back
                means = _trailing_means(self.products[fs][::-1], window)
                means[1:] = means[:0:-1]
            else:
                means = _trailing_means(self.products[fs], window)
            dynamics[1:, FEATURE_SETS.index(fs)] = means[1:]
            prod *= means
        prod[0] = 0.0  # reference frame has no dynamics
        return SequenceScores(
            frame_index=self.frame_indices,
            static=self.static,
            dynamics=dynamics,
            ted=self.static * (1.0 + prod),
            tracking_ok=self.tracking_ok,
        )


def score_sequence(seq: SequenceRecord, cfg: TedConfig) -> list[ScoredFrame]:
    """Per-frame view of one sequence's scores; output length equals input length."""
    s = SequenceDynamics(seq, cfg).scores(cfg.window)
    return [
        ScoredFrame(
            frame_index=frame,
            static_score=static,
            dynamics=dict(zip(FEATURE_SETS, dynamics)),
            ted_score=ted,
            tracking_ok=ok,
        )
        for frame, static, dynamics, ted, ok in zip(
            s.frame_index.tolist(), s.static.tolist(), s.dynamics.tolist(), s.ted.tolist(),
            s.tracking_ok.tolist(),
        )
    ]


def dataset_dynamics(
    records: Sequence[SequenceRecord], cfg: TedConfig
) -> dict[tuple[str, str], SequenceDynamics]:
    """Dynamics of every sequence in key order; one ComputeError names each that fails."""
    dynamics: dict[tuple[str, str], SequenceDynamics] = {}
    failures: list[str] = []
    for rec in sorted(records, key=lambda r: r.key):
        try:
            dynamics[rec.key] = SequenceDynamics(rec, cfg)
        except ComputeError as exc:
            failures.append(f"sequence {rec.subject_id}/{rec.sequence_id}: {exc}")
    if failures:
        raise ComputeError("; ".join(failures))
    return dynamics


def score_dataset(
    records: Sequence[SequenceRecord], cfg: TedConfig
) -> dict[tuple[str, str], SequenceScores]:
    """Score arrays of every sequence, in key order."""
    return {key: dyn.scores(cfg.window) for key, dyn in dataset_dynamics(records, cfg).items()}


# the dynamics columns follow SequenceScores.dynamics, in FEATURE_SETS order
_CSV_COLUMNS = ("subject", "sequence", "frame", "S", *(f"M_{fs}" for fs in FEATURE_SETS),
                "ted_score", "tracking_ok")


def write_scores_csv(results: dict[tuple[str, str], SequenceScores], path) -> None:
    """Deterministic scored-output CSV: sequences in (subject, sequence) order, each
    sequence's frames in file order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(_CSV_COLUMNS)
        for key in sorted(results):
            ids = io.StringIO()  # through the csv writer, so ids that need quotes get them
            csv.writer(ids).writerow(key)
            row = ids.getvalue()[:-2].replace("%", "%%") + ",%d" + ",%.17g" * 8 + ",%d\r\n"
            s = results[key]
            columns = (s.frame_index, s.static, *s.dynamics.T, s.ted, s.tracking_ok)
            fh.write("".join(map(row.__mod__, zip(*(c.tolist() for c in columns)))))

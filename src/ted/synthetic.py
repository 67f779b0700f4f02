"""Synthetic dataset generators for tests, demos and benchmarks.

Sequences carry short expressiveness bursts (about half a second at 20 fps)
with a planted frame-level pain signal, so scored output should correlate
with the planted signal and reward mid-size dynamics windows.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .ingestion import FeatureCsvSchema
from .model import FrameColumns, PAIN_PROFILE, SequenceLabels, SequenceRecord


def burst_envelope(n_frames: int, rng: np.random.Generator) -> np.ndarray:
    """Sum of 3-7 bursts (3-frame attack, 5-frame decay constant), clipped to [0, 1]."""
    env = np.zeros(n_frames)
    t = np.arange(n_frames, dtype=float)
    for _ in range(int(rng.integers(3, 8))):
        center = float(rng.uniform(10, n_frames - 10))
        amp = float(rng.uniform(0.4, 1.0))
        rise = np.clip((t - (center - 3)) / 3, 0.0, 1.0)
        fall = np.where(t > center, np.exp(-(t - center) / 5.0), 1.0)
        env += amp * rise * fall
    return np.clip(env, 0.0, 1.0)


def _motion_stream(rng: np.random.Generator, env: np.ndarray, dim: int) -> np.ndarray:
    """Feature stream with burst-synchronized vigorous, upward-drifting motion.

    Outside bursts the stream jitters mildly with no preferred direction;
    inside bursts the per-frame motion magnitude is large but turbulent
    (frame-to-frame variability), and a shared positive drift makes the
    summed displacement reliably positive whatever the dimensionality.
    """
    n = env.size
    turb = np.exp(rng.normal(0.0, 1.0, n))
    sigma = 0.7 + 2.3 * env * turb
    base = rng.normal(0.0, 1.0, dim)
    noise = rng.normal(0.0, 1.0, (n, dim)) * sigma[:, None]
    ramp = np.cumsum(env * sigma * 3.0 * np.sqrt(2.0 / dim))
    return base[None, :] + noise + ramp[:, None]


def _sequence(subject, q, geometry, levels, pspi, labels, gender) -> SequenceRecord:
    """Sequence q (from 0) of a subject: frames numbered from 1, all tracked, pain-profile AUs."""
    n_frames = len(geometry)
    frames = FrameColumns(
        frame_index=np.arange(1, n_frames + 1),
        tracking_ok=np.ones(n_frames, dtype=bool),
        geometry=geometry,
        au_ids=PAIN_PROFILE.au_ids,
        au_levels=levels,
    )
    return SequenceRecord(subject, f"{q + 1:02d}", frames, pspi, labels, gender)


def make_correlated_dataset(
    n_subjects: int = 25,
    n_sequences: int = 8,
    n_frames: int = 300,
    seed: int = 20260823,
    n_landmarks: int = 17,
) -> list[SequenceRecord]:
    """Dataset whose planted pain signal tracks the burst envelope.

    The planted pain intensity is a short trailing average of the burst
    envelope (half a second at 20 fps), so dynamics windows near that span
    recover it best; AU levels follow the same averaged signal with noise.
    """
    rng = np.random.default_rng(seed)
    records = []
    kernel = np.ones(10) / 10
    for s in range(n_subjects):
        subject = f"S{s + 1:03d}"
        gender = "female" if s % 2 == 0 else "male"
        au_weights = rng.uniform(0.5, 1.0, len(PAIN_PROFILE.au_ids))
        # distinct resting levels keep the AU stream's neutral jitter small
        au_base = 0.15 * np.arange(len(PAIN_PROFILE.au_ids))
        for q in range(n_sequences):
            env = burst_envelope(n_frames, rng)
            env_recent = np.convolve(env, kernel)[:n_frames]
            pspi = np.clip(16.0 * env_recent, 0.0, 16.0)
            levels = np.clip(
                au_base[None, :]
                + au_weights[None, :] * env_recent[:, None] * 2.5
                + rng.normal(0.0, 0.3, (n_frames, len(au_weights))),
                0.0,
                5.0,
            )
            # the L, Ho, Hr, Gl and Gr streams, drawn in that order
            geometry = np.concatenate(
                [_motion_stream(rng, env, d) for d in (2 * n_landmarks, 3, 3, 3, 3)], axis=1
            )
            peak = float(env.max())
            labels = SequenceLabels(
                vas=min(10, int(round(peak * 10))),
                opi=min(5, int(round(peak * 5))),
            )
            records.append(_sequence(subject, q, geometry, levels, pspi, labels, gender))
    return records


def make_separable_dataset(
    n_subjects: int = 8,
    n_sequences: int = 2,
    n_frames: int = 120,
    seed: int = 7,
    n_landmarks: int = 5,
) -> list[SequenceRecord]:
    """Pain frames are separable on AU4 (level >= 3) with noisy other AUs."""
    rng = np.random.default_rng(seed)
    records = []
    for s in range(n_subjects):
        subject = f"P{s + 1:03d}"
        for q in range(n_sequences):
            pain = rng.random(n_frames) < 0.35
            au4 = np.where(
                pain, rng.uniform(3.1, 5.0, n_frames), rng.uniform(0.0, 2.4, n_frames)
            )
            pspi = np.where(pain, rng.uniform(1.0, 12.0, n_frames), 0.0)
            levels = np.zeros((n_frames, len(PAIN_PROFILE.au_ids)))
            levels[:, 0] = au4  # AU 4 leads the sorted profile
            landmarks = np.empty((n_frames, n_landmarks, 2))
            vectors = np.empty((4, n_frames, 3))
            # one frame's draws at a time, in the order that fixes the random stream
            for t in range(n_frames):
                levels[t, 1:] = rng.uniform(0.0, 2.0, levels.shape[1] - 1)
                landmarks[t] = rng.normal(0.0, 1.0, (n_landmarks, 2))
                for v, scale in enumerate((1.0, 0.1, 0.2, 0.2)):
                    vectors[v, t] = rng.normal(0.0, scale, 3)
            # x coordinates, then y coordinates, then the four 3-vectors
            geometry = np.concatenate(
                [landmarks.transpose(0, 2, 1).reshape(n_frames, 2 * n_landmarks), *vectors],
                axis=1,
            )
            gender = "female" if s % 2 == 0 else "male"
            records.append(
                _sequence(subject, q, geometry, levels, pspi, SequenceLabels(vas=5, opi=3), gender)
            )
    return records


def write_dataset(records: Sequence[SequenceRecord], out_dir) -> Path:
    """Write records as feature CSVs, PSPI and manual-AU files plus a manifest.

    Returns the manifest path. Manual AU files hold the rounded intensity of
    each pain-profile AU so both AU source modes are exercisable.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for rec in records:
        stem = f"{rec.subject_id}_{rec.sequence_id}"
        cols = rec.frames
        au_ids = sorted(cols.au_ids)
        levels = cols.stream("I", au_ids)
        # the default schema's column order: the geometry's, then the AU levels
        values = np.concatenate([cols.geometry, levels], axis=1)
        frame_index = cols.frame_index.tolist()

        # one format per row writes what csv.writer writes for these cells (no cell needs
        # quotes, and %.17g is format(v, ".17g"))
        feature_file = f"{stem}_features.csv"
        row = "%d,%d" + ",%.17g" * values.shape[1] + "\r\n"
        with open(out_dir / feature_file, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(
                FeatureCsvSchema.default(cols.stream("L").shape[1] // 2, au_ids).bound_columns()
            )
            fh.write("".join(
                row % (frame, ok, *vals)
                for frame, ok, vals in zip(frame_index, cols.tracking_ok.tolist(), values.tolist())
            ))

        manual_file = f"{stem}_manual_aus.csv"
        with open(out_dir / manual_file, "w", newline="", encoding="utf-8") as fh:
            fh.write("frame,au,level\r\n")
            fh.write("".join(
                "%d,%d,%d\r\n" % (frame, au, level)
                for frame, row in zip(frame_index, np.rint(levels).astype(int).tolist())
                for au, level in zip(au_ids, row)
            ))

        # the entry load_manifest reads, with only the fields this record sets
        entry = {"subject_id": rec.subject_id, "sequence_id": rec.sequence_id,
                 "feature_file": feature_file, "manual_au_file": manual_file}
        if rec.pspi is not None:
            entry["pspi_file"] = f"{stem}_pspi.csv"
            with open(out_dir / entry["pspi_file"], "w", encoding="utf-8") as fh:
                fh.write("pspi\n" + "".join(map("%.17g\n".__mod__, rec.pspi.tolist())))
        if rec.labels is not None:
            entry["labels"] = {k: v for k, v in vars(rec.labels).items() if v is not None}
        if rec.gender != "unspecified":
            entry["gender"] = rec.gender
        entries.append(entry)

    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump({"entries": entries}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path

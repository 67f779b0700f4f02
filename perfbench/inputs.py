"""Seeded synthetic inputs for the benchmark, written as tracker-export files.

The generator draws exactly what the package's `correlated` preset draws
(`ted.synthetic.make_correlated_dataset`, same random stream, same order) but
keeps every sequence as numpy arrays instead of per-frame objects, so a
60k-frame dataset is generated and written in a few seconds. Owning the
generator keeps the inputs fixed while the package's own types change.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The pain profile's action units; the correlated preset plants these.
PAIN_AUS = (4, 6, 9, 10, 25, 43)
FPS = 20.0


@dataclass
class Sequence:
    subject_id: str
    sequence_id: str
    gender: str
    features: np.ndarray  # (frames, 2*landmarks + 12): x.., y.., Ho, Hr, Gl, Gr
    au_levels: np.ndarray  # (frames, len(PAIN_AUS)), in [0, 5]
    pspi: np.ndarray  # (frames,), in [0, 16]
    vas: int
    opi: int

    @property
    def stem(self) -> str:
        return f"{self.subject_id}_{self.sequence_id}"

    @property
    def n_landmarks(self) -> int:
        return (self.features.shape[1] - 12) // 2

    def manual_levels(self) -> np.ndarray:
        """AU levels as the manual-AU file stores them: rounded half to even."""
        return np.rint(self.au_levels)


def _burst_envelope(n_frames, rng, attack=3, decay=5.0):
    env = np.zeros(n_frames)
    t = np.arange(n_frames, dtype=float)
    for _ in range(int(rng.integers(3, 8))):
        center = float(rng.uniform(10, n_frames - 10))
        amp = float(rng.uniform(0.4, 1.0))
        rise = np.clip((t - (center - attack)) / attack, 0.0, 1.0)
        fall = np.where(t > center, np.exp(-(t - center) / decay), 1.0)
        env += amp * rise * fall
    return np.clip(env, 0.0, 1.0)


def _motion_stream(rng, env, dim, sigma_small=0.7, sigma_big=2.3, turbulence=1.0):
    n = env.size
    turb = np.exp(rng.normal(0.0, turbulence, n))
    sigma = sigma_small + sigma_big * env * turb
    base = rng.normal(0.0, 1.0, dim)
    noise = rng.normal(0.0, 1.0, (n, dim)) * sigma[:, None]
    ramp = np.cumsum(env * sigma * 3.0 * np.sqrt(2.0 / dim))
    return base[None, :] + noise + ramp[:, None]


def correlated(
    seed: int,
    n_subjects: int,
    n_sequences: int,
    n_frames: int,
    n_landmarks: int = 17,
    au_scale: float = 2.5,
    au_noise: float = 0.3,
    pspi_window: int = 10,
) -> list[Sequence]:
    """Bursty sequences whose planted PSPI is a short average of the bursts."""
    if n_frames <= 20:
        raise ValueError("the burst generator needs more than 20 frames")
    rng = np.random.default_rng(seed)
    kernel = np.ones(pspi_window) / pspi_window
    out = []
    for s in range(n_subjects):
        au_weights = rng.uniform(0.5, 1.0, len(PAIN_AUS))
        au_base = 0.15 * np.arange(len(PAIN_AUS))
        for q in range(n_sequences):
            env = _burst_envelope(n_frames, rng)
            env_recent = np.convolve(env, kernel)[:n_frames]
            levels = np.clip(
                au_base[None, :]
                + au_weights[None, :] * env_recent[:, None] * au_scale
                + rng.normal(0.0, au_noise, (n_frames, len(PAIN_AUS))),
                0.0,
                5.0,
            )
            streams = [_motion_stream(rng, env, 2 * n_landmarks)]
            streams += [_motion_stream(rng, env, 3) for _ in range(4)]
            peak = float(env.max())
            out.append(
                Sequence(
                    subject_id=f"S{s + 1:03d}",
                    sequence_id=f"{q + 1:02d}",
                    gender="female" if s % 2 == 0 else "male",
                    features=np.concatenate(streams, axis=1),
                    au_levels=levels,
                    pspi=np.clip(16.0 * env_recent, 0.0, 16.0),
                    vas=min(10, int(round(peak * 10))),
                    opi=min(5, int(round(peak * 5))),
                )
            )
    return out


def _feature_header(n_landmarks: int) -> list[str]:
    cols = [f"x_{i}" for i in range(n_landmarks)]
    cols += [f"y_{i}" for i in range(n_landmarks)]
    cols += ["pose_Tx", "pose_Ty", "pose_Tz", "pose_Rx", "pose_Ry", "pose_Rz"]
    cols += ["gaze_0_x", "gaze_0_y", "gaze_0_z", "gaze_1_x", "gaze_1_y", "gaze_1_z"]
    return cols + [f"AU{au:02d}_r" for au in PAIN_AUS]


def _write_durably(path: Path, text: str) -> None:
    # On disk before any timing starts, so that writeback of the inputs
    # cannot overlap a timed run.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def _write_features(seq: Sequence, path: Path, tracker_shape: bool) -> None:
    # repr() is the shortest string that parses back to the same double.
    values = np.concatenate([seq.features, seq.au_levels], axis=1).tolist()
    au_cols = _feature_header(seq.n_landmarks)
    if tracker_shape:
        # A real tracker export: ", " separators and columns no schema binds.
        header = ["frame", "face_id", "timestamp", "confidence", "success"] + au_cols
        header += [f"AU{au:02d}_c" for au in PAIN_AUS]
        lines = [", ".join(header)]
        for t, (row, levels) in enumerate(zip(values, seq.au_levels.tolist())):
            lead = f"{t + 1}, 0, {t / FPS!r}, 0.98, 1, "
            present = ", ".join("1" if v >= 1.0 else "0" for v in levels)
            lines.append(lead + ", ".join(map(repr, row)) + ", " + present)
    else:
        lines = [",".join(["frame", "success"] + au_cols)]
        for t, row in enumerate(values):
            lines.append(f"{t + 1},1," + ",".join(map(repr, row)))
    _write_durably(path, "\n".join(lines) + "\n")


def write(
    sequences: list[Sequence], out_dir: Path, manual_aus: bool, tracker_shape: bool
) -> Path:
    """Write feature, PSPI and (optionally) manual-AU files; return the manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for seq in sequences:
        entry = {
            "subject_id": seq.subject_id,
            "sequence_id": seq.sequence_id,
            "feature_file": f"{seq.stem}_features.csv",
            "pspi_file": f"{seq.stem}_pspi.csv",
            "labels": {"vas": seq.vas, "opi": seq.opi},
            "gender": seq.gender,
        }
        _write_features(seq, out_dir / entry["feature_file"], tracker_shape)
        pspi = "\n".join(map(repr, seq.pspi.tolist()))
        _write_durably(out_dir / entry["pspi_file"], f"pspi\n{pspi}\n")
        if manual_aus:
            entry["manual_au_file"] = f"{seq.stem}_manual_aus.csv"
            lines = ["frame,au,level"]
            for t, row in enumerate(seq.manual_levels().tolist()):
                lines += [f"{t + 1},{au},{int(v)}" for au, v in zip(PAIN_AUS, row)]
            _write_durably(out_dir / entry["manual_au_file"], "\n".join(lines) + "\n")
        entries.append(entry)
    manifest = out_dir / "manifest.json"
    _write_durably(
        manifest, json.dumps({"entries": entries}, indent=2, sort_keys=True) + "\n"
    )
    return manifest

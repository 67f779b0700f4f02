"""Output checks for each workload; each returns (problems, quality).

The checks read only the CLI's result files and the generator's in-memory
sequences. The score oracle is `naive_score_sequence` from `tests/naive.py`,
fed with plain objects built from the generated arrays, so it shares no code
with the package's ingestion or engine.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from inputs import PAIN_AUS, Sequence

FEATURE_SETS = ("L", "Ho", "Hr", "Gl", "Gr", "I")
SWEEP_WINDOWS = [3, 5, 10, 20, 40, 60, 75]
ORACLE_RTOL = 1e-9


def output_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every result file; run_metadata.json without its timestamp."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "run_metadata.json":
            meta = json.loads(data)
            meta.pop("timestamp", None)
            data = json.dumps(meta, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def _load_naive(root: Path):
    spec = importlib.util.spec_from_file_location("naive", root / "tests" / "naive.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _OracleFrame:
    """The frame attributes the naive oracle reads, from one feature row."""

    def __init__(self, index: int, row: list[float], n_landmarks: int, levels):
        n = n_landmarks
        self.frame_index = index
        self.tracking_ok = True
        self.landmarks = list(zip(row[:n], row[n : 2 * n]))
        self.head_translation = row[2 * n : 2 * n + 3]
        self.head_rotation = row[2 * n + 3 : 2 * n + 6]
        self.gaze_left = row[2 * n + 6 : 2 * n + 9]
        self.gaze_right = row[2 * n + 9 : 2 * n + 12]
        self._levels = dict(zip(PAIN_AUS, levels))

    def au_level(self, au: int) -> float:
        return self._levels.get(au, 0.0)


def _oracle_scores(naive, seq: Sequence, window: int) -> list[float]:
    frames = [
        _OracleFrame(t + 1, row, seq.n_landmarks, levels)
        for t, (row, levels) in enumerate(
            zip(seq.features.tolist(), seq.manual_levels().tolist())
        )
    ]
    cfg = SimpleNamespace(
        profile=SimpleNamespace(au_ids=PAIN_AUS),
        feature_sets=FEATURE_SETS,
        window=window,
    )
    return naive.naive_score_sequence(SimpleNamespace(frames=frames), cfg)


def _subject_mean_pcc(series: dict[str, tuple[list[float], list[float]]]) -> float:
    return float(
        np.mean([np.corrcoef(ted, pspi)[0, 1] for ted, pspi in series.values()])
    )


def check_scores(out_dir: Path, sequences: list[Sequence], root: Path, window=10):
    """One row per frame in key order; one sequence per subject (a different
    sequence index for each) matches the naive oracle."""
    problems: list[str] = []
    path = out_dir / "scores.csv"
    if not path.exists():
        return ["scores.csv missing"], None
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    expected = [
        (seq.subject_id, seq.sequence_id, str(t + 1))
        for seq in sequences
        for t in range(seq.features.shape[0])
    ]
    keys = [(r["subject"], r["sequence"], r["frame"]) for r in rows]
    if keys != expected:
        return [f"scores.csv has {len(rows)} rows, not the {len(expected)} frames"], None
    ted = np.array([float(r["ted_score"]) for r in rows])

    naive = _load_naive(root)
    offsets = np.cumsum([0] + [seq.features.shape[0] for seq in sequences])
    by_subject: dict[str, list[int]] = {}
    for i, seq in enumerate(sequences):
        by_subject.setdefault(seq.subject_id, []).append(i)
    for n, indices in enumerate(by_subject.values()):
        i = indices[n % len(indices)]
        seq = sequences[i]
        got = ted[offsets[i] : offsets[i + 1]]
        want = np.array(_oracle_scores(naive, seq, window))
        worst = float(np.max(np.abs(got - want) / np.abs(want)))
        if not worst <= ORACLE_RTOL:
            problems.append(
                f"{seq.stem}: ted_score differs from the naive oracle by {worst:.3g}"
            )

    series: dict[str, tuple[list[float], list[float]]] = {}
    for seq, lo, hi in zip(sequences, offsets[:-1], offsets[1:]):
        ts, ps = series.setdefault(seq.subject_id, ([], []))
        ts.extend(ted[lo:hi])
        ps.extend(seq.pspi)
    return problems, _subject_mean_pcc(series)


def check_sweep(out_dir: Path, sequences: list[Sequence], min_pcc: float):
    """Every default window has one correlation per subject, each mean >= min."""
    path = out_dir / "ablation.json"
    if not path.exists():
        return ["ablation.json missing"], None
    report = json.loads(path.read_text(encoding="utf-8"))
    subjects = sorted({seq.subject_id for seq in sequences})
    windows = report.get("windows", [])
    problems = []
    if [w["window"] for w in windows] != SWEEP_WINDOWS:
        return [f"ablation.json windows {[w['window'] for w in windows]}"], None
    for w in windows:
        got = [s["subject_id"] for s in w["subjects"]]
        if got != subjects:
            problems.append(f"window {w['window']}: subjects {got}")
        if not w["mean_pcc"] >= min_pcc:
            problems.append(f"window {w['window']}: mean PCC {w['mean_pcc']:.4f}")
    best = [w for w in windows if w["window"] == report.get("best_window")]
    if not best:
        return problems + ["ablation.json names no swept best window"], None
    return problems, float(best[0]["mean_pcc"])


def check_interpret(out_dir: Path, sequences: list[Sequence], min_f1: float):
    """One prediction per frame and a LOSO mean F1 of at least `min_f1`."""
    problems = []
    pred_path, report_path = out_dir / "predictions.csv", out_dir / "interpret.json"
    if not pred_path.exists() or not report_path.exists():
        return ["predictions.csv or interpret.json missing"], None
    with open(pred_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    expected = sorted(
        (seq.subject_id, seq.sequence_id, t + 1)
        for seq in sequences
        for t in range(seq.features.shape[0])
    )
    if [(r["subject"], r["sequence"], int(r["frame"])) for r in rows] != expected:
        problems.append(f"predictions.csv has {len(rows)} rows, not one per frame")
    for r in rows:
        conf = float(r["confidence_pain"])
        if not 0.0 <= conf <= 1.0 or r["predicted"] != (
            "pain" if conf >= 0.5 else "neutral"
        ):
            problems.append(f"prediction row {r} is inconsistent")
            break
    report = json.loads(report_path.read_text(encoding="utf-8"))
    subjects = sorted({seq.subject_id for seq in sequences})
    if sorted(report["per_subject_f1"]) != subjects:
        problems.append("interpret.json lacks a LOSO fold per subject")
    mean_f1 = float(report["mean_f1"])
    if not mean_f1 >= min_f1:
        problems.append(f"mean F1 {mean_f1:.4f} below {min_f1}")
    return problems, mean_f1

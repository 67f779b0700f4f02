"""Classifier expectation and interpretation against expressiveness scores.

Trains the pain/neutral forest on manually coded AU intensities, validates it
leave-one-subject-out with per-subject F1, partitions predictions into the
four outcome scenarios, and checks the agreement expectation: classifier
confidence should rise and fall with the expressiveness score.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .analytics import pearson
from .errors import ComputeError, ParseError
from .forest import ForestHyperparams, RandomForest
from .ingestion import csv_errors, read_input
from .model import AuProfile, PAIN_PROFILE, SequenceRecord

FrameKey = tuple[str, str, int]

SCENARIOS = ("TP", "TN", "type1", "type2")

CONFIDENCE_THRESHOLD = 0.5


@dataclass(frozen=True)
class Prediction:
    key: FrameKey
    confidence_pain: float
    label_pain: Optional[bool] = None

    @property
    def predicted_pain(self) -> bool:
        return self.confidence_pain >= CONFIDENCE_THRESHOLD

    @property
    def scenario(self) -> str:
        if self.label_pain is None:
            raise ComputeError(f"prediction {self.key} has no ground truth")
        if self.label_pain:
            return "TP" if self.predicted_pain else "type2"
        return "type1" if self.predicted_pain else "TN"


@dataclass
class FrameTable:
    """Feature matrix of profile AU intensities plus pain labels per frame."""

    keys: list[FrameKey]  # (subject, sequence, frame) per row
    X: np.ndarray
    y: np.ndarray  # 1 = pain


def build_frame_table(
    records: Sequence[SequenceRecord],
    profile: AuProfile = PAIN_PROFILE,
    pspi_threshold: float = 0.0,
) -> FrameTable:
    """Label each frame pain iff its PSPI exceeds the threshold."""
    records = sorted(records, key=lambda r: r.key)
    pspi = [rec.pspi_array() for rec in records]
    keys: list[FrameKey] = [
        (rec.subject_id, rec.sequence_id, frame)
        for rec in records
        for frame in rec.frames.frame_index.tolist()
    ]
    if not keys:
        raise ComputeError("no labeled frames")
    return FrameTable(
        keys=keys,
        X=np.concatenate([rec.frames.stream("I", profile.au_ids) for rec in records]),
        y=(np.concatenate(pspi) > pspi_threshold).astype(int),
    )


def f1_pain(labels: np.ndarray, predicted: np.ndarray) -> float:
    """F1 for the positive class; 0 when there are no true or predicted pains."""
    tp = int(((labels == 1) & (predicted == 1)).sum())
    fp = int(((labels == 0) & (predicted == 1)).sum())
    fn = int(((labels == 1) & (predicted == 0)).sum())
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


@dataclass
class LosoResult:
    per_subject_f1: dict[str, float]  # folds that ran
    mean_f1: float
    predictions: list[Prediction]
    findings: list[str]


def loso_validate(
    table: FrameTable,
    hyperparams: Optional[ForestHyperparams] = None,
    seed: int = 0,
) -> LosoResult:
    """Hold out each subject in turn, training on all others.

    A fold whose training set has a single class is skipped with a finding,
    and `mean_f1` covers the folds that ran.
    """
    subject_arr = np.array([key[0] for key in table.keys])
    subjects = sorted(set(subject_arr.tolist()))
    if len(subjects) < 2:
        raise ComputeError("leave-one-subject-out needs at least 2 subjects")
    per_subject_f1: dict[str, float] = {}
    predictions: list[Prediction] = []
    findings: list[str] = []
    for subject in subjects:
        held = subject_arr == subject
        if np.unique(table.y[~held]).size < 2:
            findings.append(f"subject {subject}: training set has a single class; fold skipped")
            continue
        forest = RandomForest(hyperparams, seed).fit(table.X[~held], table.y[~held])
        conf = forest.predict_confidences(table.X[held])
        labels = table.y[held]
        per_subject_f1[subject] = f1_pain(labels, (conf >= CONFIDENCE_THRESHOLD).astype(int))
        predictions += [
            Prediction(key=table.keys[idx], confidence_pain=float(c), label_pain=bool(label))
            for idx, c, label in zip(np.nonzero(held)[0], conf, labels)
        ]
    if not per_subject_f1:
        raise ComputeError("every LOSO training set has a single class; no fold ran")
    if findings:
        findings.append(f"mean F1 covers {len(per_subject_f1)} of {len(subjects)} folds")
    predictions.sort(key=lambda p: p.key)
    return LosoResult(
        per_subject_f1=per_subject_f1,
        mean_f1=sum(per_subject_f1.values()) / len(per_subject_f1),
        predictions=predictions,
        findings=findings,
    )


def join_labels(table: FrameTable, predictions: Sequence[Prediction]) -> list[Prediction]:
    """External predictions with their ground truth taken from the frame table."""
    label_by_key = {k: bool(v) for k, v in zip(table.keys, table.y)}
    joined = []
    for pred in predictions:
        if pred.key not in label_by_key:
            raise ComputeError(f"external prediction {pred.key} not in dataset")
        joined.append(replace(pred, label_pain=label_by_key[pred.key]))
    return joined


def scenario_partition(
    predictions: Sequence[Prediction],
) -> dict[str, list[Prediction]]:
    """Exhaustive, disjoint split into TP / TN / type1 / type2."""
    buckets: dict[str, list[Prediction]] = {s: [] for s in SCENARIOS}
    for pred in predictions:
        buckets[pred.scenario].append(pred)
    return buckets


@dataclass(frozen=True)
class AgreementThresholds:
    """Reference points for flagging score/confidence disagreement.

    A frame is flagged when its expressiveness score is at or above
    `ted_high` while confidence is at or below `conf_low`, or when the score
    is at or below `ted_low` while confidence is at or above `conf_high`.
    """

    ted_high: float = 100.0
    conf_low: float = 0.1
    ted_low: float = 10.0
    conf_high: float = 0.9


@dataclass(frozen=True)
class DisagreementFlag:
    key: FrameKey
    ted_score: float
    confidence_pain: float
    scenario: str
    reason: str

    def to_dict(self) -> dict:
        return {
            "subject": self.key[0],
            "sequence": self.key[1],
            "frame": self.key[2],
            "ted_score": self.ted_score,
            "confidence_pain": self.confidence_pain,
            "scenario": self.scenario,
            "reason": self.reason,
        }


@dataclass
class AgreementResult:
    scenario_counts: dict[str, int]
    scenario_correlation: dict[str, float]
    flags: list[DisagreementFlag]
    findings: list[str]


def agreement_analysis(
    predictions: Sequence[Prediction],
    ted_by_key: Mapping[FrameKey, float],
    thresholds: Optional[AgreementThresholds] = None,
) -> AgreementResult:
    """Correlate score with confidence per scenario and flag disagreements."""
    thresholds = thresholds or AgreementThresholds()
    for pred in predictions:
        if pred.key not in ted_by_key:
            raise ComputeError(f"prediction {pred.key} has no expressiveness score")

    buckets = scenario_partition(predictions)
    correlations: dict[str, float] = {}
    findings: list[str] = []
    for scenario in SCENARIOS:
        preds = buckets[scenario]
        if not preds:
            findings.append(f"scenario {scenario} is empty; omitted")
            continue
        ted = [ted_by_key[p.key] for p in preds]
        conf = [p.confidence_pain for p in preds]
        try:
            correlations[scenario] = pearson(ted, conf)
        except ComputeError as exc:
            findings.append(f"scenario {scenario}: {exc}")

    flags: list[DisagreementFlag] = []
    for pred in sorted(predictions, key=lambda p: p.key):
        ted = ted_by_key[pred.key]
        reason = None
        if ted >= thresholds.ted_high and pred.confidence_pain <= thresholds.conf_low:
            reason = "high score, low confidence"
        elif ted <= thresholds.ted_low and pred.confidence_pain >= thresholds.conf_high:
            reason = "low score, high confidence"
        if reason is not None:
            flags.append(
                DisagreementFlag(pred.key, ted, pred.confidence_pain, pred.scenario, reason)
            )
    return AgreementResult(
        scenario_counts={s: len(buckets[s]) for s in SCENARIOS},
        scenario_correlation=correlations,
        flags=flags,
        findings=findings,
    )


def write_predictions_csv(predictions: Sequence[Prediction], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject", "sequence", "frame", "confidence_pain", "predicted"])
        for pred in sorted(predictions, key=lambda p: p.key):
            writer.writerow(
                [
                    pred.key[0],
                    pred.key[1],
                    pred.key[2],
                    format(pred.confidence_pain, ".17g"),
                    "pain" if pred.predicted_pain else "neutral",
                ]
            )


def read_predictions_csv(path, digests: Optional[dict[str, str]] = None) -> list[Prediction]:
    predictions = []
    first_line: dict[FrameKey, int] = {}
    with read_input(path, digests, newline="") as fh:
        reader = csv.DictReader(fh)
        with csv_errors(path, reader.reader) as lines:
            required = {"subject", "sequence", "frame", "confidence_pain"}
            if reader.fieldnames is None or not required <= set(reader.fieldnames):
                raise ParseError(f"{path}: predictions CSV needs columns {sorted(required)}")
            for row in reader:
                line = lines.line_num
                try:
                    confidence = float(row["confidence_pain"])
                except (TypeError, ValueError):
                    raise ParseError(f"{path}: bad confidence on line {line}") from None
                if not 0.0 <= confidence <= 1.0:
                    raise ParseError(f"{path}: confidence outside [0, 1] on line {line}")
                try:
                    frame = int(row["frame"])
                except (TypeError, ValueError):
                    raise ParseError(
                        f"{path}: frame {row['frame']!r} on line {line} is not an integer"
                    ) from None
                key = (row["subject"], row["sequence"], frame)
                first = first_line.setdefault(key, line)
                if first != line:
                    raise ParseError(f"{path}: line {line} repeats frame {key} of line {first}")
                predictions.append(Prediction(key=key, confidence_pain=confidence))
    return predictions

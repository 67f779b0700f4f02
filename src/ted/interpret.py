"""Classifier expectation and interpretation against expressiveness scores.

Trains the pain/neutral forest on the profile AU intensities that were loaded
(manual codings or tracker predictions, as `--au-source` chose), validates it
leave-one-subject-out with per-subject F1, partitions predictions into the
four outcome scenarios, and checks the agreement expectation: classifier
confidence should rise and fall with the expressiveness score.

Predictions travel as columns (`Predictions`). The per-frame `Prediction`,
`scenario_partition` and the list-and-dict form of `agreement_analysis` are
adapters for the acceptance tests; no command calls them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .analytics import pearson
from .errors import ComputeError, ParseError
from .forest import ForestHyperparams, RandomForest
from .ingestion import read_input, read_table
from .model import AuProfile, PAIN_PROFILE, SequenceRecord

FrameKey = tuple[str, str, int]

SCENARIOS = ("TP", "TN", "type1", "type2")

CONFIDENCE_THRESHOLD = 0.5


class Predictions(NamedTuple):
    """Classifier output as aligned columns; row i is frame keys[i]."""

    keys: list[FrameKey]
    confidence: np.ndarray  # (n,) pain confidence
    label_pain: Optional[np.ndarray] = None  # (n,) bool ground truth, once joined


@dataclass(frozen=True)
class Prediction:
    key: FrameKey
    confidence_pain: float
    label_pain: Optional[bool] = None

    @property
    def scenario(self) -> str:
        if self.label_pain is None:
            raise ComputeError("prediction {}/{} frame {} has no ground truth".format(*self.key))
        pain = self.confidence_pain >= CONFIDENCE_THRESHOLD
        if self.label_pain:
            return "TP" if pain else "type2"
        return "type1" if pain else "TN"


@dataclass
class FrameTable:
    """Feature matrix of profile AU intensities plus pain labels per frame.

    Rows hold the sequences in key order, each sequence's frames in file
    order: the order of the `score_dataset` arrays, concatenated.
    """

    keys: list[FrameKey]  # (subject, sequence, frame) per row
    X: np.ndarray
    y: np.ndarray  # 1 = pain


def build_frame_table(
    records: Sequence[SequenceRecord],
    profile: AuProfile = PAIN_PROFILE,
    pspi_threshold: float = 0.0,
) -> FrameTable:
    """Label each frame pain iff its PSPI exceeds the threshold. A frame number
    that repeats within a sequence is an error: it would key two rows alike."""
    records = sorted(records, key=lambda r: r.key)
    pspi = [rec.pspi_array() for rec in records]
    keys: list[FrameKey] = []
    for rec in records:
        frames = rec.frames.frame_index
        first = np.unique(frames, return_index=True)[1]
        if first.size < frames.size:
            repeat = frames[np.setdiff1d(np.arange(frames.size), first)[0]]
            raise ComputeError(f"sequence {'/'.join(rec.key)} repeats frame {repeat}")
        keys += [(rec.subject_id, rec.sequence_id, frame) for frame in frames.tolist()]
    if not keys:
        # an empty dataset names no subject, so the message names the cause
        raise ComputeError("no labeled frames" + ("" if records else ": dataset has no sequences"))
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
    predictions: Predictions
    rows: np.ndarray  # the frame-table row of each prediction
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
    confidence = np.full(len(table.keys), np.nan)  # NaN where the fold was skipped
    findings: list[str] = []
    for subject in subjects:
        held = subject_arr == subject
        if np.unique(table.y[~held]).size < 2:
            findings.append(f"subject {subject}: training set has a single class; fold skipped")
            continue
        forest = RandomForest(hyperparams, seed).fit(table.X[~held], table.y[~held])
        confidence[held] = conf = forest.predict_confidences(table.X[held])
        per_subject_f1[subject] = f1_pain(table.y[held], conf >= CONFIDENCE_THRESHOLD)
    if not per_subject_f1:
        raise ComputeError("every LOSO training set has a single class; no fold ran")
    if findings:
        findings.append(f"mean F1 covers {len(per_subject_f1)} of {len(subjects)} folds")
    # predictions in key order: a file's frame numbers need not ascend
    order = np.array(sorted(range(len(table.keys)), key=table.keys.__getitem__))
    rows = order[~np.isnan(confidence[order])]
    return LosoResult(
        per_subject_f1=per_subject_f1,
        mean_f1=sum(per_subject_f1.values()) / len(per_subject_f1),
        predictions=Predictions(
            [table.keys[row] for row in rows.tolist()], confidence[rows], table.y[rows] == 1
        ),
        rows=rows,
        findings=findings,
    )


def join_labels(table: FrameTable, external: Predictions, path) -> tuple[Predictions, np.ndarray]:
    """Predictions read from `path` with their ground truth taken from the frame
    table, and the table row of each."""
    row_of = {key: row for row, key in enumerate(table.keys)}
    rows = np.array([row_of.get(key, -1) for key in external.keys], dtype=np.intp)
    if (rows < 0).any():
        key = "{}/{} frame {}".format(*external.keys[np.argmax(rows < 0)])
        raise ComputeError(f"{path}: external prediction {key} not in dataset")
    return external._replace(label_pain=table.y[rows] == 1), rows


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
    subject: str
    sequence: str
    frame: int
    ted_score: float
    confidence_pain: float
    scenario: str
    reason: str

    @property
    def key(self) -> FrameKey:
        return (self.subject, self.sequence, self.frame)


@dataclass
class AgreementResult:
    scenario_counts: dict[str, int]
    scenario_correlation: dict[str, float]
    flags: list[DisagreementFlag]
    findings: list[str]


def agreement_analysis(
    predictions: Union[Predictions, Sequence[Prediction]],
    ted: Union[np.ndarray, Mapping[FrameKey, float]],
    thresholds: AgreementThresholds = AgreementThresholds(),
) -> AgreementResult:
    """Correlate score with confidence per scenario and flag disagreements.

    `ted` holds the score of each prediction's frame. The per-frame form, a list
    of `Prediction` and a key -> score mapping, is turned into columns first.
    """
    if not isinstance(predictions, Predictions):
        for pred in predictions:
            if pred.key not in ted:
                raise ComputeError(
                    "prediction {}/{} frame {} has no expressiveness score".format(*pred.key)
                )
        ted = np.array([ted[p.key] for p in predictions], dtype=float)
        predictions = Predictions(
            [p.key for p in predictions],
            np.array([p.confidence_pain for p in predictions], dtype=float),
            # .scenario raises for a prediction without ground truth
            np.array([p.scenario in ("TP", "type2") for p in predictions], dtype=bool),
        )
    keys, conf, label = predictions  # label None (never joined) fails the arithmetic below
    pain = conf >= CONFIDENCE_THRESHOLD
    code = np.where(pain, 2 - 2 * label, 1 + 2 * label)  # index into SCENARIOS
    counts = np.bincount(code, minlength=len(SCENARIOS)).tolist()
    correlations: dict[str, float] = {}
    findings: list[str] = []
    for c, scenario in enumerate(SCENARIOS):
        if not counts[c]:
            findings.append(f"scenario {scenario} is empty; omitted")
            continue
        try:  # over the predictions' own order, as the sums depend on it
            correlations[scenario] = pearson(ted[code == c], conf[code == c])
        except ComputeError as exc:
            findings.append(f"scenario {scenario}: {exc}")

    high = (ted >= thresholds.ted_high) & (conf <= thresholds.conf_low)
    low = (ted <= thresholds.ted_low) & (conf >= thresholds.conf_high)
    flagged = sorted(np.flatnonzero(high | low).tolist(), key=keys.__getitem__)
    return AgreementResult(
        scenario_counts=dict(zip(SCENARIOS, counts)),
        scenario_correlation=correlations,
        flags=[
            DisagreementFlag(
                *keys[i], float(ted[i]), float(conf[i]), SCENARIOS[code[i]],
                "high score, low confidence" if high[i] else "low score, high confidence",
            )
            for i in flagged
        ],
        findings=findings,
    )


def write_predictions_csv(predictions: Predictions, path) -> None:
    """One row per prediction, in the given order (`loso_validate` gives key order)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject", "sequence", "frame", "confidence_pain", "predicted"])
        writer.writerows(
            (*key, "%.17g" % c, "pain" if c >= CONFIDENCE_THRESHOLD else "neutral")
            for key, c in zip(predictions.keys, predictions.confidence.tolist())
        )


def read_predictions_csv(path, digests: Optional[dict[str, str]] = None) -> Predictions:
    """The predictions of a CSV, in file order. The first row with a confidence outside
    [0, 1], or with an earlier row's (subject, sequence, frame) key, fails."""
    kinds = {"subject": "text", "sequence": "text", "frame": "integer", "confidence_pain": "number"}
    with read_input(path, digests, newline="") as fh:
        (subject, sequence, frame, conf), lines = read_table(path, fh, kinds)
    first_line: dict[FrameKey, int] = {}  # the keys in file order
    keys = zip(subject.tolist(), sequence.tolist(), frame.tolist())
    for key, line, confidence in zip(keys, lines, conf.tolist()):
        if not 0.0 <= confidence <= 1.0:
            raise ParseError(f"{path}: confidence outside [0, 1] on line {line}")
        first = first_line.setdefault(key, line)
        if first != line:
            raise ParseError("{}: line {} repeats {}/{} frame {} of line {}".format(
                path, line, *key, first))
    return Predictions(list(first_line), conf)

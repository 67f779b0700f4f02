"""Correlation evaluation, window ablation and label-grouped summaries."""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .engine import SequenceDynamics, dataset_dynamics
from .errors import ComputeError
from .model import SequenceRecord, TedConfig

DEFAULT_WINDOW_SWEEP = (3, 5, 10, 20, 40, 60, 75)


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ComputeError(f"series length mismatch: {x.size} vs {y.size}")
    if x.size < 3:
        raise ComputeError(f"need at least 3 points, got {x.size}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ComputeError("correlation undefined for a non-finite series")
    # a power-of-two scale is exact and keeps the means and sums of squares in normal range
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    y = np.ldexp(y, -np.frexp(np.abs(y).max())[1])
    xm = x - x.mean()
    xm -= xm.mean()  # a second pass removes what rounding the first mean left over
    ym = y - y.mean()
    ym -= ym.mean()
    sx = float(np.dot(xm, xm))
    sy = float(np.dot(ym, ym))
    if sx == 0.0 or sy == 0.0:
        raise ComputeError("correlation undefined for a constant series")
    r = float(np.dot(xm, ym)) / math.sqrt(sx * sy)
    return max(-1.0, min(1.0, r))


# ample: the fraction below takes at most about 45 pairs of terms for any n up to 10**9
_BETA_FRACTION_PAIRS = 1000


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)). From a = 10 on, a Stirling series: the
    difference of two lgamma values would lose about 4e-11 to cancellation."""
    if a < 10.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    z = 1.0 / (a * a)
    series = 1 / 8 - z * (1 / 192 - z * (1 / 640 - z * (17 / 14336 - z * 31 / 18432)))
    return 0.5 * math.log(a) - series / a


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction K with I_x(a, b) = x^a (1-x)^b / (a B(a, b) K), by
    Lentz's method (Numerical Recipes, section 6.4). It converges fast for
    x < (a + 1) / (a + b + 2); a fraction that does not is a ComputeError."""
    k, c, d = 1.0, 1.0, 0.0
    for m in range(_BETA_FRACTION_PAIRS):
        for e in (
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
            (m + 1) * (b - m - 1) * x / ((a + 2 * m + 1) * (a + 2 * m + 2)),
        ):
            d = 1.0 / (1.0 + e * d or 1e-300)  # Lentz: a tiny value stands in for a zero
            c = 1.0 + e / c or 1e-300
            k *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return k
    raise ComputeError(f"p-value: incomplete beta I_{x!r}({a}, {b}) did not converge")


def pcc_p_value(r: float, n: int) -> float:
    """Two-sided p-value for a sample correlation r with n observations.

    The t statistic r*sqrt((n-2)/(1-r^2)) against Student's t with n-2
    degrees of freedom has P(|T| > t) = I_x(a, 1/2), the regularized incomplete
    beta with a = (n-2)/2 and x = (n-2)/(n-2+t^2) = 1 - r^2. The relative error
    is below 1e-11 up to n = 10**5 and grows in proportion to n beyond.
    """
    if n < 3:
        raise ComputeError(f"p-value needs n >= 3, got {n}")
    if not -1.0 <= r <= 1.0:
        raise ComputeError(f"correlation {r} outside [-1, 1]")
    if abs(r) == 1.0:
        return 0.0
    if r == 0.0:
        return 1.0
    # y = t^2/(n-2+t^2) = r^2 is 1 - x, which subtracting x from 1 would round away for small r
    a, y = (n - 2) / 2.0, r * r
    x = (1.0 - abs(r)) * (1.0 + abs(r))
    # x^a y^(1/2) / B(a, 1/2), as 1/B(a, 1/2) = Gamma(a + 1/2) / (Gamma(a) sqrt(pi))
    front = math.exp(
        a * (math.log1p(-y) if y < 0.5 else math.log(x)) + math.log(abs(r))
        + _log_gamma_ratio(a) - 0.5 * math.log(math.pi)
    )
    if y > 1.5 / (a + 2.5):  # x < (a + 1)/(a + 3/2), where the fraction of I_x(a, 1/2) is fast
        return front / (a * _beta_fraction(a, 0.5, x))
    return 1.0 - front / (0.5 * _beta_fraction(0.5, a, y))  # I_x(a, b) = 1 - I_y(b, a)


@dataclass(frozen=True)
class SubjectCorrelation:
    subject_id: str
    pcc: float
    p_value: float
    n_frames: int


def evaluate_subject(subject_id: str, ted, pspi) -> SubjectCorrelation:
    """Correlate a subject's concatenated score series against its PSPI series."""
    ted = np.asarray(ted, dtype=float)
    pspi = np.asarray(pspi, dtype=float)
    r = pearson(ted, pspi)
    return SubjectCorrelation(
        subject_id=subject_id,
        pcc=r,
        p_value=pcc_p_value(r, ted.size),
        n_frames=int(ted.size),
    )


def _subject_correlations(
    records: Sequence[SequenceRecord],
    dynamics: dict[tuple[str, str], SequenceDynamics],
    window: int,
    findings: list[str],
) -> list[SubjectCorrelation]:
    """Score-vs-PSPI correlation per subject, in subject order.

    Each subject's sequences are taken in sequence order, each sequence's frames
    in file order; frames whose tracking failed are excluded from the
    correlation. A subject whose correlation is undefined (a constant series,
    or under 3 frames) is left out; `findings` name it and say how many
    subjects the means cover. With no subject left it is a ComputeError naming
    them all.
    """
    parts: dict[str, tuple[list[np.ndarray], list[np.ndarray]]] = {}
    for rec in sorted(records, key=lambda r: r.key):
        pspi = rec.pspi_array()
        dyn = dynamics[rec.key]
        ok = dyn.tracking_ok
        ts, ps = parts.setdefault(rec.subject_id, ([], []))
        ts.append(dyn.scores(window).ted[ok])
        ps.append(pspi[ok])
    correlations, undefined = [], []
    for subject, (ts, ps) in sorted(parts.items()):
        try:
            correlations.append(evaluate_subject(subject, np.concatenate(ts), np.concatenate(ps)))
        except ComputeError as exc:
            undefined.append(f"subject {subject}: {exc}")
    if not correlations:
        cause = "; ".join(undefined) or "dataset has no sequences"
        raise ComputeError(f"no subject has a defined correlation: {cause}")
    if undefined:
        findings += [f"{finding}; left out" for finding in undefined]
        findings.append(f"mean PCC covers {len(correlations)} of {len(parts)} subjects")
    return correlations


def evaluate_dataset(
    records: Sequence[SequenceRecord], cfg: TedConfig, findings: Optional[list[str]] = None
) -> list[SubjectCorrelation]:
    """Correlation per subject with a defined one; `findings` gets those left out."""
    dynamics = dataset_dynamics(records, cfg)
    return _subject_correlations(
        records, dynamics, cfg.window, [] if findings is None else findings
    )


@dataclass(frozen=True)
class WindowResult:
    window: int
    subjects: tuple[SubjectCorrelation, ...]
    mean_pcc: float
    median_pcc: float
    q1_pcc: float
    q3_pcc: float


@dataclass(frozen=True)
class AblationReport:
    windows: tuple[WindowResult, ...]
    findings: tuple[str, ...] = ()

    @property
    def best_window(self) -> int:
        return max(self.windows, key=lambda w: (w.mean_pcc, -w.window)).window

    def to_dict(self) -> dict:
        return {"best_window": self.best_window, **asdict(self)}

    def to_text(self) -> str:
        lines = [f"{'w':>4} {'mean':>8} {'median':>8} {'q1':>8} {'q3':>8}"]
        for w in self.windows:
            lines.append(
                f"{w.window:>4} {w.mean_pcc:>8.4f} {w.median_pcc:>8.4f} "
                f"{w.q1_pcc:>8.4f} {w.q3_pcc:>8.4f}"
            )
        lines.append(f"best window: {self.best_window}")
        return "\n".join(lines)


def window_ablation(
    records: Sequence[SequenceRecord],
    cfg: TedConfig,
    windows: Sequence[int] = DEFAULT_WINDOW_SWEEP,
) -> AblationReport:
    """Re-score the dataset at each window and correlate per subject."""
    if not windows:
        raise ComputeError("window sweep set is empty")
    dynamics = dataset_dynamics(records, cfg)
    results, findings = [], []
    for window in (replace(cfg, window=w).window for w in sorted(set(windows))):  # refuses w < 1
        undefined: list[str] = []
        subjects = tuple(_subject_correlations(records, dynamics, window, undefined))
        findings += [f"window {window}: {finding}" for finding in undefined]
        pccs = np.array([s.pcc for s in subjects])
        results.append(
            WindowResult(
                window=window,
                subjects=subjects,
                mean_pcc=float(pccs.mean()),
                median_pcc=float(np.percentile(pccs, 50)),
                q1_pcc=float(np.percentile(pccs, 25)),
                q3_pcc=float(np.percentile(pccs, 75)),
            )
        )
    return AblationReport(windows=tuple(results), findings=tuple(findings))


@dataclass(frozen=True)
class GroupStats:
    label: int
    gender: str
    count: int
    min: float
    q1: float
    median: float
    q3: float
    max: float
    mean: float
    std: float


@dataclass(frozen=True)
class SummaryReport:
    scale: str
    transform: str
    groups: tuple[GroupStats, ...]

    def to_text(self) -> str:
        header = (
            f"{self.scale:>5} {'gender':>11} {'count':>7} {'min':>9} {'q1':>9} "
            f"{'median':>9} {'q3':>9} {'max':>9} {'mean':>9} {'std':>9}"
        )
        lines = [header]
        for g in self.groups:
            lines.append(
                f"{g.label:>5} {g.gender:>11} {g.count:>7} {g.min:>9.4f} "
                f"{g.q1:>9.4f} {g.median:>9.4f} {g.q3:>9.4f} {g.max:>9.4f} "
                f"{g.mean:>9.4f} {g.std:>9.4f}"
            )
        return "\n".join(lines)

    def write_plot_data(self, path) -> None:
        """CSV series (label, gender, quartiles) for external plotting."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["scale", "label", "gender", "count", "min", "q1", "median", "q3", "max"]
            )
            for g in self.groups:
                writer.writerow(
                    [self.scale, g.label, g.gender, g.count]
                    + [format(v, ".17g") for v in (g.min, g.q1, g.median, g.q3, g.max)]
                )


def _stats(label: int, gender: str, values: list[float]) -> GroupStats:
    arr = np.array(values)
    return GroupStats(
        label=label,
        gender=gender,
        count=arr.size,
        min=float(arr.min()),
        q1=float(np.percentile(arr, 25)),
        median=float(np.percentile(arr, 50)),
        q3=float(np.percentile(arr, 75)),
        max=float(arr.max()),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
    )


def summarize(
    records: Sequence[SequenceRecord],
    ted_series: dict[tuple[str, str], Sequence[float]],
    scale: str = "VAS",
    transform: str = "log",
) -> SummaryReport:
    """Group per-frame scores by sequence-level label value and gender."""
    scale = scale.upper()
    if scale not in ("VAS", "OPI"):
        raise ComputeError(f"unsupported grouping scale {scale!r}")
    if transform not in ("log", "none"):
        raise ComputeError(f"unsupported transform {transform!r}")

    grouped: dict[tuple[int, str], list[float]] = {}
    for rec in sorted(records, key=lambda r: r.key):
        label = rec.labels.get(scale) if rec.labels is not None else None
        if label is None:
            raise ComputeError(f"sequence {'/'.join(rec.key)} has no {scale} label")
        values = [float(v) for v in ted_series[rec.key]]
        if transform == "log":
            if min(values) <= 0.0:
                raise ComputeError(
                    f"sequence {'/'.join(rec.key)} has a non-positive score; use --no-log"
                )
            values = [math.log(v) for v in values]
        grouped.setdefault((label, rec.gender), []).extend(values)

    groups = tuple(
        _stats(label, gender, values)
        for (label, gender), values in sorted(grouped.items())
    )
    return SummaryReport(scale=scale, transform=transform, groups=groups)

"""Span tracing of one in-process `ted.cli.main` run, from outside the package.

Each wrap point replaces a function at the name its callers look up, records
a span (name, start, end, parent span, run id) around every call and keeps
the spans in memory. A wrap point that no longer exists is reported as
missing instead of failing the run: only the untraced runs gate.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# (module, attribute, span name, work counters read from (args, result)).
# Counters may fail on a changed signature; they are then left out.
WRAP_POINTS: tuple[tuple[str, str, str, dict[str, Callable]], ...] = (
    ("ted.cli", "load_manifest", "ingestion.load_manifest", {}),
    ("ted.cli", "load_dataset", "ingestion.load_dataset", {}),
    (
        "ted.ingestion",
        "parse_feature_csv",
        "ingestion.parse_feature_csv",
        {"rows": lambda a, r: len(r), "bytes": _file_bytes},
    ),
    ("ted.ingestion", "parse_manual_au_file", "ingestion.parse_manual_au_file", {}),
    ("ted.ingestion", "merge_au_source", "ingestion.merge_au_source", {}),
    ("ted.ingestion", "parse_pspi_file", "ingestion.parse_pspi_file", {}),
    ("ted.ingestion", "validate_sequence", "model.validate_sequence", {}),
    ("ted.cli", "score_dataset", "engine.score_dataset", {}),
    # analytics imports the class by name, so both bindings are wrapped
    (
        "ted.engine",
        "SequenceDynamics",
        "engine.sequence_dynamics",
        {"frames": lambda a, r: len(a[0].frames)},
    ),
    (
        "ted.analytics",
        "SequenceDynamics",
        "engine.sequence_dynamics",
        {"frames": lambda a, r: len(a[0].frames)},
    ),
    ("ted.cli", "write_scores_csv", "engine.write_scores_csv", {}),
    ("ted.cli", "window_ablation", "analytics.window_ablation", {}),
    ("ted.cli", "build_frame_table", "interpret.build_frame_table", {}),
    ("ted.interpret", "loso_validate", "interpret.loso_validate", {}),
    ("ted.interpret", "agreement_analysis", "interpret.agreement_analysis", {}),
    ("ted.cli", "write_predictions_csv", "interpret.write_predictions_csv", {}),
    ("ted.forest", "RandomForest.fit", "forest.fit", {"rows": lambda a, r: len(a[2])}),
    (
        "ted.forest",
        "RandomForest.predict_confidences",
        "forest.predict_confidences",
        {"rows": lambda a, r: len(a[1])},
    ),
)


# Calls that are counted but get no span, so that their time stays in the
# caller's self time: (module, attribute, counter name).
COUNT_POINTS = (("ted.analytics", "evaluate_subject", "analytics.correlations"),)


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; worker threads start their own root spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.calls: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str) -> "_Open":
        return _Open(self, name)

    def wrap(self, fn, name: str, counters: dict[str, Callable]):
        tracer = self

        def record(span: Span, args, result) -> None:
            for key, count in counters.items():
                try:
                    span.counts[key] = count(args, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    pass

        if isinstance(fn, type):
            # A subclass keeps class attributes, classmethods and isinstance.
            def __init__(self, *args, **kwargs):
                with tracer.span(name) as span:
                    fn.__init__(self, *args, **kwargs)
                    record(span, args, self)

            return type(fn.__name__, (fn,), {
                "__init__": __init__,
                "__module__": fn.__module__,
                "__qualname__": fn.__qualname__,
            })

        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
                record(span, args, result)
                return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, fn, name: str):
        self.calls.setdefault(name, 0)

        def counted(*args, **kwargs):
            with self._lock:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _replace(self, module_name: str, attr: str, make) -> None:
        owner_path, _, leaf = attr.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{attr}")
            return
        self._restore.append((owner, leaf, original))
        setattr(owner, leaf, make(original))

    def install(self) -> None:
        for module_name, attr, name, counters in WRAP_POINTS:
            self._replace(
                module_name, attr, lambda fn: self.wrap(fn, name, counters)
            )
        for module_name, attr, name in COUNT_POINTS:
            self._replace(module_name, attr, lambda fn: self.count_calls(fn, name))

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def write_jsonl(self, path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "run": self.run_id,
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "start": s.start - origin,
                    "end": s.end - origin,
                    **({"counts": s.counts} if s.counts else {}),
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")


class _Open:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        stack = self.tracer._stack()
        with self.tracer._lock:
            span = Span(
                id=len(self.tracer.spans),
                parent=stack[-1].id if stack else None,
                name=self.name,
                start=time.perf_counter(),
            )
            self.tracer.spans.append(span)
        stack.append(span)
        return span

    def __exit__(self, *exc) -> None:
        span = self.tracer._stack().pop()
        span.end = time.perf_counter()


def self_seconds(spans: list[Span], name: str) -> float:
    """Total time of `name` spans minus what their direct children cover."""
    total = 0.0
    ids = set()
    for s in spans:
        if s.name == name:
            total += s.seconds
            ids.add(s.id)
    return total - sum(s.seconds for s in spans if s.parent in ids)


def layer_metrics(tracer: Tracer, root: str = "cli.main") -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, from one traced run."""
    spans = tracer.spans

    def total(name: str) -> float:
        return sum(s.seconds for s in spans if s.name == name)

    def count(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    parse_s = total("ingestion.parse_feature_csv")
    main_s = total(root)
    cli_self = self_seconds(spans, root)
    return {
        "ingestion.load_dataset_s": total("ingestion.load_dataset"),
        "ingestion.parse_feature_csv_s": parse_s,
        "ingestion.feature_mb_per_s": (
            count("ingestion.parse_feature_csv", "bytes") / 1e6 / parse_s
            if parse_s > 0
            else 0.0
        ),
        "ingestion.rows": count("ingestion.parse_feature_csv", "rows"),
        "ingestion.parse_manual_au_file_s": total("ingestion.parse_manual_au_file"),
        "ingestion.merge_au_source_s": total("ingestion.merge_au_source"),
        "ingestion.parse_pspi_file_s": total("ingestion.parse_pspi_file"),
        "ingestion.load_manifest_s": total("ingestion.load_manifest"),
        "model.validate_sequence_s": total("model.validate_sequence"),
        "engine.score_dataset_s": total("engine.score_dataset"),
        "engine.sequence_dynamics_s": total("engine.sequence_dynamics"),
        "engine.frames_scored": count("engine.sequence_dynamics", "frames"),
        "engine.write_scores_csv_s": total("engine.write_scores_csv"),
        "analytics.window_ablation_s": total("analytics.window_ablation"),
        "analytics.window_ablation_self_s": self_seconds(
            spans, "analytics.window_ablation"
        ),
        "analytics.correlations": tracer.calls.get("analytics.correlations", 0),
        "forest.fit_s": total("forest.fit"),
        "forest.fits": calls("forest.fit"),
        "forest.rows_fit": count("forest.fit", "rows"),
        "forest.predict_confidences_s": total("forest.predict_confidences"),
        "forest.rows_predicted": count("forest.predict_confidences", "rows"),
        "interpret.build_frame_table_s": total("interpret.build_frame_table"),
        "interpret.loso_validate_self_s": self_seconds(spans, "interpret.loso_validate"),
        "interpret.agreement_analysis_s": total("interpret.agreement_analysis"),
        "interpret.write_predictions_csv_s": total("interpret.write_predictions_csv"),
        "cli.main_s": main_s,
        "cli.self_s": cli_self,
        "trace.child_coverage": (main_s - cli_self) / main_s if main_s > 0 else 0.0,
    }

"""Command-line entry point: score, sweep, evaluate, summarize, interpret."""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, interpret
from .analytics import (
    DEFAULT_WINDOW_SWEEP,
    evaluate_dataset,
    summarize,
    window_ablation,
)
from .engine import score_dataset, write_scores_csv
from .errors import ComputeError, ConfigError, ParseError
from .ingestion import FeatureCsvSchema, integer, load_dataset, load_manifest
from .interpret import AgreementThresholds, build_frame_table, write_predictions_csv
from .forest import ForestHyperparams
from .model import BUILTIN_PROFILES, FEATURE_SETS, PAIN_PROFILE, AuProfile, TedConfig
from .model import overall_profile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_COMPUTE = 4


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifest", required=True, help="dataset manifest JSON")
    parser.add_argument(
        "--schema", default=None, help="feature CSV schema mapping JSON (default: infer)"
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output directory (default: $TED_OUTPUT_DIR or ./ted-out)",
    )
    parser.add_argument("--w", type=integer, default=10, help="dynamics window length")
    parser.add_argument(
        "--orientation",
        choices=["trailing", "forward"],
        default="trailing",
        help="dynamics window orientation",
    )
    parser.add_argument(
        "--profile",
        default="pain",
        help="AU profile: pain, pain_predicted, happy, overall, "
        "or a comma-separated AU list",
    )
    parser.add_argument(
        "--au-source", choices=["manual", "predicted"], default="manual"
    )
    parser.add_argument(
        "--feature-sets",
        default=",".join(FEATURE_SETS),
        help="comma-separated subset of L,Ho,Hr,Gl,Gr,I",
    )
    parser.add_argument("--jobs", type=integer, default=1, help="workers (stages run serially)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ted", description="Facial temporal-expressiveness scoring and analysis"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score every frame and write scores.csv")
    _add_common_flags(p)

    p = sub.add_parser("sweep", help="window ablation with per-subject correlations")
    _add_common_flags(p)
    p.add_argument(
        "--windows",
        default=",".join(str(w) for w in DEFAULT_WINDOW_SWEEP),
        help="comma-separated window lengths",
    )

    p = sub.add_parser("evaluate", help="per-subject correlation of scores vs PSPI")
    _add_common_flags(p)

    p = sub.add_parser("summarize", help="label-grouped descriptive statistics")
    _add_common_flags(p)
    p.add_argument("--scale", choices=["VAS", "OPI"], default="VAS")
    p.add_argument(
        "--log",
        dest="transform",
        action="store_const",
        const="log",
        default="log",
        help="summarize natural-log scores (default)",
    )
    p.add_argument(
        "--no-log", dest="transform", action="store_const", const="none",
        help="summarize raw scores",
    )
    p.add_argument(
        "--plot-data",
        default=None,
        help="also write a plotting-friendly CSV to this filename",
    )

    p = sub.add_parser("interpret", help="pain classifier LOSO + agreement analysis")
    _add_common_flags(p)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--trees", type=integer, default=100)
    p.add_argument("--max-depth", type=integer, default=None)
    p.add_argument("--min-samples-leaf", type=integer, default=1)
    p.add_argument("--stratified-bootstrap", action="store_true")
    p.add_argument("--pspi-threshold", type=float, default=0.0)
    p.add_argument("--ted-high", type=float, default=100.0)
    p.add_argument("--conf-low", type=float, default=0.1)
    p.add_argument("--ted-low", type=float, default=10.0)
    p.add_argument("--conf-high", type=float, default=0.9)
    p.add_argument(
        "--predictions",
        default=None,
        help="audit an external predictions CSV instead of training",
    )
    return parser


def _resolve_profile(name: str) -> AuProfile:
    if name in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[name]
    try:
        au_ids = tuple(integer(tok.strip()) for tok in name.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"unknown profile {name!r}") from None
    if not au_ids:
        raise ConfigError(f"unknown profile {name!r}")
    return AuProfile("custom", au_ids)


def check_arguments(args) -> TedConfig:
    """The run's config, from every argument check that reads no file.

    Sets `args.window_lengths` (sweep) and `args.hyperparams` (interpret).
    An overall profile comes from the data: `load_inputs` puts it in.
    """
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    overall = args.profile == "overall"
    if overall and args.au_source == "manual":
        raise ConfigError("the overall profile requires --au-source predicted")
    cfg = TedConfig(
        window=args.w,
        window_orientation=args.orientation,
        profile=PAIN_PROFILE if overall else _resolve_profile(args.profile),
        feature_sets=frozenset(fs.strip() for fs in args.feature_sets.split(",") if fs.strip()),
    )
    if args.command == "sweep":
        args.window_lengths = []
        for tok in filter(str.strip, args.windows.split(",")):
            try:
                window = integer(tok.strip())
            except ValueError:
                window = 0  # not a window length either: the same message names it
            if window < 1:
                raise ConfigError(f"--windows: window must be >= 1, got {tok.strip()!r}")
            args.window_lengths.append(window)
        if not args.window_lengths:
            raise ConfigError(f"--windows: no window length in {args.windows!r}")
    elif args.command == "summarize" and args.plot_data is not None:
        # written into --out, so a name only: a directory part could point anywhere
        if args.plot_data in ("", ".", "..") or os.path.basename(args.plot_data) != args.plot_data:
            raise ConfigError(f"--plot-data must be a file name, got {args.plot_data!r}")
        if args.plot_data in ("summary.json", "summary.txt", "run_metadata.json"):
            raise ConfigError(f"--plot-data {args.plot_data!r} would overwrite a summarize output")
    elif args.command == "interpret":
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        for flag in ("pspi_threshold", "ted_high", "conf_low", "ted_low", "conf_high"):
            if np.isnan(getattr(args, flag)):  # inf stays: --ted-high inf flags nothing
                raise ConfigError(f"--{flag.replace('_', '-')} must be a number, got nan")
        args.hyperparams = ForestHyperparams(
            args.trees, args.max_depth, args.min_samples_leaf, args.stratified_bootstrap
        )
    return cfg


def load_inputs(args):
    """Records, config and input digests (SHA-256 per path read) of one run."""
    cfg = check_arguments(args)
    digests: dict[str, str] = {}
    schema = FeatureCsvSchema.from_json(args.schema, digests) if args.schema else None
    manifest = load_manifest(args.manifest, digests)
    overall = args.profile == "overall"
    records, findings = load_dataset(
        manifest, schema, args.au_source, None if overall else cfg.profile, digests
    )
    _warn(findings)
    if overall:
        cfg = dataclasses.replace(cfg, profile=overall_profile(records))
    return records, cfg, digests


def _warn(findings) -> None:
    for finding in findings:
        print(f"warning: {finding}", file=sys.stderr)


def _write_metadata(args, cfg: TedConfig, out_dir: Path, extra: dict, digests: dict) -> None:
    # inputs are named relative to the manifest's directory where they lie under it
    base = Path(args.manifest).parent
    names = {
        str(Path(p).relative_to(base)) if Path(p).is_relative_to(base) else p: digest
        for p, digest in digests.items()
    }
    metadata = {
        "artifact_version": __version__,
        "command": args.command,
        "config": {**dataclasses.asdict(cfg), "au_source": args.au_source,
                   "feature_sets": sorted(cfg.feature_sets), **extra},
        "input_digests": names,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _dump_json(metadata, out_dir / "run_metadata.json")


def _dump_json(payload: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_score(args, records, cfg, out_dir, digests) -> dict:
    write_scores_csv(score_dataset(records, cfg), out_dir / "scores.csv")
    print(f"wrote {out_dir / 'scores.csv'}")
    return {}


def cmd_sweep(args, records, cfg, out_dir, digests) -> dict:
    report = window_ablation(records, cfg, args.window_lengths)
    _warn(report.findings)
    _dump_json(report.to_dict(), out_dir / "ablation.json")
    (out_dir / "ablation.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    print(report.to_text())
    return {"windows": sorted(set(args.window_lengths))}


def cmd_evaluate(args, records, cfg, out_dir, digests) -> dict:
    findings: list[str] = []
    correlations = evaluate_dataset(records, cfg, findings)
    _warn(findings)
    payload = {
        "subjects": [dataclasses.asdict(c) for c in correlations],
        "mean_pcc": sum(c.pcc for c in correlations) / len(correlations),
        "findings": findings,
    }
    _dump_json(payload, out_dir / "correlations.json")
    print(f"mean PCC over {len(correlations)} subjects: {payload['mean_pcc']:.4f}")
    return {}


def cmd_summarize(args, records, cfg, out_dir, digests) -> dict:
    series = {key: scores.ted for key, scores in score_dataset(records, cfg).items()}
    report = summarize(records, series, scale=args.scale, transform=args.transform)
    _dump_json(dataclasses.asdict(report), out_dir / "summary.json")
    (out_dir / "summary.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    if args.plot_data:
        report.write_plot_data(out_dir / args.plot_data)
    print(report.to_text())
    return {"scale": args.scale, "transform": args.transform}


def cmd_interpret(args, records, cfg, out_dir, digests) -> dict:
    scores = score_dataset(records, cfg)
    table = build_frame_table(records, cfg.profile, pspi_threshold=args.pspi_threshold)
    ted = np.concatenate([s.ted for s in scores.values()])  # in the frame table's row order
    thresholds = AgreementThresholds(args.ted_high, args.conf_low, args.ted_low, args.conf_high)
    # loso_validate and agreement_analysis go through the module: perfbench wraps them there
    if args.predictions:
        external = interpret.read_predictions_csv(args.predictions, digests)
        predictions, rows = interpret.join_labels(table, external, args.predictions)
        findings = ["external predictions: no LOSO F1 computed"]
        loso = interpret.LosoResult({}, float("nan"), predictions, rows, findings)
    else:
        loso = interpret.loso_validate(table, hyperparams=args.hyperparams, seed=args.seed)
    agreement = interpret.agreement_analysis(loso.predictions, ted[loso.rows], thresholds)
    _warn(loso.findings + agreement.findings)
    payload = {
        "per_subject_f1": loso.per_subject_f1,
        "mean_f1": loso.mean_f1,
        "scenario_counts": agreement.scenario_counts,
        "scenario_correlation": agreement.scenario_correlation,
        "flags": [dataclasses.asdict(flag) for flag in agreement.flags],
        "findings": loso.findings + agreement.findings,
    }
    _dump_json(payload, out_dir / "interpret.json")
    if not args.predictions:
        write_predictions_csv(loso.predictions, out_dir / "predictions.csv")
    if loso.per_subject_f1:
        print(f"mean F1 over {len(loso.per_subject_f1)} subjects: {loso.mean_f1:.4f}")
    print(f"flagged disagreements: {len(agreement.flags)}")
    return {
        "seed": args.seed,
        **dataclasses.asdict(args.hyperparams),
        "pspi_threshold": args.pspi_threshold,
        "thresholds": dataclasses.asdict(thresholds),
    }


_COMMANDS = {
    "score": cmd_score,
    "sweep": cmd_sweep,
    "evaluate": cmd_evaluate,
    "summarize": cmd_summarize,
    "interpret": cmd_interpret,
}


def run_command(args, records, cfg, digests) -> None:
    """Run `args.command` on checked arguments and loaded inputs; write its outputs."""
    out_dir = Path(args.out or os.environ.get("TED_OUTPUT_DIR") or "ted-out")
    out_dir.mkdir(parents=True, exist_ok=True)
    extra = _COMMANDS[args.command](args, records, cfg, out_dir, digests)
    _write_metadata(args, cfg, out_dir, extra, digests)


def exit_code(step: Callable[[], None]) -> int:
    """Run `step`; a package error becomes its exit code and one stderr message."""
    try:
        step()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ComputeError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return exit_code(lambda: run_command(args, *load_inputs(args)))


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the whole analysis chain against one dataset manifest.

Scores every frame, sweeps the dynamics window, correlates scores against
PSPI per subject, summarizes by label group, and trains/validates the pain
classifier — each step into its own subdirectory of the output directory.
The dataset is read once and shared by all five steps; each step writes what
`ted <step>` would write and fails with the same exit code. Every step's
arguments are checked before the first step reads an input.
"""

import argparse
import sys

from ted.cli import build_parser, check_arguments, exit_code, load_inputs, run_command
from ted.ingestion import integer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("manifest", help="dataset manifest JSON")
    parser.add_argument("out", help="output directory")
    parser.add_argument("--w", type=integer, default=10)
    parser.add_argument("--profile", default="pain")
    parser.add_argument("--au-source", choices=["manual", "predicted"], default="manual")
    parser.add_argument("--scale", choices=["VAS", "OPI"], default="VAS")
    parser.add_argument(
        "--no-log",
        action="store_true",
        help="summarize raw scores instead of natural-log scores",
    )
    parser.add_argument("--seed", type=integer, default=0)
    parser.add_argument("--jobs", type=integer, default=1)
    args = parser.parse_args(argv)

    common = [
        "--manifest", args.manifest,
        "--w", str(args.w),
        "--profile", args.profile,
        "--au-source", args.au_source,
        "--jobs", str(args.jobs),
    ]
    steps = [
        ("score", []),
        ("sweep", []),
        ("evaluate", []),
        (
            "summarize",
            ["--scale", args.scale, "--plot-data", "plot.csv"]
            + (["--no-log"] if args.no_log else []),
        ),
        ("interpret", ["--seed", str(args.seed)]),
    ]
    parser = build_parser()
    runs = [
        (command, parser.parse_args([command, *common, "--out", f"{args.out}/{command}", *extra]))
        for command, extra in steps
    ]
    loaded = []

    def run_step(step_args) -> None:
        if not loaded:
            loaded.extend(load_inputs(step_args))
        run_command(step_args, *loaded)

    def failed(command, step) -> int:
        code = exit_code(step)
        if code != 0:
            print(f"{command} failed with exit code {code}", file=sys.stderr)
        return code

    for command, step_args in runs:
        if code := failed(command, lambda: check_arguments(step_args)):
            return code
    for command, step_args in runs:
        print(f"== {command} ==")
        if code := failed(command, lambda: run_step(step_args)):
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

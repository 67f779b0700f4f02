#!/usr/bin/env python3
"""Generate a synthetic dataset on disk (feature CSVs, PSPI, manifest).

Two presets are available: `correlated` plants a burst-driven pain signal
that the scoring pipeline should recover (good for window sweeps), while
`separable` plants frame labels a classifier can learn (good for the
interpretation pipeline).
"""

import argparse
import sys

from ted.ingestion import integer
from ted.synthetic import make_correlated_dataset, make_separable_dataset, write_dataset


def main(argv=None) -> int:
    presets = {"correlated": make_correlated_dataset, "separable": make_separable_dataset}
    # an option left out is not passed on, so the preset's default holds
    parser = argparse.ArgumentParser(description=__doc__, argument_default=argparse.SUPPRESS)
    parser.add_argument("out", help="output directory")
    parser.add_argument("--preset", choices=list(presets), default="correlated")
    parser.add_argument("--subjects", dest="n_subjects", type=integer)
    parser.add_argument("--sequences", dest="n_sequences", type=integer)
    parser.add_argument("--frames", dest="n_frames", type=integer)
    parser.add_argument("--seed", type=integer)
    args = vars(parser.parse_args(argv))

    out = args.pop("out")
    records = presets[args.pop("preset")](**args)
    manifest = write_dataset(records, out)
    frames = sum(len(r.frames) for r in records)
    print(f"wrote {len(records)} sequences ({frames} frames) -> {manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

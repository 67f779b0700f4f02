import csv
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ted.ingestion import FeatureCsvSchema
from ted.model import FEATURE_SETS
from ted.synthetic import make_correlated_dataset, make_separable_dataset, write_dataset

PRESETS = {
    "correlated": lambda: make_correlated_dataset(
        n_subjects=2, n_sequences=2, n_frames=30, n_landmarks=3
    ),
    "separable": lambda: make_separable_dataset(n_subjects=2, n_sequences=1, n_frames=25),
}


def _reference_files(records, out_dir):
    """The feature and manual-AU files as csv.writer writes them, cell by cell."""
    for rec in records:
        cols = rec.frames
        au_ids = sorted(cols.au_ids)
        values = np.concatenate([cols.stream(fs, au_ids) for fs in FEATURE_SETS], axis=1)
        stem = out_dir / f"{rec.subject_id}_{rec.sequence_id}"
        with open(f"{stem}_features.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                FeatureCsvSchema.default(cols.stream("L").shape[1] // 2, au_ids).bound_columns()
            )
            for frame, ok, row in zip(
                cols.frame_index.tolist(), cols.tracking_ok.tolist(), values.tolist()
            ):
                writer.writerow([frame, int(ok), *(format(v, ".17g") for v in row)])
        levels = np.rint(cols.stream("I", au_ids)).astype(int).tolist()
        with open(f"{stem}_manual_aus.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["frame", "au", "level"])
            for frame, row in zip(cols.frame_index.tolist(), levels):
                writer.writerows([frame, au, level] for au, level in zip(au_ids, row))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_write_dataset_matches_csv_writer_reference(tmp_path, preset):
    records = PRESETS[preset]()
    write_dataset(records, tmp_path / "got")
    (tmp_path / "want").mkdir()
    _reference_files(records, tmp_path / "want")
    wanted = sorted((tmp_path / "want").iterdir())
    assert len(wanted) == 2 * len(records)
    for want in wanted:
        assert (tmp_path / "got" / want.name).read_bytes() == want.read_bytes(), want.name


def _generate_dataset():
    script = Path(__file__).parent.parent / "scripts" / "generate_dataset.py"
    spec = importlib.util.spec_from_file_location("generate_dataset", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_generate_dataset_passes_its_flags_on(tmp_path, preset):
    module = _generate_dataset()
    flags = ["--subjects", "2", "--sequences", "1", "--frames", "25", "--seed", "5"]
    assert module.main([str(tmp_path / "script"), "--preset", preset, *flags]) == 0
    make = make_correlated_dataset if preset == "correlated" else make_separable_dataset
    write_dataset(make(n_subjects=2, n_sequences=1, n_frames=25, seed=5), tmp_path / "direct")
    names = sorted(p.name for p in (tmp_path / "direct").iterdir())
    assert sorted(p.name for p in (tmp_path / "script").iterdir()) == names
    for name in names:
        assert (tmp_path / "script" / name).read_bytes() == (
            tmp_path / "direct" / name
        ).read_bytes(), name


@pytest.mark.parametrize("flag", ["--subjects", "--sequences", "--frames", "--seed"])
def test_generate_dataset_integer_flag_spelled_otherwise_is_2(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        _generate_dataset().main([str(tmp_path / "out"), flag, "4_0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"error: argument {flag}: invalid integer value: '4_0'"
    )
    assert not (tmp_path / "out").exists()

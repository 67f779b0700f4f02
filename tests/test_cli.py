import csv
import dataclasses
import json
import shutil
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ted.cli import main
from ted.engine import score_sequence
from ted.ingestion import load_dataset, load_manifest
from ted.model import FEATURE_SETS, PAIN_PROFILE, TedConfig
from ted.synthetic import make_separable_dataset, write_dataset


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
    out = tmp_path_factory.mktemp("cli-ds")
    return write_dataset(records, out)


def run(dataset, tmp_path, *args):
    out = tmp_path / "out"
    code = main([args[0], "--manifest", str(dataset), "--out", str(out), *args[1:]])
    return code, out


class TestScore:
    def test_writes_scores_and_metadata(self, dataset, tmp_path):
        code, out = run(dataset, tmp_path, "score", "--w", "5")
        assert code == 0
        assert (out / "scores.csv").exists()
        metadata = json.loads((out / "run_metadata.json").read_text())
        assert metadata["command"] == "score"
        assert metadata["config"]["window"] == 5
        assert str(dataset.name) in metadata["input_digests"]

    def test_feature_subset_flag(self, dataset, tmp_path):
        code, out = run(dataset, tmp_path, "score", "--feature-sets", "L,I")
        assert code == 0
        metadata = json.loads((out / "run_metadata.json").read_text())
        assert metadata["config"]["feature_sets"] == ["I", "L"]

    def test_output_dir_from_environment(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("TED_OUTPUT_DIR", str(tmp_path / "env-out"))
        code = main(["score", "--manifest", str(dataset), "--w", "5"])
        assert code == 0
        assert (tmp_path / "env-out" / "scores.csv").exists()

    def test_rerun_is_byte_identical_apart_from_timestamp(self, dataset, tmp_path):
        _, out_a = run(dataset, tmp_path / "a", "score")
        _, out_b = run(dataset, tmp_path / "b", "score")
        assert (out_a / "scores.csv").read_bytes() == (out_b / "scores.csv").read_bytes()
        meta_a = json.loads((out_a / "run_metadata.json").read_text())
        meta_b = json.loads((out_b / "run_metadata.json").read_text())
        meta_a.pop("timestamp")
        meta_b.pop("timestamp")
        assert meta_a == meta_b

    def test_scores_csv_rows_match_score_sequence(self, tmp_path):
        records = make_separable_dataset(n_subjects=2, n_sequences=2, n_frames=15, seed=3)
        records[1].frames.tracking_ok[6] = False
        manifest = write_dataset(records, tmp_path / "ds")
        code, out = run(manifest, tmp_path, "score", "--feature-sets", "L,I")
        assert code == 0

        loaded, _ = load_dataset(
            load_manifest(manifest), au_source="manual", profile=PAIN_PROFILE
        )
        cfg = TedConfig(feature_sets=frozenset({"L", "I"}))
        fmt = lambda x: format(x, ".17g")
        expected = []
        for rec in sorted(loaded, key=lambda r: r.key):
            for sf in score_sequence(rec, cfg):
                expected.append(
                    [rec.subject_id, rec.sequence_id, str(sf.frame_index), fmt(sf.static_score)]
                    + [fmt(sf.dynamics[fs]) for fs in FEATURE_SETS]
                    + [fmt(sf.ted_score), str(int(sf.tracking_ok))]
                )
        with open(out / "scores.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["subject", "sequence", "frame", "S"] + [
            f"M_{fs}" for fs in FEATURE_SETS
        ] + ["ted_score", "tracking_ok"]
        assert rows[1:] == expected
        # one failed-tracking frame; no dynamics at frame 1 or for Ho..Gr
        assert sum(row[-1] == "0" for row in rows[1:]) == 1
        first_frames = [row for row in rows[1:] if row[2] == "1"]
        assert len(first_frames) == 4
        assert all(row[4:10] == ["0"] * 6 for row in first_frames)
        assert all(row[5:9] == ["0"] * 4 for row in rows[1:])


class TestExitCodes:
    def test_config_error_is_2(self, dataset, tmp_path):
        code, _ = run(dataset, tmp_path, "score", "--w", "0")
        assert code == 2

    def test_unknown_profile_is_2(self, dataset, tmp_path):
        code, _ = run(dataset, tmp_path, "score", "--profile", "frown")
        assert code == 2

    def test_empty_feature_sets_is_2(self, dataset, tmp_path):
        code, _ = run(dataset, tmp_path, "score", "--feature-sets", "")
        assert code == 2

    def test_predicted_source_with_pain_profile_is_2(self, dataset, tmp_path):
        code, _ = run(dataset, tmp_path, "score", "--au-source", "predicted")
        assert code == 2

    def test_missing_manifest_is_3(self, tmp_path):
        code = main(
            ["score", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 3

    def test_corrupt_manifest_is_3(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text("{broken", encoding="utf-8")
        code = main(["score", "--manifest", str(bad), "--out", str(tmp_path)])
        assert code == 3

    def test_bad_schema_file_is_3(self, dataset, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text("{\"frame\": \"frame\"}", encoding="utf-8")
        code, _ = run(dataset, tmp_path, "score", "--schema", str(schema))
        assert code == 3

    @pytest.mark.parametrize("command", ["evaluate", "interpret"])
    @pytest.mark.parametrize("delta", [-5, 5])
    def test_pspi_length_mismatch_is_3(self, tmp_path, capsys, command, delta):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        manifest = write_dataset(records, tmp_path / "ds")
        pspi = manifest.parent / "P001_01_pspi.csv"
        lines = pspi.read_text(encoding="utf-8").splitlines()
        lines = lines[:delta] if delta < 0 else lines + lines[1 : 1 + delta]
        pspi.write_text("\n".join(lines) + "\n", encoding="utf-8")
        extra = ("--trees", "3") if command == "interpret" else ()
        code, _ = run(manifest, tmp_path, command, *extra)
        assert code == 3
        message = capsys.readouterr().err
        assert "P001_01_pspi.csv" in message
        assert f"{40 + delta} PSPI values for 40 frames" in message

    @pytest.mark.parametrize("row", ["", "1,1,0.5"])
    def test_blank_or_short_feature_row_is_3(self, tmp_path, capsys, row):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        manifest = write_dataset(records, tmp_path / "ds")
        features = manifest.parent / "P002_01_features.csv"
        lines = features.read_text(encoding="utf-8").splitlines()
        lines.insert(5, row)
        features.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _ = run(manifest, tmp_path, "score")
        assert code == 3
        message = capsys.readouterr().err
        assert "P002_01_features.csv: line 6 has" in message
        assert "the header has 30" in message

    @pytest.mark.parametrize(
        "row, message",
        [
            ("P001,01,1.5,0.5", "frame '1.5' on line 3 is not an integer"),
            ("P001,01,,0.5", "frame '' on line 3 is not an integer"),
            ("P001,01", "bad confidence on line 3"),
        ],
    )
    def test_bad_predictions_row_is_3(self, dataset, tmp_path, capsys, row, message):
        preds = tmp_path / "preds.csv"
        preds.write_text(
            f"subject,sequence,frame,confidence_pain\nP001,01,1,0.5\n{row}\n",
            encoding="utf-8",
        )
        code, _ = run(dataset, tmp_path, "interpret", "--predictions", str(preds))
        assert code == 3
        assert f"{preds}: {message}" in capsys.readouterr().err

    def test_compute_error_is_4(self, dataset, tmp_path):
        # external predictions referencing frames outside the dataset
        preds = tmp_path / "preds.csv"
        preds.write_text(
            "subject,sequence,frame,confidence_pain\nZZ,99,1,0.5\n", encoding="utf-8"
        )
        code, _ = run(dataset, tmp_path, "interpret", "--predictions", str(preds))
        assert code == 4


class TestSweep:
    def test_writes_ablation_reports(self, dataset, tmp_path):
        code, out = run(dataset, tmp_path, "sweep", "--windows", "3,5")
        assert code == 0
        payload = json.loads((out / "ablation.json").read_text())
        assert payload["best_window"] in (3, 5)
        assert "best window" in (out / "ablation.txt").read_text()


class TestEvaluate:
    def test_writes_correlations(self, dataset, tmp_path):
        code, out = run(dataset, tmp_path, "evaluate")
        assert code == 0
        payload = json.loads((out / "correlations.json").read_text())
        assert len(payload["subjects"]) == 3
        assert -1.0 <= payload["mean_pcc"] <= 1.0


class TestSummarize:
    def test_writes_summary_and_plot_data(self, dataset, tmp_path):
        code, out = run(
            dataset, tmp_path, "summarize", "--scale", "OPI", "--no-log",
            "--plot-data", "plot.csv",
        )
        assert code == 0
        payload = json.loads((out / "summary.json").read_text())
        assert payload["scale"] == "OPI"
        assert payload["transform"] == "none"
        assert (out / "summary.txt").exists()
        assert (out / "plot.csv").exists()


class TestInterpret:
    def test_writes_report_and_predictions(self, dataset, tmp_path):
        code, out = run(dataset, tmp_path, "interpret", "--trees", "15", "--seed", "7")
        assert code == 0
        payload = json.loads((out / "interpret.json").read_text())
        assert len(payload["per_subject_f1"]) == 3
        assert sum(payload["scenario_counts"].values()) == 3 * 40
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        assert len(lines) == 3 * 40 + 1

    def test_single_class_training_fold_is_skipped(self, tmp_path):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        pain_free = {rec.subject_id for rec in records[1:]}
        records = [
            dataclasses.replace(rec, pspi=[0.0] * 40) if rec.subject_id in pain_free else rec
            for rec in records
        ]
        manifest = write_dataset(records, tmp_path / "ds")
        code, out = run(manifest, tmp_path, "interpret", "--trees", "5")
        assert code == 0
        payload = json.loads((out / "interpret.json").read_text())
        # only the subject with pain sees a pain-free training set
        skipped = records[0].subject_id
        assert sorted(payload["per_subject_f1"]) == sorted(pain_free)
        assert payload["mean_f1"] == sum(payload["per_subject_f1"].values()) / 2
        assert payload["findings"][:2] == [
            f"subject {skipped}: training set has a single class; fold skipped",
            "mean F1 covers 2 of 3 folds",
        ]
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        assert len(lines) == 2 * 40 + 1
        assert not any(line.startswith(f"{skipped},") for line in lines)

    def test_every_fold_single_class_is_4(self, tmp_path, capsys):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        records = [dataclasses.replace(rec, pspi=[0.0] * 40) for rec in records]
        manifest = write_dataset(records, tmp_path / "ds")
        code, _ = run(manifest, tmp_path, "interpret", "--trees", "5")
        assert code == 4
        assert "no fold ran" in capsys.readouterr().err

    def test_external_predictions_audit(self, dataset, tmp_path):
        code, out = run(dataset, tmp_path, "interpret", "--trees", "5")
        preds = out / "predictions.csv"
        code2, out2 = run(
            dataset, tmp_path / "audit", "interpret", "--predictions", str(preds)
        )
        assert code == 0 and code2 == 0
        payload = json.loads((out2 / "interpret.json").read_text())
        assert payload["per_subject_f1"] == {}
        assert not (out2 / "predictions.csv").exists()


_FUZZ_TEXT = st.text(
    alphabet=string.ascii_letters + string.digits + string.punctuation + " ", max_size=6
)


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@st.composite
def feature_file_mutations(draw, n_rows, n_cols):
    """One malformed edit to a feature CSV: (kind, data row, column, text)."""
    kind = draw(
        st.sampled_from(
            ["blank", "truncate", "extra", "non_numeric", "duplicate_header"]
        )
    )
    row = draw(st.integers(1, n_rows))
    col = draw(st.integers(0, n_cols - 1))
    text = draw(_FUZZ_TEXT.filter(lambda t: not _is_float(t)))
    return kind, row, col, text


class TestFeatureCsvFuzz:
    """Malformed feature CSVs end in a documented exit code, never a traceback."""

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=12, seed=5)
        manifest = write_dataset(
            [dataclasses.replace(rec, pspi=None) for rec in records],
            tmp_path_factory.mktemp("fuzz-ds"),
        )
        # a trailing column no schema binds, as real tracker exports have
        path = manifest.parent / "P001_01_features.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines = [lines[0] + ",confidence"] + [line + ",0.98" for line in lines[1:]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return manifest.parent, lines

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_exit_code_is_documented(self, clean, data):
        source, lines = clean
        header = lines[0].split(",")
        kind, row, col, text = data.draw(
            feature_file_mutations(len(lines) - 1, len(header))
        )
        cells = [line.split(",") for line in lines]
        if kind == "blank":
            cells[row] = []
        elif kind == "truncate":
            cells[row] = cells[row][:col]
        elif kind == "extra":
            cells[row].append(text)
        elif kind == "non_numeric":
            cells[row][col] = text  # the last column is unbound, the others bound
        else:
            cells[0][-1] = header[col]
        with tempfile.TemporaryDirectory() as tmp:
            ds = Path(tmp) / "ds"
            shutil.copytree(source, ds)
            (ds / "P001_01_features.csv").write_text(
                "\n".join(",".join(r) for r in cells) + "\n", encoding="utf-8"
            )
            code = main(
                [
                    "score", "--manifest", str(ds / "manifest.json"),
                    "--out", str(Path(tmp) / "out"),
                    "--au-source", "predicted", "--profile", "pain_predicted",
                ]
            )
        assert code in (0, 2, 3, 4)

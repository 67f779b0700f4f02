import csv
import dataclasses
import json

import pytest

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
        frames = records[1].frames
        frames[6] = dataclasses.replace(frames[6], tracking_ok=False)
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

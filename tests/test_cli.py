import contextlib
import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import shutil
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ted.cli
from ted.cli import main
from ted.engine import score_sequence
from ted.ingestion import FeatureCsvSchema, load_dataset, load_manifest
from ted.model import FEATURE_SETS, PAIN_PROFILE, TedConfig
from ted.synthetic import make_correlated_dataset, make_separable_dataset, write_dataset


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
    out = tmp_path_factory.mktemp("cli-ds")
    return write_dataset(records, out)


def run(dataset, tmp_path, *args):
    out = tmp_path / "out"
    code = main([args[0], "--manifest", str(dataset), "--out", str(out), *args[1:]])
    return code, out


def _write_default_schema(path):
    """A --schema file naming the columns `write_dataset` writes."""
    schema = FeatureCsvSchema.default(n_landmarks=5, au_ids=PAIN_PROFILE.au_ids)
    path.write_text(json.dumps(dataclasses.asdict(schema)), encoding="utf-8")
    return path


def _write_predictions(records, path):
    """A --predictions file with one row per frame."""
    rows = [
        f"{rec.subject_id},{rec.sequence_id},{frame},0.{frame % 10}"
        for rec in records
        for frame in rec.frames.frame_index.tolist()
    ]
    path.write_text(
        "subject,sequence,frame,confidence_pain\n" + "\n".join(rows) + "\n", encoding="utf-8"
    )
    return path


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

    @pytest.mark.parametrize("profile, au", [("70,71", 70), ("0,4", 0)])
    @pytest.mark.parametrize("source", ["predicted", "manual"])
    def test_custom_profile_au_outside_facs_range_is_2(
        self, dataset, tmp_path, capsys, profile, au, source
    ):
        code, _ = run(dataset, tmp_path, "score", "--au-source", source, "--profile", profile)
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: profile 'custom' has AU {au} outside FACS range 1..64\n"
        )

    def test_feature_au_column_outside_facs_range_is_2(self, tmp_path, capsys):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        manifest = write_dataset(records, tmp_path / "ds")
        features = manifest.parent / "P002_01_features.csv"
        text = features.read_text(encoding="utf-8")
        features.write_text(text.replace("AU43_r", "AU70_r", 1), encoding="utf-8")
        code, _ = run(
            manifest, tmp_path, "score", "--au-source", "predicted", "--profile", "pain_predicted"
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: {features}: au_id 70 outside FACS range 1..64\n"
        )

    @pytest.mark.parametrize(
        "edit, code, message",
        [
            (lambda es: es[1].update(labels={"vas": 3.7}), 3,
             "input error: manifest {}: entry 1 is malformed: vas label 3.7 is not an integer"),
            (lambda es: es[1].update(labels={"opi": "2"}), 3,
             "input error: manifest {}: entry 1 is malformed: opi label '2' is not an integer"),
            (lambda es: es[1].update(labels={"vas": 11}), 2,
             "config error: manifest {}: entry 1: vas label 11 outside [0, 10]"),
            (lambda es: es[1].pop("sequence_id"), 3,
             "input error: manifest {}: entry 1 missing field 'sequence_id'"),
            (lambda es: es[1].update(pspi_file=3), 3,
             "input error: manifest {}: entry 1 is malformed: file paths must be strings"),
            (lambda es: es[1].update(gender="x"), 3,
             "input error: manifest {}: entry 1: unknown gender 'x'"),
            (lambda es: es.append(dict(es[0])), 3,
             "input error: manifest {}: duplicate (subject, sequence) entries: P001/01"),
        ],
        ids=["fraction", "string", "out-of-range", "missing-field", "path-type", "gender",
             "duplicate"],
    )
    def test_bad_manifest_entry(self, tmp_path, capsys, edit, code, message):
        records = make_separable_dataset(n_subjects=2, n_sequences=1, n_frames=40, seed=7)
        manifest = write_dataset(records, tmp_path / "ds")
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        edit(payload["entries"])
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        assert run(manifest, tmp_path, "summarize")[0] == code
        assert capsys.readouterr().err == message.format(manifest) + "\n"

    def test_empty_feature_sets_is_2(self, dataset, tmp_path):
        code, _ = run(dataset, tmp_path, "score", "--feature-sets", "")
        assert code == 2

    def test_predicted_source_with_pain_profile_is_2(self, dataset, tmp_path):
        code, _ = run(dataset, tmp_path, "score", "--au-source", "predicted")
        assert code == 2

    def test_overall_profile_with_predicted_source_keeps_au43(self, dataset, tmp_path):
        """`overall` holds only AUs the files have a column for, so the AU 43 rule skips it."""
        code, out = run(dataset, tmp_path, "score", "--au-source", "predicted",
                        "--profile", "overall")
        assert code == 0
        config = json.loads((out / "run_metadata.json").read_text())["config"]
        assert config["au_source"] == "predicted"
        assert config["profile"] == {"name": "overall", "au_ids": [4, 6, 9, 10, 25, 43]}

    @pytest.mark.parametrize(
        "args, message",
        [
            (("score", "--w", "0"), "window must be >= 1, got 0"),
            (("score", "--feature-sets", "X"), "unknown feature sets: ['X']"),
            (("score", "--au-source", "predicted"),
             "predicted AU source cannot score AU 43; use the pain_predicted profile"),
            (("score", "--profile", "overall"),
             "the overall profile requires --au-source predicted"),
            (("sweep", "--windows", "0"), "--windows: window must be >= 1, got '0'"),
            (("interpret", "--seed", "-1"), "--seed must be >= 0, got -1"),
            (("interpret", "--trees", "0"), "n_trees must be >= 1, got 0"),
            (("interpret", "--max-depth", "-1"), "max_depth must be >= 0, got -1"),
            (("interpret", "--min-samples-leaf", "0"), "min_samples_leaf must be >= 1, got 0"),
            # a list entry is an integer as str(int) writes it, blanks around it aside
            (("sweep", "--windows", "3_0,+5"), "--windows: window must be >= 1, got '3_0'"),
            (("sweep", "--windows", "3, +5"), "--windows: window must be >= 1, got '+5'"),
            (("score", "--au-source", "predicted", "--profile", "4,6_0"),
             "unknown profile '4,6_0'"),
            (("score", "--au-source", "predicted", "--profile", "04, 6"),
             "unknown profile '04, 6'"),
            (("score", "--profile", ","), "unknown profile ','"),
            (("interpret", "--pspi-threshold", "nan"),
             "--pspi-threshold must be a number, got nan"),
            (("interpret", "--ted-high", "nan", "--conf-low", "nan"),
             "--ted-high must be a number, got nan"),
            (("interpret", "--conf-low", "nan"), "--conf-low must be a number, got nan"),
            (("interpret", "--ted-low", "NaN"), "--ted-low must be a number, got nan"),
            (("interpret", "--conf-high", "NAN"), "--conf-high must be a number, got nan"),
            (("summarize", "--plot-data", "sub/x.csv"),
             "--plot-data must be a file name, got 'sub/x.csv'"),
            (("summarize", "--plot-data", "x.csv/"),
             "--plot-data must be a file name, got 'x.csv/'"),
            (("summarize", "--plot-data", ""), "--plot-data must be a file name, got ''"),
            (("summarize", "--plot-data", "."), "--plot-data must be a file name, got '.'"),
            (("summarize", "--plot-data", ".."), "--plot-data must be a file name, got '..'"),
            (("summarize", "--plot-data", "summary.json"),
             "--plot-data 'summary.json' would overwrite a summarize output"),
            (("summarize", "--plot-data", "summary.txt"),
             "--plot-data 'summary.txt' would overwrite a summarize output"),
            (("summarize", "--plot-data", "run_metadata.json"),
             "--plot-data 'run_metadata.json' would overwrite a summarize output"),
            # relative change over the I stream needs two action units
            (("evaluate", "--profile", "4"),
             "feature set I needs at least 2 action units; profile 'custom' has 1"),
            (("score", "--au-source", "predicted", "--profile", "4", "--feature-sets", "L,I"),
             "feature set I needs at least 2 action units; profile 'custom' has 1"),
        ],
        ids=["w", "feature-sets", "predicted-au43", "overall-manual", "windows", "seed",
             "trees", "max-depth", "min-samples-leaf", "windows-underscore", "windows-plus",
             "profile-underscore", "profile-leading-zero", "profile-no-entry",
             "pspi-threshold-nan",
             "ted-high-and-conf-low-nan", "conf-low-nan", "ted-low-nan", "conf-high-nan",
             "plot-data-subdir", "plot-data-trailing-slash", "plot-data-empty", "plot-data-dot",
             "plot-data-dotdot", "plot-data-summary-json", "plot-data-summary-txt",
             "plot-data-metadata", "one-au-profile", "one-au-profile-predicted"],
    )
    def test_config_error_reads_no_data_file(
        self, dataset, tmp_path, capsys, open_recorder, args, message
    ):
        with open_recorder.recording() as opened:
            code, out = run(dataset, tmp_path, *args)
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()
        assert _data_files_opened(dataset, opened) == []

    def test_one_au_overall_profile_is_2_once_known(self, tmp_path, capsys):
        """`overall` takes its action units from the data: a file set binding one AU
        fails once read, and scores without the I stream."""
        records = make_separable_dataset(n_subjects=2, n_sequences=1, n_frames=20, seed=3)
        manifest = write_dataset(records, tmp_path / "ds")
        schema = dataclasses.asdict(FeatureCsvSchema.default(n_landmarks=5, au_ids=(4,)))
        (tmp_path / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
        flags = ("--au-source", "predicted", "--profile", "overall",
                 "--schema", str(tmp_path / "schema.json"))
        code, out = run(manifest, tmp_path, "score", *flags)
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: feature set I needs at least 2 action units; profile 'overall' has 1\n"
        )
        assert not out.exists()
        code, _ = run(manifest, tmp_path / "without-i", "score", *flags,
                      "--feature-sets", "L,Ho,Hr,Gl,Gr")
        assert code == 0

    def test_absolute_plot_data_path_is_2(self, dataset, tmp_path, capsys, open_recorder):
        target = tmp_path / "elsewhere.csv"
        with open_recorder.recording() as opened:
            code, out = run(dataset, tmp_path, "summarize", "--plot-data", str(target))
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: --plot-data must be a file name, got {str(target)!r}\n"
        )
        assert not out.exists() and not target.exists()
        assert _data_files_opened(dataset, opened) == []

    @pytest.mark.parametrize(
        "command, flag",
        [("score", "--w"), ("score", "--jobs"), ("interpret", "--seed"), ("interpret", "--trees"),
         ("interpret", "--max-depth"), ("interpret", "--min-samples-leaf")],
    )
    @pytest.mark.parametrize("value", ["1_0", "+5", " 7", "04"])
    def test_integer_flag_spelled_otherwise_is_2(
        self, dataset, tmp_path, capsys, open_recorder, command, flag, value
    ):
        """int() reads each value (as 10, 5, 7 and 4); a flag takes only the form it writes."""
        with open_recorder.recording() as opened, pytest.raises(SystemExit) as exc:
            run(dataset, tmp_path, command, flag, value)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"ted {command}: error: argument {flag}: invalid integer value: {value!r}"
        )
        assert not (tmp_path / "out").exists()
        assert _data_files_opened(dataset, opened) == []

    def test_blanks_around_list_entries_are_read(self, dataset, tmp_path):
        code, out = run(dataset, tmp_path / "sweep", "sweep", "--windows", " 3, 5 ")
        assert code == 0
        metadata = json.loads((out / "run_metadata.json").read_text())
        assert metadata["config"]["windows"] == [3, 5]
        code, out = run(dataset, tmp_path / "score", "score", "--au-source", "predicted",
                        "--profile", "4, 6")
        assert code == 0
        metadata = json.loads((out / "run_metadata.json").read_text())
        assert metadata["config"]["profile"] == {"name": "custom", "au_ids": [4, 6]}

    def test_infinite_threshold_is_a_number(self, dataset, tmp_path):
        """--ted-high inf flags no frame for a high score, where 0 flags some."""

        def high_flags(ted_high):
            code, out = run(dataset, tmp_path / ted_high, "interpret", "--trees", "5",
                            "--ted-high", ted_high, "--conf-low", "1")
            assert code == 0
            flags = json.loads((out / "interpret.json").read_text())["flags"]
            return sum(flag["reason"] == "high score, low confidence" for flag in flags)

        assert high_flags("0") > 0
        assert high_flags("inf") == 0

    def test_missing_manual_au_file_reads_no_data_file(self, tmp_path, capsys, open_recorder):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        manifest = write_dataset(records, tmp_path / "ds")
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        del payload["entries"][-1]["manual_au_file"]
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        with open_recorder.recording() as opened:
            code, out = run(manifest, tmp_path, "score")
        assert code == 3
        assert capsys.readouterr().err == (
            f"input error: manifest {manifest}: P003/01: manual AU source requested but no "
            "manual_au_file\n"
        )
        assert not out.exists()
        assert _data_files_opened(manifest, opened) == []

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

    @pytest.mark.parametrize(
        "text", ['{"frame": "frame"}', "{broken", "[1]", '"frame"']
    )
    def test_bad_schema_file_is_3(self, dataset, tmp_path, text):
        schema = tmp_path / "schema.json"
        schema.write_text(text, encoding="utf-8")
        code, _ = run(dataset, tmp_path, "score", "--schema", str(schema))
        assert code == 3

    @pytest.mark.parametrize("key, columns", [("pose_translation", ["pose_Tx", "pose_Ty"]),
                                              ("gaze_left", [])])
    def test_schema_vector_block_not_three_columns_is_3(
        self, dataset, tmp_path, capsys, key, columns
    ):
        schema = _write_default_schema(tmp_path / "schema.json")
        raw = json.loads(schema.read_text(encoding="utf-8"))
        raw[key] = columns
        schema.write_text(json.dumps(raw), encoding="utf-8")
        code, out = run(
            dataset, tmp_path, "score", "--schema", str(schema), "--feature-sets", "L,Ho,Hr,Gr,I"
        )
        assert code == 3
        assert not (out / "scores.csv").exists()
        assert capsys.readouterr().err.strip().splitlines()[-1].endswith(
            f"schema file {schema}: {key} must name 3 columns, got {len(columns)}"
        )

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("frame", ["frame"], "a string"),
            ("success", 7, "a string"),
            ("pose_translation", "xyz", "a list of strings"),
            ("landmark_x", ["x_0", 1], "a list of strings"),
            ("au_intensity", {"4": 5}, "an object of strings"),
            ("au_intensity", {"x": "AU04_r"}, "keyed by integers, got 'x'"),
            ("au_intensity", {"4": "AU04_r", "04": "AU06_r"}, "keyed by integers, got '04'"),
            ("au_intensity", {"6_0": "AU04_r"}, "keyed by integers, got '6_0'"),
            ("au_intensity", {" 7": "AU04_r"}, "keyed by integers, got ' 7'"),
        ],
    )
    def test_schema_value_of_wrong_json_type_is_3(
        self, dataset, tmp_path, capsys, key, value, kind
    ):
        schema = _write_default_schema(tmp_path / "schema.json")
        raw = json.loads(schema.read_text(encoding="utf-8"))
        raw[key] = value
        schema.write_text(json.dumps(raw), encoding="utf-8")
        code, out = run(dataset, tmp_path, "score", "--schema", str(schema))
        assert code == 3
        assert not (out / "scores.csv").exists()
        assert capsys.readouterr().err.strip().splitlines()[-1].endswith(
            f"schema file {schema}: {key} must be {kind}"
        )

    @pytest.mark.parametrize(
        "key, value, column",
        [("frame", "", ""), ("landmark_x", ["x_0", "x_1", "x_9"], "x_9"),
         ("au_intensity", {"4": "AU4"}, "AU4")],
    )
    def test_schema_column_a_feature_file_lacks_is_named_by_the_schema(
        self, dataset, tmp_path, capsys, key, value, column
    ):
        schema = _write_default_schema(tmp_path / "schema.json")
        raw = json.loads(schema.read_text(encoding="utf-8"))
        raw[key] = value
        schema.write_text(json.dumps(raw), encoding="utf-8")
        code, out = run(dataset, tmp_path, "score", "--schema", str(schema))
        assert code == 3
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"input error: {dataset.parent / 'P001_01_features.csv'}: missing column "
            f"{column!r}, bound to {key!r} by schema file {schema}\n"
        )

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
            ("P001,01,1.5,0.5", "line 3, column 'frame': '1.5' is not an integer"),
            ("P001,01,,0.5", "line 3, column 'frame': '' is not an integer"),
            ("P001,01,0_1,0.5", "line 3, column 'frame': '0_1' is not an integer"),
            ("P001,01,2,+0.5", "line 3, column 'confidence_pain': '+0.5' is not a number"),
            ("P001,01", "line 3 has 2 cells, the header has 4"),
        ],
    )
    def test_bad_predictions_row_is_3(self, dataset, tmp_path, capsys, row, message):
        preds = tmp_path / "preds.csv"
        preds.write_text(
            f"subject,sequence,frame,confidence_pain\nP001,01,1,0.5\n{row}\n",
            encoding="utf-8",
        )
        code, out = run(dataset, tmp_path, "interpret", "--predictions", str(preds))
        assert code == 3
        assert not out.exists()
        assert f"{preds}: {message}" in capsys.readouterr().err

    def test_bad_predictions_come_before_a_compute_error(self, tmp_path, capsys):
        """Every input is read before anything is computed: exit 3, not 4, and no --out."""
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        records[0].frames.stream("L")[4, 1] = float("nan")
        manifest = write_dataset(records, tmp_path / "ds")
        preds = tmp_path / "preds.csv"
        preds.write_text(
            "subject,sequence,frame,confidence_pain\nP001,01,1,0.5\n\n", encoding="utf-8"
        )
        code, out = run(manifest, tmp_path, "interpret", "--predictions", str(preds))
        assert code == 3
        assert not out.exists()
        assert capsys.readouterr().err.endswith(f"input error: {preds}: line 3 has 0 cells, "
                                                "the header has 4\n")

    def test_repeated_prediction_key_is_3(self, dataset, tmp_path, capsys):
        code, out = run(dataset, tmp_path, "interpret", "--trees", "5")
        assert code == 0
        preds = out / "predictions.csv"
        lines = preds.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3 * 40 + 1
        preds.write_text("\n".join(lines + lines[1:3]) + "\n", encoding="utf-8")
        code, out = run(dataset, tmp_path / "audit", "interpret", "--predictions", str(preds))
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{preds}: line 122 repeats P001/01 frame 1 of line 2" in err

    @pytest.mark.parametrize(
        "name", ["manifest.json", "P002_01_features.csv", "P002_01_manual_aus.csv",
                 "P002_01_pspi.csv", "schema.json", "predictions.csv"],
    )
    def test_non_utf8_input_is_3(self, tmp_path, capsys, name):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        manifest = write_dataset(records, tmp_path / "ds")
        schema = _write_default_schema(manifest.parent / "schema.json")
        preds = _write_predictions(records, manifest.parent / "predictions.csv")
        path = manifest.parent / name
        data = path.read_bytes()
        path.write_bytes(data[:20] + b"\xff" + data[20:])
        code, out = run(
            manifest, tmp_path, "interpret", "--schema", str(schema), "--predictions", str(preds)
        )
        assert code == 3
        assert not out.exists()
        assert f"input error: {path}: not valid UTF-8 (byte 20)" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["empty line", "past int64"])
    @pytest.mark.parametrize(
        "name", ["P002_01_features.csv", "P002_01_manual_aus.csv", "predictions.csv"]
    )
    def test_one_row_rule_and_one_integer_type_in_every_csv_kind(
        self, tmp_path, capsys, name, edit
    ):
        """An empty line after the last row, or a last frame cell past int64, is exit 3
        naming the file and line in each of the three CSV kinds."""
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        manifest = write_dataset(records, tmp_path / "ds")
        preds = _write_predictions(records, manifest.parent / "predictions.csv")
        path = manifest.parent / name
        lines = path.read_text(encoding="utf-8").splitlines()
        if edit == "empty line":
            lines.append("")
            message = f"{path}: line {len(lines)} has 0 cells"
        else:
            cells = lines[-1].split(",")
            cells[lines[0].split(",").index("frame")] = "99999999999999999999"
            lines[-1] = ",".join(cells)
            message = f"{path}: line {len(lines)}, column 'frame': '99999999999999999999' is"
            if name.endswith("features.csv"):  # a frame number cell is a number cell
                message = f"{path}: frame number 1e+20 in column 'frame', line {len(lines)} is"
            message += " outside the 64-bit integer range"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out = run(manifest, tmp_path, "interpret", "--predictions", str(preds))
        assert code == 3
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", ["manifest.json", "P002_01_features.csv", "P002_01_manual_aus.csv",
                 "P002_01_pspi.csv", "schema.json", "predictions.csv"],
    )
    def test_missing_input_is_3(self, tmp_path, capsys, name):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        manifest = write_dataset(records, tmp_path / "ds")
        schema = _write_default_schema(manifest.parent / "schema.json")
        preds = _write_predictions(records, manifest.parent / "predictions.csv")
        path = manifest.parent / name
        path.unlink()
        code, out = run(
            manifest, tmp_path, "interpret", "--schema", str(schema), "--predictions", str(preds)
        )
        assert code == 3
        assert not out.exists()
        # a manifest entry's own file is named by the manifest and the entry too
        field = {"P002_01_features.csv": "feature_file", "P002_01_manual_aus.csv": "manual_au_file",
                 "P002_01_pspi.csv": "pspi_file"}.get(name)
        entry = f"manifest {manifest}: entry 1 (P002/01) {field}: " if field else ""
        assert capsys.readouterr().err == (
            f"input error: {entry}cannot read {path}: No such file or directory\n"
        )

    @pytest.mark.parametrize(
        "windows, message",
        [
            pytest.param("3,0", "window must be >= 1, got '0'", id="0"),
            pytest.param("3,-2", "window must be >= 1, got '-2'", id="-2"),
            pytest.param("3,abc", "window must be >= 1, got 'abc'", id="abc"),
            pytest.param("", "no window length in ''", id="empty"),
            pytest.param(",", "no window length in ','", id="comma"),
        ],
    )
    def test_bad_sweep_window_is_2(self, dataset, tmp_path, capsys, windows, message):
        code, out = run(dataset, tmp_path, "sweep", "--windows", windows)
        assert code == 2
        assert f"config error: --windows: {message}" in capsys.readouterr().err
        assert not (out / "ablation.json").exists()

    @pytest.mark.parametrize(
        "name, line",
        [
            ("P002_01_features.csv", 1),
            ("P002_01_features.csv", 4),
            ("P002_01_manual_aus.csv", 4),
            ("predictions.csv", 4),
        ],
    )
    def test_oversized_csv_cell_is_3(self, tmp_path, capsys, name, line):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        manifest = write_dataset(records, tmp_path / "ds")
        preds = _write_predictions(records, manifest.parent / "predictions.csv")
        path = manifest.parent / name
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[line - 1] += "," + "x" * 200_000
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out = run(manifest, tmp_path, "interpret", "--predictions", str(preds))
        assert code == 3
        err = capsys.readouterr().err
        assert f"input error: {path}: line {line}: field larger than field limit" in err
        assert not (out / "interpret.json").exists()

    def test_manual_au_id_over_the_field_limit_is_3(self, tmp_path, capsys):
        """int() and numpy read the padded frame cell as 1; the csv reader rejects it."""
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        manifest = write_dataset(records, tmp_path / "ds")
        path = manifest.parent / "P002_01_manual_aus.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = " " * 140_000 + lines[2]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out = run(manifest, tmp_path, "score", "--au-source", "manual")
        assert code == 3
        assert capsys.readouterr().err.strip().splitlines()[-1].endswith(
            f"input error: {path}: line 3: field larger than field limit (131072)"
        )
        assert not (out / "scores.csv").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--trees", "-1", "n_trees must be >= 1, got -1"),
            ("--trees", "0", "n_trees must be >= 1, got 0"),
            ("--max-depth", "-1", "max_depth must be >= 0, got -1"),
            ("--min-samples-leaf", "-3", "min_samples_leaf must be >= 1, got -3"),
            ("--min-samples-leaf", "0", "min_samples_leaf must be >= 1, got 0"),
            ("--seed", "-1", "--seed must be >= 0, got -1"),
        ],
    )
    def test_bad_forest_argument_is_2(self, dataset, tmp_path, capsys, flag, value, message):
        code, out = run(dataset, tmp_path, "interpret", "--trees", "3", flag, value)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "interpret.json").exists()

    @pytest.mark.parametrize("command", ["score", "sweep", "evaluate", "summarize", "interpret"])
    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_is_2(self, dataset, tmp_path, capsys, command, jobs):
        code, out = run(dataset, tmp_path, command, "--jobs", jobs)
        assert code == 2
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, extra, result", [("score", (), "scores.csv"),
                                   ("sweep", ("--windows", "3,5"), "ablation.json")]
    )
    def test_forward_orientation_is_the_same_across_jobs(
        self, dataset, tmp_path, command, extra, result
    ):
        runs = {}
        for orientation, jobs in (("forward", "1"), ("forward", "8"), ("trailing", "1")):
            code, out = run(dataset, tmp_path / f"{orientation}-{jobs}", command,
                            "--orientation", orientation, "--jobs", jobs, *extra)
            assert code == 0
            runs[orientation, jobs] = _artifacts(out)
        forward = runs["forward", "1"]
        assert forward["run_metadata.json"]["config"]["window_orientation"] == "forward"
        assert forward == runs["forward", "8"]
        assert forward[result] != runs["trailing", "1"][result]

    def test_compute_error_is_4(self, dataset, tmp_path, capsys):
        # external predictions referencing frames outside the dataset
        preds = tmp_path / "preds.csv"
        preds.write_text(
            "subject,sequence,frame,confidence_pain\nZZ,99,1,0.5\n", encoding="utf-8"
        )
        code, _ = run(dataset, tmp_path, "interpret", "--predictions", str(preds))
        assert code == 4
        assert capsys.readouterr().err == (
            f"compute error: {preds}: external prediction ZZ/99 frame 1 not in dataset\n"
        )

    def test_summarize_non_positive_score_is_4(self, dataset, tmp_path, capsys):
        # separable scores reach 0, which the default log transform cannot take
        code, _ = run(dataset, tmp_path, "summarize")
        assert code == 4
        assert capsys.readouterr().err == (
            "compute error: sequence P001/01 has a non-positive score; use --no-log\n"
        )

    def test_summarize_missing_label_is_4(self, tmp_path, capsys):
        records = make_separable_dataset(n_subjects=2, n_sequences=1, n_frames=40, seed=7)
        manifest = write_dataset(records, tmp_path / "ds")
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        del payload["entries"][1]["labels"]
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        code, _ = run(manifest, tmp_path, "summarize", "--no-log")
        assert code == 4
        assert capsys.readouterr().err == "compute error: sequence P002/01 has no VAS label\n"

    @pytest.mark.parametrize("command", ["score", "sweep", "evaluate", "summarize", "interpret"])
    def test_repeated_frame_is_3(self, tmp_path, capsys, command):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        manifest = write_dataset(records, tmp_path / "ds")
        features = manifest.parent / "P001_01_features.csv"
        data = features.read_bytes()
        assert data.count(b"\r\n6,") == 1
        features.write_bytes(data.replace(b"\r\n6,", b"\r\n5,"))  # row 6 repeats frame 5
        extra = {"interpret": ("--trees", "3"), "summarize": ("--no-log",)}.get(command, ())
        assert run(manifest, tmp_path, command, *extra)[0] == 3
        # every row is keyed by (subject, sequence, frame): two rows cannot share a key
        assert capsys.readouterr().err == (
            f"input error: {features}: line 7 repeats frame 5 of line 6\n"
        )

    @pytest.mark.parametrize("command", ["evaluate", "sweep", "interpret"])
    def test_sequence_without_pspi_labels_is_4(self, tmp_path, capsys, command):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        manifest = write_dataset(records, tmp_path / "ds")
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        del payload["entries"][1]["pspi_file"]
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        extra = ("--trees", "3") if command == "interpret" else ()
        assert run(manifest, tmp_path, command, *extra)[0] == 4
        assert capsys.readouterr().err == "compute error: sequence P002/01 has no PSPI labels\n"

    def test_uncovered_manual_au_frame_names_file_and_sequence_is_3(self, tmp_path, capsys):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        manifest = write_dataset(records, tmp_path / "ds")
        manual = manifest.parent / "P002_01_manual_aus.csv"
        lines = manual.read_text(encoding="utf-8").splitlines()
        manual.write_text(
            "\n".join(line for line in lines if not line.startswith("7,")) + "\n",
            encoding="utf-8",
        )
        assert run(manifest, tmp_path, "score")[0] == 3
        assert capsys.readouterr().err == (
            f"input error: {manual}: manual coding does not cover frame 7 of P002/01\n"
        )


class TestRowOrder:
    def test_scores_keep_file_order_and_predictions_key_order(self, tmp_path, capsys):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        manifest = write_dataset(records, tmp_path / "ds")
        features = manifest.parent / "P001_01_features.csv"
        data = features.read_bytes()
        data = data.replace(b"\r\n6,", b"\r\nsix,").replace(b"\r\n7,", b"\r\n6,")
        features.write_bytes(data.replace(b"\r\nsix,", b"\r\n7,"))  # rows 6 and 7 swap frames
        file_order = [1, 2, 3, 4, 5, 7, 6, *range(8, 41)]

        def frames(path):
            with open(path, newline="", encoding="utf-8") as fh:
                return [int(row["frame"]) for row in csv.DictReader(fh) if row["subject"] == "P001"]

        code, out = run(manifest, tmp_path / "score", "score")
        assert code == 0
        assert frames(out / "scores.csv") == file_order
        code, out = run(manifest, tmp_path / "interpret", "interpret", "--trees", "3")
        assert code == 0
        assert frames(out / "predictions.csv") == sorted(file_order)
        # a frame number that descends without repeating is only a warning
        warning = "warning: P001/01 frame_index (frame 6): not strictly increasing after 7\n"
        assert capsys.readouterr().err == 2 * warning


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
        assert payload["mean_f1"] >= 0.9
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

    def test_findings_are_printed_as_warnings(self, dataset, tmp_path, capsys):
        """A skipped fold or an undefined scenario correlation reaches stderr, as sweep's
        and evaluate's findings do, in the order interpret.json lists them."""
        code, out = run(dataset, tmp_path, "interpret", "--trees", "5", "--pspi-threshold", "10")
        assert code == 0
        findings = json.loads((out / "interpret.json").read_text())["findings"]
        assert "scenario type1: need at least 3 points, got 1" in findings
        err = capsys.readouterr().err
        assert err == "".join(f"warning: {finding}\n" for finding in findings)
        code, _ = run(dataset, tmp_path / "audit", "interpret",
                      "--predictions", str(out / "predictions.csv"))
        assert code == 0
        assert "warning: external predictions: no LOSO F1 computed\n" in capsys.readouterr().err

    def test_metadata_records_every_forest_flag(self, dataset, tmp_path):
        """Two runs that differ only in a forest flag write different metadata."""
        code, out = run(dataset, tmp_path, "interpret", "--trees", "5", "--max-depth", "1",
                        "--min-samples-leaf", "3", "--stratified-bootstrap")
        assert code == 0
        config = json.loads((out / "run_metadata.json").read_text())["config"]
        forest = ("n_trees", "max_depth", "min_samples_leaf", "stratified_bootstrap")
        assert {key: config[key] for key in forest} == {
            "n_trees": 5, "max_depth": 1, "min_samples_leaf": 3, "stratified_bootstrap": True
        }
        code, out = run(dataset, tmp_path / "default", "interpret", "--trees", "5")
        config = json.loads((out / "run_metadata.json").read_text())["config"]
        assert {key: config[key] for key in forest} == {
            "n_trees": 5, "max_depth": None, "min_samples_leaf": 1, "stratified_bootstrap": False
        }

    def test_external_predictions_audit(self, dataset, tmp_path):
        code, out = run(dataset, tmp_path, "interpret", "--trees", "5")
        preds = out / "predictions.csv"
        code2, out2 = run(
            dataset, tmp_path / "audit", "interpret", "--predictions", str(preds)
        )
        assert code == 0 and code2 == 0
        loso = json.loads((out / "interpret.json").read_text())
        payload = json.loads((out2 / "interpret.json").read_text())
        assert payload["per_subject_f1"] == {}
        assert math.isnan(payload["mean_f1"])
        assert payload["findings"][0] == "external predictions: no LOSO F1 computed"
        # the audit joins the labels the training run had, so its scenarios match
        for key in ("scenario_counts", "scenario_correlation", "flags"):
            assert payload[key] == loso[key]
        assert not (out2 / "predictions.csv").exists()


class TestResultShapes:
    """The exact keys of every JSON result, so that a renamed field shows."""

    def test_json_keys(self, dataset, tmp_path):
        def result(command, name, *extra):
            code, out = run(dataset, tmp_path / command, command, *extra)
            assert code == 0
            return json.loads((out / name).read_text(encoding="utf-8"))

        subject = {"subject_id", "pcc", "p_value", "n_frames"}
        correlations = result("evaluate", "correlations.json")
        assert set(correlations) == {"subjects", "mean_pcc", "findings"}
        assert all(set(s) == subject for s in correlations["subjects"])

        ablation = result("sweep", "ablation.json", "--windows", "3,5,10")
        assert set(ablation) == {"best_window", "windows", "findings"}
        for window in ablation["windows"]:
            assert set(window) == {
                "window", "mean_pcc", "median_pcc", "q1_pcc", "q3_pcc", "subjects"
            }
            assert all(set(s) == subject for s in window["subjects"])

        summary = result("summarize", "summary.json", "--scale", "OPI", "--no-log")
        assert set(summary) == {"scale", "transform", "groups"}
        assert summary["groups"]
        for group in summary["groups"]:
            assert set(group) == {
                "label", "gender", "count", "min", "q1", "median", "q3", "max", "mean", "std"
            }

        # thresholds loose enough that some frames are flagged
        report = result(
            "interpret", "interpret.json", "--trees", "20", "--seed", "7",
            "--ted-low", "60", "--conf-high", "0.5",
        )
        assert set(report) == {
            "per_subject_f1", "mean_f1", "scenario_counts", "scenario_correlation",
            "flags", "findings",
        }
        assert set(report["scenario_counts"]) == {"TP", "TN", "type1", "type2"}
        assert report["flags"]
        for flag in report["flags"]:
            assert set(flag) == {
                "subject", "sequence", "frame", "ted_score", "confidence_pain",
                "scenario", "reason",
            }


_PLANS = [
    ("score", ()),
    ("sweep", ("--windows", "3,5")),
    ("evaluate", ()),
    ("summarize", ("--scale", "OPI", "--no-log")),
    ("interpret", ("--trees", "5")),
]


class TestOneRunPath:
    @pytest.mark.parametrize("command, extra", _PLANS)
    def test_every_failing_sequence_is_named(self, tmp_path, capsys, command, extra):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        records[0].frames.stream("L")[4, 1] = float("nan")
        records[2].frames.stream("L")[9, 5] = float("nan")
        manifest = write_dataset(records, tmp_path / "ds")
        code, _ = run(manifest, tmp_path, command, *extra)
        assert code == 4
        err = capsys.readouterr().err
        assert (
            "compute error: sequence P001/01: non-finite L feature at frame 5; "
            "sequence P003/01: non-finite L feature at frame 10\n"
        ) in err

    def test_each_input_is_read_once(self, tmp_path, monkeypatch, open_recorder):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        manifest = write_dataset(records, tmp_path / "ds")
        schema = _write_default_schema(tmp_path / "schema.json")
        preds = _write_predictions(records, tmp_path / "predictions.csv")
        inputs = sorted(manifest.parent.iterdir()) + [schema, preds]
        manifest_loads = []
        monkeypatch.setattr(
            ted.cli, "load_manifest",
            lambda *a, **k: manifest_loads.append(a) or load_manifest(*a, **k),
        )
        with open_recorder.recording() as opened:
            code, out = run(
                manifest, tmp_path, "interpret", "--schema", str(schema),
                "--predictions", str(preds),
            )
        assert code == 0
        assert len(manifest_loads) == 1
        assert {path.name: opened.count(str(path)) for path in inputs} == dict.fromkeys(
            (path.name for path in inputs), 1
        )
        digests = json.loads((out / "run_metadata.json").read_text())["input_digests"]
        names = {path: path.name for path in manifest.parent.iterdir()}
        names.update({schema: str(schema), preds: str(preds)})
        assert digests == {
            name: hashlib.sha256(path.read_bytes()).hexdigest() for path, name in names.items()
        }

    def test_predicted_au_source_does_not_read_manual_codings(self, tmp_path, open_recorder):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=7)
        manifest = write_dataset(records, tmp_path / "ds")
        with open_recorder.recording() as opened:
            code, out = run(
                manifest, tmp_path, "score", "--au-source", "predicted",
                "--profile", "pain_predicted",
            )
        assert code == 0
        digests = json.loads((out / "run_metadata.json").read_text())["input_digests"]
        assert sorted(digests) == sorted(
            path.name for path in manifest.parent.iterdir() if "manual" not in path.name
        )
        assert not any("manual" in path for path in opened)


def _data_files_opened(manifest, opened):
    """The feature, manual-AU and PSPI files among the `opened` paths."""
    data = {str(path) for path in manifest.parent.iterdir() if path.suffix == ".csv"}
    return [path for path in opened if path in data]


class _OpenRecorder:
    """Paths of the files this process opens while recording.

    Audit hooks cannot be removed, so one recorder serves the whole module.
    """

    def __init__(self):
        self.paths = None
        sys.addaudithook(self._hook)

    def _hook(self, event, args):
        if event == "open" and self.paths is not None and isinstance(args[0], (str, os.PathLike)):
            self.paths.append(os.fspath(args[0]))

    @contextlib.contextmanager
    def recording(self):
        self.paths = []
        try:
            yield self.paths
        finally:
            self.paths = None


@pytest.fixture(scope="module")
def open_recorder():
    return _OpenRecorder()


class TestStartup:
    def test_no_command_needs_scipy(self, tmp_path):
        """Every command runs where importing scipy fails, with an ordinary run's results."""
        records = make_correlated_dataset(n_subjects=3, n_sequences=2, n_frames=40, seed=5)
        manifest = write_dataset(records, tmp_path / "ds")
        path = [str(Path(ted.cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        # a None entry in sys.modules makes every import of scipy raise ImportError
        probe = (
            "import sys; sys.modules['scipy'] = None; from ted.cli import main; sys.exit(main())"
        )

        def blocked(*args):
            done = subprocess.run(
                [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True
            )
            assert done.returncode == 0, done.stderr

        blocked("--version")
        stages = {
            "score": [],
            "sweep": ["--windows", "3,5"],
            "evaluate": [],
            "summarize": ["--scale", "VAS", "--plot-data", "plot.csv"],
            "interpret": ["--trees", "5"],
        }
        for command, extra in stages.items():
            args = [command, "--manifest", str(manifest), *extra, "--out"]
            blocked(*args, str(tmp_path / "blocked" / command))
            assert main([*args, str(tmp_path / "plain" / command)]) == 0
            assert _artifacts(tmp_path / "blocked" / command) == _artifacts(
                tmp_path / "plain" / command
            ), command


def _run_full_analysis():
    script = Path(__file__).parent.parent / "scripts" / "run_full_analysis.py"
    spec = importlib.util.spec_from_file_location("run_full_analysis", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunFullAnalysis:
    def test_loads_once_and_matches_separate_runs(self, tmp_path, monkeypatch):
        records = make_separable_dataset(n_subjects=3, n_sequences=2, n_frames=40, seed=3)
        manifest = write_dataset(records, tmp_path / "ds")
        module = _run_full_analysis()
        loads = []
        monkeypatch.setattr(
            ted.cli, "load_dataset", lambda *a, **k: loads.append(a) or load_dataset(*a, **k)
        )
        assert module.main([str(manifest), str(tmp_path / "all"), "--no-log", "--seed", "3"]) == 0
        assert len(loads) == 1

        common = ["--manifest", str(manifest), "--w", "10", "--profile", "pain",
                  "--au-source", "manual", "--jobs", "1"]
        stages = {
            "score": [],
            "sweep": [],
            "evaluate": [],
            "summarize": ["--scale", "VAS", "--plot-data", "plot.csv", "--no-log"],
            "interpret": ["--seed", "3"],
        }
        for command, extra in stages.items():
            alone = tmp_path / "alone" / command
            assert main([command, *common, "--out", str(alone), *extra]) == 0
            assert _artifacts(tmp_path / "all" / command) == _artifacts(alone), command
        assert len(loads) == 1 + len(stages)

    def test_negative_seed_is_2(self, tmp_path, capsys, open_recorder):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=3)
        manifest = write_dataset(records, tmp_path / "ds")
        args = [str(manifest), str(tmp_path / "all"), "--seed", "-1"]
        with open_recorder.recording() as opened:
            assert _run_full_analysis().main(args) == 2
        assert capsys.readouterr().err == (
            "config error: --seed must be >= 0, got -1\ninterpret failed with exit code 2\n"
        )
        assert not (tmp_path / "all").exists()
        assert _data_files_opened(manifest, opened) == []

    @pytest.mark.parametrize("flag", ["--w", "--seed", "--jobs"])
    def test_integer_flag_spelled_otherwise_is_2(self, tmp_path, capsys, flag):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=40, seed=3)
        manifest = write_dataset(records, tmp_path / "ds")
        with pytest.raises(SystemExit) as exc:
            _run_full_analysis().main([str(manifest), str(tmp_path / "all"), flag, "1_0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: argument {flag}: invalid integer value: '1_0'"
        )
        assert not (tmp_path / "all").exists()


def _artifacts(out_dir):
    """Every output file's bytes; run_metadata.json without its timestamp."""
    artifacts = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "run_metadata.json":
            metadata = json.loads(path.read_text())
            metadata.pop("timestamp")
            artifacts[path.name] = metadata
        else:
            artifacts[path.name] = path.read_bytes()
    return artifacts


_FUZZ_TEXT = st.text(
    alphabet=string.ascii_letters + string.digits + string.punctuation + " ", max_size=6
)
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    _FUZZ_TEXT,
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(_FUZZ_TEXT, st.integers(0, 3), max_size=2),
)
_TEXT_MUTATIONS = [
    "blank", "truncate", "extra", "non_numeric", "duplicate_header", "repeat_row", "byte_ff"
]
# every input of one `interpret --predictions` run with manually coded AUs and a schema
_FUZZ_FILES = {
    "features": "P001_01_features.csv",
    "manual_au": "P002_01_manual_aus.csv",
    "pspi": "P003_01_pspi.csv",
    "manifest": "manifest.json",
    "predictions": "predictions.csv",
    "schema": "schema.json",
}
# each command with exit-4 paths of its own, on those inputs
_FUZZ_COMMANDS = ["score", "sweep", "evaluate", "summarize", "interpret"]


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@st.composite
def input_file_mutations(draw, target):
    """One malformed edit to the `target` input file: (kind, row, column, text, value)."""
    kinds = _TEXT_MUTATIONS + (["json_value"] if target in ("manifest", "schema") else [])
    kind = draw(st.sampled_from(kinds))
    row = draw(st.integers(1, 10_000))
    col = draw(st.integers(0, 10_000))
    text = draw(_FUZZ_TEXT.filter(lambda t: not _is_float(t)))
    value = draw(_JSON_VALUES)
    return kind, row, col, text, value


def _mutate(data: bytes, kind, row, col, text, value) -> bytes:
    if kind == "byte_ff":
        at = col % (len(data) + 1)
        return data[:at] + b"\xff" + data[at:]
    if kind == "json_value":
        raw = json.loads(data)
        if "entries" not in raw:  # a schema: one of its keys
            raw[sorted(raw)[col % len(raw)]] = value
        elif row % 5 == 0:
            raw["entries"] = value
        else:
            entry = raw["entries"][row % len(raw["entries"])]
            keys = sorted(entry) + ["labels.vas"]
            key = keys[col % len(keys)]
            if key == "labels.vas":
                entry["labels"]["vas"] = value
            else:
                entry[key] = value
        return json.dumps(raw).encode()
    lines = data.decode().splitlines()
    cells = [line.split(",") for line in lines]
    row = 1 + row % (len(lines) - 1)  # a data row, never the header
    col = col % len(cells[row])
    if kind == "blank":
        cells[row] = []
    elif kind == "truncate":
        cells[row] = cells[row][:col]
    elif kind == "extra":
        cells[row].append(text)
    elif kind == "non_numeric":
        cells[row][col] = text
    elif kind == "duplicate_header":
        cells[0][-1] = cells[0][col % len(cells[0])]
    else:
        cells.append(list(cells[row]))
    return ("\n".join(",".join(r) for r in cells) + "\n").encode()


class TestInputFuzz:
    """Malformed input files end in a documented exit code, never a traceback."""

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        records = make_separable_dataset(n_subjects=3, n_sequences=1, n_frames=12, seed=5)
        manifest = write_dataset(records, tmp_path_factory.mktemp("fuzz-ds"))
        # a trailing column no schema binds, as real tracker exports have
        path = manifest.parent / _FUZZ_FILES["features"]
        lines = path.read_text(encoding="utf-8").splitlines()
        lines = [lines[0] + ",confidence"] + [line + ",0.98" for line in lines[1:]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _write_predictions(records, manifest.parent / _FUZZ_FILES["predictions"])
        schema = dataclasses.asdict(FeatureCsvSchema.default(n_landmarks=5, au_ids=(4, 6)))
        schema_path = manifest.parent / _FUZZ_FILES["schema"]
        schema_path.write_text(json.dumps(schema, indent=2), encoding="utf-8")  # lines to edit
        return manifest.parent

    def run(self, command, ds, out):
        args = [command, "--manifest", str(ds / "manifest.json"), "--out", str(out),
                "--schema", str(ds / _FUZZ_FILES["schema"])]
        if command == "interpret":
            args += ["--predictions", str(ds / _FUZZ_FILES["predictions"])]
        elif command == "summarize":
            args.append("--no-log")  # some separable-set scores are 0
        return main(args)

    @pytest.mark.parametrize("command", _FUZZ_COMMANDS)
    def test_clean_inputs_pass(self, clean, tmp_path, command):
        assert self.run(command, clean, tmp_path / "out") == 0

    @pytest.mark.parametrize("target", sorted(_FUZZ_FILES))
    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_exit_code_is_documented(self, clean, target, data):
        """An exit 3's last stderr line names the mutated file; an exit 4's names a file,
        a subject or a sequence. An exit 2 or 3 leaves no --out: every input is read before
        it is made. stderr is redirected, since hypothesis refuses the function-scoped
        capsys."""
        edit = data.draw(input_file_mutations(target))
        command = data.draw(st.sampled_from(_FUZZ_COMMANDS))
        with tempfile.TemporaryDirectory() as tmp:
            ds = Path(tmp) / "ds"
            shutil.copytree(clean, ds)
            path = ds / _FUZZ_FILES[target]
            path.write_bytes(_mutate(path.read_bytes(), *edit))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = self.run(command, ds, Path(tmp) / "out")
            wrote = (Path(tmp) / "out").exists()
        assert code in (0, 2, 3, 4)
        assert not (code in (2, 3) and wrote), (code, command)
        last = (stderr.getvalue().splitlines() or [""])[-1]
        if code == 3:
            # a manifest entry whose own path is wrong is named by the manifest too
            assert str(path) in last, last
        elif code == 4:
            # a file, a subject or a sequence (its key starts with the subject), or the
            # cause when the dataset has no subject to name
            named = [str(ds), "P001", "P002", "P003", "dataset has no sequences"]
            assert any(name in last for name in named), last


class TestUndefinedCorrelation:
    """A subject whose PCC is undefined is a finding, not the whole run's failure."""

    @staticmethod
    def write(tmp_path, constant):
        records = make_correlated_dataset(n_subjects=3, n_sequences=2, n_frames=40)
        for rec in records:
            if rec.subject_id in constant:
                rec.pspi[:] = 0.0
        return write_dataset(records, tmp_path / "ds")

    def test_evaluate_leaves_the_subject_out(self, tmp_path, capsys):
        code, out = run(self.write(tmp_path, {"S001"}), tmp_path, "evaluate")
        assert code == 0
        payload = json.loads((out / "correlations.json").read_text(encoding="utf-8"))
        assert [s["subject_id"] for s in payload["subjects"]] == ["S002", "S003"]
        assert payload["mean_pcc"] == sum(s["pcc"] for s in payload["subjects"]) / 2
        assert payload["findings"] == [
            "subject S001: correlation undefined for a constant series; left out",
            "mean PCC covers 2 of 3 subjects",
        ]
        assert "warning: subject S001" in capsys.readouterr().err

    def test_sweep_leaves_the_subject_out_of_every_window(self, tmp_path):
        code, out = run(self.write(tmp_path, {"S001"}), tmp_path, "sweep", "--windows", "3,5")
        assert code == 0
        payload = json.loads((out / "ablation.json").read_text(encoding="utf-8"))
        for window in payload["windows"]:
            assert [s["subject_id"] for s in window["subjects"]] == ["S002", "S003"]
        assert payload["findings"] == [
            f"window {w}: {finding}"
            for w in (3, 5)
            for finding in (
                "subject S001: correlation undefined for a constant series; left out",
                "mean PCC covers 2 of 3 subjects",
            )
        ]

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_no_defined_subject_is_4(self, tmp_path, capsys, command):
        code, _ = run(self.write(tmp_path, {"S001", "S002", "S003"}), tmp_path, command)
        assert code == 4
        err = capsys.readouterr().err
        assert "no subject has a defined correlation" in err
        assert all(f"subject {s}: " in err for s in ("S001", "S002", "S003"))

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_empty_manifest_names_the_cause(self, tmp_path, capsys, command):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"entries": []}', encoding="utf-8")
        code, _ = run(manifest, tmp_path, command)
        assert code == 4
        assert capsys.readouterr().err == (
            "compute error: no subject has a defined correlation: dataset has no sequences\n"
        )

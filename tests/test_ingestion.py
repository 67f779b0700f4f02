import dataclasses
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_frame
from ted import ingestion
from ted.errors import ConfigError, ManifestError, ParseError, SchemaError
from ted.ingestion import (
    FeatureCsvSchema,
    ManualCodes,
    load_dataset,
    integer,
    load_manifest,
    merge_au_source,
    parse_feature_csv,
    parse_manual_au_file,
    parse_pspi_file,
)
from ted.interpret import Predictions, read_predictions_csv
from ted.model import (
    FrameColumns,
    ManifestEntry,
    PAIN_PREDICTED_PROFILE,
    PAIN_PROFILE,
    SequenceLabels,
)
from ted.synthetic import make_correlated_dataset, make_separable_dataset, write_dataset


def write_feature_csv(path, rows, n_landmarks=2, au_ids=(4, 6)):
    header = ["frame", "success"]
    header += [f"x_{i}" for i in range(n_landmarks)]
    header += [f"y_{i}" for i in range(n_landmarks)]
    header += ["pose_Tx", "pose_Ty", "pose_Tz", "pose_Rx", "pose_Ry", "pose_Rz"]
    header += ["gaze_0_x", "gaze_0_y", "gaze_0_z", "gaze_1_x", "gaze_1_y", "gaze_1_z"]
    header += [f"AU{au:02d}_r" for au in au_ids]
    lines = [",".join(header)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def feature_row(frame=1, success=1, au=(1.0, 2.0)):
    return [frame, success, 0.1, 0.2, 0.3, 0.4, 1, 2, 3, 0.01, 0.02, 0.03,
            0.5, 0.6, 0.7, 0.8, 0.9, 1.0, *au]


class TestInteger:
    @pytest.mark.parametrize("text, value", [("0", 0), ("7", 7), ("-3", -3), ("120", 120)])
    def test_reads_the_form_int_writes(self, text, value):
        assert integer(text) == value
        assert str(value) == text

    # int() reads the first seven, as 4, 60, 5, 7, 7, 0 and 3 (an Arabic-Indic digit)
    @pytest.mark.parametrize(
        "text", ["04", "6_0", "+5", " 7", "7\n", "-0", "\u0663", "", "1.0", "0x1"]
    )
    def test_refuses_every_other_spelling(self, text):
        with pytest.raises(ValueError):
            integer(text)


class TestFeatureCsvSchema:
    def test_infer_from_default_convention(self):
        header = ["frame", "success", "x_0", "x_1", "y_0", "y_1",
                  "pose_Tx", "pose_Ty", "pose_Tz", "pose_Rx", "pose_Ry", "pose_Rz",
                  "gaze_0_x", "gaze_0_y", "gaze_0_z", "gaze_1_x", "gaze_1_y",
                  "gaze_1_z", "AU04_r", "AU43_r"]
        schema = FeatureCsvSchema.infer(header)
        assert schema.landmark_x == ("x_0", "x_1")
        assert schema.au_intensity == {4: "AU04_r", 43: "AU43_r"}

    def test_from_json_round_trip(self, tmp_path):
        schema = FeatureCsvSchema.default(n_landmarks=3, au_ids=(4, 6))
        raw = {
            "frame": schema.frame,
            "success": schema.success,
            "landmark_x": list(schema.landmark_x),
            "landmark_y": list(schema.landmark_y),
            "pose_translation": list(schema.pose_translation),
            "pose_rotation": list(schema.pose_rotation),
            "gaze_left": list(schema.gaze_left),
            "gaze_right": list(schema.gaze_right),
            "au_intensity": {str(k): v for k, v in schema.au_intensity.items()},
        }
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert FeatureCsvSchema.from_json(path) == schema

    @pytest.mark.parametrize("key", ["pose_translation", "pose_rotation", "gaze_left", "gaze_right"])
    @pytest.mark.parametrize("length", [0, 2, 4])
    def test_vector_block_must_name_three_columns(self, tmp_path, key, length):
        raw = dataclasses.asdict(FeatureCsvSchema.default(n_landmarks=2, au_ids=(4,)))
        raw[key] = [f"c_{i}" for i in range(length)]
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            FeatureCsvSchema.from_json(path)
        assert str(info.value) == (
            f"schema file {path}: {key} must name 3 columns, got {length}"
        )

    def test_from_json_missing_key(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text("{\"frame\": \"frame\"}", encoding="utf-8")
        with pytest.raises(SchemaError):
            FeatureCsvSchema.from_json(path)


class TestParseFeatureCsv:
    def test_parses_frames_in_file_order(self, tmp_path):
        path = write_feature_csv(
            tmp_path / "f.csv", [feature_row(1), feature_row(2, au=(0.5, 4.5))]
        )
        frames = parse_feature_csv(path)
        assert [f.frame_index for f in frames] == [1, 2]
        assert frames[0].landmarks == ((0.1, 0.3), (0.2, 0.4))
        assert frames[0].head_translation == (1.0, 2.0, 3.0)
        assert frames[1].au_level(6) == 4.5
        assert all(f.tracking_ok for f in frames)

    def test_predicted_intensities_clamp_to_scale(self, tmp_path):
        path = write_feature_csv(tmp_path / "f.csv", [feature_row(au=(-0.3, 6.2))])
        frames = parse_feature_csv(path)
        assert frames[0].au_level(4) == 0.0
        assert frames[0].au_level(6) == 5.0

    def test_nan_intensity_reads_inactive(self, tmp_path):
        path = write_feature_csv(tmp_path / "f.csv", [feature_row(au=("nan", "inf"))])
        frames = parse_feature_csv(path)
        assert frames.au_levels.tolist() == [[0.0, 5.0]]

    @pytest.mark.parametrize(
        "cells, count", [([], 0), (feature_row()[:-3], 17), (feature_row()[:1], 1)]
    )
    def test_blank_or_short_row_names_location(self, tmp_path, cells, count):
        path = write_feature_csv(tmp_path / "f.csv", [feature_row(1), feature_row(2)])
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert(2, ",".join(str(c) for c in cells))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"line 3 has {count} cells, the header has 20"):
            parse_feature_csv(path)

    def test_extra_trailing_cell_is_ignored(self, tmp_path):
        path = write_feature_csv(tmp_path / "f.csv", [feature_row() + [9.9]])
        assert parse_feature_csv(path)[0] == parse_feature_csv(
            write_feature_csv(tmp_path / "g.csv", [feature_row()])
        )[0]

    @pytest.mark.parametrize(
        "value, what",
        [("nan", "not finite"), ("inf", "not finite"), ("-inf", "not finite"),
         ("2.5", "not an integer"),
         # finite, but past int64: 2**63 is the first value above it
         ("1e300", "outside the 64-bit integer range"),
         ("-1e300", "outside the 64-bit integer range"),
         ("9223372036854775808", "outside the 64-bit integer range")],
    )
    def test_bad_frame_number(self, tmp_path, value, what):
        path = write_feature_csv(tmp_path / "f.csv", [feature_row(1), feature_row(value)])
        with mock.patch.object(ingestion, "_read_rows", side_effect=AssertionError):
            with pytest.raises(ParseError) as info:
                parse_feature_csv(path)
        assert str(info.value) == (
            f"{path}: frame number {float(value)} in column 'frame', line 3 is {what}"
        )

    def test_int64_extremes_are_frame_numbers(self, tmp_path):
        rows = [feature_row(-(2**63)), feature_row(2**63 - 1024)]  # 2**63 - 1 rounds to 2**63
        frames = parse_feature_csv(write_feature_csv(tmp_path / "f.csv", rows)).frame_index
        assert frames.tolist() == [-(2**63), 2**63 - 1024]

    def test_repeated_frame_names_both_lines(self, tmp_path):
        rows = [feature_row(frame) for frame in (2, 1, 2, 1)]
        path = write_feature_csv(tmp_path / "f.csv", rows)
        with mock.patch.object(ingestion, "_read_rows", side_effect=AssertionError):
            with pytest.raises(ParseError) as info:
                parse_feature_csv(path)
        # the first row, in file order, that repeats an earlier row's frame
        assert str(info.value) == f"{path}: line 4 repeats frame 2 of line 2"

    @pytest.mark.parametrize("field", ["landmark_x", "landmark_y"])
    def test_landmark_without_partner_is_not_read(self, tmp_path, field):
        path = write_feature_csv(tmp_path / "f.csv", [feature_row(1), feature_row(2)])
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        text = "".join(f"{line}\n" for line in [f"{header},z_9", *(f"{r},7.5" for r in rows)])
        path.write_text(text, encoding="utf-8")
        schema = FeatureCsvSchema.default(n_landmarks=2, au_ids=(4, 6))
        schema = dataclasses.replace(schema, **{field: (*getattr(schema, field), "z_9")})
        frames = parse_feature_csv(path, schema)
        assert frames.geometry.shape == (2, 2 * 2 + 12)
        assert frames.stream("L").tolist() == [[0.1, 0.2, 0.3, 0.4]] * 2
        assert 7.5 not in frames.geometry

    def test_failed_tracking_row(self, tmp_path):
        path = write_feature_csv(tmp_path / "f.csv", [feature_row(success=0)])
        assert parse_feature_csv(path)[0].tracking_ok is False

    def test_missing_bound_column(self, tmp_path):
        path = write_feature_csv(tmp_path / "f.csv", [feature_row()])
        schema = FeatureCsvSchema.default(n_landmarks=5, au_ids=(4,))
        with pytest.raises(SchemaError, match="x_2"):
            parse_feature_csv(path, schema)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            # x_1 goes missing too, but x_0 comes first in bound order
            ("x_1", "x_0", "column 'x_0' appears 2 times"),
            # AU06_r now appears twice, but x_0 comes first in bound order
            ("x_0", "AU06_r", "missing column 'x_0'"),
            ("pose_Rz,", "pose_Ry,", "column 'pose_Ry' appears 2 times"),
            ("gaze_1_z", "frame", "column 'frame' appears 2 times"),
        ],
    )
    def test_first_bad_bound_column_in_bound_order(self, tmp_path, old, new, message):
        path = write_feature_csv(tmp_path / "f.csv", [feature_row()])
        header, row = path.read_text(encoding="utf-8").splitlines()
        path.write_text(f"{header.replace(old, new, 1)}\n{row}\n", encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            parse_feature_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_repeated_unbound_column_is_read(self, tmp_path):
        path = write_feature_csv(tmp_path / "f.csv", [feature_row() + [7, 8]])
        header, row = path.read_text(encoding="utf-8").splitlines()
        path.write_text(f"{header},note,note\n{row}\n", encoding="utf-8")
        assert parse_feature_csv(path)[0] == parse_feature_csv(
            write_feature_csv(tmp_path / "g.csv", [feature_row()])
        )[0]

    # str.strip() and numpy take '\x1c' as a blank; float() reads the other five
    @pytest.mark.parametrize(
        "value", ["oops", "\x1c2", "1_000", "+2", "infinity", "-Infinity", "\u0663", "2\x0c"]
    )
    def test_non_numeric_cell_names_location(self, tmp_path, value):
        row = feature_row(frame=2)
        row[2] = value
        path = write_feature_csv(tmp_path / "f.csv", [feature_row(), row, feature_row(frame=3)])
        with pytest.raises(ParseError) as info:
            parse_feature_csv(path)
        assert str(info.value) == f"{path}: line 3, column 'x_0': {value!r} is not a number"

    @pytest.mark.parametrize("column, value", [(3, "oops"), (1, "nan"), (1, "2.5"), (1, "1")])
    def test_quoted_line_break_is_an_error_before_later_faults(self, tmp_path, column, value):
        """A quoted cell that holds a line break would make one row of two lines."""
        path = write_feature_csv(tmp_path / "f.csv", [feature_row(1), feature_row(2)])
        header, first, second = path.read_text(encoding="utf-8").splitlines()
        second = ["", *second.split(",")]
        second[column] = value
        text = f"note,{header}\n\"a\nb\",{first}\n" + ",".join(second) + "\n"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse_feature_csv(path)
        assert str(info.value) == f"{path}: line 2: a quoted cell spans lines 2-3"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_feature_csv(path)

    def test_header_only(self, tmp_path):
        path = write_feature_csv(tmp_path / "f.csv", [])
        with pytest.raises(ParseError, match="no data rows"):
            parse_feature_csv(path)


class TestParseManualAuFile:
    def test_letter_and_numeric_grades(self, tmp_path):
        path = tmp_path / "aus.csv"
        path.write_text(
            "frame,au,level\n1,4,C\n1,6,0\n2,4,e\n2,43,1\n", encoding="utf-8"
        )
        codes = parse_manual_au_file(path)
        assert codes.frame.tolist() == [1, 1, 2, 2]
        assert codes.au.tolist() == [4, 6, 4, 43]
        assert codes.level.tolist() == [3.0, 0.0, 5.0, 1.0]  # a-e accepted too
        assert [c.dtype for c in codes] == [np.int64, np.int64, np.float64]

    def test_duplicate_entry(self, tmp_path):
        path = tmp_path / "aus.csv"
        path.write_text("frame,au,level\n1,4,2\n1,4,3\n", encoding="utf-8")
        with pytest.raises(ParseError, match="duplicate"):
            parse_manual_au_file(path)

    @pytest.mark.parametrize("level, message", [
        ("2.5", "line 2, column 'level': '2.5' is not a level"),
        ("3.0", "line 2, column 'level': '3.0' is not a level"),
        ("7", "manual level 7 not in 0-5 (line 2)"),
    ])
    def test_fractional_level_rejected(self, tmp_path, level, message):
        path = tmp_path / "aus.csv"
        path.write_text(f"frame,au,level\n1,4,{level}\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse_manual_au_file(path)
        assert str(info.value) == f"{path}: {message}"

    def test_unknown_grade_rejected(self, tmp_path):
        path = tmp_path / "aus.csv"
        path.write_text("frame,au,level\n1,4,F\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2, column 'level': 'F' is not a level$"):
            parse_manual_au_file(path)

    # int() reads each of these ids; only the form str(int) writes is an integer cell
    @pytest.mark.parametrize("column", ["frame", "au"])
    @pytest.mark.parametrize("cell", ["04", "+4", "4_0", "4.0", "-0", "0_1", "\u0664"])
    def test_id_spelled_otherwise_rejected(self, tmp_path, column, cell):
        path = tmp_path / "aus.csv"
        row = "4,6,2" if column == "frame" else "6,4,2"
        path.write_text(f"frame,au,level\n1,4,2\n{row.replace('4', cell, 1)}\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse_manual_au_file(path)
        assert str(info.value) == f"{path}: line 3, column {column!r}: {cell!r} is not an integer"

    def test_au_outside_facs_range(self, tmp_path):
        path = tmp_path / "aus.csv"
        path.write_text("frame,au,level\n1,4,2\n1,70,2\n", encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            parse_manual_au_file(path)
        assert str(info.value) == f"{path}: au_id 70 outside FACS range 1..64 on line 3"

    @pytest.mark.parametrize("column", ["frame", "au", "level"])
    @pytest.mark.parametrize(
        "value", ["9223372036854775808", "-9223372036854775809", "99999999999999999999"]
    )
    def test_integer_past_int64_is_refused(self, tmp_path, column, value):
        path = tmp_path / "aus.csv"
        row = {"frame": f"{value},4,3", "au": f"2,{value},3", "level": f"2,4,{value}"}[column]
        path.write_text(f"frame,au,level\n1,4,2\n{row}\n3,4,1\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse_manual_au_file(path)
        assert str(info.value) == (
            f"{path}: line 3, column {column!r}: {value!r} is outside the 64-bit integer range"
        )

    def test_int64_extremes_are_frame_numbers(self, tmp_path):
        path = tmp_path / "aus.csv"
        path.write_text(
            "frame,au,level\n-9223372036854775808,4,2\n9223372036854775807,4,C\n",
            encoding="utf-8",
        )
        codes = parse_manual_au_file(path)
        assert codes.frame.tolist() == [-(2**63), 2**63 - 1]
        assert [c.dtype for c in codes] == [np.int64, np.int64, np.float64]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "aus.csv"
        path.write_text("frame,au\n1,4\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="level"):
            parse_manual_au_file(path)

    # an empty line is a row of no cells, as in a feature file
    @pytest.mark.parametrize(
        "rows, line",
        [("1,4,2\n\n1,6,X\n", 3), ("\n1,4,2\n\n\n1,x,2\n", 2), ("1,4,2\n1,6,1\n\n", 4)],
        ids=["between-rows", "after-header", "after-last-row"],
    )
    def test_empty_line_is_refused(self, tmp_path, rows, line):
        path = tmp_path / "aus.csv"
        path.write_text("frame,au,level\n" + rows, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse_manual_au_file(path)
        assert str(info.value) == f"{path}: line {line} has 0 cells, the header has 3"


# Unbound columns lead the bound ones, as in tracker exports; the second
# layout also ends in one, the first ends in a bound column.
_FEATURE_TEXTS = tuple(
    "frame,face_id,timestamp,confidence,success,x_0,x_1,y_0,y_1,"
    "pose_Tx,pose_Ty,pose_Tz,pose_Rx,pose_Ry,pose_Rz,"
    "gaze_0_x,gaze_0_y,gaze_0_z,gaze_1_x,gaze_1_y,gaze_1_z,AU04_r,AU06_r" + tail + "\n"
    + "".join(
        f"{t},0,{t / 30!r},0.98,{t % 3 != 0:d},{0.1 * t!r},-1.5,2.25,{t / 7!r},"
        f"1e-3,2,3,0.01,-0.02,0.03,0.5,0.6,0.7,0.8,0.9,1.0,{t / 3!r},4.75"
        + tail.replace(",AU04_c", ",1") + "\n"
        for t in range(1, 6)
    )
    for tail in ("", ",AU04_c")
)
# whole-number levels, so that edits reach the bulk path; letters are trap cells
_MANUAL_TEXT = "frame,au,level\n" + "".join(
    f"{t},{au},{(t * au) % 6}\n" for t in range(1, 5) for au in (4, 6, 43)
)
# text columns keep a predictions file on the row-wise path
_PREDICTIONS_TEXT = "subject,sequence,frame,confidence_pain\n" + "".join(
    f"S{s},0{q},{t},{t / 8!r}\n" for s in (1, 2) for q in (1, 2) for t in range(1, 4)
)
_PSPI_TEXT = "pspi\n" + "".join(
    f"{v!r}\n" for v in (0.0, 16.0, 2.5, 1 / 3, 15.999999999999998, 7.0)
)


# cells that float(), int() and the two readers may take differently; the cell grammar
# refuses '_', a leading '+', 'infinity' and an id spelled otherwise than str(int) writes
_TRAP_CELLS = [
    "", " ", "abc", "1_000", "١", "nan", "-nan", "inf", "-Infinity", "1e400", "0x1p3",
    "#", "1#2", '"', '"1,2"', '"0,0,0"', " 7 ", "3.0", "2.5", "F", "e", "70", "0", "-1",
    "99999999999999999999", " 1", "1\x0c", "A", "c", "\x1c1", "+1", "+nan",
    "infinity", "INF", "04", "4.0", "4_0", "-0", "1e+2", "1E+2", "e+2", ".5", "5.", "\t2", "\x0c",
]
_EDITS = ["blank", "short", "long", "cell", "duplicate_header", "lone_cr", "crlf",
          "repeat_row", "no_final_newline"]


@st.composite
def text_mutations(draw):
    """One to three edits: (kind, row, column, cell text)."""
    cell = st.one_of(
        st.sampled_from(_TRAP_CELLS),
        st.text(alphabet='0123456789.,-+_eE#"\r aFinfty', max_size=5),
    )
    edit = st.tuples(st.sampled_from(_EDITS), st.integers(0, 99), st.integers(0, 99), cell)
    return draw(st.lists(edit, min_size=1, max_size=3))


def mutate(text, edits):
    """The file `text` with each edit applied to its rows and line ends."""
    rows = [line.split(",") for line in text.splitlines()]
    ends = ["\n"] * len(rows)
    for kind, row, col, cell in edits:
        row = row % len(rows)
        col = col % max(len(rows[row]), 1)
        if kind == "blank":
            rows.insert(row, [""])
            ends.insert(row, "\n")
        elif kind == "short":
            rows[row] = rows[row][:col]
        elif kind == "long":
            rows[row].append(cell)
        elif kind == "cell":
            rows[row][col : col + 1] = [cell]
        elif kind == "duplicate_header" and rows[0]:
            rows[0][col % len(rows[0])] = rows[0][row % len(rows[0])]
        elif kind == "lone_cr":
            ends[row] = "\r"
        elif kind == "crlf":
            ends[row] = "\r\n"
        elif kind == "repeat_row":
            rows.append(list(rows[row]))
            ends.append("\n")
        else:
            ends[-1] = ""
    return "".join(",".join(cells) + end for cells, end in zip(rows, ends))


def _outcome(parse, path):
    try:
        return parse(path)
    except Exception as exc:  # the same type and message from both readers
        return type(exc), str(exc)


def _rowwise(parse, path):
    """`parse` with its numpy bulk path switched off: the row-wise reader alone."""
    with mock.patch.object(ingestion, "_bulk", return_value=None):
        return _outcome(parse, path)


# the number cell grammar, spelled out: an optional '-', then digits with an optional
# fraction and exponent, or nan or inf in any case
_NUMBER_CELL = re.compile(
    r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?|-?([nN][aA][nN]|[iI][nN][fF])"
)


def _read_pspi_lines(path, text: str) -> list[float]:
    """The values of a PSPI file, read line by line: the reference reader."""
    values: list[float] = []
    lines = [(number, ln.strip(" \t")) for number, ln in enumerate(text.split("\n"), start=1)]
    lines = [(number, ln) for number, ln in lines if ln]  # numbers stay physical
    if lines and lines[0][1].lower() == "pspi":
        lines = lines[1:]
    if not lines:
        raise ParseError(f"{path}: empty file")
    for number, raw in lines:
        if not _NUMBER_CELL.fullmatch(raw):
            raise ParseError(f"{path}: line {number}, column 'pspi': {raw!r} is not a number")
    for number, raw in lines:
        value = float(raw)
        if not 0.0 <= value <= 16.0:
            raise ParseError(
                f"{path}: value {value} outside [0, 16] on line {number}"
            )
        values.append(value)
    return values


def _reference_pspi(path):
    """`parse_pspi_file` as the line-by-line reference reader gives it."""
    with ingestion.read_input(path, None) as fh:
        return np.array(_read_pspi_lines(path, fh.read()), dtype=np.float64)


def _same_arrays(xs, ys):
    return len(xs) == len(ys) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(xs, ys)
    )


def _same_result(a, b):
    """The same outcome of two parses: the same exception type and message, or
    the same values bit for bit, with the same dtypes and in the same order."""
    if isinstance(a, FrameColumns) and isinstance(b, FrameColumns):
        return a.au_ids == b.au_ids and _same_arrays(
            [getattr(a, f) for f in _COLUMN_FIELDS], [getattr(b, f) for f in _COLUMN_FIELDS]
        )
    if isinstance(a, ManualCodes) and isinstance(b, ManualCodes):
        return _same_arrays(a, b)
    if isinstance(a, Predictions) and isinstance(b, Predictions):
        return a.keys == b.keys and _same_arrays([a.confidence], [b.confidence])
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):  # PSPI values
        return _same_arrays([a], [b])
    return type(a) is type(b) is tuple and a == b


_COLUMN_FIELDS = ("frame_index", "tracking_ok", "geometry", "au_levels")


class TestOpenQuote:
    """A quote left open in a trailing cell would read every later line into that
    cell, and the file as its first two rows, with no error. The error names the line
    the quote opens on."""

    @pytest.mark.parametrize(
        "name, parse", [("P001_01_features.csv", parse_feature_csv),
                        ("P001_01_manual_aus.csv", parse_manual_au_file)],
    )
    def test_is_an_error_naming_the_file(self, tmp_path, name, parse):
        write_dataset(make_separable_dataset(n_subjects=1, n_sequences=1, n_frames=12), tmp_path)
        path = tmp_path / name
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] += ',"'
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse(path)
        assert str(info.value) == f"{path}: line 3: unexpected end of data"

    @pytest.mark.parametrize(
        "name, parse", [("P001_01_features.csv", parse_feature_csv),
                        ("P001_01_manual_aus.csv", parse_manual_au_file)],
    )
    def test_a_quote_closed_lines_later_is_an_error(self, tmp_path, name, parse):
        """A quote closed four lines later would merge five rows into one."""
        write_dataset(make_separable_dataset(n_subjects=1, n_sequences=1, n_frames=12), tmp_path)
        path = tmp_path / name
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] += ",note"
        lines[1:] = [line + "," for line in lines[1:]]
        lines[2] += '"a'
        lines[6] += 'b"'
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse(path)
        assert str(info.value) == f"{path}: line 3: a quoted cell spans lines 3-7"


class TestFastPathsMatchRowWise:
    """numpy's bulk path accepts only what the row-wise readers accept, with the
    same values bit for bit, and leaves every rejection and its message to them.
    The one PSPI reader matches the line-by-line reference reader above."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("differential")

    @pytest.mark.parametrize("base", range(len(_FEATURE_TEXTS)))
    def test_clean_files_take_the_fast_paths(self, workdir, base):
        features, manual = workdir / "clean.csv", workdir / "clean_aus.csv"
        features.write_text(_FEATURE_TEXTS[base], encoding="utf-8")
        manual.write_text(_MANUAL_TEXT, encoding="utf-8")
        with mock.patch.object(ingestion, "_read_rows", side_effect=AssertionError):
            assert len(parse_feature_csv(features)) == 5
            codes = parse_manual_au_file(manual)
        assert len(codes.frame) == 12
        # letter grades for levels 1-5: read row-wise, to the same values
        letters = workdir / "letter_aus.csv"
        head, *rows = _MANUAL_TEXT.splitlines()
        letters.write_text(
            "\n".join([head] + [row[:-1] + "0ABCDE"[int(row[-1])] for row in rows]) + "\n",
            encoding="utf-8",
        )
        with mock.patch.object(
            ingestion, "_read_rows", wraps=ingestion._read_rows
        ) as rowwise:
            assert _same_result(parse_manual_au_file(letters), codes)
        rowwise.assert_called_once()

    @pytest.mark.parametrize("n_rows", [3, 3_000])  # 3,000 feature rows: about 290 KB
    def test_lone_cr_files_are_read_row_wise(self, workdir, n_rows):
        """A lone \\r sends a file of any size to the row-wise reader, which reads the
        values of the same file with \\n line ends."""
        features = write_feature_csv(
            workdir / "lf.csv", [feature_row(t) for t in range(1, n_rows + 1)]
        )
        manual = workdir / "lf_aus.csv"
        manual.write_text(
            "frame,au,level\n" + "".join(f"{t},4,{t % 6}\n" for t in range(1, n_rows + 1)),
            encoding="utf-8",
        )
        for parse, path in [(parse_feature_csv, features), (parse_manual_au_file, manual)]:
            lone_cr = workdir / f"cr_{path.name}"
            lone_cr.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
            want = parse(path)
            with mock.patch.object(ingestion, "_read_rows", wraps=ingestion._read_rows) as rowwise:
                assert _same_result(parse(lone_cr), want)
            rowwise.assert_called_once()

    def test_crlf_manual_au_file_takes_the_fast_path(self, workdir):
        path = workdir / "crlf_aus.csv"
        path.write_bytes(_MANUAL_TEXT.replace("\n", "\r\n").encode())
        with mock.patch.object(ingestion, "_read_rows", side_effect=AssertionError):
            assert len(parse_manual_au_file(path).frame) == 12

    def test_crlf_feature_file_takes_the_fast_path(self, workdir):
        path = workdir / "crlf.csv"
        path.write_bytes(_FEATURE_TEXTS[0].replace("\n", "\r\n").encode())
        with mock.patch.object(ingestion, "_read_rows", side_effect=AssertionError):
            assert len(parse_feature_csv(path)) == 5

    def test_non_ascii_utf8_cells_read_as_before(self, workdir):
        ascii_path, path = workdir / "ascii.csv", workdir / "non_ascii.csv"
        ascii_path.write_text(_FEATURE_TEXTS[0], encoding="utf-8")
        # the first row's face_id, which no schema binds
        path.write_text(_FEATURE_TEXTS[0].replace("\n1,0,", "\n1,visage-é,", 1), encoding="utf-8")
        assert not path.read_bytes().isascii()
        assert _same_result(parse_feature_csv(path), parse_feature_csv(ascii_path))
        # x_1, which float() reads as -1.5: its digits are not ASCII
        path.write_text(_FEATURE_TEXTS[0].replace(",-1.5,", ",-١.٥,", 1), encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse_feature_csv(path)
        assert str(info.value) == f"{path}: line 2, column 'x_1': '-١.٥' is not a number"

    @settings(deadline=None, max_examples=200)
    @given(base=st.sampled_from(range(len(_FEATURE_TEXTS))), edits=text_mutations())
    @example(base=0, edits=[("blank", 3, 0, "")])  # loadtxt skips a blank line
    @example(base=1, edits=[("short", 2, 23, "")])  # only an unbound cell missing
    @example(base=0, edits=[("cell", 2, 22, "1#2")])  # '#' would start a comment
    @example(base=0, edits=[("cell", 1, 1, '"0,0"')])  # shifts the bound cells after it
    @example(base=1, edits=[("cell", 1, 1, '"0,0,0"')])
    @example(base=0, edits=[("cell", 2, 5, "1_000")])  # float() takes it, loadtxt does not
    @example(base=0, edits=[("cell", 2, 5, "١")])
    @example(base=0, edits=[("cell", 2, 5, "-nan"), ("cell", 3, 21, "inf")])
    @example(base=1, edits=[("lone_cr", 2, 0, ""), ("lone_cr", 0, 0, "")])
    @example(base=0, edits=[("lone_cr", 1, 0, ""), ("blank", 3, 0, "")])  # one hides the other
    @example(base=0, edits=[("crlf", 1, 0, ""), ("no_final_newline", 0, 0, "")])
    @example(base=0, edits=[("cell", 1, 0, "nan")])  # a frame number that is not finite
    @example(base=0, edits=[("blank", 99, 0, ""), ("no_final_newline", 0, 0, "")])
    @example(base=0, edits=[("cell", 2, 2, "1" * 140_000)])  # over the csv field limit
    @example(base=0, edits=[("repeat_row", 2, 0, "")])  # a repeated frame
    @example(base=0, edits=[("cell", 2, 5, "\x1c1")])  # a blank to numpy, not to float()
    @example(base=0, edits=[("cell", 2, 5, "+1")])  # numpy and float() take a leading '+'
    @example(base=0, edits=[("cell", 3, 21, "infinity")])  # and 'infinity'
    @example(base=1, edits=[("cell", 2, 0, "+3"), ("cell", 3, 21, "1e+2")])
    @example(base=0, edits=[("cell", 2, 8, "1_0")])
    def test_feature_csv(self, workdir, base, edits):
        path = workdir / "features.csv"
        path.write_bytes(mutate(_FEATURE_TEXTS[base], edits).encode())
        assert _same_result(_outcome(parse_feature_csv, path), _rowwise(parse_feature_csv, path))

    @settings(deadline=None, max_examples=200)
    @given(edits=text_mutations())
    @example(edits=[("blank", 3, 0, "")])  # the csv reader skips a blank line
    @example(edits=[("short", 2, 2, "")])  # a short row reads None
    @example(edits=[("cell", 0, 0, "au"), ("cell", 0, 1, "frame")])  # columns reordered
    @example(edits=[("cell", 3, 2, "3.0"), ("cell", 4, 2, " e")])
    @example(edits=[("cell", 2, 1, "70")])  # outside the FACS range
    @example(edits=[("cell", 2, 1, "99999999999999999999")])
    @example(edits=[("cell", 2, 0, "99999999999999999999")])  # past int64: refused
    @example(edits=[("cell", 2, 0, "9223372036854775808")])  # one past int64's ends
    @example(edits=[("cell", 2, 0, "-9223372036854775809")])
    @example(edits=[("cell", 2, 1, "9223372036854775808")])
    @example(edits=[("cell", 2, 1, "-9223372036854775809")])
    @example(edits=[("cell", 2, 0, "-9223372036854775808"), ("cell", 3, 0, "9223372036854775807")])
    @example(edits=[("repeat_row", 0, 0, ""), ("short", 13, 0, "")])  # empty line after the last
    @example(edits=[("cell", 2, 0, "2.0")])  # int() rejects it; numpy 1.24 only warns
    @example(edits=[("cell", 2, 0, "1_0"), ("cell", 3, 0, "١")])  # int() takes both
    @example(edits=[("repeat_row", 5, 0, "")])  # a repeated (frame, AU) pair
    @example(edits=[("cell", 2, 2, '"2"')])
    @example(edits=[("crlf", row, 0, "") for row in range(13)])  # CRLF line ends throughout
    @example(edits=[("crlf", 0, 0, ""), ("crlf", 4, 0, ""), ("cell", 6, 2, "7")])
    @example(edits=[("crlf", 2, 0, ""), ("blank", 3, 0, ""), ("crlf", 3, 0, "")])
    @example(edits=[("cell", 2, 2, "2\r"), ("crlf", 2, 0, "")])  # \r\r\n: a lone \r is left
    @example(edits=[("lone_cr", 2, 0, ""), ("crlf", 0, 0, "")])
    @example(edits=[("no_final_newline", 0, 0, "")])
    @example(edits=[("cell", 2, 0, "9\r")])  # the csv reader ends the row at the \r
    @example(  # two cells, then four that the first row's would take as its own
        edits=[("short", 2, 2, ""), ("cell", 3, 0, "5"), ("cell", 3, 2, "2"), ("long", 3, 0, "1")]
    )
    @example(edits=[("cell", 2, 0, " " * 140_000 + "1")])  # over the csv field limit
    @example(edits=[("cell", 2, 2, "-0"), ("cell", 3, 2, "A"), ("cell", 4, 2, "e")])
    @example(edits=[("cell", 2, 2, "-0"), ("cell", 3, 2, "3.0")])  # not integers: refused
    @example(edits=[("cell", 2, 0, "\x1c2")])  # a blank to numpy, not to int()
    @example(edits=[("cell", 2, 0, "04")])  # numpy reads each of these ids, and int() too
    @example(edits=[("cell", 3, 1, "+4")])
    @example(edits=[("cell", 2, 0, "-0"), ("no_final_newline", 0, 0, "")])
    @example(edits=[("cell", 12, 1, "04"), ("no_final_newline", 0, 0, "")])  # the last row
    @example(edits=[("cell", 2, 2, " 3"), ("cell", 3, 2, "3 ")])  # blanks: read row-wise
    @example(edits=[("cell", 2, 0, "4.0")])
    @example(edits=[("cell", 2, 2, "+4")])
    def test_manual_au_file(self, workdir, edits):
        path = workdir / "aus.csv"
        path.write_bytes(mutate(_MANUAL_TEXT, edits).encode())
        assert _same_result(
            _outcome(parse_manual_au_file, path), _rowwise(parse_manual_au_file, path)
        )

    @settings(deadline=None, max_examples=100)
    @given(edits=text_mutations())
    @example(edits=[("cell", 2, 2, "9223372036854775808")])  # one past int64's ends
    @example(edits=[("cell", 2, 2, "-9223372036854775809")])
    @example(edits=[("cell", 2, 2, "-9223372036854775808"), ("cell", 3, 2, "9223372036854775807")])
    @example(edits=[("repeat_row", 0, 0, ""), ("short", 13, 0, "")])  # empty line after the last
    @example(edits=[("blank", 3, 0, "")])
    @example(edits=[("repeat_row", 4, 0, "")])  # a repeated key
    def test_predictions_file(self, workdir, edits):
        path = workdir / "predictions.csv"
        path.write_bytes(mutate(_PREDICTIONS_TEXT, edits).encode())
        got = _outcome(read_predictions_csv, path)
        assert _same_result(got, _rowwise(read_predictions_csv, path))
        if isinstance(got, Predictions):  # frames are int64 values, whichever path read them
            assert all(type(frame) is int and -(2**63) <= frame < 2**63 for *_, frame in got.keys)

    @pytest.mark.parametrize("ends", ["\n", "\r\n", "\r"])
    def test_clean_pspi_files_read_with_every_line_end(self, workdir, ends):
        path = workdir / "clean_pspi.csv"
        path.write_bytes(_PSPI_TEXT.replace("\n", ends).encode())
        want = np.array([0.0, 16.0, 2.5, 1 / 3, 15.999999999999998, 7.0])
        assert _same_result(parse_pspi_file(path), want)

    @settings(deadline=None, max_examples=200)
    @given(edits=text_mutations())
    @example(edits=[("cell", 0, 0, "PSPI")])  # a header in any case
    @example(edits=[("blank", 3, 0, ""), ("blank", 0, 0, "")])
    @example(edits=[("crlf", row, 0, "") for row in range(7)])
    @example(edits=[("lone_cr", 2, 0, ""), ("crlf", 4, 0, "")])
    @example(edits=[("long", 2, 0, "3")])  # two numbers on one line
    @example(edits=[("cell", 2, 0, "1 2")])
    @example(edits=[("cell", 2, 0, "1_0"), ("cell", 3, 0, "١")])  # float() takes both
    @example(edits=[("cell", 2, 0, "+1_0")])  # '+1_0' reads 10.0 to float()
    @example(edits=[("cell", 2, 0, "infinity"), ("cell", 3, 0, "99")])
    @example(edits=[("cell", 2, 0, "1e+1"), ("cell", 3, 0, "\x0c2")])
    @example(edits=[("cell", 0, 0, "\x0cpspi")])  # str.strip() finds a header there
    @example(edits=[("blank", 0, 0, ""), ("cell", 0, 0, "\x0c")])  # a blank line to str.strip()
    @example(edits=[("cell", 2, 0, "nan")])
    @example(edits=[("cell", 2, 0, "16.5")])
    @example(edits=[("cell", 2, 0, " 7 "), ("cell", 3, 0, "-0")])
    @example(edits=[("cell", 0, 0, "pspi"), ("cell", 1, 0, "pspi")])  # a second header
    @example(edits=[("short", 0, 0, ""), ("cell", 1, 0, "pspi")])  # the first line is blank
    def test_pspi_file(self, workdir, edits):
        path = workdir / "pspi.csv"
        path.write_bytes(mutate(_PSPI_TEXT, edits).encode())
        assert _same_result(_outcome(parse_pspi_file, path), _outcome(_reference_pspi, path))


def frame_columns(*frames):
    return FrameColumns.from_frames(list(frames))


def manual_codes(*rows):
    """ManualCodes of (frame, au, level) rows."""
    frame, au, level = zip(*rows) if rows else ((), (), ())
    return ManualCodes(
        np.array(frame, dtype=np.int64), np.array(au, dtype=np.int64),
        np.array(level, dtype=np.float64),
    )


class TestMergeAuSource:
    def test_manual_substitutes_profile_aus(self):
        cols = frame_columns(make_frame(1, au_levels={4: 1.1, 6: 2.2, 12: 3.3}))
        merged = merge_au_source(cols, manual_codes((1, 4, 5.0)), PAIN_PROFILE)
        assert merged[0].au_level(4) == 5.0
        # profile AUs without manual coding become inactive
        assert merged[0].au_level(6) == 0.0
        # AUs outside the profile keep their predicted values
        assert merged[0].au_level(12) == 3.3
        assert merged.au_ids == (4, 6, 9, 10, 12, 25, 43)
        assert cols.au_levels.tolist() == [[1.1, 2.2, 3.3]]  # input untouched

    def test_matches_frames_by_index_not_position(self):
        cols = frame_columns(make_frame(7), make_frame(3))
        manual = manual_codes((7, 43, 1.0), (3, 4, 1.0), (5, 4, 2.0), (7, 4, 4.0))
        merged = merge_au_source(cols, manual, PAIN_PROFILE)
        assert merged.stream("I", (4, 43)).tolist() == [[4.0, 1.0], [1.0, 0.0]]

    def test_repeated_frame_reads_its_coding_each_time(self):
        cols = frame_columns(make_frame(2), make_frame(1), make_frame(2))
        manual = manual_codes((1, 6, 3.0), (2, 6, 5.0))
        merged = merge_au_source(cols, manual, PAIN_PROFILE)
        assert merged.stream("I", (6,)).tolist() == [[5.0], [3.0], [5.0]]

    def test_requires_full_coverage(self):
        cols = frame_columns(make_frame(1), make_frame(2))
        # frame 1 is coded only for an AU outside the profile
        with pytest.raises(ParseError, match="frame 2"):
            merge_au_source(cols, manual_codes((1, 12, 2.0)), PAIN_PROFILE)

    @pytest.mark.parametrize(
        "manual", [manual_codes((5, 4, 1.0)), manual_codes()], ids=["one frame", "none"]
    )
    def test_names_first_uncovered_frame_in_file_order(self, manual):
        cols = frame_columns(make_frame(9), make_frame(5), make_frame(2))
        with pytest.raises(ParseError) as info:
            merge_au_source(cols, manual, PAIN_PROFILE)
        assert str(info.value) == "manual coding does not cover frame 9"

    def test_merge_is_idempotent(self):
        cols = frame_columns(make_frame(1))
        manual = manual_codes((1, 4, 3.0), (1, 25, 1.0))
        once = merge_au_source(cols, manual, PAIN_PROFILE)
        twice = merge_au_source(once, manual, PAIN_PROFILE)
        assert once.au_ids == twice.au_ids
        assert np.array_equal(once.au_levels, twice.au_levels)


class TestParsePspiFile:
    def test_plain_lines(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0\n1.5\n16\n", encoding="utf-8")
        assert _same_result(parse_pspi_file(path), np.array([0.0, 1.5, 16.0]))

    def test_headed_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("pspi\n2\n0\n", encoding="utf-8")
        assert _same_result(parse_pspi_file(path), np.array([2.0, 0.0]))

    def test_out_of_range(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("17\n", encoding="utf-8")
        with pytest.raises(ParseError, match="outside"):
            parse_pspi_file(path)

    # float() reads all but the first, '+1_0' as 10.0
    @pytest.mark.parametrize("value", ["high", "+1_0", "+2", "1_0", "infinity", "\u0662", "2\x0c"])
    def test_non_numeric(self, tmp_path, value):
        path = tmp_path / "p.txt"
        path.write_text(f"1\n{value}\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse_pspi_file(path)
        assert str(info.value) == f"{path}: line 2, column 'pspi': {value!r} is not a number"

    def test_line_numbers_count_header_and_blank_lines(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("pspi\n1.0\n\nx\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"line 4, column 'pspi': 'x' is not a number$"):
            parse_pspi_file(path)

    def test_line_numbers_count_blank_lines_without_header(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("\n1\n\n17\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"value 17.0 outside \[0, 16\] on line 4$"):
            parse_pspi_file(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("pspi\n", encoding="utf-8")
        with pytest.raises(ParseError, match="empty"):
            parse_pspi_file(path)


class TestManifest:
    def test_round_trip(self, tmp_path):
        entry = {
            "subject_id": "S1",
            "sequence_id": "01",
            "feature_file": "s1.csv",
            "pspi_file": "s1_pspi.txt",
            "manual_au_file": "s1_aus.csv",
            "labels": {"vas": 4, "opi": 2},
            "gender": "female",
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
        loaded = load_manifest(path)
        assert loaded.entries == [
            ManifestEntry(
                subject_id="S1",
                sequence_id="01",
                feature_file_path="s1.csv",
                pspi_file_path="s1_pspi.txt",
                manual_au_file_path="s1_aus.csv",
                labels=SequenceLabels(vas=4, opi=2),
                gender="female",
            )
        ]
        assert loaded.path == path

    def test_missing_entries_key(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(ManifestError, match="entries"):
            load_manifest(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ManifestError, match="JSON"):
            load_manifest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_manifest(tmp_path / "nope.json")

    def test_missing_required_field(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps({"entries": [{"subject_id": "S1", "sequence_id": "01"}]}),
            encoding="utf-8",
        )
        with pytest.raises(ManifestError, match="feature_file"):
            load_manifest(path)

    def test_unknown_gender(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "subject_id": "S1",
                            "sequence_id": "01",
                            "feature_file": "f.csv",
                            "gender": "robot",
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ManifestError, match="gender"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "entries, message",
        [
            (5, "no 'entries' list"),
            ({"a": 1}, "no 'entries' list"),
            (["f.csv"], "entry 0 is malformed"),
            ([{"subject_id": "S1", "sequence_id": "01", "feature_file": None}], "strings"),
            ([{"subject_id": "S1", "sequence_id": "01", "feature_file": "f.csv",
               "pspi_file": 3}], "strings"),
            ([{"subject_id": "S1", "sequence_id": "01", "feature_file": "f.csv",
               "labels": [4]}], "entry 0 is malformed"),
            ([{"subject_id": "S1", "sequence_id": "01", "feature_file": "f.csv",
               "labels": {"vas": "high"}}], "entry 0 is malformed"),
            *(
                ([{"subject_id": "S1", "sequence_id": "01", "feature_file": "f.csv",
                   "labels": labels}], f"entry 0 is malformed: {message} is not an integer$")
                for labels, message in [
                    ({"vas": 3.7}, r"vas label 3\.7"),
                    ({"vas": True}, "vas label True"),
                    ({"opi": False}, "opi label False"),
                    ({"sen": 4.0}, r"sen label 4\.0"),
                    ({"opi": "2"}, "opi label '2'"),
                ]
            ),
        ],
    )
    def test_wrongly_typed_field(self, tmp_path, entries, message):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"entries": entries}), encoding="utf-8")
        with pytest.raises(ManifestError, match=message):
            load_manifest(path)

    def test_label_out_of_range_names_the_entry(self, tmp_path):
        entries = [{"subject_id": s, "sequence_id": "01", "feature_file": "f.csv",
                    "labels": {"vas": v}} for s, v in (("S1", 10), ("S2", 11))]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"entries": entries}), encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_manifest(path)
        assert str(info.value) == f"manifest {path}: entry 1: vas label 11 outside [0, 10]"

    def test_duplicate_entries(self, tmp_path):
        entries = [{"subject_id": s, "sequence_id": "01", "feature_file": "f.csv"}
                   for s in ("S2", "S1", "S2", "S3", "S1")]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"entries": entries}), encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert str(info.value) == (
            f"manifest {path}: duplicate (subject, sequence) entries: S1/01, S2/01"
        )


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    records = make_separable_dataset(n_subjects=2, n_sequences=1, n_frames=12)
    out = tmp_path_factory.mktemp("ds")
    write_dataset(records, out)
    return out, records


class TestLoadDataset:
    @pytest.mark.parametrize("make", [
        lambda: make_separable_dataset(n_subjects=2, n_sequences=1, n_frames=12),
        lambda: make_correlated_dataset(n_subjects=2, n_sequences=2, n_frames=30, n_landmarks=3),
    ], ids=["separable", "correlated"])
    def test_predicted_mode_round_trips_features(self, tmp_path, make):
        records = make()
        loaded, findings = load_dataset(load_manifest(write_dataset(records, tmp_path)))
        assert findings == []
        assert [r.key for r in loaded] == [r.key for r in records]
        for got, want in zip(loaded, records):
            # the writer's 17-significant-digit format round-trips floats exactly:
            # geometry, AU levels and PSPI labels come back bit for bit
            assert _same_result(got.frames, want.frames)
            assert _same_result(got.pspi, want.pspi)
            assert got.labels == want.labels
            assert got.gender == want.gender

    def test_manual_mode_uses_coded_levels(self, dataset_dir):
        out, records = dataset_dir
        loaded, _ = load_dataset(
            load_manifest(out / "manifest.json"),
            au_source="manual",
            profile=PAIN_PROFILE,
        )
        for rec, orig in zip(loaded, records):
            for frame, src in zip(rec.frames, orig.frames):
                for au in PAIN_PROFILE.au_ids:
                    assert frame.au_level(au) == round(src.au_level(au))

    def test_manual_mode_requires_manual_file(self, tmp_path):
        write_feature_csv(tmp_path / "f.csv", [feature_row()])
        (tmp_path / "manifest.json").write_text(
            json.dumps(
                {
                    "entries": [
                        {"subject_id": "S1", "sequence_id": "01", "feature_file": "f.csv"}
                    ]
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ManifestError, match="manual_au_file"):
            load_dataset(
                load_manifest(tmp_path / "manifest.json"),
                au_source="manual",
                profile=PAIN_PROFILE,
            )

    def test_predicted_source_cannot_score_eye_closure(self, dataset_dir):
        out, records = dataset_dir
        manifest = load_manifest(out / "manifest.json")
        with pytest.raises(ConfigError, match="cannot score AU 43"):
            load_dataset(manifest, au_source="predicted", profile=PAIN_PROFILE)
        loaded, _ = load_dataset(manifest, au_source="predicted", profile=PAIN_PREDICTED_PROFILE)
        assert [r.key for r in loaded] == [r.key for r in records]

    @pytest.mark.parametrize("au_source, profile, error, message", [
        ("guessed", None, ConfigError, "unknown AU source 'guessed'"),
        ("predicted", PAIN_PROFILE, ConfigError,
         "predicted AU source cannot score AU 43; use the pain_predicted profile"),
        ("manual", None, ConfigError, "manual AU source requires a profile"),
        ("manual", PAIN_PROFILE, ManifestError,
         "manifest {}: S2/01: manual AU source requested but no manual_au_file"),
    ], ids=["unknown-source", "predicted-au43", "manual-no-profile", "manual-no-file"])
    def test_au_source_rules_come_before_any_read(
        self, tmp_path, au_source, profile, error, message
    ):
        entries = [
            {"subject_id": s, "sequence_id": "01", "feature_file": f"{s}.csv",
             "manual_au_file": f"{s}_manual.csv", "pspi_file": f"{s}_pspi.csv"}
            for s in ("S1", "S2")
        ]
        del entries[-1]["manual_au_file"]  # only the last entry lacks its manual codings
        (tmp_path / "manifest.json").write_text(json.dumps({"entries": entries}), "utf-8")
        manifest = load_manifest(tmp_path / "manifest.json")
        with mock.patch.object(ingestion, "parse_feature_csv") as parse:
            with pytest.raises(error) as info:
                load_dataset(manifest, au_source=au_source, profile=profile)
        assert str(info.value) == message.format(tmp_path / "manifest.json")
        parse.assert_not_called()

    def test_missing_feature_file(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps(
                {
                    "entries": [
                        {"subject_id": "S1", "sequence_id": "01", "feature_file": "gone.csv"}
                    ]
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as info:
            load_dataset(load_manifest(tmp_path / "manifest.json"))
        assert str(info.value) == (
            f"manifest {tmp_path / 'manifest.json'}: entry 0 (S1/01) feature_file: "
            f"cannot read {tmp_path / 'gone.csv'}: No such file or directory"
        )

    def test_validation_problems_surface_as_findings(self, tmp_path):
        write_feature_csv(tmp_path / "f.csv", [feature_row(2), feature_row(1)])
        (tmp_path / "manifest.json").write_text(
            json.dumps(
                {
                    "entries": [
                        {"subject_id": "S1", "sequence_id": "01", "feature_file": "f.csv"}
                    ]
                }
            ),
            encoding="utf-8",
        )
        records, findings = load_dataset(load_manifest(tmp_path / "manifest.json"))
        assert len(records) == 1  # soft problem: record still loads
        assert any("frame_index" in f for f in findings)

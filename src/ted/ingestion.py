"""Parsers for feature CSVs, manual AU codings, PSPI files and manifests.

The feature CSV layout defaults to the common facial-behavior-toolkit 2.x
export convention (frame, success, x_0..x_67, y_0..y_67, pose_T*/pose_R*,
gaze_0_*/gaze_1_*, AUxx_r) and is overridable via a JSON schema mapping.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, ManifestError, ParseError, SchemaError
from .model import (
    AuProfile,
    DatasetManifest,
    FrameColumns,
    GENDERS,
    ManifestEntry,
    SequenceLabels,
    SequenceRecord,
    validate_sequence,
)

_AU_COLUMN = re.compile(r"^AU(\d+)_r$")
_JSON_KINDS = {str: "a string", list: "a list of strings", dict: "an object of strings"}
_INTEGER = r"0|-?[1-9][0-9]*"  # the form str(int) writes
# the forms repr and C's %f and %g write ('5.' and '.5' too, as strtod reads them)
_NUMBER = r"-?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[nN][aA][nN]|[iI][nN][fF])"
# each cell kind: its cells' pattern (blanks around them aside), reader, name and dtype
_KINDS = {
    "number": (re.compile(_NUMBER), float, "a number", np.float64),
    "integer": (re.compile(_INTEGER), int, "an integer", np.int64),
    "level": (re.compile(f"{_INTEGER}|[A-Ea-e]"),
              lambda c: "ABCDE".find(c.strip(" \t").upper()) + 1 or int(c), "a level", np.int64),
    "text": (re.compile(".*", re.S), str, "text", object),
}
_NUMBER_BYTES = b"0123456789.-+eEnNaAiIfF, \t\r\n"  # of numbers, blanks, commas, line ends
_POWERS = 10 ** np.arange(1, 19, dtype=np.int64)  # an integer |v| >= 10**k is k + 1 digits wide


def integer(text: str) -> int:
    """The integer `text` spells in the one form str(int) writes: "04", "6_0", "+5" and
    " 7" would misread silently. A ValueError otherwise, so argparse can name the flag."""
    if not re.fullmatch(_INTEGER, text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _cell(path, line: int, column: str, kind: str, cell: str):
    """`cell` as its kind reads it, or an error naming the file, line and column."""
    grammar, read, name, _ = _KINDS[kind]
    if not grammar.fullmatch(cell.strip(" \t")):
        raise ParseError(f"{path}: line {line}, column {column!r}: {cell!r} is not {name}")
    return read(cell)


def _plain(text: bytes) -> bool:
    """Whether `text` is all `_NUMBER_BYTES`, with a '+' only after 'e' or 'E': then what
    numpy's loadtxt reads of it as a number is a number cell."""
    return not text.translate(None, _NUMBER_BYTES) and (
        b"+" not in text or text.count(b"+") == text.count(b"e+") + text.count(b"E+")
    )


def read_input(path, digests: Optional[dict], newline: Optional[str] = None) -> io.TextIOWrapper:
    """The file as `open(path, encoding="utf-8", newline=newline)` reads it, from one
    read of its bytes; their SHA-256 goes into `digests` (if given) under the path."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:  # the cause tells load_dataset that the path itself is wrong
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if digests is not None:
        digests[str(path)] = hashlib.sha256(data).hexdigest()
    try:
        if not data.isascii():  # ASCII is UTF-8; a bad byte is reported here, with its offset
            data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 (byte {exc.start})") from None
    # decoded chunk by chunk, as open() does; a StringIO holds 4 bytes per character
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline)


def _rows(path, fh):
    """The rows of the csv file `fh`, each with its physical line. A row on more than one
    line (tracker CSVs put no line break inside a cell), or one the csv module cannot split
    (a quote left open, a cell over its size limit), is an error naming its first line."""
    reader = csv.reader(fh, strict=True)
    line = 0
    try:
        for line, cells in enumerate(reader, start=1):
            if (last := reader.line_num) != line:
                raise ParseError(f"{path}: line {line}: a quoted cell spans lines {line}-{last}")
            yield line, cells
    except csv.Error as exc:
        raise ParseError(f"{path}: line {line + 1}: {exc}") from None


def read_table(path, fh, kinds: Mapping[str, str], named: Mapping[str, str] = {}):
    """The `kinds` columns (`_KINDS` kinds) of the csv file `fh`, read by `read_input` with
    newline="", as arrays (integers and levels int64), and the physical line of each row. The
    header names each once (a missing one with its `named` text); every row has its cells."""
    rows = _rows(path, fh)
    _, header = next(rows, (0, None))
    if header is None:
        raise ParseError(f"{path}: empty file")
    header = [c.strip() for c in header]
    first = {column: i for i, column in reversed(list(enumerate(header)))}
    for column in kinds:  # the first column that is missing or repeated fails
        if column not in first:
            raise SchemaError(f"{path}: missing column {column!r}{named.get(column, '')}")
        if len(first) < len(header) and (count := header.count(column)) > 1:
            raise SchemaError(f"{path}: column {column!r} appears {count} times")
    cols = [first[column] for column in kinds]
    used = set(kinds.values())
    # integer cells are checked by their width, so numpy must read every cell of a row
    if used == {"number"} or used <= {"integer", "level"} and len(cols) == len(header):
        table = _bulk(fh.buffer.getvalue(), cols, len(header), used == {"number"})
        if table is not None:
            return list(table.T), range(2, len(table) + 2)
    return _read_rows(path, rows, kinds, cols, len(header))


def _bulk(data: bytes, cols: list[int], width: int, numbers: bool) -> Optional[np.ndarray]:
    """The cells `cols` after the header line of `data` (a file's bytes) as one `np.loadtxt`
    reads them, into float64 (`numbers`) or int64; None where `_read_rows` might read otherwise:
    text not `_plain`, a lone CR, a blank or too long line, or a longer integer than `integer`'s."""
    body = data[data.find(b"\n") + 1 :]
    if not _plain(body) or b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None
    lines = body.decode().split("\n")[: -1 if body.endswith(b"\n") else None]
    if len(body) > (limit := csv.field_size_limit()) and max(map(len, lines)) > limit:
        return None  # a line over the csv field limit
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy 1.24 only warns on an int cell '2.0'
            # no comment character; the header's last column too, so that a short row fails
            usecols = cols + [width - 1] * (width - 1 not in cols)
            rows = np.loadtxt(lines, np.float64 if numbers else np.int64, delimiter=",",
                              comments=None, ndmin=2, usecols=usecols)[:, : len(cols)]
    except Exception:  # any failure: read row-wise
        return None
    if len(rows) != len(lines):  # loadtxt skips a blank line
        return None
    if not numbers:
        size = np.abs(rows)  # str(int) is a value's shortest spelling; each power <= size a digit
        widths = rows.size + np.count_nonzero(rows < 0) + sum(
            np.count_nonzero(size >= power) for power in _POWERS[_POWERS <= size.max()])
        if len(body) - body.count(b"\n") - body.count(b"\r") != widths + (width - 1) * len(rows):
            return None
    return rows


def _read_rows(path, rows, kinds: Mapping[str, str], cols: list[int], width: int):
    """`read_table`'s result, read row by row from the `_rows` after the header."""
    columns, lines = [[] for _ in cols], []
    for line, cells in rows:
        if len(cells) < width:
            raise ParseError(f"{path}: line {line} has {len(cells)} cells, the header has {width}")
        for column, (name, kind), i in zip(columns, kinds.items(), cols):
            column.append(_cell(path, line, name, kind, cells[i]))
        lines.append(line)
    for i, (column, (name, kind)) in enumerate(zip(columns, kinds.items())):
        try:
            columns[i] = np.array(column, _KINDS[kind][3])
        except OverflowError:  # an integer cell past int64: the column's first
            line, value = next((n, v) for n, v in zip(lines, column) if not -(2**63) <= v < 2**63)
            raise ParseError(f"{path}: line {line}, column {name!r}: '{value}' "
                             "is outside the 64-bit integer range") from None
    return columns, lines


@dataclass(frozen=True)
class FeatureCsvSchema:
    """Column bindings for one feature CSV layout, and the schema file they were read from."""

    frame: str = "frame"
    success: str = "success"
    landmark_x: tuple[str, ...] = ()
    landmark_y: tuple[str, ...] = ()
    pose_translation: tuple[str, str, str] = ("pose_Tx", "pose_Ty", "pose_Tz")
    pose_rotation: tuple[str, str, str] = ("pose_Rx", "pose_Ry", "pose_Rz")
    gaze_left: tuple[str, str, str] = ("gaze_0_x", "gaze_0_y", "gaze_0_z")
    gaze_right: tuple[str, str, str] = ("gaze_1_x", "gaze_1_y", "gaze_1_z")
    au_intensity: Mapping[int, str] = field(default_factory=dict)
    path: Optional[str] = field(default=None, compare=False)  # the last field: no schema key

    def __post_init__(self):
        # parse_feature_csv lays these out as the last twelve columns of `geometry`
        for key in ("pose_translation", "pose_rotation", "gaze_left", "gaze_right"):
            if len(getattr(self, key)) != 3:
                raise SchemaError(f"{key} must name 3 columns, got {len(getattr(self, key))}")

    def bound_columns(self) -> dict[str, str]:
        """Each bound column, in bound order, and a schema key that binds it."""
        keyed = {key: getattr(self, key) for key in list(self.__dataclass_fields__)[:-1]}
        keyed.update(frame=[self.frame], success=[self.success],  # each key keeps its place
                     au_intensity=[self.au_intensity[au] for au in sorted(self.au_intensity)])
        return {column: key for key, columns in keyed.items() for column in columns}

    @classmethod
    def default(cls, n_landmarks: int = 68, au_ids: Sequence[int] = ()) -> "FeatureCsvSchema":
        return cls(
            landmark_x=tuple(f"x_{i}" for i in range(n_landmarks)),
            landmark_y=tuple(f"y_{i}" for i in range(n_landmarks)),
            au_intensity={au: f"AU{au:02d}_r" for au in au_ids},
        )

    @classmethod
    def infer(cls, header: Sequence[str]) -> "FeatureCsvSchema":
        """Build a schema from a header following the default convention."""
        cols = [c.strip() for c in header]
        n_landmarks = sum(1 for c in cols if re.fullmatch(r"x_\d+", c))
        au_ids = sorted(
            int(m.group(1)) for c in cols if (m := _AU_COLUMN.match(c))
        )
        return cls.default(n_landmarks=n_landmarks, au_ids=au_ids)

    @classmethod
    def from_json(cls, path, digests: Optional[dict[str, str]] = None) -> "FeatureCsvSchema":
        try:
            with read_input(path, digests) as fh:
                raw = json.load(fh)
            fields = {}
            for key in list(cls.__dataclass_fields__)[:-1]:  # all but `path`
                kind = {"frame": str, "success": str, "au_intensity": dict}.get(key, list)
                value = raw[key]
                if not isinstance(value, kind) or kind is not str and not all(
                    isinstance(cell, str) for cell in (value.values() if kind is dict else value)
                ):
                    raise SchemaError(f"{key} must be {_JSON_KINDS[kind]}")
                fields[key] = tuple(value) if kind is list else value
            au_intensity = fields["au_intensity"] = {}
            for key, column in raw["au_intensity"].items():
                try:
                    au_intensity[integer(key)] = column
                except ValueError:
                    raise SchemaError(f"au_intensity must be keyed by integers, got {key!r}")
            return cls(**fields, path=str(path))
        except KeyError as exc:
            raise SchemaError(f"schema file {path} missing key {exc}") from None
        except SchemaError as exc:
            raise SchemaError(f"schema file {path}: {exc}") from None
        except (ValueError, TypeError) as exc:
            # not JSON, or not an object
            raise SchemaError(f"schema file {path} is malformed: {exc}") from None


def parse_feature_csv(
    path, schema: Optional[FeatureCsvSchema] = None, digests: Optional[dict[str, str]] = None
) -> FrameColumns:
    """Parse one tracker-export CSV into frame columns, in file order: every bound cell is
    a number, and every frame number a whole one."""
    with read_input(path, digests, newline="") as fh:
        if schema is None:
            schema = FeatureCsvSchema.infer(next(_rows(path, fh), (0, []))[1])
            fh.seek(0)
        bound = schema.bound_columns()
        named = {column: f", bound to {key!r} by schema file {schema.path}"
                 for column, key in bound.items() if schema.path}
        columns, lines = read_table(path, fh, dict.fromkeys(bound, "number"), named)
    if not lines:
        raise ParseError(f"{path}: no data rows")
    column = dict(zip(bound, columns))

    def block(names: Sequence[str]) -> np.ndarray:
        return np.column_stack([column[c] for c in names] or [np.empty((len(lines), 0))])

    frame = column[schema.frame]
    in_range = (frame >= -(2.0**63)) & (frame < 2.0**63)  # NaN is in no range
    bad = np.flatnonzero(~in_range | (np.floor(frame) != frame))
    if bad.size:
        value = frame[bad[0]]
        what = ("not an integer" if in_range[bad[0]] else "not finite" if not np.isfinite(value)
                else "outside the 64-bit integer range")
        raise ParseError(f"{path}: frame number {value} in column {schema.frame!r}, "
                         f"line {lines[bad[0]]} is {what}")
    frame = frame.astype(np.int64)
    first = np.unique(frame, return_index=True)[1]  # the row where each frame number first shows
    if first.size < frame.size:
        row = np.setdiff1d(np.arange(frame.size), first)[0]  # the first repeat in file order
        raise ParseError(f"{path}: line {lines[row]} repeats frame {frame[row]} "
                         f"of line {lines[np.argmax(frame == frame[row])]}")
    # a schema's x column without a y partner (or the reverse) is not read
    n_landmarks = min(len(schema.landmark_x), len(schema.landmark_y))
    au_ids = tuple(sorted(schema.au_intensity))
    levels = block([schema.au_intensity[au] for au in au_ids])
    try:
        return FrameColumns(
            frame_index=frame,
            tracking_ok=column[schema.success] != 0.0,
            geometry=block([
                *schema.landmark_x[:n_landmarks], *schema.landmark_y[:n_landmarks],
                *schema.pose_translation, *schema.pose_rotation,
                *schema.gaze_left, *schema.gaze_right,
            ]),
            au_ids=au_ids,
            # predicted levels clamp into [0, 5]; NaN reads 0, as max(0.0, nan) does
            au_levels=np.where(levels > 0.0, np.minimum(levels, 5.0), 0.0),
        )
    except ConfigError as exc:  # an AU column outside the FACS range
        raise ConfigError(f"{path}: {exc}") from None


class ManualCodes(NamedTuple):
    """A manual-AU file's codings as aligned columns in file order: row i codes
    action unit `au[i]` at `level[i]` on frame `frame[i]`."""

    frame: np.ndarray  # (r,) int64
    au: np.ndarray  # (r,) int64, each in 1..64
    level: np.ndarray  # (r,) float64, each in 0..5


def parse_manual_au_file(path, digests: Optional[dict[str, str]] = None) -> ManualCodes:
    """Parse frame,au,level rows into columns, in file order; letter grades A-E map
    to 1-5. The first row, in file order, with an AU outside 1..64, a level outside 0-5
    or an earlier row's (frame, AU) pair fails."""
    kinds = {"frame": "integer", "au": "integer", "level": "level"}
    with read_input(path, digests, newline="") as fh:
        (frame, au, level), lines = read_table(path, fh, kinds)
    bad_au, bad_level = (au < 1) | (au > 64), (level < 0) | (level > 5)
    ids = np.where(bad_au, 0, au)  # a repeat of a bad AU comes after it
    repeat = np.zeros(len(ids), dtype=bool)  # ascending (frame, AU) pairs repeat none
    if not ((frame[1:] > frame[:-1]) | (frame[1:] == frame[:-1]) & (ids[1:] > ids[:-1])).all():
        # a pair's first row in file order; a frame is coded by its rank, so 65 * rank fits
        pair = np.unique(frame, return_inverse=True)[1] * 65 + ids
        repeat[np.setdiff1d(np.arange(len(ids)), np.unique(pair, return_index=True)[1])] = True
    if (bad := np.flatnonzero(bad_au | bad_level | repeat)).size:  # the first failing row
        row, line = bad[0], lines[bad[0]]
        if bad_au[row]:
            raise ConfigError(f"{path}: au_id {au[row]} outside FACS range 1..64 on line {line}")
        if bad_level[row]:
            raise ParseError(f"{path}: manual level {level[row]} not in 0-5 (line {line})")
        raise ParseError(f"{path}: duplicate entry for frame {frame[row]}, AU {au[row]}")
    return ManualCodes(frame, au, level.astype(np.float64))


def merge_au_source(
    frames: FrameColumns, manual: ManualCodes, profile: AuProfile
) -> FrameColumns:
    """Substitute manually coded intensities for the profile AUs.

    A profile AU without a coding on some frame reads 0 there; AUs outside
    the profile keep their predicted levels.
    """
    coded, row_frame = np.unique(manual.frame, return_inverse=True)
    at = np.searchsorted(coded, frames.frame_index)
    covered = at < coded.size
    covered[covered] = coded[at[covered]] == frames.frame_index[covered]
    if not covered.all():
        frame = frames.frame_index[np.argmin(covered)]
        raise ParseError(f"manual coding does not cover frame {frame}")
    # the profile column of each AU id, -1 for AUs outside the profile
    slot = np.full(65, -1)
    slot[list(profile.au_ids)] = np.arange(len(profile))
    col = slot[manual.au]
    keep = col >= 0
    table = np.zeros((coded.size, len(profile)))  # one row per coded frame
    table[row_frame[keep], col[keep]] = manual.level[keep]
    au_ids = tuple(sorted(set(frames.au_ids) | set(profile.au_ids)))
    levels = frames.stream("I", au_ids)
    levels[:, [au_ids.index(au) for au in profile.au_ids]] = table[at]
    return replace(frames, au_ids=au_ids, au_levels=levels)


def parse_pspi_file(path, digests: Optional[dict[str, str]] = None) -> np.ndarray:
    """One pain-intensity value in [0, 16] per non-blank line, after an optional
    `pspi` header in any case, as a float64 array; each value is a number cell.
    Line numbers in messages are physical, blank lines included."""
    with read_input(path, digests) as fh:  # \r\n and \r line ends read as \n
        lines = fh.read().split("\n")
    numbered = [(n, cell) for n, line in enumerate(lines, start=1) if (cell := line.strip(" \t"))]
    if numbered and numbered[0][1].lower() == "pspi":
        del numbered[0]
    if not numbered:
        raise ParseError(f"{path}: empty file")
    values = np.array([_cell(path, n, "pspi", "number", cell) for n, cell in numbered])
    row = np.argmin((values >= 0.0) & (values <= 16.0))  # the first value outside, if any
    if not 0.0 <= values[row] <= 16.0:
        raise ParseError(f"{path}: value {values[row]} outside [0, 16] on line {numbered[row][0]}")
    return values


def load_manifest(path, digests: Optional[dict[str, str]] = None) -> DatasetManifest:
    """Load the JSON dataset manifest; file paths stay relative to it."""
    path = Path(path)
    try:
        with read_input(path, digests) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or not isinstance(raw.get("entries"), list):
        raise ManifestError(f"manifest {path} has no 'entries' list")

    entries = []
    for i, item in enumerate(raw["entries"]):
        try:
            labels = None
            if item.get("labels") is not None:
                labels = SequenceLabels(
                    **{k: item["labels"].get(k) for k in ("vas", "sen", "aff", "opi")}
                )
            gender = item.get("gender", "unspecified")
            if gender not in GENDERS:
                raise ManifestError(f"manifest {path}: entry {i}: unknown gender {gender!r}")
            paths = [item["feature_file"], item.get("pspi_file"), item.get("manual_au_file")]
            if not all(isinstance(p, str) or (j and p is None) for j, p in enumerate(paths)):
                raise TypeError("file paths must be strings")
            entries.append(
                ManifestEntry(
                    subject_id=str(item["subject_id"]),
                    sequence_id=str(item["sequence_id"]),
                    feature_file_path=paths[0],
                    pspi_file_path=paths[1],
                    manual_au_file_path=paths[2],
                    labels=labels,
                    gender=gender,
                )
            )
        except KeyError as exc:
            raise ManifestError(f"manifest {path}: entry {i} missing field {exc}") from None
        except (AttributeError, TypeError) as exc:
            # an entry or its labels not an object, a label not an integer, a path not a string
            raise ManifestError(f"manifest {path}: entry {i} is malformed: {exc}") from None
        except ConfigError as exc:  # a label out of range
            raise ConfigError(f"manifest {path}: entry {i}: {exc}") from None
    try:
        return DatasetManifest(entries, path)
    except Exception as exc:
        raise ManifestError(f"manifest {path}: {exc}") from None


@contextmanager
def _entry_file(manifest: DatasetManifest, i: int, entry: ManifestEntry, field: str):
    """Entry `i`'s `field` path; that it cannot be read names the manifest and entry too."""
    try:
        yield manifest.path.parent / getattr(entry, f"{field}_path")
    except ParseError as exc:
        if isinstance(exc.__cause__, OSError):
            raise ParseError(f"manifest {manifest.path}: entry {i} ({entry.subject_id}/"
                             f"{entry.sequence_id}) {field}: {exc}") from None
        raise


def load_dataset(
    manifest: DatasetManifest,
    schema: Optional[FeatureCsvSchema] = None,
    au_source: str = "predicted",
    profile: Optional[AuProfile] = None,
    digests: Optional[dict[str, str]] = None,
) -> tuple[list[SequenceRecord], list[str]]:
    """Materialize all manifest entries; soft problems come back as findings."""
    # the AU-source rules are checked before the first file is read
    if au_source not in ("manual", "predicted"):
        raise ConfigError(f"unknown AU source {au_source!r}")
    if au_source == "predicted" and profile is not None and 43 in profile.au_ids:
        raise ConfigError("predicted AU source cannot score AU 43; use the pain_predicted profile")
    if au_source == "manual":
        if profile is None:
            raise ConfigError("manual AU source requires a profile")
        for entry in manifest.entries:
            if entry.manual_au_file_path is None:
                raise ManifestError(
                    f"manifest {manifest.path}: {entry.subject_id}/{entry.sequence_id}: "
                    "manual AU source requested but no manual_au_file"
                )
    records: list[SequenceRecord] = []
    findings: list[str] = []
    for i, entry in enumerate(manifest.entries):
        with _entry_file(manifest, i, entry, "feature_file") as path:
            frames = parse_feature_csv(path, schema, digests)
        if au_source == "manual":
            with _entry_file(manifest, i, entry, "manual_au_file") as manual_path:
                manual = parse_manual_au_file(manual_path, digests)
            try:
                frames = merge_au_source(frames, manual, profile)
            except ParseError as exc:  # it names the frame; this names the file and sequence
                raise ParseError(
                    f"{manual_path}: {exc} of {entry.subject_id}/{entry.sequence_id}"
                ) from None
        pspi = None
        if entry.pspi_file_path is not None:
            with _entry_file(manifest, i, entry, "pspi_file") as pspi_path:
                pspi = parse_pspi_file(pspi_path, digests)
            if len(pspi) != len(frames):
                raise ParseError(
                    f"{pspi_path}: {len(pspi)} PSPI values for {len(frames)} frames"
                )
        record = SequenceRecord(
            subject_id=entry.subject_id,
            sequence_id=entry.sequence_id,
            frames=frames,
            pspi=pspi,
            labels=entry.labels,
            gender=entry.gender,
        )
        for finding in validate_sequence(record):
            findings.append(f"{entry.subject_id}/{entry.sequence_id} {finding}")
        records.append(record)
    return records, findings

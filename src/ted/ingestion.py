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
_LETTER_LEVELS = {"A": 1.0, "B": 2.0, "C": 3.0, "D": 4.0, "E": 5.0}
_JSON_KINDS = {str: "a string", list: "a list of strings", dict: "an object of strings"}
# the bytes numpy reads as the csv module, int() and float() do: printable ASCII but
# the quote, and the blanks all of them strip (numpy also strips \x1c-\x1f, and its
# int parser reads some non-ASCII letters as digits: 'Ǿ2' as 4622)
_PLAIN_BYTES = bytes(c for c in range(32, 127) if c != 34) + b"\t\n\v\f\r"


def integer(text: str) -> int:
    """The integer `text` spells in the one form str(int) writes: "04", "6_0", "+5" and
    " 7" would misread silently. A ValueError otherwise, so argparse can name the flag."""
    if not re.fullmatch(r"0|-?[1-9][0-9]*", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def read_input(path, digests: Optional[dict], newline: Optional[str] = None) -> io.TextIOWrapper:
    """The file as `open(path, encoding="utf-8", newline=newline)` reads it, from one
    read of its bytes; their SHA-256 goes into `digests` (if given) under the path."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    if digests is not None:
        digests[str(path)] = hashlib.sha256(data).hexdigest()
    try:
        if not data.isascii():  # ASCII is UTF-8; a bad byte is reported here, with its offset
            data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 (byte {exc.start})") from None
    # decoded chunk by chunk, as open() does; a StringIO holds 4 bytes per character
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline)


@contextmanager
def csv_errors(path, reader):
    """`reader`, a csv reader (a DictReader's is its `.reader`), with a line it cannot
    split (a cell over its size limit, say) reported as a ParseError naming the file
    and line. Its `line_num` counts physical lines, blank ones included. Readers are
    strict: a quote left open is an error, not a cell holding every line after it."""
    try:
        yield reader
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None


@dataclass(frozen=True)
class FeatureCsvSchema:
    """Column bindings for one feature CSV layout."""

    frame: str = "frame"
    success: str = "success"
    landmark_x: tuple[str, ...] = ()
    landmark_y: tuple[str, ...] = ()
    pose_translation: tuple[str, str, str] = ("pose_Tx", "pose_Ty", "pose_Tz")
    pose_rotation: tuple[str, str, str] = ("pose_Rx", "pose_Ry", "pose_Rz")
    gaze_left: tuple[str, str, str] = ("gaze_0_x", "gaze_0_y", "gaze_0_z")
    gaze_right: tuple[str, str, str] = ("gaze_1_x", "gaze_1_y", "gaze_1_z")
    au_intensity: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self):
        # parse_feature_csv lays these out as the last twelve columns of `geometry`
        for key in ("pose_translation", "pose_rotation", "gaze_left", "gaze_right"):
            if len(getattr(self, key)) != 3:
                raise SchemaError(f"{key} must name 3 columns, got {len(getattr(self, key))}")

    def bound_columns(self) -> list[str]:
        cols = [self.frame, self.success]
        cols += list(self.landmark_x) + list(self.landmark_y)
        cols += list(self.pose_translation) + list(self.pose_rotation)
        cols += list(self.gaze_left) + list(self.gaze_right)
        cols += [self.au_intensity[au] for au in sorted(self.au_intensity)]
        return cols

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
            for key in cls.__dataclass_fields__:
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
            return cls(**fields)
        except KeyError as exc:
            raise SchemaError(f"schema file {path} missing key {exc}") from None
        except SchemaError as exc:
            raise SchemaError(f"schema file {path}: {exc}") from None
        except (ValueError, TypeError) as exc:
            # not JSON, or not an object
            raise SchemaError(f"schema file {path} is malformed: {exc}") from None


def _bulk_rows(fh, usecols: Sequence[int], dtype) -> Optional[np.ndarray]:
    """The rows after the header of `fh`, a `read_input` wrapper, as `np.loadtxt` reads
    their `usecols` into `dtype`; None where it fails, or where the file has a quote
    (it can hide commas), a byte outside `_PLAIN_BYTES`, a CR outside a CRLF line end,
    a line over the csv field limit or a blank line: the row-wise readers read those."""
    data = fh.buffer.getvalue()  # the bytes read_input read
    lone_cr = b"\r" in data and data.count(b"\r") != data.count(b"\r\n")
    if lone_cr or data.translate(None, _PLAIN_BYTES):
        return None
    text = fh.read()
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the file's last line end
    limit = csv.field_size_limit()  # no line is longer than the text
    if not lines or len(text) > limit and max(map(len, lines)) > limit:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy 1.24 only warns on an int cell '2.0'
            # no comment character; a structured dtype reads an (n, 1) array of records
            rows = np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=2,
                              usecols=usecols)
    except Exception:  # any failure (float() takes '1_000', loadtxt does not): read row-wise
        return None
    return rows if len(rows) == len(lines) else None  # loadtxt skips a blank line


def _read_feature_rows(
    path, reader, bound: list[str], cols: list[int], width: int
) -> tuple[np.ndarray, list[int]]:
    """The bound columns of the rows after the header, read row-wise, and the
    physical line each row ends on."""
    next(reader)
    rows: list[list[float]] = []
    lines: list[int] = []
    with csv_errors(path, reader):
        for cells in reader:
            line = reader.line_num
            lines.append(line)
            if len(cells) < width:
                raise ParseError(
                    f"{path}: line {line} has {len(cells)} cells, the header has {width}"
                )
            try:
                rows.append([float(cells[i]) for i in cols])
            except ValueError:
                for column, i in zip(bound, cols):
                    try:
                        float(cells[i])
                    except ValueError:
                        raise ParseError(
                            f"{path}: non-numeric value {cells[i]!r} in column {column!r}, "
                            f"line {line}"
                        ) from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows), lines


def parse_feature_csv(
    path, schema: Optional[FeatureCsvSchema] = None, digests: Optional[dict[str, str]] = None
) -> FrameColumns:
    """Parse one tracker-export CSV into frame columns, in file order. numpy parses the
    rows; the row-wise reader reruns wherever it fails or could read a row differently."""
    with read_input(path, digests, newline="") as fh:
        with csv_errors(path, csv.reader(fh, strict=True)) as reader:
            header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        header = [c.strip() for c in header]
        if schema is None:
            schema = FeatureCsvSchema.infer(header)
        bound = schema.bound_columns()
        first = {column: i for i, column in reversed(list(enumerate(header)))}
        cols = []
        for column in bound:  # the first bound column that is missing or repeated fails
            if column not in first:
                raise SchemaError(f"{path}: missing bound column {column!r}")
            if len(first) < len(header) and (count := header.count(column)) > 1:
                raise SchemaError(f"{path}: column {column!r} appears {count} times")
            cols.append(first[column])
        # the header's last column too, so that a short row fails
        values = _bulk_rows(fh, [*cols, len(header) - 1], np.float64)
        if values is None:
            fh.seek(0)
            reader = csv.reader(fh, strict=True)
            values, lines = _read_feature_rows(path, reader, bound, cols, len(header))
        else:  # numpy reads one line a row, after the header
            values, lines = values[:, :-1], range(2, len(values) + 2)

    position = {column: j for j, column in enumerate(bound)}

    def block(columns: Sequence[str]) -> np.ndarray:
        return values[:, [position[c] for c in columns]]

    frame = values[:, position[schema.frame]]
    bad = np.flatnonzero(~(np.abs(frame) < 2.0**63) | (np.floor(frame) != frame))
    if bad.size:
        value = frame[bad[0]]
        raise ParseError(
            f"{path}: frame number {value} in column {schema.frame!r}, "
            f"line {lines[bad[0]]} is not " + ("an integer" if abs(value) < 2.0**63 else "finite")
        )
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
            tracking_ok=values[:, position[schema.success]] != 0.0,
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


# a manual-AU row as numpy reads it: ids the way int() does, the level as float() does
_MANUAL_ROW = np.dtype([("frame", np.int64), ("au", np.int64), ("level", np.float64)])


def parse_manual_au_file(path, digests: Optional[dict[str, str]] = None) -> ManualCodes:
    """Parse frame,au,level rows into columns, in file order; letter grades A-E map
    to 1-5. numpy reads a file with the exact header, AUs in 1..64, whole-number levels
    in 0..5 and no repeated (frame, AU) pair; the row-wise reader reads any other."""
    with read_input(path, digests, newline="") as fh:
        if fh.readline().rstrip("\r\n") == "frame,au,level" and (
            rows := _bulk_rows(fh, (0, 1, 2), _MANUAL_ROW)
        ) is not None:
            codes = ManualCodes(*(rows[name].ravel() for name in ManualCodes._fields))
            order = np.lexsort((codes.au, codes.frame))
            f, a = codes.frame[order], codes.au[order]
            if (1 <= a.min() <= a.max() <= 64 and np.isin(codes.level, np.arange(6.0)).all()
                    and not ((f[1:] == f[:-1]) & (a[1:] == a[:-1])).any()):
                return codes
        fh.seek(0)
        return _read_manual_rows(path, fh)


def _read_manual_rows(path, fh) -> ManualCodes:
    """The codings of a manual-AU file, read row-wise from `fh`."""
    frames: list[int] = []
    au_ids: list[int] = []
    levels: list[float] = []
    seen: set[tuple[int, int]] = set()
    reader = csv.DictReader(fh, strict=True)
    with csv_errors(path, reader.reader) as lines:
        if reader.fieldnames is None:
            raise ParseError(f"{path}: empty file")
        for column in ("frame", "au", "level"):
            if column not in reader.fieldnames:
                raise SchemaError(f"{path}: missing column {column!r}")
        for row in reader:
            line = lines.line_num
            try:
                frame = int(row["frame"])
                au_id = int(row["au"])
            except (TypeError, ValueError):
                raise ParseError(f"{path}: bad frame/au on line {line}") from None
            if not 1 <= au_id <= 64:
                raise ConfigError(
                    f"{path}: au_id {au_id} outside FACS range 1..64 on line {line}"
                )
            raw = (row["level"] or "").strip().upper()
            if raw in _LETTER_LEVELS:
                level = _LETTER_LEVELS[raw]
            else:
                try:
                    level = float(raw)
                except ValueError:
                    raise ParseError(
                        f"{path}: unknown intensity {row['level']!r} on line {line}"
                    ) from None
                if level not in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0):
                    raise ParseError(f"{path}: manual level {raw} not in 0-5 (line {line})")
            if (frame, au_id) in seen:
                raise ParseError(f"{path}: duplicate entry for frame {frame}, AU {au_id}")
            seen.add((frame, au_id))
            # feature files hold int64 frame numbers, so a coding past int64 matches none
            if -(2**63) <= frame < 2**63:
                frames.append(frame)
                au_ids.append(au_id)
                levels.append(level)
    return ManualCodes(
        np.array(frames, dtype=np.int64),
        np.array(au_ids, dtype=np.int64),
        np.array(levels, dtype=np.float64),
    )


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
    `pspi` header in any case, as a float64 array; whitespace around a value is
    ignored. Line numbers in messages are physical, blank lines included."""
    with read_input(path, digests) as fh:
        lines = fh.read().split("\n")  # \r\n and \r line ends read as \n
    cells = list(filter(None, map(str.strip, lines)))
    if cells and cells[0].lower() == "pspi":
        del cells[0]
    if not cells:
        raise ParseError(f"{path}: empty file")
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
        if ((values >= 0.0) & (values <= 16.0)).all():
            return values
    except ValueError:
        pass
    # the first line that fails; the values are the last len(cells) non-blank lines
    numbers = [number for number, line in enumerate(lines, start=1) if line.strip()]
    for number, raw in zip(numbers[-len(cells):], cells):
        try:
            value = float(raw)
        except ValueError:
            raise ParseError(f"{path}: non-numeric value {raw!r} on line {number}") from None
        if not 0.0 <= value <= 16.0:
            raise ParseError(f"{path}: value {value} outside [0, 16] on line {number}")


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
    base = manifest.path.parent
    records: list[SequenceRecord] = []
    findings: list[str] = []
    for entry in manifest.entries:
        frames = parse_feature_csv(base / entry.feature_file_path, schema, digests)
        if au_source == "manual":
            manual_path = base / entry.manual_au_file_path
            manual = parse_manual_au_file(manual_path, digests)
            try:
                frames = merge_au_source(frames, manual, profile)
            except ParseError as exc:  # it names the frame; this names the file and sequence
                raise ParseError(
                    f"{manual_path}: {exc} of {entry.subject_id}/{entry.sequence_id}"
                ) from None
        pspi = None
        if entry.pspi_file_path is not None:
            pspi_path = base / entry.pspi_file_path
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

"""File formats: CSV logs and YAML configuration.

All CSVs are UTF-8 with a required header, `.` decimal separator,
angles in degrees and distances in meters. Floats are written with
Python's shortest round-trip repr so a written value reads back
bit-identical, and identical runs produce byte-identical files. The
digits come from orjson's Ryu formatter, one call per block of rows on
its numeric columns as one 2-D array. repr itself formats the values
it writes with an exponent (nonzero |x| < 1e-4 or |x| >= 1e16) and
non-finite ones: they go to orjson as NaN, written null, and each null
is replaced by the repr of its value.

Logs are read into and written from column tables (depthray.table),
a block of rows at a time. The numeric fields of a block are read as
one JSON array by orjson, with the text columns cut off each line: JSON
numbers are a subset of what float() reads, and orjson rounds them as
float() does. A block goes through csv.reader + float() instead, so
that values and errors are the csv module's, when it holds a quote or
a NUL, when a line has too few or too many fields, when its numeric
fields hold [ ] { } or the letters t, f or n (of true, false and null)
or a bare -0 (an integer to JSON, which loses its sign), or when orjson
cannot parse them or a value is not finite. A block is written as one
joined string, text fields quoted so that csv.reader reads them back.
A log can be read block by block; a file is written from a sequence of
tables to a temporary file, renamed onto the target once complete (see
staged, which also lets a command replace two files together).
"""

import contextlib
import csv
import itertools
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import orjson
import yaml

from .camera import CameraIntrinsics, DistortionCoeffs
from .errors import ConfigError, SchemaError
from .evaluate import GroundTruthFrame
from .geodesy import ELLIPSOIDS, WGS84, Ellipsoid, GeodeticCoord
from .geometry import EulerAngles
from .recovery import OBSERVATION_COLUMNS, TRAJECTORY_COLUMNS, RigConfig
from .synth import (
    NoiseSpec,
    Scenario,
    circle_path,
    lawnmower_path,
    line_path,
)
from .table import Table

GROUND_TRUTH_COLUMNS = ["t", "x", "y", "z"]

EXCLUSION_COLUMNS = ["row", "t", "reason"]

TRACK_COLUMNS = ["t", "u", "v"]

CALIBRATION_KEYS = {"fx", "fy", "cx", "cy", "width", "height", "k1", "k2", "k3", "p1", "p2"}

RUN_CONFIG_KEYS = {
    "calibration",
    "cam_offset",
    "gimbal_frame",
    "gimbal_pitch_sign",
    "altitude_datum_offset",
    "ellipsoid",
    "sync_max_gap",
    "gt_frame_yaw_deg",
    "gt_frame_translation",
    "gt_rescale",
    "gt_rescale_a_cam",
    "gt_rescale_nadir",
}

SCENARIO_KEYS = {
    "pattern",
    "n_samples",
    "duration",
    "area",
    "legs",
    "radius",
    "start",
    "end",
    "altitude",
    "depth_min",
    "depth_max",
    "gimbal_yaw_deg",
    "gimbal_pitch_deg",
    "gimbal_roll_deg",
    "body_yaw_deg",
    "body_pitch_deg",
    "body_roll_deg",
    "ref_lat_deg",
    "ref_lon_deg",
    "ref_alt_m",
    "sigma_px",
    "sigma_alt",
    "sigma_depth",
    "sigma_gimbal_deg",
    "seed",
    "calibration",
    "cam_offset",
    "gimbal_frame",
    "gimbal_pitch_sign",
}


# --- CSV ---

# rows parsed or formatted per block, which bounds the text held at once
CSV_BLOCK_ROWS = 4096

_BLANK_LINES = ("\n", "\r\n", "\r")

# Characters for which csv.reader does not take a line as plain comma-split
# fields: quotes, and NULs (which it rejects before Python 3.11).
_CSV_ONLY_CHARS = '"\0'

# In numeric fields, JSON structure and the letters of true, false and null:
# orjson would read these where float() refuses them.
_JSON_ONLY_CHARS = "[]{}tfn"

# A bare -0 is a JSON integer, which orjson reads as 0 without its sign.
_NEGATIVE_ZERO = re.compile(r"-0(?![.0-9eE])")

# a text field holding any of these is written quoted, as csv.reader reads it back
_QUOTED_CHARS = ',"\r\n'


def _check_record(path, columns, text_columns, raw, lineno):
    """Raise the SchemaError for the first bad field of one record, if any."""
    if len(raw) != len(columns):
        raise SchemaError(f"{path}: expected {len(columns)} fields, got {len(raw)}", line=lineno)
    for name, value in zip(columns, raw):
        if name in text_columns:
            continue
        try:
            number = float(value)
        except ValueError:
            raise SchemaError(
                f"{path}: column {name}: not a number: {value!r}", line=lineno
            ) from None
        if not math.isfinite(number):
            raise SchemaError(f"{path}: column {name}: non-finite value {value}", line=lineno)


def _parse_lines(columns, text_columns, records):
    """Columns of a block of non-blank lines, the numbers parsed by orjson.

    Once every line is seen to hold one field per column, the numeric
    fields of the block are parsed as one flat JSON array, so a number
    reads as float() reads it. Text columns sit at either end of the
    schema and are cut off each line at its first or last commas.
    Returns None where a line may read differently from csv.reader and
    float(), or is bad; the caller then reads the block record by record.
    """
    text = "".join(records)
    if any(c in text for c in _CSV_ONLY_CHARS):
        return None
    if set(map(str.count, records, itertools.repeat(","))) != {len(columns) - 1}:
        return None
    numeric = [name for name in columns if name not in text_columns]
    texts = {}
    if text_columns:
        body = map(str.rstrip, records, itertools.repeat("\r\n"))
        for name in columns[:columns.index(numeric[0])]:
            texts[name], _, body = zip(*map(str.partition, body, itertools.repeat(",")))
        for name in reversed(columns[columns.index(numeric[-1]) + 1:]):
            body, _, texts[name] = zip(*map(str.rpartition, body, itertools.repeat(",")))
        body = ",".join(body)
    else:
        body = text.rstrip("\r\n").replace("\n", ",")
    if any(c in body for c in _JSON_ONLY_CHARS) or _NEGATIVE_ZERO.search(body):
        return None
    try:
        numbers = np.array(orjson.loads("[" + body + "]"), dtype=float)
        numbers = numbers.reshape(len(records), len(numeric))
    except ValueError:  # orjson's decode error: a field that is not a JSON number
        return None
    if not np.isfinite(numbers).all():
        return None
    # owned columns, so a whole read frees each block's column once it is joined
    parts = dict(zip(numeric, (c.copy() for c in numbers.T)))
    return [
        np.array(texts[name], dtype=object) if name in text_columns else parts[name]
        for name in columns
    ]


def _parse_records(path, columns, text_columns, lines, handle, first_line):
    """Columns of a block read by csv.reader + float(), and its record count.

    Each record is checked by _check_record. A quoted field still open
    at the block's last line runs on into `handle`.
    """
    reader = csv.reader(itertools.chain(lines, handle))
    records = []
    for raw in reader:
        records.append(raw)
        if reader.line_num >= len(lines):
            break
    checked = []
    for lineno, raw in enumerate(records, start=first_line):
        if raw:
            _check_record(path, columns, text_columns, raw, lineno)
            checked.append(raw)
    return [
        np.array(values, dtype=object) if name in text_columns
        else np.fromiter(map(float, values), dtype=float, count=len(values))
        for name, values in zip(columns, zip(*checked))
    ], len(records)


def _read_blocks(path, columns, text_columns=()):
    """Yield a strict-schema CSV as column tables of up to CSV_BLOCK_ROWS rows.

    The header must match `columns` exactly; any non-numeric or
    non-finite value in a numeric column is a SchemaError carrying the
    1-based line number (the record number, for fields spanning lines).

    Each block of lines is parsed by _parse_lines. A block it cannot
    take as csv.reader would (quotes, bad or unusual fields) is read by
    csv.reader + float() instead, so the values and the error are the
    same either way. Bytes that are not UTF-8 are a SchemaError naming
    the offset of the first bad byte.
    """
    path = Path(path)
    try:
        handle = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot open {path}: {exc}") from exc
    with handle:
        try:
            header = next(csv.reader(handle), None)
            if header is None:
                raise SchemaError(f"{path}: missing header", line=1)
            if header != list(columns):
                raise SchemaError(
                    f"{path}: expected columns {','.join(columns)}, got {','.join(header)}",
                    line=1,
                )
            first_line = 2
            while lines := list(itertools.islice(handle, CSV_BLOCK_ROWS)):
                records = [line for line in lines if line not in _BLANK_LINES]
                n_records = len(lines)
                if records:
                    parsed = _parse_lines(columns, text_columns, records)
                    if parsed is None:
                        parsed, n_records = _parse_records(
                            path, columns, text_columns, lines, handle, first_line
                        )
                    yield Table(dict(zip(columns, parsed)))
                first_line += n_records
        except UnicodeDecodeError as exc:
            # exc.object is the chunk being decoded, which ends where the file is read to
            offset = handle.buffer.tell() - len(exc.object) + exc.start
            raise SchemaError(f"{path}: not UTF-8: {exc.reason} at byte {offset}") from None


def _read_rows(path, columns, text_columns=()) -> Table:
    """Read a whole strict-schema CSV into one column table (see _read_blocks)."""
    # the empty first part types the columns of a log without rows
    parts = {name: [np.array([], dtype=object if name in text_columns else float)]
             for name in columns}
    for block in _read_blocks(path, columns, text_columns):
        for name in columns:
            parts[name].append(block[name])
    # each column's parts are dropped as it is joined, so no column is held twice
    return Table({name: np.concatenate(parts.pop(name)) for name in columns})


def _number_rows(block) -> list:
    """Each row of a (rows, k) float block as its comma-joined fields.

    A value is written as its shortest round-trip repr: Ryu's digits
    from one orjson call for the block, and repr's own where it writes an
    exponent or the value is not finite. Those values are set to NaN in
    `block`, which orjson writes as null, and their repr put in its place.
    """
    size = np.abs(block)
    odd = ~((size >= 1e-4) & (size < 1e16) | (block == 0))
    reprs = list(map(repr, block[odd].tolist()))  # row-major, as orjson writes them
    block[odd] = np.nan
    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode()
    if reprs:
        parts = text.split("null")
        text = "".join(itertools.chain.from_iterable(zip(parts, reprs))) + parts[-1]
    return text.split("],[")


def _text_fields(column) -> list:
    """The CSV fields of a text column: None as empty, str() of anything
    else, quoted with inner quotes doubled where it holds _QUOTED_CHARS."""
    fields = ["" if value is None else str(value) for value in column.tolist()]
    quoted = {
        field: '"' + field.replace('"', '""') + '"'
        for field in set(fields) if any(c in field for c in _QUOTED_CHARS)
    }
    return [quoted.get(field, field) for field in fields] if quoted else fields


@contextlib.contextmanager
def staged(*paths):
    """Yield a temporary path next to each of `paths`, and rename each onto
    its path once the body completes: the last first, the first last.

    On any failure every temporary file is removed, so the paths not yet
    renamed onto are left as they were, and an OSError names the path,
    not its temporary file. Paths that resolve to one file are refused
    before anything is written: their temporary files would share a name.
    """
    paths = [Path(p) for p in paths]
    resolved = [p.resolve() for p in paths]
    for i, path in enumerate(paths):
        if resolved[i] in resolved[:i]:
            raise OSError(f"{path}: the same file is given as another output")
    temps = [p.with_name(f".{p.name}.{os.getpid()}.tmp") for p in paths]
    try:
        yield temps
        for temp, path in reversed(list(zip(temps, paths))):
            os.replace(temp, path)
    except BaseException as exc:
        for temp in temps:
            temp.unlink(missing_ok=True)
        targets = dict(zip(map(str, temps), map(str, paths)))
        if isinstance(exc, OSError) and str(exc.filename) in targets:
            raise OSError(exc.errno, exc.strerror, targets[str(exc.filename)]) from None
        raise


def _write_rows(path, columns, tables, text_columns=()):
    """Write the `columns` of a sequence of tables as one staged CSV.

    The numeric columns sit together between any text columns; in each
    block of rows they are stacked into one array for _number_rows, and
    the text fields joined on at either end. The header and each block
    are written as one string.
    """
    numeric = [name for name in columns if name not in text_columns]
    first, stop = columns.index(numeric[0]), columns.index(numeric[-1]) + 1
    with staged(path) as (temp,), temp.open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(columns) + "\n")
        for table in tables:
            for start in range(0, len(table), CSV_BLOCK_ROWS):
                rows = slice(start, start + CSV_BLOCK_ROWS)
                lines = _number_rows(np.stack(
                    [np.asarray(table[name][rows], dtype=float) for name in numeric], axis=1
                ))
                if text_columns:
                    lines = map(",".join, zip(
                        *(_text_fields(table[name][rows]) for name in columns[:first]),
                        lines,
                        *(_text_fields(table[name][rows]) for name in columns[stop:]),
                    ))
                handle.write("\n".join(lines) + "\n")


def read_observations(path) -> Table:
    return _read_rows(path, OBSERVATION_COLUMNS)


def read_observation_blocks(path):
    return _read_blocks(path, OBSERVATION_COLUMNS)


def write_observations(path, tables):
    _write_rows(path, OBSERVATION_COLUMNS, tables)


def read_ground_truth(path) -> Table:
    return _read_rows(path, GROUND_TRUTH_COLUMNS)


def write_ground_truth(path, tables):
    _write_rows(path, GROUND_TRUTH_COLUMNS, tables)


def read_trajectory(path) -> Table:
    return _read_rows(path, TRAJECTORY_COLUMNS, text_columns=("flags",))


def write_trajectory(path, tables):
    _write_rows(path, TRAJECTORY_COLUMNS, tables, text_columns=("flags",))


def read_track(path) -> Table:
    return _read_rows(path, TRACK_COLUMNS)


# row is an integer line reference, not a measurement
def read_exclusions(path) -> Table:
    return _read_rows(path, EXCLUSION_COLUMNS, text_columns=("row", "reason"))


def write_exclusions(path, tables):
    _write_rows(path, EXCLUSION_COLUMNS, tables, text_columns=("row", "reason"))


# --- YAML configuration ---


def _load_mapping(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a key-value mapping at top level")
    return data


def _check_keys(data, allowed, path):
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys: {', '.join(unknown)}")


def _number(data, key, path, default=None):
    value = data.get(key, default)
    if value is None:
        raise ConfigError(f"{path}: missing required key {key}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: key {key} must be a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ConfigError(f"{path}: key {key} must be finite")
    return float(value)


def _vector(data, key, path, length, default):
    value = data.get(key, default)
    if (
        not isinstance(value, (list, tuple))
        or len(value) != length
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
        or not all(math.isfinite(v) for v in value)
    ):
        raise ConfigError(f"{path}: key {key} must be a list of {length} finite numbers")
    return np.asarray(value, dtype=float)


def _calibration(data, path):
    """Intrinsics and distortion from a calibration mapping."""
    _check_keys(data, CALIBRATION_KEYS, path)
    try:
        intr = CameraIntrinsics(
            fx=_number(data, "fx", path),
            fy=_number(data, "fy", path),
            cx=_number(data, "cx", path),
            cy=_number(data, "cy", path),
            image_width=int(_number(data, "width", path)),
            image_height=int(_number(data, "height", path)),
        )
        size = (data["width"], data["height"])
        if (intr.image_width, intr.image_height) != size:
            raise ConfigError(f"{path}: width and height must be integers, got {size}")
        dist = DistortionCoeffs(
            k1=_number(data, "k1", path, 0.0),
            k2=_number(data, "k2", path, 0.0),
            k3=_number(data, "k3", path, 0.0),
            p1=_number(data, "p1", path, 0.0),
            p2=_number(data, "p2", path, 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return intr, dist


def load_calibration(path):
    """Read intrinsics and distortion from a calibration file."""
    path = Path(path)
    return _calibration(_load_mapping(path), path)


def _ellipsoid(data, path) -> Ellipsoid:
    value = data.get("ellipsoid", "wgs84")
    if isinstance(value, str):
        try:
            return ELLIPSOIDS[value.lower()]
        except KeyError:
            raise ConfigError(
                f"{path}: unknown ellipsoid {value!r}; use one of "
                f"{sorted(ELLIPSOIDS)} or [r_e, r_p]"
            ) from None
    radii = _vector({"ellipsoid": value}, "ellipsoid", path, 2, value)
    try:
        return Ellipsoid(r_e=radii[0], r_p=radii[1])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _rig(data, path) -> RigConfig:
    try:
        return RigConfig(
            cam_offset=_vector(data, "cam_offset", path, 3, [0.0, 0.0, 0.0]),
            gimbal_pitch_sign=data.get("gimbal_pitch_sign", 1),
            gimbal_frame=data.get("gimbal_frame", "world"),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Everything the batch pipeline needs besides the input logs."""

    intrinsics: CameraIntrinsics
    distortion: DistortionCoeffs
    rig: RigConfig
    ellipsoid: Ellipsoid = WGS84
    altitude_datum_offset: float = 0.0
    sync_max_gap: float = 0.05
    gt_frame: GroundTruthFrame | None = None
    gt_rescale_a_cam: float | None = None  # set when the truth is rescaled
    gt_rescale_nadir: np.ndarray = field(default_factory=lambda: np.zeros(2))


def load_run_config(path) -> RunConfig:
    path = Path(path)
    data = _load_mapping(path)
    _check_keys(data, RUN_CONFIG_KEYS, path)
    calib = data.get("calibration")
    if not isinstance(calib, str):
        raise ConfigError(f"{path}: key calibration must be a file path")
    intr, dist = load_calibration(path.parent / calib)
    gt_frame = None
    if "gt_frame_yaw_deg" in data or "gt_frame_translation" in data:
        try:
            gt_frame = GroundTruthFrame(
                yaw=math.radians(_number(data, "gt_frame_yaw_deg", path, 0.0)),
                translation=_vector(data, "gt_frame_translation", path, 3, [0.0, 0.0, 0.0]),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    gt_rescale = data.get("gt_rescale", False)
    if not isinstance(gt_rescale, bool):
        raise ConfigError(f"{path}: key gt_rescale must be true or false")
    rescale_a_cam = None
    if gt_rescale:
        rescale_a_cam = _number(data, "gt_rescale_a_cam", path)
        if rescale_a_cam <= 0:
            raise ConfigError(f"{path}: gt_rescale_a_cam must be positive")
    sync_max_gap = _number(data, "sync_max_gap", path, 0.05)
    if sync_max_gap < 0:
        raise ConfigError(f"{path}: sync_max_gap must be non-negative")
    return RunConfig(
        intrinsics=intr,
        distortion=dist,
        rig=_rig(data, path),
        ellipsoid=_ellipsoid(data, path),
        altitude_datum_offset=_number(data, "altitude_datum_offset", path, 0.0),
        sync_max_gap=sync_max_gap,
        gt_frame=gt_frame,
        gt_rescale_a_cam=rescale_a_cam,
        gt_rescale_nadir=_vector(data, "gt_rescale_nadir", path, 2, [0.0, 0.0]),
    )


def load_scenario_config(path, seed=None) -> Scenario:
    """Build a simulation scenario from a YAML description.

    `seed` overrides the file's seed when given (the --seed flag).
    """
    path = Path(path)
    data = _load_mapping(path)
    _check_keys(data, SCENARIO_KEYS, path)

    calib = data.get("calibration")
    if isinstance(calib, str):
        intr, dist = load_calibration(path.parent / calib)
    elif isinstance(calib, dict):
        intr, dist = _calibration(calib, path)
    else:
        raise ConfigError(f"{path}: key calibration must be a path or a mapping")

    n = data.get("n_samples", 500)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigError(f"{path}: n_samples must be a positive integer")
    pattern = data.get("pattern", "lawnmower")
    if pattern == "lawnmower":
        area = _vector(data, "area", path, 2, [16.0, 8.0])
        legs = data.get("legs", 6)
        if isinstance(legs, bool) or not isinstance(legs, int) or legs < 1:
            raise ConfigError(f"{path}: legs must be a positive integer")
        path_xy = lawnmower_path(n, area[0], area[1], legs)
    elif pattern == "circle":
        path_xy = circle_path(n, _number(data, "radius", path, 5.0))
    elif pattern == "line":
        path_xy = line_path(
            n,
            _vector(data, "start", path, 2, [0.0, 0.0]),
            _vector(data, "end", path, 2, [5.0, 0.0]),
        )
    else:
        raise ConfigError(f"{path}: unknown pattern {pattern!r}")

    if seed is None:
        seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"{path}: seed must be an integer")
    try:
        noise = NoiseSpec(
            sigma_px=_number(data, "sigma_px", path, 0.0),
            sigma_alt=_number(data, "sigma_alt", path, 0.0),
            sigma_depth=_number(data, "sigma_depth", path, 0.0),
            sigma_gimbal=math.radians(_number(data, "sigma_gimbal_deg", path, 0.0)),
            seed=seed,
        )
        return Scenario(
            path_xy=path_xy,
            duration=_number(data, "duration", path, 100.0),
            altitude=_number(data, "altitude", path),
            depth_min=_number(data, "depth_min", path, 0.0),
            depth_max=_number(data, "depth_max", path, data.get("depth_min", 0.0)),
            ref_geo=GeodeticCoord.from_degrees(
                _number(data, "ref_lat_deg", path, 0.0),
                _number(data, "ref_lon_deg", path, 0.0),
                _number(data, "ref_alt_m", path, 0.0),
            ),
            intrinsics=intr,
            distortion=dist,
            rig=_rig(data, path),
            noise=noise,
            gimbal=EulerAngles.from_degrees(
                _number(data, "gimbal_yaw_deg", path, 0.0),
                _number(data, "gimbal_pitch_deg", path, -90.0),
                _number(data, "gimbal_roll_deg", path, 0.0),
            ),
            body=EulerAngles.from_degrees(
                _number(data, "body_yaw_deg", path, 0.0),
                _number(data, "body_pitch_deg", path, 0.0),
                _number(data, "body_roll_deg", path, 0.0),
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

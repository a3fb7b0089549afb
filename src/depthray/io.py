"""File formats: CSV logs and YAML configuration.

All CSVs are UTF-8 with a required header, `.` decimal separator,
angles in degrees and distances in meters. Floats are written with
Python's shortest round-trip repr so a written value reads back
bit-identical, and identical runs produce byte-identical files. The
digits come from orjson's Ryu formatter, one call per block of rows on
its numeric columns as one flat array, each k-th comma a line end. repr
itself formats the values it writes with an exponent (nonzero |x| < 1e-4
or |x| >= 1e16) and non-finite ones: they go to orjson as NaN, written
null, and each null is replaced by the repr of its value.

Logs are read into dicts that map each column name to a 1-D numpy
array, in schema order, text columns as object arrays, and written
from any such mappings, a block of rows at a time. A log is read as
bytes, 64 KiB at a time, and parsed a block of lines at a time: numpy
finds each comma and line end, orjson parses the numeric fields as one
JSON array, and the text columns are cut out by position. JSON numbers
are a subset of what float() reads, and orjson rounds them as float()
does. A block is declined, so that values and errors are the csv
module's, when it holds a quote, a byte that is not ASCII or a NUL, a
blank line or a lone CR, a line with too few or too many fields or
longer than the csv field size limit, numeric fields with [ ] { } or
the letters t, f or n (of true, false and null) or a bare -0 (an
integer to JSON, which loses its sign), or when orjson cannot parse
them or a value is not finite. A declined block hands the rest of the
file to one csv.reader, which reads quoted fields across lines, and
float(), called once on each numeric field to check and keep its
value; so does a header that is not the column names alone, or a
pipe, from its start. What csv.reader refuses (a field over its size
limit, a NUL before Python 3.11) is a SchemaError naming the line, as
a bad value is. A block is written as bytes, its text fields quoted so
that csv.reader reads them back. A log can be read block by block; a
file is written from a sequence of column mappings to a temporary
file, renamed onto the target once complete (see staged, which also
lets a command replace two files together).
"""

import contextlib
import csv
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import orjson
import yaml

from .camera import CameraIntrinsics, DistortionCoeffs
from .errors import ConfigError, SchemaError
from .geodesy import ELLIPSOIDS, WGS84, Ellipsoid
from .recovery import OBSERVATION_COLUMNS, TRAJECTORY_COLUMNS, Camera
from .synth import (
    NoiseSpec,
    Scenario,
    circle_path,
    lawnmower_path,
    line_path,
)

GROUND_TRUTH_COLUMNS = ["t", "x", "y", "z"]

EXCLUSION_COLUMNS = ["row", "t", "reason"]

TRACK_COLUMNS = ["t", "u", "v"]


# --- CSV ---

# rows parsed or formatted per block, which bounds the text held at once
CSV_BLOCK_ROWS = 4096

# bytes read at once, which bounds how far the file is read ahead of a block
_READ_BYTES = 1 << 16

# In numeric fields, JSON structure and the letters of true, false and null:
# orjson would read these where float() refuses them.
_JSON_ONLY_BYTES = (b"[", b"]", b"{", b"}", b"t", b"f", b"n")

# a text field holding any of these is written quoted, as csv.reader reads it back
_QUOTED_CHARS = ',"\r\n'


def _check_record(path, columns, text_columns, raw, lineno) -> list:
    """The fields of one record, each numeric one converted once by float()
    in place; the SchemaError for the first bad field, quoting its text."""
    if len(raw) != len(columns):
        raise SchemaError(f"{path}: expected {len(columns)} fields, got {len(raw)}", line=lineno)
    for j, (name, value) in enumerate(zip(columns, raw)):
        if name in text_columns:
            continue
        try:
            raw[j] = float(value)
        except ValueError:
            raise SchemaError(
                f"{path}: column {name}: not a number: {value!r}", line=lineno
            ) from None
        if not math.isfinite(raw[j]):
            raise SchemaError(f"{path}: column {name}: non-finite value {value}", line=lineno)
    return raw


def _span_index(starts, stops):
    """The positions of each span [start, stop), the spans one after another."""
    lengths = stops - starts
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)


def _text_column(a, starts, stops):
    """The bytes of `a` in each span [start, stop), as an object array of str."""
    cut = a[_span_index(starts, stops + 1)]  # each span with the separator after it
    cut[np.cumsum(stops + 1 - starts) - 1] = 10  # made a line end, to split at
    return np.array(cut.tobytes().decode().split("\n")[:-1], dtype=object)


def _parse_block(columns, text_columns, block, ends):
    """Columns of a block of whole lines (bytes-like), parsed in one vectorized pass.

    `ends` holds the positions of its LF bytes, as _line_blocks finds
    them; its last line may be unended. numpy finds every comma. Once
    each line is seen to hold one field per column, the block is copied
    with each line end made a comma and the text fields blanked out, and
    orjson parses that as one flat JSON array of the numeric fields, so a
    number reads as float() reads it. The text fields, which sit at
    either end of the schema, are cut out at once. Returns None where a
    line may read differently from csv.reader and float(), or is bad;
    the caller then reads the rest of the file by csv.reader.
    """
    if not block.endswith(b"\n"):
        block, ends = block + b"\n", np.append(ends, len(block))
    if not block.isascii() or b'"' in block or b"\0" in block:
        return None
    a = np.frombuffer(block, np.uint8)
    crlf = a[ends - 1] == 13
    if b"\r" in block and np.count_nonzero(a == 13) != np.count_nonzero(crlf):
        return None  # a lone CR, a line end to csv.reader
    n, k = len(ends), len(columns) - 1
    commas = np.flatnonzero(a == 44)
    if len(commas) != n * k:
        return None
    commas = commas.reshape(n, k)
    starts = np.concatenate(([0], ends[:-1] + 1))
    if (commas[:, 0] < starts).any() or (commas[:, -1] > ends).any():
        return None  # a line with too few or too many fields
    if (ends - starts).max() > csv.field_size_limit():
        return None  # a field csv.reader may refuse
    numeric = [j for j, name in enumerate(columns) if name not in text_columns]
    lead, stop = numeric[0], numeric[-1] + 1

    js = bytearray(len(block) + 1)
    view = np.frombuffer(js, np.uint8)
    view[1:] = a
    view[ends + 1] = 44
    if lead:  # leading text fields and the comma after them
        view[_span_index(starts, commas[:, lead - 1] + 1) + 1] = 32
    if stop <= k:  # the comma before trailing text fields, and them
        view[_span_index(commas[:, stop - 1], ends) + 1] = 32
    if any(js.find(c) != -1 for c in _JSON_ONLY_BYTES):
        return None
    js[0], js[-1] = 91, 93  # [ and ]
    try:
        values = orjson.loads(js)
    except ValueError:  # orjson's decode error: a field that is not a JSON number
        return None
    size = n * len(numeric)
    if len(values) != size:
        return None
    numbers = np.fromiter(values, float, size).reshape(n, len(numeric))
    if not np.isfinite(numbers).all():
        return None
    # field j of each line spans [firsts[j], stops[j]); the last stops at CR or LF
    firsts = np.vstack([starts, commas.T + 1])
    stops = np.vstack([commas.T, ends - crlf])
    # orjson reads a bare -0 as the integer 0, without its sign: an unsigned
    # zero whose field does not start with 0 may be one
    rows, cols = np.nonzero((numbers == 0) & ~np.signbit(numbers))
    if (a[firsts[lead + cols, rows]] != 48).any():
        return None
    # owned columns, so a whole read frees each block's column once it is joined
    return [
        numbers[:, j - lead].copy() if lead <= j < stop
        else _text_column(a, firsts[j], stops[j])
        for j in range(k + 1)
    ]


def _line_blocks(raw, rows):
    """Yield the rest of a binary file as blocks of `rows` lines, each with
    its byte offset and the positions of its LF bytes; the last block may
    hold fewer lines, and an unended one.

    Each read asks for _READ_BYTES, so the file is read less than that
    past a block's end.
    """
    offset, data, ends = raw.tell(), bytearray(), np.empty(0, np.intp)
    while True:
        while len(ends) < rows and (chunk := raw.read(_READ_BYTES)):
            found = np.flatnonzero(np.frombuffer(chunk, np.uint8) == 10) + len(data)
            ends = np.concatenate([ends, found])
            data += chunk
        if len(ends) < rows:
            if data:
                yield offset, data, ends
            return
        cut = ends[rows - 1] + 1
        yield offset, data[:cut], ends[:rows]
        del data[:cut]
        offset, ends = offset + cut, ends[rows:] - cut


def _record_columns(columns, text_columns, records):
    """The column dict of a list of records as _check_record returns them."""
    return {
        name: np.array(values, dtype=object if name in text_columns else float)
        for name, values in zip(columns, zip(*records))
    }


def _csv_blocks(path, columns, text_columns, handle, first_line):
    """Yield the rest of a text file as (line numbers, column dict) pairs of
    up to CSV_BLOCK_ROWS records, read by one csv.reader + float(), with
    its header first when `first_line` is 1.

    Each record is checked by _check_record as the reader yields it, so
    the first fault in the file is the one raised; a line number counts
    records, as a quoted field may run on across lines.
    """
    lineno, records, linenos = first_line, [], []
    try:
        for raw in csv.reader(handle):
            if lineno == 1:
                if raw != list(columns):
                    raise SchemaError(
                        f"{path}: expected columns {','.join(columns)}, got {','.join(raw)}",
                        line=1,
                    )
            elif raw:
                records.append(_check_record(path, columns, text_columns, raw, lineno))
                linenos.append(lineno)
                if len(records) == CSV_BLOCK_ROWS:
                    yield np.array(linenos), _record_columns(columns, text_columns, records)
                    records, linenos = [], []
            lineno += 1
    except csv.Error as exc:  # a field over csv.field_size_limit, or a NUL before 3.11
        raise SchemaError(f"{path}: {exc}", line=lineno) from None
    except UnicodeDecodeError as exc:
        # exc.object is the chunk being decoded, which ends where the file is read to
        offset = handle.buffer.tell() - len(exc.object) + exc.start
        raise SchemaError(f"{path}: not UTF-8: {exc.reason} at byte {offset}") from None
    if lineno == 1:
        raise SchemaError(f"{path}: missing header", line=1)
    if records:
        yield np.array(linenos), _record_columns(columns, text_columns, records)


def _read_blocks(path, columns, text_columns=()):
    """Yield a strict-schema CSV as (line numbers, column dict) pairs of up
    to CSV_BLOCK_ROWS rows: each row's 1-based line in the file, the one a
    SchemaError on it would name.

    The header must match `columns` exactly; any non-numeric or
    non-finite value in a numeric column is a SchemaError carrying the
    1-based line number (the record number, for fields spanning lines).

    After a header of the column names alone, the file is read as bytes
    and each block of lines parsed by _parse_block. From the first block
    it declines on, or from the start after any other header or in a
    pipe, the file is read as text by _csv_blocks, so the values and the
    first error are the same either way; a csv.Error is a SchemaError
    too. Bytes that are not UTF-8 are a SchemaError naming the offset of
    the first bad byte.
    """
    path = Path(path)
    try:
        handle = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot open {path}: {exc}") from exc
    header = ",".join(columns).encode()
    with handle:
        raw = handle.buffer
        offset, first_line = 0, 1  # where csv.reader takes over (line 1: the header)
        # csv.reader rereads from a block's offset, and a pipe cannot be
        # reread: a pipe goes to csv.reader whole
        if raw.seekable():
            if raw.readline() in (header, header + b"\n", header + b"\r\n"):
                first_line = 2
                for offset, block, ends in _line_blocks(raw, CSV_BLOCK_ROWS):
                    parsed = _parse_block(columns, text_columns, block, ends)
                    if parsed is None:
                        break
                    yield first_line + np.arange(len(parsed[0])), dict(zip(columns, parsed))
                    first_line += len(parsed[0])
                else:
                    return
            raw.seek(offset)
        yield from _csv_blocks(path, columns, text_columns, handle, first_line)


def _read_rows(path, columns, text_columns=()) -> dict:
    """Read a whole strict-schema CSV into one column dict (see _read_blocks)."""
    # the empty first part types the columns of a log without rows
    parts = {name: [np.array([], dtype=object if name in text_columns else float)]
             for name in columns}
    for _, block in _read_blocks(path, columns, text_columns):
        for name in columns:
            parts[name].append(block[name])
    # each column's parts are dropped as it is joined, so no column is held twice
    return {name: np.concatenate(parts.pop(name)) for name in columns}


def _number_rows(block) -> bytes:
    """A (rows, k) float block as CSV lines, each ended by a line feed.

    A value is written as its shortest round-trip repr: Ryu's digits from one
    orjson call on the block as a flat array, whose every k-th comma and
    closing ] are made line ends, and repr's own where it writes an exponent
    or the value is not finite. orjson writes those, set to NaN in `block`,
    as null, and each null is replaced by their repr in order.
    """
    size, k = np.abs(block), block.shape[1]
    odd = ~((size >= 1e-4) & (size < 1e16) | (block == 0))
    reprs = [repr(value).encode() for value in block[odd].tolist()]  # row-major
    block[odd] = np.nan
    text = bytearray(orjson.dumps(block.ravel(), option=orjson.OPT_SERIALIZE_NUMPY))
    a = np.frombuffer(text, np.uint8)
    a[np.flatnonzero(a == 44)[k - 1::k]] = 10
    text[-1] = 10
    view, parts, start = memoryview(text), [], 1
    for value in reprs:
        at = text.find(b"n", start)  # the n of null, which no digits hold
        parts += view[start:at], value
        start = at + 4
    parts.append(view[start:])
    return b"".join(parts) if len(block) else b""


def _text_fields(column) -> list:
    """The CSV fields of a text column, encoded: None as empty, str() of anything
    else, quoted with inner quotes doubled where it holds _QUOTED_CHARS."""
    fields = ["" if value is None else str(value) for value in column.tolist()]
    joined = "".join(fields)
    if any(c in joined for c in _QUOTED_CHARS):
        quoted = {
            field: '"' + field.replace('"', '""') + '"'
            for field in set(fields) if any(c in field for c in _QUOTED_CHARS)
        }
        fields = [quoted.get(field, field) for field in fields]
    return list(map(str.encode, fields))


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


def _write_rows(path, columns, blocks, text_columns=()):
    """Write the `columns` of a sequence of column mappings as one staged CSV.

    Each mapping's columns must be of one length: a ValueError otherwise,
    and nothing is written. The numeric columns sit together between any
    text columns; in each block of rows they are stacked into one array
    for _number_rows, whose bytes are written through a binary handle as
    they are, or split at each line end and the encoded text fields joined
    on at either end.
    """
    if isinstance(blocks, Mapping):  # iterating it would yield its column names
        raise TypeError(f"{path}: one column mapping is not iterable as a sequence of them")
    numeric = [name for name in columns if name not in text_columns]
    first, stop = columns.index(numeric[0]), columns.index(numeric[-1]) + 1
    with staged(path) as (temp,), temp.open("wb") as handle:
        handle.write((",".join(columns) + "\n").encode())
        for block in blocks:
            block = {name: np.asarray(block[name]) for name in columns}
            lengths = {name: len(column) for name, column in block.items()}
            if len(set(lengths.values())) > 1:
                raise ValueError(f"{path}: columns differ in length: {lengths}")
            for start in range(0, lengths[columns[0]], CSV_BLOCK_ROWS):
                rows = slice(start, start + CSV_BLOCK_ROWS)
                lines = _number_rows(np.stack(
                    [np.asarray(block[name][rows], dtype=float) for name in numeric], axis=1
                ))
                if text_columns:  # zip ends before the empty part after the last line end
                    lines = lines.split(b"\n")  # rebinding frees each part of the
                    lines = b"\n".join(map(b",".join, zip(  # block before the next is made
                        *(_text_fields(block[name][rows]) for name in columns[:first]),
                        lines,
                        *(_text_fields(block[name][rows]) for name in columns[stop:]),
                    )))
                    handle.write(lines)  # the last line end apart: a copy of the
                    lines = b"\n"  # block to add it raised recover's peak RSS
                handle.write(lines)


def read_observation_blocks(path):
    return _read_blocks(path, OBSERVATION_COLUMNS)


def write_observations(path, blocks):
    _write_rows(path, OBSERVATION_COLUMNS, blocks)


def read_ground_truth(path) -> dict:
    return _read_rows(path, GROUND_TRUTH_COLUMNS)


def write_ground_truth(path, blocks):
    _write_rows(path, GROUND_TRUTH_COLUMNS, blocks)


def read_trajectory(path) -> dict:
    return _read_rows(path, TRAJECTORY_COLUMNS, text_columns=("flags",))


def write_trajectory(path, blocks):
    _write_rows(path, TRAJECTORY_COLUMNS, blocks, text_columns=("flags",))


def read_track(path) -> dict:
    return _read_rows(path, TRACK_COLUMNS)


# row is an integer line reference, not a measurement
def read_exclusions(path) -> dict:
    return _read_rows(path, EXCLUSION_COLUMNS, text_columns=("row", "reason"))


def write_exclusions(path, blocks):
    _write_rows(path, EXCLUSION_COLUMNS, blocks, text_columns=("row", "reason"))


# --- YAML configuration ---

# The keys of each config file, each with its default. The default's type
# gives the key's kind: a float is a finite number, an int a count, a list
# of n floats a list of n finite numbers, and REQUIRED a number without a
# default. A key named *_deg is read in degrees and returned in radians
# under its name without the suffix. A key marked None is read by its
# loader's own code. CAMERA_TABLE holds the keys of the camera, the same
# in both config files, so that simulate and recover see one camera.
REQUIRED = ...

CALIBRATION_TABLE = {
    "fx": REQUIRED, "fy": REQUIRED, "cx": REQUIRED, "cy": REQUIRED,
    "width": REQUIRED, "height": REQUIRED,
    "k1": 0.0, "k2": 0.0, "k3": 0.0, "p1": 0.0, "p2": 0.0,
}

CAMERA_TABLE = {
    "calibration": None,  # a path relative to the config, or an inline mapping
    "cam_offset": [0.0, 0.0, 0.0],
    "gimbal_frame": None,
    "gimbal_pitch_sign": None,
}

RUN_CONFIG_TABLE = {
    **CAMERA_TABLE,
    "altitude_datum_offset": 0.0,
    "ellipsoid": None,
    "sync_max_gap": 0.05,
    "gt_frame_yaw_deg": 0.0,
    "gt_frame_translation": [0.0, 0.0, 0.0],
    "gt_rescale": None,
    "gt_rescale_a_cam": None,  # a number, required with gt_rescale: true
    "gt_rescale_nadir": [0.0, 0.0],
}

SCENARIO_TABLE = {
    "pattern": None,
    "n_samples": 500,
    "duration": 100.0,
    "area": [16.0, 8.0],
    "legs": 6,
    "radius": 5.0,
    "start": [0.0, 0.0],
    "end": [5.0, 0.0],
    "altitude": REQUIRED,
    "depth_min": 0.0,
    "depth_max": 0.0,  # depth_min when absent
    "gimbal_yaw_deg": 0.0,
    "gimbal_pitch_deg": -90.0,
    "gimbal_roll_deg": 0.0,
    "body_yaw_deg": 0.0,
    "body_pitch_deg": 0.0,
    "body_roll_deg": 0.0,
    "ref_lat_deg": 0.0,
    "ref_lon_deg": 0.0,
    "ref_alt_m": 0.0,
    "sigma_px": 0.0,
    "sigma_alt": 0.0,
    "sigma_depth": 0.0,
    "sigma_gimbal_deg": 0.0,
    "seed": None,
    **CAMERA_TABLE,
}


class _UniqueKeyLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """A SafeLoader, parsing with libyaml where PyYAML has it, that refuses
    a mapping naming one key twice, where PyYAML would keep the last value.
    A key merged in with << may still be overridden."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}", key_node.start_mark
                    )
                seen.add(key)
        return super().construct_mapping(node, deep)


def _load_mapping(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None
    try:
        data = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a key-value mapping at top level")
    return data


def _value(path, key, value, default):
    """The value of config key `key`, read as the kind of its table default."""
    if isinstance(default, list):
        if isinstance(value, (list, tuple)) and len(value) == len(default):
            with contextlib.suppress(ConfigError):
                return np.array([_value(path, key, v, 0.0) for v in value])
        raise ConfigError(f"{path}: key {key} must be a list of {len(default)} finite numbers")
    if isinstance(default, int):  # a count from 1 to the int64 maximum, as numpy takes one
        if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value < 2**63:
            raise ConfigError(f"{path}: {key} must be a positive integer below 2**63")
        return value
    if value is None or value is REQUIRED:
        raise ConfigError(f"{path}: missing required key {key}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: key {key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: key {key} must be finite")
    return number


def _read(data, table, path) -> dict:
    """The values of a config mapping by its key table, a default for each
    absent key; keys that are not in the table are refused."""
    unknown = sorted(map(str, set(data) - set(table)))
    if unknown:
        raise ConfigError(f"{path}: unknown keys: {', '.join(unknown)}")
    values = {}
    for key, default in table.items():
        if default is not None:
            value = _value(path, key, data.get(key, default), default)
            if key.endswith("_deg"):
                key, value = key[:-4], math.radians(value)
            values[key] = value
    return values


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
    radii = _value(path, "ellipsoid", value, [0.0, 0.0])
    try:
        return Ellipsoid(r_e=radii[0], r_p=radii[1])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _camera(data, cam_offset, path) -> Camera:
    """The camera of a config mapping: the calibration, a file path relative
    to the config or an inline mapping, and the mount keys of CAMERA_TABLE.
    A fault of the calibration names the file that holds it."""
    calib, where = data.get("calibration"), path
    if isinstance(calib, str):
        where = path.parent / calib
        calib = _load_mapping(where)
    elif not isinstance(calib, dict):
        raise ConfigError(f"{path}: key calibration must be a path or a mapping")
    v = _read(calib, CALIBRATION_TABLE, where)
    try:
        intr = CameraIntrinsics(
            fx=v["fx"], fy=v["fy"], cx=v["cx"], cy=v["cy"],
            image_width=int(v["width"]), image_height=int(v["height"]),
        )
        size = (calib["width"], calib["height"])
        if (intr.image_width, intr.image_height) != size:
            raise ConfigError(f"{where}: width and height must be integers, got {size}")
        dist = DistortionCoeffs(k1=v["k1"], k2=v["k2"], k3=v["k3"], p1=v["p1"], p2=v["p2"])
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    mount = {key: data[key] for key in ("gimbal_pitch_sign", "gimbal_frame") if key in data}
    try:
        return Camera(intr, dist, cam_offset=cam_offset, **mount)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Everything the batch pipeline needs besides the input logs."""

    camera: Camera
    ellipsoid: Ellipsoid = WGS84
    altitude_datum_offset: float = 0.0
    sync_max_gap: float = 0.05
    gt_frame_yaw: float = 0.0  # radians, of the truth's survey frame against ENU
    gt_frame_translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gt_rescale_a_cam: float | None = None  # set when the truth is rescaled
    gt_rescale_nadir: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        if not self.sync_max_gap >= 0:
            raise ValueError("sync_max_gap must be non-negative")
        if self.gt_rescale_a_cam is not None and not self.gt_rescale_a_cam > 0:
            raise ValueError("gt_rescale_a_cam must be positive")
        for name in ("gt_frame_translation", "gt_rescale_nadir"):
            value = np.array(getattr(self, name), dtype=float)  # a copy the caller cannot change
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def load_run_config(path) -> RunConfig:
    path = Path(path)
    data = _load_mapping(path)
    v = _read(data, RUN_CONFIG_TABLE, path)
    camera = _camera(data, v.pop("cam_offset"), path)
    gt_rescale = data.get("gt_rescale", False)
    if not isinstance(gt_rescale, bool):
        raise ConfigError(f"{path}: key gt_rescale must be true or false")
    rescale_a_cam = None
    if gt_rescale:
        rescale_a_cam = _value(path, "gt_rescale_a_cam", data.get("gt_rescale_a_cam"), REQUIRED)
    else:
        for key in ("gt_rescale_a_cam", "gt_rescale_nadir"):
            if key in data:
                raise ConfigError(f"{path}: key {key} is used only with gt_rescale: true")
    try:
        return RunConfig(camera, _ellipsoid(data, path), gt_rescale_a_cam=rescale_a_cam, **v)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_scenario_config(path, seed=None) -> Scenario:
    """Build a simulation scenario from a YAML description.

    `seed` overrides the file's seed when given (the --seed flag).
    """
    path = Path(path)
    data = _load_mapping(path)
    v = _read(data, SCENARIO_TABLE, path)
    camera = _camera(data, v["cam_offset"], path)

    n = v["n_samples"]
    pattern = data.get("pattern", "lawnmower")
    try:
        if pattern == "lawnmower":
            path_xy = lawnmower_path(n, *v["area"], v["legs"])
        elif pattern == "circle":
            path_xy = circle_path(n, v["radius"])
        elif pattern == "line":
            path_xy = line_path(n, v["start"], v["end"])
        else:
            raise ConfigError(f"{path}: unknown pattern {pattern!r}")
    except ValueError as exc:  # numpy's refusal of an array of n points
        raise ConfigError(f"{path}: n_samples {n}: {exc}") from None

    if seed is None:
        seed = data.get("seed", 0)
    try:
        noise = NoiseSpec(sigma_px=v["sigma_px"], sigma_alt=v["sigma_alt"],
                          sigma_depth=v["sigma_depth"], sigma_gimbal=v["sigma_gimbal"], seed=seed)
        return Scenario(
            path_xy=path_xy,
            duration=v["duration"],
            altitude=v["altitude"],
            depth_min=v["depth_min"],
            depth_max=v["depth_max"] if "depth_max" in data else v["depth_min"],
            ref_geo=np.array([v["ref_lat"], v["ref_lon"], v["ref_alt_m"]]),
            camera=camera,
            noise=noise,
            gimbal=np.array([v["gimbal_yaw"], v["gimbal_pitch"], v["gimbal_roll"]]),
            body=np.array([v["body_yaw"], v["body_pitch"], v["body_roll"]]),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

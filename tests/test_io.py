import csv
import io as textio
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from depthray import io
from depthray.errors import ConfigError, SchemaError
from depthray.table import Table

CALIB = """\
fx: 1000.0
fy: 1000.0
cx: 960.0
cy: 540.0
width: 1920
height: 1080
k1: -0.1
k2: 0.05
k3: 0.0
p1: 0.001
p2: -0.002
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestCalibration:
    def test_loads_intrinsics_and_distortion(self, tmp_path):
        intr, dist = io.load_calibration(write(tmp_path / "cal.yaml", CALIB))
        assert intr.fx == 1000.0
        assert intr.image_height == 1080
        assert dist.k1 == -0.1
        assert dist.p2 == -0.002

    def test_distortion_defaults_to_zero(self, tmp_path):
        text = "\n".join(CALIB.splitlines()[:6]) + "\n"
        _, dist = io.load_calibration(write(tmp_path / "cal.yaml", text))
        assert dist.is_zero()

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown keys"):
            io.load_calibration(write(tmp_path / "cal.yaml", CALIB + "skew: 0.1\n"))

    def test_size_must_be_integral(self, tmp_path):
        path = write(tmp_path / "cal.yaml", CALIB.replace("width: 1920", "width: 1920.0"))
        assert io.load_calibration(path)[0].image_width == 1920
        with pytest.raises(ConfigError, match="width and height must be integers"):
            io.load_calibration(write(path, CALIB.replace("width: 1920", "width: 1920.9")))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="fx"):
            io.load_calibration(write(tmp_path / "cal.yaml", "fy: 1000.0\n"))


class TestRunConfig:
    def test_defaults(self, tmp_path):
        write(tmp_path / "cal.yaml", CALIB)
        config = io.load_run_config(write(tmp_path / "run.yaml", "calibration: cal.yaml\n"))
        assert config.ellipsoid.r_e == 6378137.0
        assert config.sync_max_gap == 0.05
        assert config.gt_frame is None
        assert config.gt_rescale_a_cam is None

    def test_full_config(self, tmp_path):
        write(tmp_path / "cal.yaml", CALIB)
        text = """\
calibration: cal.yaml
cam_offset: [0.0, 0.0, -0.2]
gimbal_frame: body
gimbal_pitch_sign: -1
altitude_datum_offset: 1.5
ellipsoid: [6378137.0, 6356752.314245]
sync_max_gap: 0.02
gt_frame_yaw_deg: -67.3
gt_frame_translation: [1.0, 2.0, 0.0]
gt_rescale: true
gt_rescale_a_cam: 25.0
gt_rescale_nadir: [0.5, 0.5]
"""
        config = io.load_run_config(write(tmp_path / "run.yaml", text))
        assert config.rig.gimbal_frame == "body"
        assert config.rig.gimbal_pitch_sign == -1
        assert config.altitude_datum_offset == 1.5
        assert config.gt_frame.yaw == pytest.approx(np.radians(-67.3))
        assert config.gt_rescale_a_cam == 25.0

    def test_unknown_key_rejected(self, tmp_path):
        write(tmp_path / "cal.yaml", CALIB)
        with pytest.raises(ConfigError, match="gimbal_mode"):
            io.load_run_config(
                write(tmp_path / "run.yaml", "calibration: cal.yaml\ngimbal_mode: x\n")
            )

    def test_calibration_path_relative_to_config(self, tmp_path):
        sub = tmp_path / "configs"
        sub.mkdir()
        write(sub / "cal.yaml", CALIB)
        config = io.load_run_config(write(sub / "run.yaml", "calibration: cal.yaml\n"))
        assert config.intrinsics.fx == 1000.0


class TestScenarioConfig:
    def test_inline_calibration_and_patterns(self, tmp_path):
        text = """\
pattern: circle
radius: 4.0
n_samples: 64
altitude: 20.0
depth_min: 0.5
calibration: {fx: 1000.0, fy: 1000.0, cx: 960.0, cy: 540.0, width: 1920, height: 1080}
"""
        scenario = io.load_scenario_config(write(tmp_path / "scn.yaml", text))
        assert len(scenario) == 64
        assert np.allclose(np.hypot(scenario.path_xy[:, 0], scenario.path_xy[:, 1]), 4.0)

    def test_seed_override(self, tmp_path):
        text = """\
altitude: 25.0
seed: 3
sigma_px: 1.0
calibration: {fx: 1000.0, fy: 1000.0, cx: 960.0, cy: 540.0, width: 1920, height: 1080}
"""
        path = write(tmp_path / "scn.yaml", text)
        assert io.load_scenario_config(path).noise.seed == 3
        assert io.load_scenario_config(path, seed=9).noise.seed == 9

    def test_unknown_pattern_rejected(self, tmp_path):
        text = """\
pattern: spiral
altitude: 25.0
calibration: {fx: 1000.0, fy: 1000.0, cx: 960.0, cy: 540.0, width: 1920, height: 1080}
"""
        with pytest.raises(ConfigError, match="pattern"):
            io.load_scenario_config(write(tmp_path / "scn.yaml", text))


class TestCsv:
    def test_observation_round_trip_bit_exact(self, tmp_path):
        values = np.random.default_rng(5).uniform(0.1, 100.0, (5, 14))
        # -0.0, and values written with an exponent
        values[1:] *= [[-0.0], [1e-9], [1e17], [-5e-324 / 0.1]]
        rows = Table(dict(zip(io.OBSERVATION_COLUMNS, values.T)))
        path = tmp_path / "obs.csv"
        io.write_observations(path, [rows])
        assert "-0.0," in path.read_text() and "e-" in path.read_text()
        back = io.read_observations(path)
        assert list(back.columns) == list(rows.columns)
        for name in io.OBSERVATION_COLUMNS:
            assert np.array_equal(back[name].view(np.uint64), rows[name].view(np.uint64))

    def test_header_mismatch_is_schema_error(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,u\n0.0,1.0\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="line 1"):
            io.read_observations(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("t,x,y,z\n0.0,1.0,2.0,3.0\n1.0,oops,2.0,3.0\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="line 3"):
            io.read_ground_truth(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("t,x,y,z\n0.0,nan,2.0,3.0\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="non-finite"):
            io.read_ground_truth(path)

    def test_missing_file_is_schema_error(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot open"):
            io.read_observations(tmp_path / "absent.csv")


GT_HEADER = "t,x,y,z\n"


def gt_table(*rows):
    return Table({c: np.array(v, dtype=float) for c, v in zip(io.GROUND_TRUTH_COLUMNS, zip(*rows))})


def read_gt(tmp_path, text):
    path = tmp_path / "gt.csv"
    path.write_bytes(text.encode("utf-8"))
    return io.read_ground_truth(path)


def schema_error(tmp_path, text):
    with pytest.raises(SchemaError) as info:
        read_gt(tmp_path, text)
    return str(info.value).replace(str(tmp_path / "gt.csv"), "gt.csv"), info.value.line


class TestCsvReader:
    """What the reader returns or raises for each kind of input line."""

    def test_crlf_line_endings(self, tmp_path):
        text = "t,x,y,z\r\n0.0,1.0,2.0,3.0\r\n1.0,4.0,5.0,6.0\r\n"
        assert read_gt(tmp_path, text) == gt_table([0, 1, 2, 3], [1, 4, 5, 6])

    def test_blank_lines_skipped(self, tmp_path):
        text = GT_HEADER + "\n0.0,1.0,2.0,3.0\n\r\n\n1.0,4.0,5.0,6.0\n\n"
        assert read_gt(tmp_path, text) == gt_table([0, 1, 2, 3], [1, 4, 5, 6])
        # blank lines still count in the line numbers
        assert schema_error(tmp_path, GT_HEADER + "\n\r\n0.0,a,2.0,3.0\n") == (
            "line 4: gt.csv: column x: not a number: 'a'", 4
        )

    def test_whitespace_only_line_is_a_short_record(self, tmp_path):
        text = GT_HEADER + "0.0,1.0,2.0,3.0\n   \n"
        assert schema_error(tmp_path, text) == ("line 3: gt.csv: expected 4 fields, got 1", 3)
        assert schema_error(tmp_path, GT_HEADER + "\t\n")[1] == 2

    def test_number_spellings_read_as_float_does(self, tmp_path):
        text = GT_HEADER + '"1.5",1_0,+1, 1.0 \n'
        assert read_gt(tmp_path, text) == gt_table([1.5, 10.0, 1.0, 1.0])

    def test_unit_separator_is_not_space(self, tmp_path):
        # float() does not strip \x1c-\x1f as it strips spaces
        text = GT_HEADER + "0.0,\x1f1.0,2.0,3.0\n"
        assert schema_error(tmp_path, text) == (
            "line 2: gt.csv: column x: not a number: '\\x1f1.0'", 2
        )

    def test_hash_is_not_a_comment(self, tmp_path):
        text = GT_HEADER + "0.0,1.0,2.0,3.0\n1.0,2.0#,2.0,3.0\n"
        assert schema_error(tmp_path, text) == ("line 3: gt.csv: column x: not a number: '2.0#'", 3)
        path = tmp_path / "traj.csv"
        path.write_text(",".join(io.TRAJECTORY_COLUMNS) + "\n" + "1.0," * 10 + "a#b\n")
        assert list(io.read_trajectory(path)["flags"]) == ["a#b"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_values(self, tmp_path, value):
        text = GT_HEADER + f"0.0,1.0,2.0,3.0\n1.0,2.0,3.0,{value}\n"
        assert schema_error(tmp_path, text) == (
            f"line 3: gt.csv: column z: non-finite value {value}", 3
        )

    def test_extra_field_on_first_data_row(self, tmp_path):
        text = GT_HEADER + "0.0,1.0,2.0,3.0,4.0\n1.0,2.0,3.0,4.0\n"
        assert schema_error(tmp_path, text) == ("line 2: gt.csv: expected 4 fields, got 5", 2)

    @pytest.mark.parametrize("fields", [10, 12])
    def test_field_count_with_text_column(self, tmp_path, fields):
        path = tmp_path / "traj.csv"
        good = "1.0," * 10 + "ok\n"
        path.write_text(",".join(io.TRAJECTORY_COLUMNS) + "\n" + good + "1.0," * (fields - 1) + "ok\n")
        with pytest.raises(SchemaError, match=f"^line 3: .*expected 11 fields, got {fields}$"):
            io.read_trajectory(path)

    def test_short_row_in_second_block(self, tmp_path):
        assert io.CSV_BLOCK_ROWS < 4100
        rows = ["0.0,1.0,2.0,3.0\n"] * 4100
        rows[4100 - 2] = "1.0,2.0,3.0\n"
        text = GT_HEADER + "".join(rows)
        assert schema_error(tmp_path, text) == ("line 4100: gt.csv: expected 4 fields, got 3", 4100)

    def test_empty_file_after_header(self, tmp_path):
        table = read_gt(tmp_path, GT_HEADER)
        assert len(table) == 0
        assert list(table.columns) == io.GROUND_TRUTH_COLUMNS
        assert all(table[c].dtype == float for c in io.GROUND_TRUTH_COLUMNS)

    @pytest.mark.parametrize("offset", [3, 8190, 8191, 8192, 8195, 20000])
    def test_invalid_utf8_names_the_byte(self, tmp_path, offset):
        # the file is decoded in chunks of 8192 bytes, and the 3-byte
        # character before the bad byte may straddle two of them
        text = (GT_HEADER + "0.0,1.0,2.0,3.0\n" * 1300).encode("utf-8")
        path = tmp_path / "gt.csv"
        path.write_bytes(text[:offset - 3] + "€".encode("utf-8") + b"\xff" + text[offset + 1:])
        with pytest.raises(SchemaError) as info:
            io.read_ground_truth(path)
        assert str(info.value) == f"{path}: not UTF-8: invalid start byte at byte {offset}"

    def test_quoted_field_across_block_end(self, tmp_path):
        # a record spanning lines is one record: the line numbers of later
        # errors count records, as csv.reader does
        n = io.CSV_BLOCK_ROWS
        lines = ["1.0," * 10 + "ok\n"] * (n + 2)
        lines[n - 1] = "1.0," * 10 + '"two\nlines"\n'
        lines[n + 1] = "1.0," * 9 + "bad,ok\n"
        path = tmp_path / "traj.csv"
        path.write_text(",".join(io.TRAJECTORY_COLUMNS) + "\n" + "".join(lines))
        with pytest.raises(SchemaError, match=f"line {n + 3}: .* not a number: 'bad'"):
            io.read_trajectory(path)
        path.write_text(",".join(io.TRAJECTORY_COLUMNS) + "\n" + "".join(lines[:-1]))
        flags = io.read_trajectory(path)["flags"]
        assert len(flags) == n + 1
        assert flags[n - 1] == "two\nlines" and flags[n] == "ok"


# JSON numbers that float() reads, at the edges of what a double holds
EDGE_NUMBERS = [
    "-0.0", "0e0", "-0e0", "0", "1e308", "1.7976931348623157e308",
    "1e-324", "4e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
    "9007199254740993", "18446744073709551615", "18446744073709551616", "-9223372036854775809",
]
# spellings that JSON and float() read differently, or only one of them reads
ODD_NUMBERS = [
    "-0", "-0e-0", "1e-0", "1.8e308", "-1e309", "1e999",
    "+1", "1.", ".5", "01", "-01", "1_0", "0x10", "1e", "--1", "1 2", "",
    "nan", "NaN", "inf", "-Infinity", "true", "false", "null",
    "[1", "1]", "{}", "[]", '"1.5"', '"1,5"', "\x001", "1\x1c", "\x1f1", "\xa01", "١",
]

json_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-2**70, 2**70).map(str),
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-330, 308)),
    st.sampled_from(EDGE_NUMBERS),
)
spaces = st.sampled_from(["", "", " ", "\t"])
numbers = st.builds("{}{}{}".format, spaces, json_numbers, spaces)
texts = st.sampled_from(["", "out_of_frame", "no_origin_match", "17", "-0", "[t]"])
# half of them spellings orjson reads as a value float() refuses or reads otherwise
odd_numbers = st.one_of(
    st.sampled_from(["-0", "true", "false", "null", "{}", "[]", "[1", "1]"]),
    st.sampled_from(ODD_NUMBERS),
)
odd_texts = st.one_of(
    st.sampled_from(['"a,b"', '"', "x\x00", "\r", "\x1c", ","]),
    st.text(st.sampled_from(' -0.5e[]{}tfn"\t\x00\x1c\x1f,'), max_size=4),
)
SCHEMAS = [
    (io.GROUND_TRUTH_COLUMNS, (), io.read_ground_truth),
    (io.TRAJECTORY_COLUMNS, ("flags",), io.read_trajectory),
    (io.EXCLUSION_COLUMNS, ("row", "reason"), io.read_exclusions),
]


@st.composite
def csv_blocks(draw):
    """A schema and the lines of a block of its rows, as a file yields them:
    rows of JSON numbers and plain text, with at most one odd field, or
    a row a field short, a row a field long, or both."""
    columns, text_columns, reader = draw(st.sampled_from(SCHEMAS))
    rows = [
        [draw(texts if c in text_columns else numbers) for c in columns]
        for _ in range(draw(st.integers(1, 6)))
    ]
    row, other = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
    k = draw(st.integers(0, len(columns) - 1))
    fault = draw(st.sampled_from(["none", "odd", "short", "long", "short and long"]))
    if fault == "odd":
        row[k] = draw(odd_texts if columns[k] in text_columns else odd_numbers)
    if "short" in fault:
        del row[k]
    if "long" in fault:
        other.insert(k, other[k - 1])
    ends = st.sampled_from(["\n", "\r\n", "\n\n", "\r\n\r\n"])
    text = "".join(",".join(fields) + draw(ends) for fields in rows)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    lines = textio.StringIO(text, newline="").readlines()
    return columns, text_columns, reader, lines


def bits_equal(columns, text_columns, got, want):
    for name, a, b in zip(columns, got, want, strict=True):
        if name in text_columns:
            assert a.dtype == b.dtype == object and a.tolist() == b.tolist()
        else:
            assert a.dtype == b.dtype == float
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestFastParser:
    """_parse_lines reads a block as csv.reader + float() does, or declines."""

    @settings(deadline=None)
    @given(csv_blocks())
    def test_block_matches_csv_reader_bit_for_bit(self, block):
        columns, text_columns, _, lines = block
        records = [line for line in lines if line not in io._BLANK_LINES]
        assume(records)
        parsed = io._parse_lines(columns, text_columns, records)
        if parsed is not None:
            want, _ = io._parse_records("gt.csv", columns, text_columns, lines, iter(()), 2)
            bits_equal(columns, text_columns, parsed, want)

    @settings(deadline=None)
    @given(csv_blocks())
    def test_readers_match_the_csv_path(self, tmp_path_factory, block):
        columns, text_columns, reader, lines = block
        path = tmp_path_factory.mktemp("csv") / "log.csv"
        path.write_bytes((",".join(columns) + "\n" + "".join(lines)).encode("utf-8"))
        results = []
        for parse in (io._parse_lines, lambda *args: None):
            with mock.patch.object(io, "_parse_lines", parse):
                try:
                    table = reader(path)
                    results.append([table[name] for name in columns])
                except SchemaError as exc:
                    results.append((str(exc), exc.line))
        got, want = results
        if isinstance(want, tuple):
            assert got == want
        else:
            bits_equal(columns, text_columns, got, want)

    def test_numbers_match_float_in_bulk(self):
        # the values come from orjson: a release of it that rounds any
        # spelling differently from float() shows here
        rng = np.random.default_rng(9)
        values = rng.integers(0, 2**64, 60_000, dtype=np.uint64, endpoint=False).view(float)
        values = values[np.isfinite(values)].tolist()
        digits = rng.integers(1, 25, len(values)).tolist()
        spellings = [
            *map(repr, values),
            *(f"{v:.{d}e}" for v, d in zip(values, digits)),
            *(f"{v:.{d}f}" for v, d in zip(values, digits) if 1e-30 < abs(v) < 1e30),
            *(str(int(v)) for v in values if abs(v) < 1e30),
        ]
        spellings = spellings[:len(spellings) // 4 * 4]
        lines = [",".join(spellings[k:k + 4]) + "\n" for k in range(0, len(spellings), 4)]
        want = np.array(list(map(float, spellings))).reshape(-1, 4)
        for start in range(0, len(lines), io.CSV_BLOCK_ROWS):
            block = slice(start, start + io.CSV_BLOCK_ROWS)
            parsed = io._parse_lines(io.GROUND_TRUTH_COLUMNS, (), lines[block])
            assert parsed is not None
            bits_equal(io.GROUND_TRUTH_COLUMNS, (), parsed, want[block].T)


def reference_csv(columns, table, text_columns):
    """The bytes csv.writer writes for the table, numbers as repr(), rows
    ended by "\n". It writes each row with a "\r\n" terminator, so that it
    quotes a field holding a lone CR, as csv.reader needs to read it back."""
    rows = []
    writer = csv.writer(SimpleNamespace(write=rows.append), lineterminator="\r\n")
    writer.writerow(columns)
    writer.writerows(zip(*(
        table[c].tolist() if c in text_columns else [repr(float(v)) for v in table[c]]
        for c in columns
    )))
    return "".join(row[:-2] + "\n" for row in rows).encode("utf-8")


finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([
        0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e-5, 0.1,
        # either side of the bounds of repr's plain notation, and integers
        1e-4, 9.999999999999999e-05, 9999999999999998.0, 25.0, 2.0**53, 1e22,
    ]),
)


@st.composite
def number_columns(draw, n):
    kind = draw(st.sampled_from(["any", "constant", "zeros"]))
    if kind == "constant":
        return [draw(finite)] * n
    if kind == "zeros":
        return draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
    return draw(st.lists(finite, min_size=n, max_size=n))


@st.composite
def trajectories(draw):
    n = draw(st.integers(1, 30))
    columns = {c: draw(number_columns(n)) for c in io.TRAJECTORY_COLUMNS[:-1]}
    texts = st.sampled_from(["", "out_of_frame", "a,b", 'q"x', "two\nlines"])
    columns["flags"] = np.array(draw(st.lists(texts, min_size=n, max_size=n)), dtype=object)
    return Table(columns)


ODD_VALUES = [
    0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e-5, 9.99e-5, 1e16,
    float("nan"), float("inf"), -float("inf"),
]

# every schema the package writes; origin tracks have no public writer
WRITERS = [
    (io.write_observations, io.OBSERVATION_COLUMNS, ()),
    (io.write_ground_truth, io.GROUND_TRUTH_COLUMNS, ()),
    (io.write_trajectory, io.TRAJECTORY_COLUMNS, ("flags",)),
    (io.write_exclusions, io.EXCLUSION_COLUMNS, ("row", "reason")),
    (lambda path, tables: io._write_rows(path, io.TRACK_COLUMNS, tables), io.TRACK_COLUMNS, ()),
]

text_values = st.one_of(
    st.none(), st.integers(-5, 10**6),
    st.sampled_from(["", "degenerate", "a,b", 'q"x', '""', "a\rb", "\r", "cr\r\n", "two\nlines"]),
)


@st.composite
def any_column(draw, n, text):
    if text:
        return np.array(draw(st.lists(text_values, min_size=n, max_size=n)), dtype=object)
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)))
    values = st.one_of(st.floats(), st.sampled_from(ODD_VALUES))
    return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float)


@st.composite
def schema_tables(draw):
    writer, columns, text_columns = draw(st.sampled_from(WRITERS))
    tables = [
        Table({c: draw(any_column(n, c in text_columns)) for c in columns})
        for n in draw(st.lists(st.integers(0, 20), min_size=1, max_size=3))
    ]
    return writer, columns, text_columns, tables


# values whose shortest repr is easy to get wrong
SHORTEST_REPR = Table({
    **{c: [0.1, 1.0 / 3.0, 25.630000000000003, -1e-17] for c in io.TRAJECTORY_COLUMNS[:-1]},
    "flags": np.array([""] * 4, dtype=object),
})


class TestCsvWriter:
    @settings(max_examples=80, deadline=None)
    @given(trajectories())
    @example(table=SHORTEST_REPR)
    def test_round_trip_is_bit_exact_and_matches_csv_writer(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("csv") / "traj.csv"
        io.write_trajectory(path, [table])
        assert path.read_bytes() == reference_csv(io.TRAJECTORY_COLUMNS, table, ("flags",))
        back = io.read_trajectory(path)
        for c in io.TRAJECTORY_COLUMNS[:-1]:
            assert np.array_equal(back[c].view(np.int64), np.asarray(table[c]).view(np.int64))
        assert list(back["flags"]) == list(table["flags"])

    def test_non_finite_values_written_as_repr(self, tmp_path):
        table = gt_table((0.0, float("nan"), float("inf"), -float("inf")), (1.0, 2.0, -0.0, 3.0))
        path = tmp_path / "gt.csv"
        io.write_ground_truth(path, [table])
        assert path.read_bytes() == reference_csv(io.GROUND_TRUTH_COLUMNS, table, ())
        assert path.read_text().splitlines()[1] == "0.0,nan,inf,-inf"

    def test_number_rows_match_repr_in_bulk(self):
        # the digits come from orjson: any departure from repr in a release
        # of it shows here, over random bit patterns of every exponent and
        # values of few significant digits, in blocks as wide as each schema
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
        mantissa = rng.uniform(-10.0, 10.0, 100_000) * 10.0 ** rng.integers(-6, 18, 100_000)
        digits = rng.integers(1, 16, 100_000)
        rounded = np.array([float(f"{m:.{d}g}") for m, d in zip(mantissa.tolist(), digits)])
        values = np.concatenate([bits.view(float), rounded])
        for width in (1, 4, 14):
            rows = values[:len(values) // width * width].reshape(-1, width)
            for start in range(0, len(rows), io.CSV_BLOCK_ROWS):
                block = rows[start:start + io.CSV_BLOCK_ROWS]
                want = [",".join(map(repr, row)) for row in block.tolist()]
                assert io._number_rows(block.copy()) == want

    def test_carriage_return_in_a_text_field_round_trips(self, tmp_path):
        flags = ["a\rb", "\r", "\r\n", "ok"]
        table = Table({
            **{c: np.arange(4.0) for c in io.TRAJECTORY_COLUMNS[:-1]},
            "flags": np.array(flags, dtype=object),
        })
        path = tmp_path / "traj.csv"
        io.write_trajectory(path, [table])
        assert list(io.read_trajectory(path)["flags"]) == flags

    def test_none_text_value_is_an_empty_field(self, tmp_path):
        table = Table({"row": np.array([None, 4], dtype=object), "t": [0.5, 1.0],
                       "reason": np.array(["degenerate", None], dtype=object)})
        path = tmp_path / "excl.csv"
        io.write_exclusions(path, [table])
        assert path.read_bytes() == reference_csv(io.EXCLUSION_COLUMNS, table, ("row", "reason"))
        assert path.read_text().splitlines()[1:] == [",0.5,degenerate", "4,1.0,"]

    def test_integer_text_column(self, tmp_path):
        table = Table({"row": np.array([2, 17]), "t": [0.5, -0.0], "reason": ["degenerate"] * 2})
        path = tmp_path / "excl.csv"
        io.write_exclusions(path, [table])
        assert path.read_bytes() == reference_csv(io.EXCLUSION_COLUMNS, table, ("row", "reason"))
        assert list(io.read_exclusions(path)["row"]) == ["2", "17"]

    def test_blocks_written_in_order(self, tmp_path):
        n = 2 * io.CSV_BLOCK_ROWS + 3
        table = Table({c: np.arange(n) + k for k, c in enumerate(io.GROUND_TRUTH_COLUMNS)})
        path = tmp_path / "gt.csv"
        io.write_ground_truth(path, [table])
        assert path.read_bytes() == reference_csv(io.GROUND_TRUTH_COLUMNS, table, ())
        assert io.read_ground_truth(path) == Table({c: table[c].astype(float) for c in table.columns})


    def test_a_bare_table_is_refused_and_leaves_no_file(self, tmp_path):
        # writers take a sequence of tables; a Table is not a sequence of rows
        with pytest.raises(TypeError, match="not iterable"):
            io.write_ground_truth(tmp_path / "gt.csv", gt_table((0.0, 1.0, 2.0, 3.0)))
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=150, deadline=None)
    @given(schema_tables(), st.sampled_from([1, 7, io.CSV_BLOCK_ROWS]))
    def test_every_writer_matches_csv_writer(self, tmp_path_factory, case, block_rows):
        writer, columns, text_columns, tables = case
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        with mock.patch.object(io, "CSV_BLOCK_ROWS", block_rows):
            writer(path, tables)
        whole = Table({c: np.concatenate([t[c] for t in tables]) for c in columns})
        assert path.read_bytes() == reference_csv(columns, whole, text_columns)


class TestRigConfig:
    def test_bool_pitch_sign_rejected(self, tmp_path):
        # YAML true is an int in Python; it is not a pitch sign
        write(tmp_path / "cal.yaml", CALIB)
        text = "calibration: cal.yaml\ngimbal_pitch_sign: true\n"
        with pytest.raises(ConfigError, match="gimbal_pitch_sign"):
            io.load_run_config(write(tmp_path / "run.yaml", text))

    def test_bool_pitch_sign_exits_2(self, tmp_path, capsys):
        from depthray.cli import main

        write(tmp_path / "cal.yaml", CALIB)
        write(tmp_path / "run.yaml", "calibration: cal.yaml\ngimbal_pitch_sign: true\n")
        code = main([
            "recover", "--config", str(tmp_path / "run.yaml"),
            "--input", str(tmp_path / "obs.csv"), "--output", str(tmp_path / "traj.csv"),
        ])
        assert code == 2
        assert "gimbal_pitch_sign" in capsys.readouterr().err

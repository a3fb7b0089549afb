import csv
import io as textio
import os
import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depthray import io
from depthray.camera import CameraIntrinsics
from depthray.cli import main
from depthray.errors import ConfigError, SchemaError
from depthray.recovery import Camera
from depthray.synth import generate_logs

from conftest import assert_columns_equal, read_observation_log

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


def camera_of(calibration_path):
    """The camera of a run configuration beside the calibration file."""
    run = write(calibration_path.parent / "run.yaml", f"calibration: {calibration_path.name}\n")
    return io.load_run_config(run).camera


class TestCalibration:
    def test_loads_intrinsics_and_distortion(self, tmp_path):
        camera = camera_of(write(tmp_path / "cal.yaml", CALIB))
        intr, dist = camera.intrinsics, camera.distortion
        assert intr.fx == 1000.0
        assert intr.image_height == 1080
        assert dist.k1 == -0.1
        assert dist.p2 == -0.002

    def test_distortion_defaults_to_zero(self, tmp_path):
        text = "\n".join(CALIB.splitlines()[:6]) + "\n"
        assert camera_of(write(tmp_path / "cal.yaml", text)).distortion.is_zero()

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown keys"):
            camera_of(write(tmp_path / "cal.yaml", CALIB + "skew: 0.1\n"))

    def test_size_must_be_integral(self, tmp_path):
        path = write(tmp_path / "cal.yaml", CALIB.replace("width: 1920", "width: 1920.0"))
        assert camera_of(path).intrinsics.image_width == 1920
        with pytest.raises(ConfigError, match="width and height must be integers"):
            camera_of(write(path, CALIB.replace("width: 1920", "width: 1920.9")))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="fx"):
            camera_of(write(tmp_path / "cal.yaml", "fy: 1000.0\n"))


class TestRunConfig:
    def test_defaults(self, tmp_path):
        write(tmp_path / "cal.yaml", CALIB)
        config = io.load_run_config(write(tmp_path / "run.yaml", "calibration: cal.yaml\n"))
        assert config.ellipsoid.r_e == 6378137.0
        assert config.sync_max_gap == 0.05
        assert config.gt_frame_yaw is None
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
        assert config.camera.gimbal_frame == "body"
        assert config.camera.gimbal_pitch_sign == -1
        assert config.camera.cam_offset.tolist() == [0.0, 0.0, -0.2]
        assert config.altitude_datum_offset == 1.5
        assert config.gt_frame_yaw == pytest.approx(np.radians(-67.3))
        assert config.gt_frame_translation.tolist() == [1.0, 2.0, 0.0]
        assert config.gt_rescale_a_cam == 25.0

    @pytest.mark.parametrize("key, value", [
        ("gt_rescale_a_cam", "25.0"), ("gt_rescale_nadir", "[3.0, 1.0]"),
    ], ids=["a_cam", "nadir"])
    @pytest.mark.parametrize("switch", ["", "gt_rescale: false\n"], ids=["unset", "false"])
    def test_rescale_keys_need_gt_rescale(self, tmp_path, key, value, switch):
        # without gt_rescale: true they would be ignored, and the truth scored unrescaled
        write(tmp_path / "cal.yaml", CALIB)
        text = f"calibration: cal.yaml\n{switch}{key}: {value}\n"
        with pytest.raises(ConfigError, match=f"key {key} is used only with gt_rescale: true"):
            io.load_run_config(write(tmp_path / "run.yaml", text))

    @staticmethod
    def make(**values):
        return io.RunConfig(Camera(CameraIntrinsics(1000.0, 1000.0, 960.0, 540.0, 1920, 1080)),
                            **values)

    def test_arrays_are_read_only_copies(self):
        translation, nadir = np.array([1.0, 2.0, 0.0]), np.array([0.5, 0.5])
        config = self.make(gt_frame_translation=translation, gt_rescale_nadir=nadir)
        translation[0], nadir[0] = 500.0, 500.0
        assert config.gt_frame_translation.tolist() == [1.0, 2.0, 0.0]
        assert config.gt_rescale_nadir.tolist() == [0.5, 0.5]
        with pytest.raises(ValueError, match="read-only"):
            config.gt_frame_translation[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            config.gt_rescale_nadir[0] = 5.0

    @pytest.mark.parametrize("values, message", [
        ({"sync_max_gap": -1.0}, "sync_max_gap must be non-negative"),
        ({"sync_max_gap": float("nan")}, "sync_max_gap must be non-negative"),
        ({"gt_rescale_a_cam": 0.0}, "gt_rescale_a_cam must be positive"),
        ({"gt_rescale_a_cam": -25.0}, "gt_rescale_a_cam must be positive"),
    ], ids=["negative_gap", "nan_gap", "zero_a_cam", "negative_a_cam"])
    def test_values_checked_on_construction(self, values, message):
        with pytest.raises(ValueError, match=message):
            self.make(**values)

    @pytest.mark.parametrize("text, message", [
        ("sync_max_gap: -1.0\n", "sync_max_gap must be non-negative"),
        ("gt_rescale: true\ngt_rescale_a_cam: 0.0\n", "gt_rescale_a_cam must be positive"),
    ], ids=["sync_max_gap", "gt_rescale_a_cam"])
    def test_file_values_refused_with_the_path(self, tmp_path, text, message):
        write(tmp_path / "cal.yaml", CALIB)
        path = write(tmp_path / "run.yaml", "calibration: cal.yaml\n" + text)
        with pytest.raises(ConfigError, match=f"run.yaml: {message}"):
            io.load_run_config(path)

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
        assert config.camera.intrinsics.fx == 1000.0


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

    def test_angles_read_in_degrees(self, tmp_path):
        text = """\
altitude: 25.0
gimbal_yaw_deg: 90.0
gimbal_pitch_deg: -90.0
gimbal_roll_deg: 45.0
body_yaw_deg: 400.0
ref_lat_deg: -45.5
ref_lon_deg: 190.0
ref_alt_m: 12.0
calibration: {fx: 1000.0, fy: 1000.0, cx: 960.0, cy: 540.0, width: 1920, height: 1080}
"""
        scenario = io.load_scenario_config(write(tmp_path / "scn.yaml", text))
        assert tuple(scenario.gimbal) == pytest.approx((np.pi / 2, -np.pi / 2, np.pi / 4))
        assert tuple(scenario.body) == pytest.approx((np.radians(40.0), 0.0, 0.0))
        assert tuple(scenario.ref_geo) == pytest.approx(
            (np.radians(-45.5), np.radians(-170.0), 12.0)
        )

    def test_unknown_pattern_rejected(self, tmp_path):
        text = """\
pattern: spiral
altitude: 25.0
calibration: {fx: 1000.0, fy: 1000.0, cx: 960.0, cy: 540.0, width: 1920, height: 1080}
"""
        with pytest.raises(ConfigError, match="pattern"):
            io.load_scenario_config(write(tmp_path / "scn.yaml", text))


INLINE = "calibration: {fx: 1000.0, fy: 1000.0, cx: 960.0, cy: 540.0, width: 1920, height: 1080}\n"


# PyYAML keeps the last of two values for one key; each mapping of a config refuses that
@pytest.mark.parametrize("load, text, key", [
    (io.load_run_config, "calibration: cal.yaml\nsync_max_gap: 0.05\nsync_max_gap: 50.0\n",
     "sync_max_gap"),
    (io.load_scenario_config, "altitude: 25.0\n" + INLINE + "altitude: 30.0\n", "altitude"),
    (io.load_scenario_config,
     "altitude: 25.0\n" + INLINE.replace("fx: 1000.0", "fx: 1.0, fx: 2.0"), "fx"),
    (camera_of, CALIB + "k1: 0.2\n", "k1"),
], ids=["run", "scenario", "inline_calibration", "calibration"])
def test_duplicate_key_refused(tmp_path, load, text, key):
    write(tmp_path / "cal.yaml", CALIB)
    with pytest.raises(ConfigError, match=f"duplicate key '{key}'"):
        load(write(tmp_path / "config.yaml", text))


def test_merged_key_may_be_overridden(tmp_path):
    text = ("calibration:\n  <<: {fx: 1.0, fy: 1000.0, cx: 960.0, cy: 540.0, width: 1920, "
            "height: 1080}\n  fx: 1000.0\naltitude: 25.0\n")
    scenario = io.load_scenario_config(write(tmp_path / "scn.yaml", text))
    assert scenario.camera.intrinsics.fx == 1000.0


class TestCsv:
    def test_observation_round_trip_bit_exact(self, tmp_path):
        values = np.random.default_rng(5).uniform(0.1, 100.0, (5, 14))
        # -0.0, and values written with an exponent
        values[1:] *= [[-0.0], [1e-9], [1e17], [-5e-324 / 0.1]]
        rows = dict(zip(io.OBSERVATION_COLUMNS, values.T))
        path = tmp_path / "obs.csv"
        io.write_observations(path, [rows])
        assert "-0.0," in path.read_text() and "e-" in path.read_text()
        back = read_observation_log(path)
        assert list(back) == list(rows)
        for name in io.OBSERVATION_COLUMNS:
            assert np.array_equal(back[name].view(np.uint64), rows[name].view(np.uint64))

    def test_header_mismatch_is_schema_error(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,u\n0.0,1.0\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="line 1"):
            next(io.read_observation_blocks(path))

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
            next(io.read_observation_blocks(tmp_path / "absent.csv"))


GT_HEADER = "t,x,y,z\n"


def gt_table(*rows):
    return {c: np.array(v, dtype=float) for c, v in zip(io.GROUND_TRUTH_COLUMNS, zip(*rows))}


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
        assert_columns_equal(read_gt(tmp_path, text), gt_table([0, 1, 2, 3], [1, 4, 5, 6]))

    def test_blank_lines_skipped(self, tmp_path):
        text = GT_HEADER + "\n0.0,1.0,2.0,3.0\n\r\n\n1.0,4.0,5.0,6.0\n\n"
        assert_columns_equal(read_gt(tmp_path, text), gt_table([0, 1, 2, 3], [1, 4, 5, 6]))
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
        assert_columns_equal(read_gt(tmp_path, text), gt_table([1.5, 10.0, 1.0, 1.0]))

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

    # csv.reader refuses a field over csv.field_size_limit (131072 characters
    # unless raised), and before Python 3.11 a NUL
    @pytest.mark.parametrize("text, line", [
        (GT_HEADER + "0.0,1.0,2.0,3.0\n1.0," + "1" * 140_000 + ",2.0,3.0\n", 3),
        ("t,x,y," + "z" * 200_000 + "\n0.0,1.0,2.0,3.0\n", 1),
        (GT_HEADER + "0.0,1.0,2.0,3.0\n1.0,\x002.0,2.0,3.0\n", 3),
    ], ids=["long_value", "long_header", "nul"])
    def test_csv_module_errors_name_the_line(self, tmp_path, text, line):
        message, got = schema_error(tmp_path, text)
        assert got == line and message.startswith(f"line {line}: gt.csv: ")

    def test_text_field_over_the_size_limit_names_the_line(self, tmp_path):
        path = tmp_path / "traj.csv"
        lines = ["1.0," * 10 + "ok\n", "1.0," * 10 + "a" * 140_000 + "\n"]
        path.write_text(",".join(io.TRAJECTORY_COLUMNS) + "\n" + "".join(lines))
        with pytest.raises(SchemaError, match="^line 3: .*field larger than field limit"):
            io.read_trajectory(path)

    def test_first_fault_in_file_order_is_reported(self, tmp_path):
        # both faults in one block: a bad value before a field over the size limit
        text = GT_HEADER + "0.0,1.0,2.0,3.0\n1.0,a,2.0,3.0\n2.0,1.0,2.0,3.0\n"
        text += "3.0," + "1" * 140_000 + ",2.0,3.0\n"
        assert schema_error(tmp_path, text) == ("line 3: gt.csv: column x: not a number: 'a'", 3)

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
        assert len(table["t"]) == 0
        assert list(table) == io.GROUND_TRUTH_COLUMNS
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

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("flags", ["ok", '"a,b"'])
    def test_a_pipe_is_read(self, tmp_path, flags):
        # a pipe cannot be read again from a block's offset, as the bytes path would
        path = tmp_path / "traj.pipe"
        os.mkfifo(path)
        text = ",".join(io.TRAJECTORY_COLUMNS) + "\n" + ("1.0," * 10 + flags + "\n") * 3

        def write():
            with path.open("w", encoding="utf-8") as pipe:
                pipe.write(text)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            table = io.read_trajectory(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert table["flags"].tolist() == [flags.strip('"')] * 3

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


# the line ends _parse_block reads; it declines blank lines and lone CRs,
# which csv.reader reads as line ends
PARSED_LINE_ENDS = ["\n", "\r\n"]
ANY_LINE_ENDS = PARSED_LINE_ENDS + ["\n\n", "\r\n\r\n", "\r", "\r\r"]


@st.composite
def csv_blocks(draw, line_ends=None):
    """A schema and the lines of a block of its rows, as a file yields them:
    rows of JSON numbers and plain text. Half the blocks hold one odd
    field; the others none, or a row a field short, a row a field long,
    or both. Each line ends in one of `line_ends`; without them, one of
    the two sets above is drawn for the whole block, so that half the
    blocks end every line as _parse_block reads it."""
    columns, text_columns, reader = draw(st.sampled_from(SCHEMAS))
    rows = [
        [draw(texts if c in text_columns else numbers) for c in columns]
        for _ in range(draw(st.integers(1, 6)))
    ]
    row, other = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
    k = draw(st.integers(0, len(columns) - 1))
    fault = "odd" if draw(st.booleans()) else draw(
        st.sampled_from(["none", "short", "long", "short and long"])
    )
    if fault == "odd":
        row[k] = draw(odd_texts if columns[k] in text_columns else odd_numbers)
    if "short" in fault:
        del row[k]
    if "long" in fault:
        other.insert(k, other[k - 1])
    line_ends = line_ends or draw(st.sampled_from([PARSED_LINE_ENDS, ANY_LINE_ENDS]))
    ends = st.sampled_from(line_ends)
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


def parse_block(columns, text_columns, lines):
    block = "".join(lines).encode("utf-8")
    ends = np.flatnonzero(np.frombuffer(block, np.uint8) == 10)
    return io._parse_block(columns, text_columns, block, ends)


def declined(*args):
    return None


def read_both_ways(reader, path, columns):
    """What `reader` makes of `path`, the columns or the error, read as it
    is and with every block read by csv.reader + float()."""
    results = []
    for parse in (io._parse_block, declined):
        with mock.patch.object(io, "_parse_block", parse):
            try:
                table = reader(path)
                results.append([table[name] for name in columns])
            except SchemaError as exc:
                results.append((str(exc), exc.line))
    return results


def traj_line(t):
    return f"{t}.0," + "1.0," * 9 + "ok\n"


# a line of the second block that _parse_block declines
MIDDLE_BLOCK_FAULTS = {
    "blank_line": "\n",
    "lone_cr": "1.0," * 10 + "a\r",  # a record's end, but not a line's end in the block
    "non_ascii_flag": "1.0," * 10 + "\u00e9\n",
    "quoted_field": "1.0," * 10 + '"a,b"\n',
}


class TestFastParser:
    """_parse_block reads a block as csv.reader + float() does, or declines."""

    @settings(deadline=None)
    @given(csv_blocks(line_ends=PARSED_LINE_ENDS))
    @example(block=(io.GROUND_TRUTH_COLUMNS, (), None, ["0.0,1.0,2.0,-0\n"]))
    @example(block=(io.GROUND_TRUTH_COLUMNS, (), None, ["0.0,1.0,2.0, -0\r\n"]))
    @example(block=(io.GROUND_TRUTH_COLUMNS, (), None, ["0.0,true,2.0,3.0\n"]))
    @example(block=(io.EXCLUSION_COLUMNS, ("row", "reason"), None, ["-0,1.5,[t]\n"]))
    def test_block_matches_csv_reader_bit_for_bit(self, block):
        columns, text_columns, _, lines = block
        parsed = parse_block(columns, text_columns, lines)
        if parsed is not None:
            handle = textio.StringIO("".join(lines), newline="")
            [(linenos, want)] = io._csv_blocks("gt.csv", columns, text_columns, handle, 2)
            assert linenos.tolist() == list(range(2, 2 + len(parsed[0])))
            bits_equal(columns, text_columns, parsed, want.values())

    @settings(deadline=None)
    @given(csv_blocks())
    # accepted but for one guard of _parse_block: a bare -0, a JSON letter, brackets
    @example(block=(io.GROUND_TRUTH_COLUMNS, (), io.read_ground_truth, ["0.0,1.0,2.0,-0\n"]))
    @example(block=(io.GROUND_TRUTH_COLUMNS, (), io.read_ground_truth, ["0.0,true,2.0,3.0\n"]))
    @example(block=(io.GROUND_TRUTH_COLUMNS, (), io.read_ground_truth, ["0.0,[1],{},3.0\n"]))
    def test_readers_match_the_csv_path(self, tmp_path_factory, block):
        columns, text_columns, reader, lines = block
        path = tmp_path_factory.mktemp("csv") / "log.csv"
        path.write_bytes((",".join(columns) + "\n" + "".join(lines)).encode("utf-8"))
        got, want = read_both_ways(reader, path, columns)
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
            parsed = parse_block(io.GROUND_TRUTH_COLUMNS, (), lines[block])
            assert parsed is not None
            bits_equal(io.GROUND_TRUTH_COLUMNS, (), parsed, want[block].T)

    @pytest.mark.parametrize("fault", MIDDLE_BLOCK_FAULTS)
    @pytest.mark.parametrize("bad_last_line", [False, True])
    def test_a_declined_block_sends_the_rest_to_csv_reader(
        self, tmp_path, monkeypatch, fault, bad_last_line
    ):
        monkeypatch.setattr(io, "CSV_BLOCK_ROWS", 4)
        rows = [traj_line(t) for t in range(11)]
        rows.insert(4, MIDDLE_BLOCK_FAULTS[fault])
        if bad_last_line:  # line 13, in the third block
            rows[-1] = "1.0," * 9 + "bad,ok\n"
        path = tmp_path / "traj.csv"
        path.write_bytes((",".join(io.TRAJECTORY_COLUMNS) + "\n" + "".join(rows)).encode())
        parse, results = io._parse_block, []

        def recorded(*args):
            results.append(parse(*args))
            return results[-1]

        with mock.patch.object(io, "_parse_block", recorded):
            got, want = read_both_ways(io.read_trajectory, path, io.TRAJECTORY_COLUMNS)
        # the third block is read by csv.reader too, not parsed
        assert [result is not None for result in results] == [True, False]
        if bad_last_line:
            assert got == want and got[1] == 13
            return
        bits_equal(io.TRAJECTORY_COLUMNS, ("flags",), got, want)
        assert len(got[0]) == 11 + (fault != "blank_line")

    # text fields at either end of the line, with letters and signs in them
    @pytest.mark.parametrize("columns, reader, line", [
        (io.TRAJECTORY_COLUMNS, io.read_trajectory, "{t}.0," + "1.0," * 9 + "{text}"),
        (io.EXCLUSION_COLUMNS, io.read_exclusions, "{text},{t}.0,{text}"),
    ], ids=["trajectory", "sidecar"])
    def test_crlf_lines_are_parsed_as_they_stand(self, tmp_path, monkeypatch, columns, reader, line):
        monkeypatch.setattr(io, "CSV_BLOCK_ROWS", 4)
        texts = ["", "a", "out_of_frame", "", "b c", "-0", "1e5", "[t]"] * 2
        rows = [line.format(t=t, text=text) + "\r\n" for t, text in enumerate(texts)]
        path = tmp_path / "log.csv"
        path.write_bytes((",".join(columns) + "\r\n" + "".join(rows)).encode())
        with mock.patch.object(io, "_csv_blocks", side_effect=AssertionError):
            table = reader(path)
        assert table["t"].tolist() == [float(t) for t in range(16)]
        assert table[columns[-1]].tolist() == texts


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
    return columns


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
        {c: draw(any_column(n, c in text_columns)) for c in columns}
        for n in draw(st.lists(st.integers(0, 20), min_size=1, max_size=3))
    ]
    return writer, columns, text_columns, tables


# values whose shortest repr is easy to get wrong
SHORTEST_REPR = {
    **{c: [0.1, 1.0 / 3.0, 25.630000000000003, -1e-17] for c in io.TRAJECTORY_COLUMNS[:-1]},
    "flags": np.array([""] * 4, dtype=object),
}


NAN, INF = float("nan"), float("inf")

# blocks whose line ends and repr splices sit at the edges of orjson's text
NUMBER_ROW_BLOCKS = {
    "one_row": [[0.5, -2.0, 0.0, 25.630000000000003]],
    "one_column": [[0.5], [1e-05], [-0.0], [NAN], [3.0]],
    "one_odd_value": [[-INF]],
    **{
        f"odd_at_both_ends_{value!r}": [[value, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, value]]
        for value in (1e-05, NAN, -INF, 5e-324)
    },
    "all_odd": [[1e-05, NAN, -INF], [5e-324, 1e16, -1e-300], [INF, -9.99e-05, 1e300]],
}


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
                want = "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())
                assert io._number_rows(block.copy()) == want.encode()

    def test_an_empty_block_is_no_bytes(self):
        for k in (1, 4, 14):
            assert io._number_rows(np.empty((0, k))) == b""

    @pytest.mark.parametrize("rows", NUMBER_ROW_BLOCKS.values(), ids=list(NUMBER_ROW_BLOCKS))
    def test_number_rows_of_edge_blocks(self, rows):
        want = "".join(",".join(map(repr, row)) + "\n" for row in rows).encode()
        assert io._number_rows(np.array(rows)) == want

    def test_carriage_return_in_a_text_field_round_trips(self, tmp_path):
        flags = ["a\rb", "\r", "\r\n", "ok"]
        table = {
            **{c: np.arange(4.0) for c in io.TRAJECTORY_COLUMNS[:-1]},
            "flags": np.array(flags, dtype=object),
        }
        path = tmp_path / "traj.csv"
        io.write_trajectory(path, [table])
        assert list(io.read_trajectory(path)["flags"]) == flags

    def test_none_text_value_is_an_empty_field(self, tmp_path):
        table = {"row": np.array([None, 4], dtype=object), "t": [0.5, 1.0],
                 "reason": np.array(["degenerate", None], dtype=object)}
        path = tmp_path / "excl.csv"
        io.write_exclusions(path, [table])
        assert path.read_bytes() == reference_csv(io.EXCLUSION_COLUMNS, table, ("row", "reason"))
        assert path.read_text().splitlines()[1:] == [",0.5,degenerate", "4,1.0,"]

    def test_integer_text_column(self, tmp_path):
        table = {"row": np.array([2, 17]), "t": [0.5, -0.0],
                 "reason": np.array(["degenerate"] * 2, dtype=object)}
        path = tmp_path / "excl.csv"
        io.write_exclusions(path, [table])
        assert path.read_bytes() == reference_csv(io.EXCLUSION_COLUMNS, table, ("row", "reason"))
        assert list(io.read_exclusions(path)["row"]) == ["2", "17"]

    def test_blocks_written_in_order(self, tmp_path):
        n = 2 * io.CSV_BLOCK_ROWS + 3
        table = {c: np.arange(n) + k for k, c in enumerate(io.GROUND_TRUTH_COLUMNS)}
        path = tmp_path / "gt.csv"
        io.write_ground_truth(path, [table])
        assert path.read_bytes() == reference_csv(io.GROUND_TRUTH_COLUMNS, table, ())
        assert_columns_equal(io.read_ground_truth(path), {c: table[c].astype(float) for c in table})

    def test_a_plain_dict_writes_every_row(self, tmp_path):
        # rows are counted from the columns, not from the mapping's keys
        n = 5000
        assert n > io.CSV_BLOCK_ROWS
        block = {c: np.arange(n) + k for k, c in enumerate(io.GROUND_TRUTH_COLUMNS)}
        path = tmp_path / "gt.csv"
        io.write_ground_truth(path, [block])
        assert len(io.read_ground_truth(path)["t"]) == n

    def test_columns_of_unequal_length_are_refused_and_leave_no_file(self, tmp_path):
        block = {"row": np.array([2, 3, 4]), "t": [0.5, 1.0, 1.5],
                 "reason": np.array(["degenerate"] * 2, dtype=object)}
        path = tmp_path / "excl.csv"
        with pytest.raises(ValueError, match="columns differ in length") as info:
            io.write_exclusions(path, [block])
        assert str(path) in str(info.value) and "'reason': 2" in str(info.value)
        assert list(tmp_path.iterdir()) == []

    def test_a_bare_table_is_refused_and_leaves_no_file(self, tmp_path):
        # writers take a sequence of column mappings, not one mapping
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
        whole = {c: np.concatenate([t[c] for t in tables]) for c in columns}
        assert path.read_bytes() == reference_csv(columns, whole, text_columns)


README_LENS = CALIB.replace("1000.0", "2000.0")

BLOCK_SCALE_SCENARIO = f"""\
pattern: lawnmower
n_samples: {3 * io.CSV_BLOCK_ROWS + 5}
duration: 1200.0
area: [10.0, 6.0]
legs: 4
altitude: 25.0
depth_min: 0.5
depth_max: 2.0
ref_lat_deg: 42.87
ref_lon_deg: 17.7
ref_alt_m: 25.0
sigma_px: 0.5
sigma_alt: 0.05
sigma_depth: 0.02
sigma_gimbal_deg: 0.1
seed: 3
calibration: cal.yaml
"""


def test_cli_outputs_match_csv_writer_across_blocks(tmp_path):
    # every file the commands write, a few blocks long, is what csv.writer
    # writes of its columns: the sidecar's rows and the trajectory's flags
    # run across block ends
    write(tmp_path / "cal.yaml", README_LENS)
    write(tmp_path / "run.yaml", "calibration: cal.yaml\n")
    scenario = write(tmp_path / "scenario.yaml", BLOCK_SCALE_SCENARIO)
    obs, gt = (tmp_path / name for name in ("obs.csv", "gt.csv"))
    assert main(["simulate", "--config", str(scenario), "--output", str(obs), "--gt", str(gt)]) == 0
    obs_table, gt_table = generate_logs(io.load_scenario_config(scenario))
    assert obs.read_bytes() == reference_csv(io.OBSERVATION_COLUMNS, obs_table, ())
    assert gt.read_bytes() == reference_csv(io.GROUND_TRUTH_COLUMNS, gt_table, ())

    # every fifth origin sample dropped, and one far off the vehicle in each block
    t, n = obs_table["t"], len(obs_table["t"])
    u = np.full(n, 960.0)
    u[1::io.CSV_BLOCK_ROWS] -= 3000.0
    keep = np.arange(n) % 5 != 0
    io._write_rows(tmp_path / "origin.csv", io.TRACK_COLUMNS,
                   [{"t": t[keep], "u": u[keep], "v": np.full(n, 540.0)[keep]}])
    traj = tmp_path / "traj.csv"
    assert main(["recover", "--config", str(tmp_path / "run.yaml"), "--input", str(obs),
                 "--output", str(traj), "--origin-track", str(tmp_path / "origin.csv")]) == 0
    sidecar = tmp_path / "traj.csv.exclusions.csv"
    traj_table, sidecar_table = io.read_trajectory(traj), io.read_exclusions(sidecar)
    assert list(traj_table["flags"]).count("out_of_frame") == 4
    assert len(sidecar_table["row"]) == len(t[~keep]) > io.CSV_BLOCK_ROWS // 2
    assert traj.read_bytes() == reference_csv(io.TRAJECTORY_COLUMNS, traj_table, ("flags",))
    assert sidecar.read_bytes() == reference_csv(
        io.EXCLUSION_COLUMNS, sidecar_table, ("row", "reason")
    )


# each fault of the camera, in a config or in the calibration file it names,
# and the message both loaders give for it
CAMERA_FAULTS = {
    # YAML true is an int in Python; it is not a pitch sign
    "bool_pitch_sign": ("gimbal_pitch_sign: true\n", CALIB, "config.yaml",
                        "gimbal_pitch_sign must be +1 or -1"),
    "upper_case_frame": ("gimbal_frame: BODY\n", CALIB, "config.yaml",
                         "gimbal_frame must be one of ('world', 'body')"),
    "offset_over_10_m": ("cam_offset: [0.0, 6.0, -8.5]\n", CALIB, "config.yaml",
                         "cam_offset exceeds the 10 m sanity bound"),
    "nan_offset": ("cam_offset: [0.0, .nan, -0.2]\n", CALIB, "config.yaml",
                   "key cam_offset must be a list of 3 finite numbers"),
    "fractional_width": ("", CALIB.replace("width: 1920", "width: 1920.9"), "cal.yaml",
                         "width and height must be integers, got (1920.9, 1080)"),
    "unknown_calibration_key": ("", CALIB + "skew: 0.1\n", "cal.yaml", "unknown keys: skew"),
}

# a run configuration and a scenario, each written in turn to config.yaml
CAMERA_CONFIGS = {
    "recover": (io.load_run_config, "calibration: cal.yaml\n"),
    "simulate": (io.load_scenario_config, "altitude: 25.0\ncalibration: cal.yaml\n"),
}


class TestCamera:
    def test_tables_share_exactly_the_camera_keys(self):
        # a camera key lands in both configs or in neither
        assert set(io.RUN_CONFIG_TABLE) & set(io.SCENARIO_TABLE) == set(io.CAMERA_TABLE)

    @pytest.mark.parametrize("fault", CAMERA_FAULTS.values(), ids=list(CAMERA_FAULTS))
    def test_both_loaders_refuse_the_fault_alike(self, tmp_path, fault):
        extra, calibration, culprit, message = fault
        write(tmp_path / "cal.yaml", calibration)
        errors = []
        for load, text in CAMERA_CONFIGS.values():
            with pytest.raises(ConfigError) as err:
                load(write(tmp_path / "config.yaml", text + extra))
            errors.append(str(err.value))
        assert errors == [f"{tmp_path / culprit}: {message}"] * 2

    @pytest.mark.parametrize("fault", CAMERA_FAULTS.values(), ids=list(CAMERA_FAULTS))
    def test_both_commands_exit_2(self, tmp_path, capsys, fault):
        extra, calibration, culprit, message = fault
        write(tmp_path / "cal.yaml", calibration)
        outputs = ["--output", str(tmp_path / "out.csv")]
        for command, (_, text) in CAMERA_CONFIGS.items():
            write(tmp_path / "config.yaml", text + extra)
            argv = [command, "--config", str(tmp_path / "config.yaml"), *outputs]
            if command == "recover":
                argv += ["--input", str(tmp_path / "obs.csv")]
            else:
                argv += ["--gt", str(tmp_path / "gt.csv")]
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {tmp_path / culprit}: {message}\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cal.yaml", "config.yaml"]

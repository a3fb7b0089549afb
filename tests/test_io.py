import numpy as np
import pytest

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
        assert not config.gt_rescale

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
        assert np.allclose(np.hypot(scenario.positions[:, 0], scenario.positions[:, 1]), 4.0)

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
        values = np.random.default_rng(5).uniform(0.1, 100.0, 14)
        rows = Table({c: np.full(4, v) for c, v in zip(io.OBSERVATION_COLUMNS, values)})
        path = tmp_path / "obs.csv"
        io.write_observations(path, rows)
        back = io.read_observations(path)
        assert back == rows

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

    def test_float_format_shortest_round_trip(self):
        for v in (0.1, 1.0 / 3.0, 25.630000000000003, -1e-17):
            assert float(io.fmt(v)) == v


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

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import depthray
from depthray import io
from depthray.cli import main
from depthray.synth import generate_logs

from conftest import read_observation_log

CALIB = """\
fx: 1000.0
fy: 1000.0
cx: 960.0
cy: 540.0
width: 1920
height: 1080
"""

SCENARIO = """\
pattern: lawnmower
n_samples: 120
duration: 60.0
area: [10.0, 6.0]
legs: 4
altitude: 25.0
depth_min: 0.63
depth_max: 0.63
ref_lat_deg: 42.87
ref_lon_deg: 17.7
ref_alt_m: 25.0
calibration: cal.yaml
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "cal.yaml").write_text(CALIB, encoding="utf-8")
    (tmp_path / "run.yaml").write_text("calibration: cal.yaml\n", encoding="utf-8")
    (tmp_path / "scenario.yaml").write_text(SCENARIO, encoding="utf-8")
    return tmp_path


def run(workdir, *argv):
    return main([str(a) for a in argv])


def load_report(text):
    """An evaluation report, refusing the NaN and Infinity that json.loads takes."""
    def refuse(constant):
        raise ValueError(f"report is not JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


def simulate(workdir, scenario="scenario.yaml", seed=None):
    args = [
        "simulate",
        "--config", workdir / scenario,
        "--output", workdir / "obs.csv",
        "--gt", workdir / "gt.csv",
    ]
    if seed is not None:
        args += ["--seed", seed]
    assert run(workdir, *args) == 0


# lines appended to each config file; what both configs hold is the rig.
# With a body-referenced gimbal, body tilts much past 1 deg push this
# 10 x 6 m survey out of the frame; a world-referenced gimbal keeps the view.
RIGS = {
    "offset_yawed_body": {"scenario.yaml": "cam_offset: [0.3, 0.0, -0.2]\nbody_yaw_deg: 30.0\n",
                          "run.yaml": "cam_offset: [0.3, 0.0, -0.2]\n"},
    "body_gimbal_tilted_body": {
        "scenario.yaml": "gimbal_frame: body\nbody_pitch_deg: 1.0\nbody_roll_deg: -1.0\n",
        "run.yaml": "gimbal_frame: body\n",
    },
    "pitch_sign": {"scenario.yaml": "gimbal_pitch_sign: -1\ngimbal_pitch_deg: 90.0\n",
                   "run.yaml": "gimbal_pitch_sign: -1\n"},
    "lens": {"cal.yaml": "k1: -0.1\nk2: 0.05\nk3: 0.0\np1: 0.001\np2: -0.002\n"},
    "ellipsoid": {"run.yaml": "ellipsoid: [3396190.0, 3376200.0]\n"},
    "offset_pitched_body": {"scenario.yaml": "cam_offset: [0.3, 0.0, -0.2]\nbody_pitch_deg: 10.0\n",
                            "run.yaml": "cam_offset: [0.3, 0.0, -0.2]\n"},
    # one body rotation feeds both the camera rotation and the offset
    "body_gimbal_offset": {
        "scenario.yaml": "gimbal_frame: body\ncam_offset: [0.3, 0.0, -0.2]\nbody_yaw_deg: 30.0\n"
                         "body_pitch_deg: 1.0\nbody_roll_deg: -1.0\n",
        "run.yaml": "gimbal_frame: body\ncam_offset: [0.3, 0.0, -0.2]\n",
    },
}


def append_to_configs(workdir, extra):
    for name, text in extra.items():
        path = workdir / name
        path.write_text(path.read_text(encoding="utf-8") + text, encoding="utf-8")


class TestPipeline:
    def test_noiseless_identity(self, workdir, capsys):
        simulate(workdir)
        assert run(
            workdir, "recover",
            "--config", workdir / "run.yaml",
            "--input", workdir / "obs.csv",
            "--output", workdir / "traj.csv",
        ) == 0
        assert run(
            workdir, "evaluate",
            "--config", workdir / "run.yaml",
            "--input", workdir / "traj.csv",
            "--gt", workdir / "gt.csv",
            "--output", workdir / "report.json",
        ) == 0
        report = load_report((workdir / "report.json").read_text())
        assert report["mae"] <= 1e-9
        assert report["rmse"] <= 1e-9
        assert report["z_mae"] <= 1e-9
        assert report["n_samples"] == 120
        assert report["n_excluded"] == 0

    @pytest.mark.parametrize("extra", RIGS.values(), ids=list(RIGS))
    def test_camera_offset_identity(self, workdir, capsys, extra):
        # truth and trajectory are both in the body-fixed ENU frame, so every
        # rig the configs accept, an offset camera on a yawed or pitched body
        # included, still evaluates to zero error
        append_to_configs(workdir, extra)
        simulate(workdir)
        assert run(
            workdir, "recover",
            "--config", workdir / "run.yaml",
            "--input", workdir / "obs.csv",
            "--output", workdir / "traj.csv",
        ) == 0
        capsys.readouterr()
        assert run(
            workdir, "evaluate",
            "--config", workdir / "run.yaml",
            "--input", workdir / "traj.csv",
            "--gt", workdir / "gt.csv",
        ) == 0
        report = load_report(capsys.readouterr().out)
        assert report["n_samples"] == 120
        assert report["mae"] <= 1e-9
        assert report["z_mae"] <= 1e-9

    @pytest.mark.parametrize("extra", RIGS.values(), ids=list(RIGS))
    def test_inline_calibration_recovers_as_the_file(self, workdir, capsys, extra):
        # a run configuration reads its calibration inline as a scenario
        # does, and the same mapping gives the same camera as cal.yaml
        append_to_configs(workdir, extra)
        simulate(workdir)
        lens = "".join("  " + line for line in (workdir / "cal.yaml").read_text().splitlines(True))
        run_text = (workdir / "run.yaml").read_text(encoding="utf-8")
        (workdir / "inline.yaml").write_text(
            run_text.replace("calibration: cal.yaml\n", "calibration:\n" + lens), encoding="utf-8"
        )
        for config, traj in (("run.yaml", "traj.csv"), ("inline.yaml", "inline.csv")):
            assert run(
                workdir, "recover",
                "--config", workdir / config,
                "--input", workdir / "obs.csv",
                "--output", workdir / traj,
            ) == 0
            capsys.readouterr()
            assert run(
                workdir, "evaluate",
                "--config", workdir / config,
                "--input", workdir / traj,
                "--gt", workdir / "gt.csv",
            ) == 0
            report = load_report(capsys.readouterr().out)
            assert report["n_samples"] == 120
            assert report["mae"] <= 1e-9
        assert (workdir / "inline.csv").read_bytes() == (workdir / "traj.csv").read_bytes()

    @pytest.mark.parametrize("extra", RIGS.values(), ids=list(RIGS))
    def test_truth_lies_at_altitude_plus_depth(self, workdir, extra):
        # the UUV is d_uuv below the water and the UAV a_uav above it,
        # whatever the rig: the body-fixed truth sits a_uav + d_uuv down
        append_to_configs(workdir, extra)
        obs, truth = generate_logs(io.load_scenario_config(workdir / "scenario.yaml"))
        np.testing.assert_allclose(truth["z"], -(obs["a_uav"] + obs["d_uuv"]),
                                   rtol=0.0, atol=1e-12)

    def test_trajectory_columns_and_geodetic_output(self, workdir):
        simulate(workdir)
        run(
            workdir, "recover",
            "--config", workdir / "run.yaml",
            "--input", workdir / "obs.csv",
            "--output", workdir / "traj.csv",
        )
        rows = io.read_trajectory(workdir / "traj.csv")
        assert len(rows["t"]) == 120
        # geodetic fix stays near the reference for a 10 m survey
        assert abs(rows["lat_deg"][0] - 42.87) < 0.01
        assert abs(rows["lon_deg"][0] - 17.7) < 0.01
        assert rows["flags"][0] == ""

    def test_reference_fix_is_written_as_configured(self, workdir):
        # an in-range longitude passes the geodetic check bit for bit
        simulate(workdir)
        header, *lines = (workdir / "obs.csv").read_text(encoding="utf-8").splitlines()
        k = header.split(",").index("ref_lat_deg")
        assert {tuple(line.split(",")[k:k + 3]) for line in lines} == {("42.87", "17.7", "25.0")}
        assert len(lines) == 120

    def test_deterministic_bytes(self, workdir):
        noisy = SCENARIO + "sigma_px: 2.0\nseed: 11\n"
        (workdir / "noisy.yaml").write_text(noisy, encoding="utf-8")
        hashes = []
        for _ in range(2):
            simulate(workdir, scenario="noisy.yaml")
            run(
                workdir, "recover",
                "--config", workdir / "run.yaml",
                "--input", workdir / "obs.csv",
                "--output", workdir / "traj.csv",
            )
            hashes.append(
                (workdir / "obs.csv").read_bytes()
                + (workdir / "gt.csv").read_bytes()
                + (workdir / "traj.csv").read_bytes()
            )
        assert hashes[0] == hashes[1]

    def test_seed_flag_changes_output(self, workdir):
        noisy = SCENARIO + "sigma_px: 2.0\n"
        (workdir / "noisy.yaml").write_text(noisy, encoding="utf-8")
        simulate(workdir, scenario="noisy.yaml", seed=1)
        first = (workdir / "obs.csv").read_bytes()
        simulate(workdir, scenario="noisy.yaml", seed=2)
        assert first != (workdir / "obs.csv").read_bytes()


class TestRecoverErrors:
    def test_empty_input_exits_1(self, workdir, capsys):
        (workdir / "obs.csv").write_text(",".join(io.OBSERVATION_COLUMNS) + "\n", encoding="utf-8")
        code = run(
            workdir, "recover",
            "--config", workdir / "run.yaml",
            "--input", workdir / "obs.csv",
            "--output", workdir / "traj.csv",
        )
        assert code == 1
        assert "no observation rows" in capsys.readouterr().err

    def test_degenerate_row_flagged_and_run_continues(self, workdir):
        simulate(workdir)
        rows = read_observation_log(workdir / "obs.csv")
        rows["a_uav"][3] = -5.0
        io.write_observations(workdir / "obs.csv", [rows])
        assert run(
            workdir, "recover",
            "--config", workdir / "run.yaml",
            "--input", workdir / "obs.csv",
            "--output", workdir / "traj.csv",
        ) == 0
        assert len(io.read_trajectory(workdir / "traj.csv")["t"]) == 119
        excl = (workdir / "traj.csv.exclusions.csv").read_text().splitlines()
        assert excl[0] == "row,t,reason"
        assert excl[1].endswith("degenerate")
        assert excl[1].startswith("5,")  # header + three clean rows precede it

    # the rows after a blank line were numbered one line short: csv.reader skips it
    def test_sidecar_row_is_the_line_of_the_record(self, workdir, capsys, monkeypatch):
        simulate(workdir)
        rows = read_observation_log(workdir / "obs.csv")
        rows["a_uav"][[3, 50, 100]] = -5.0
        io.write_observations(workdir / "obs.csv", [rows])
        lines = (workdir / "obs.csv").read_text().splitlines()
        # a blank line 43, after record 40: the sixth block on is read by csv.reader
        lines.insert(42, "")
        (workdir / "obs.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setattr(io, "CSV_BLOCK_ROWS", 7)

        def recover():
            return run(
                workdir, "recover",
                "--config", workdir / "run.yaml",
                "--input", workdir / "obs.csv",
                "--output", workdir / "traj.csv",
            )

        assert recover() == 0
        sidecar = io.read_exclusions(workdir / "traj.csv.exclusions.csv")
        assert sidecar["row"].tolist() == ["5", "53", "103"]
        assert sidecar["t"].tolist() == rows["t"][[3, 50, 100]].tolist()
        # the line a bad value in that record is reported on
        fields = lines[102].split(",")
        fields[3] = "nan"
        lines[102] = ",".join(fields)
        (workdir / "obs.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert recover() == 1
        assert "line 103:" in capsys.readouterr().err

    def test_schema_violation_exits_1_with_line(self, workdir, capsys):
        simulate(workdir)
        lines = (workdir / "obs.csv").read_text().splitlines()
        lines[2] = lines[2].replace(lines[2].split(",")[1], "notanumber", 1)
        (workdir / "obs.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run(
            workdir, "recover",
            "--config", workdir / "run.yaml",
            "--input", workdir / "obs.csv",
            "--output", workdir / "traj.csv",
        )
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_field_over_the_csv_size_limit_exits_1(self, workdir, capsys, monkeypatch):
        # the bad row lies in the third block, after the outputs are begun
        simulate(workdir)
        lines = (workdir / "obs.csv").read_text().splitlines()
        fields = lines[20].split(",")
        fields[3] = "1" * 200_000
        lines[20] = ",".join(fields)
        (workdir / "obs.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setattr(io, "CSV_BLOCK_ROWS", 7)
        code = run(
            workdir, "recover",
            "--config", workdir / "run.yaml",
            "--input", workdir / "obs.csv",
            "--output", workdir / "traj.csv",
        )
        assert code == 1
        assert f"line 21: {workdir / 'obs.csv'}: field larger than" in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == [
            "cal.yaml", "gt.csv", "obs.csv", "run.yaml", "scenario.yaml"
        ]

    def test_config_not_utf8_exits_2(self, workdir, capsys):
        simulate(workdir)
        (workdir / "run.yaml").write_bytes(b"calibration: cal.yaml\n# \xff\n")
        code = run(
            workdir, "recover",
            "--config", workdir / "run.yaml",
            "--input", workdir / "obs.csv",
            "--output", workdir / "traj.csv",
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {workdir / 'run.yaml'}: not UTF-8: invalid start byte at byte 24\n"
        )
        assert sorted(p.name for p in workdir.iterdir()) == [
            "cal.yaml", "gt.csv", "obs.csv", "run.yaml", "scenario.yaml"
        ]

    def test_failed_sidecar_leaves_the_old_output(self, workdir, capsys):
        simulate(workdir)
        (workdir / "traj.csv").write_text("old trajectory\n", encoding="utf-8")
        (workdir / "traj.csv.exclusions.csv").mkdir()  # the sidecar's path is taken
        code = run(
            workdir, "recover",
            "--config", workdir / "run.yaml",
            "--input", workdir / "obs.csv",
            "--output", workdir / "traj.csv",
        )
        assert code == 1
        assert f"{workdir / 'traj.csv.exclusions.csv'}" in capsys.readouterr().err
        assert (workdir / "traj.csv").read_bytes() == b"old trajectory\n"
        assert not list(workdir.rglob("*.tmp"))

    def test_unknown_config_key_exits_2(self, workdir, capsys):
        (workdir / "bad.yaml").write_text(
            "calibration: cal.yaml\nfocal: es\n", encoding="utf-8"
        )
        code = run(
            workdir, "recover",
            "--config", workdir / "bad.yaml",
            "--input", workdir / "obs.csv",
            "--output", workdir / "traj.csv",
        )
        assert code == 2
        assert "unknown keys" in capsys.readouterr().err


class TestEvaluateCommand:
    def _recover(self, workdir):
        run(
            workdir, "recover",
            "--config", workdir / "run.yaml",
            "--input", workdir / "obs.csv",
            "--output", workdir / "traj.csv",
        )

    def test_identical_trajectories_zero_error(self, workdir, capsys):
        simulate(workdir)
        self._recover(workdir)
        capsys.readouterr()
        assert run(
            workdir, "evaluate",
            "--config", workdir / "run.yaml",
            "--input", workdir / "traj.csv",
            "--gt", workdir / "gt.csv",
        ) == 0
        report = load_report(capsys.readouterr().out)
        assert report["mae"] <= 1e-9 and report["rmse"] <= 1e-9

    def test_constant_offset_345(self, workdir, capsys):
        simulate(workdir)
        self._recover(workdir)
        gt = io.read_ground_truth(workdir / "gt.csv")
        gt["x"][:] -= 0.3
        gt["y"][:] -= 0.4
        io.write_ground_truth(workdir / "gt.csv", [gt])
        capsys.readouterr()
        run(
            workdir, "evaluate",
            "--config", workdir / "run.yaml",
            "--input", workdir / "traj.csv",
            "--gt", workdir / "gt.csv",
        )
        report = load_report(capsys.readouterr().out)
        assert report["mae"] == pytest.approx(0.5, abs=1e-9)
        assert report["rmse"] == pytest.approx(0.5, abs=1e-9)

    def test_disjoint_timestamps_length_mismatch(self, workdir, capsys):
        simulate(workdir)
        self._recover(workdir)
        gt = io.read_ground_truth(workdir / "gt.csv")
        gt["t"][:] += 1000.0
        io.write_ground_truth(workdir / "gt.csv", [gt])
        code = run(
            workdir, "evaluate",
            "--config", workdir / "run.yaml",
            "--input", workdir / "traj.csv",
            "--gt", workdir / "gt.csv",
        )
        assert code == 1
        assert "no timestamps match" in capsys.readouterr().err

    def test_gt_frame_transform_applied(self, workdir, capsys):
        simulate(workdir)
        self._recover(workdir)
        # express the truth in a yawed, shifted survey frame; evaluating
        # with the matching frame config must remove the discrepancy
        yaw = math.radians(-67.3)
        c, s = math.cos(yaw), math.sin(yaw)
        gt = io.read_ground_truth(workdir / "gt.csv")
        x, y = gt["x"].copy(), gt["y"].copy()
        gt["x"][:] = c * x + s * y + 2.0
        gt["y"][:] = -s * x + c * y - 1.0
        io.write_ground_truth(workdir / "gt.csv", [gt])
        (workdir / "run_gt.yaml").write_text(
            "calibration: cal.yaml\n"
            "gt_frame_yaw_deg: -67.3\n"
            "gt_frame_translation: [2.0, -1.0, 0.0]\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        run(
            workdir, "evaluate",
            "--config", workdir / "run_gt.yaml",
            "--input", workdir / "traj.csv",
            "--gt", workdir / "gt.csv",
        )
        report = load_report(capsys.readouterr().out)
        assert report["mae"] <= 1e-9

    def test_survey_yaw_beyond_180_deg(self, workdir, capsys):
        # 200 deg and -160 deg are one survey frame
        simulate(workdir)
        self._recover(workdir)
        yaw = math.radians(200.0)
        c, s = math.cos(yaw), math.sin(yaw)
        gt = io.read_ground_truth(workdir / "gt.csv")
        x, y = gt["x"].copy(), gt["y"].copy()
        gt["x"][:] = c * x + s * y
        gt["y"][:] = -s * x + c * y
        io.write_ground_truth(workdir / "gt.csv", [gt])
        reports = []
        for deg in (200, -160):
            (workdir / "run_gt.yaml").write_text(
                f"calibration: cal.yaml\ngt_frame_yaw_deg: {deg}\n", encoding="utf-8"
            )
            capsys.readouterr()
            assert run(
                workdir, "evaluate",
                "--config", workdir / "run_gt.yaml",
                "--input", workdir / "traj.csv",
                "--gt", workdir / "gt.csv",
            ) == 0
            reports.append(load_report(capsys.readouterr().out))
        assert reports[0]["mae"] <= 1e-9
        assert reports[0].keys() == reports[1].keys()
        for key in reports[0]:
            assert reports[0][key] == pytest.approx(reports[1][key], abs=1e-9)

    def test_grid_rescaling_recovers_depth_scaled_truth(self, workdir, capsys):
        simulate(workdir)
        self._recover(workdir)
        # shrink the planar truth onto the surface grid as a camera
        # looking down would read it; rescaling must undo the shrink
        a_cam = 25.0
        gt = io.read_ground_truth(workdir / "gt.csv")
        depth = -gt["z"] - a_cam
        factor = a_cam / (a_cam + depth)
        gt["x"][:] *= factor
        gt["y"][:] *= factor
        io.write_ground_truth(workdir / "gt.csv", [gt])
        (workdir / "run_rescale.yaml").write_text(
            "calibration: cal.yaml\ngt_rescale: true\ngt_rescale_a_cam: 25.0\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        run(
            workdir, "evaluate",
            "--config", workdir / "run_rescale.yaml",
            "--input", workdir / "traj.csv",
            "--gt", workdir / "gt.csv",
        )
        report = load_report(capsys.readouterr().out)
        assert report["mae"] <= 1e-9

    def test_shuffled_ground_truth_gives_the_same_report(self, workdir):
        simulate(workdir)
        self._recover(workdir)

        def report():
            assert run(
                workdir, "evaluate",
                "--config", workdir / "run.yaml",
                "--input", workdir / "traj.csv",
                "--gt", workdir / "gt.csv",
                "--output", workdir / "report.json",
            ) == 0
            return (workdir / "report.json").read_bytes()

        first = report()
        gt = io.read_ground_truth(workdir / "gt.csv")
        order = np.random.default_rng(5).permutation(len(gt["t"]))
        io.write_ground_truth(workdir / "gt.csv", [{c: gt[c][order] for c in gt}])
        assert report() == first

    def test_counts_recover_exclusions(self, workdir, capsys):
        simulate(workdir)
        rows = read_observation_log(workdir / "obs.csv")
        rows["a_uav"][[3, 50, 51]] = -5.0
        io.write_observations(workdir / "obs.csv", [rows])
        self._recover(workdir)
        capsys.readouterr()
        assert run(
            workdir, "evaluate",
            "--config", workdir / "run.yaml",
            "--input", workdir / "traj.csv",
            "--gt", workdir / "gt.csv",
        ) == 0
        report = load_report(capsys.readouterr().out)
        assert report["n_samples"] == 117
        assert report["n_excluded"] == 3

    def test_constant_large_residual(self, workdir, capsys):
        # RMSE rounds a few ulps below the equal MAE; both are reported
        t = np.arange(6.0)
        zeros = np.zeros(6)
        io.write_trajectory(workdir / "traj.csv", [{
            "t": t, **dict.fromkeys(["cam_x", "cam_y", "cam_z"], zeros),
            "enu_x": np.full(6, 99999.9), "enu_y": zeros, "enu_z": zeros,
            **dict.fromkeys(["lat_deg", "lon_deg", "alt_m"], zeros),
            "flags": np.full(6, "", dtype=object),
        }])
        io.write_ground_truth(workdir / "gt.csv", [{"t": t, **dict.fromkeys("xyz", zeros)}])
        assert run(
            workdir, "evaluate",
            "--config", workdir / "run.yaml",
            "--input", workdir / "traj.csv",
            "--gt", workdir / "gt.csv",
        ) == 0
        out = capsys.readouterr().out
        assert '"mae": 99999.90000000001' in out
        assert load_report(out)["n_samples"] == 6

    def test_non_finite_nadir_exits_2(self, workdir, capsys):
        simulate(workdir)
        self._recover(workdir)
        (workdir / "run_nan.yaml").write_text(
            "calibration: cal.yaml\ngt_rescale: true\ngt_rescale_a_cam: 25.0\n"
            "gt_rescale_nadir: [.nan, 0.0]\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        assert run(
            workdir, "evaluate",
            "--config", workdir / "run_nan.yaml",
            "--input", workdir / "traj.csv",
            "--gt", workdir / "gt.csv",
            "--output", workdir / "report.json",
        ) == 2
        assert "gt_rescale_nadir" in capsys.readouterr().err
        assert not (workdir / "report.json").exists()

    def test_rescale_keys_without_gt_rescale_exit_2(self, workdir, capsys):
        simulate(workdir)
        self._recover(workdir)
        (workdir / "run_rescale.yaml").write_text(
            "calibration: cal.yaml\ngt_rescale_a_cam: 25.0\ngt_rescale_nadir: [3.0, 1.0]\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        assert run(
            workdir, "evaluate",
            "--config", workdir / "run_rescale.yaml",
            "--input", workdir / "traj.csv",
            "--gt", workdir / "gt.csv",
            "--output", workdir / "report.json",
        ) == 2
        assert "gt_rescale_a_cam" in capsys.readouterr().err
        assert not (workdir / "report.json").exists()

    # YAML reads a run of 400 digits as an integer that no float holds
    @pytest.mark.parametrize("name, text, key", [
        ("cal.yaml", CALIB.replace("width: 1920", "width: 1" + "0" * 400), "width"),
        ("run.yaml", "calibration: cal.yaml\ncam_offset: [0.0, 0.0, 1" + "0" * 400 + "]\n",
         "cam_offset"),
    ], ids=["number", "vector"])
    def test_integer_beyond_float_range_exits_2(self, workdir, capsys, name, text, key):
        simulate(workdir)
        self._recover(workdir)
        (workdir / name).write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run(
            workdir, "evaluate",
            "--config", workdir / "run.yaml",
            "--input", workdir / "traj.csv",
            "--gt", workdir / "gt.csv",
            "--output", workdir / "report.json",
        ) == 2
        assert f"key {key} must be" in capsys.readouterr().err
        assert not (workdir / "report.json").exists()

    def test_bad_exclusions_header_exits_1(self, workdir, capsys):
        simulate(workdir)
        self._recover(workdir)
        (workdir / "traj.csv.exclusions.csv").write_text("row,reason\n", encoding="utf-8")
        assert run(
            workdir, "evaluate",
            "--config", workdir / "run.yaml",
            "--input", workdir / "traj.csv",
            "--gt", workdir / "gt.csv",
        ) == 1
        assert "exclusions.csv" in capsys.readouterr().err

    def test_empty_gt_exits_1(self, workdir, capsys):
        simulate(workdir)
        self._recover(workdir)
        (workdir / "gt.csv").write_text("t,x,y,z\n", encoding="utf-8")
        assert run(
            workdir, "evaluate",
            "--config", workdir / "run.yaml",
            "--input", workdir / "traj.csv",
            "--gt", workdir / "gt.csv",
        ) == 1


class TestOriginTrack:
    def test_drift_compensation(self, workdir):
        simulate(workdir)
        run(
            workdir, "recover",
            "--config", workdir / "run.yaml",
            "--input", workdir / "obs.csv",
            "--output", workdir / "clean.csv",
        )
        # a hovering drift shifts the vehicle and the origin landmark by
        # the same pixel vector; the origin track removes it
        rows = read_observation_log(workdir / "obs.csv")
        rows["u"][:] += 17.0
        rows["v"][:] -= 9.0
        n = len(rows["t"])
        track = {"t": rows["t"], "u": np.full(n, 960.0 + 17.0), "v": np.full(n, 540.0 - 9.0)}
        io.write_observations(workdir / "obs.csv", [rows])
        io._write_rows(workdir / "origin.csv", io.TRACK_COLUMNS, [track])
        assert run(
            workdir, "recover",
            "--config", workdir / "run.yaml",
            "--input", workdir / "obs.csv",
            "--output", workdir / "corrected.csv",
            "--origin-track", workdir / "origin.csv",
        ) == 0
        clean = io.read_trajectory(workdir / "clean.csv")
        corrected = io.read_trajectory(workdir / "corrected.csv")
        assert corrected["enu_x"] == pytest.approx(clean["enu_x"], abs=1e-12)
        assert corrected["enu_y"] == pytest.approx(clean["enu_y"], abs=1e-12)

    def test_unsorted_track_with_duplicates_matched_per_block(self, workdir, monkeypatch):
        simulate(workdir)
        run(
            workdir, "recover",
            "--config", workdir / "run.yaml",
            "--input", workdir / "obs.csv",
            "--output", workdir / "clean.csv",
        )
        # every timestamp twice, in shuffled order, read and matched in
        # blocks of 7 observations
        t = read_observation_log(workdir / "obs.csv")["t"]
        order = np.random.default_rng(2).permutation(2 * len(t))
        n = len(order)
        track = {"t": np.tile(t, 2)[order], "u": np.full(n, 960.0), "v": np.full(n, 540.0)}
        io._write_rows(workdir / "origin.csv", io.TRACK_COLUMNS, [track])
        monkeypatch.setattr(io, "CSV_BLOCK_ROWS", 7)
        assert run(
            workdir, "recover",
            "--config", workdir / "run.yaml",
            "--input", workdir / "obs.csv",
            "--output", workdir / "tracked.csv",
            "--origin-track", workdir / "origin.csv",
        ) == 0
        assert (workdir / "tracked.csv").read_bytes() == (workdir / "clean.csv").read_bytes()

    def test_written_logs_are_read_without_csv_reader(self, workdir, monkeypatch):
        # every log the pipeline writes is parsed a block at a time: none
        # falls back to csv.reader, the path for files written by hand
        def refuse(path, *args):
            raise AssertionError(f"{path} read by csv.reader")

        monkeypatch.setattr(io, "_csv_blocks", refuse)
        with (workdir / "cal.yaml").open("a", encoding="utf-8") as cal:
            cal.write("k1: -0.1\nk2: 0.05\np1: 0.001\np2: -0.002\n")
        simulate(workdir)
        # every fourth origin sample dropped, and one far off the vehicle
        t, u = (read_observation_log(workdir / "obs.csv")[c] for c in ("t", "u"))
        track = {"t": t, "u": np.full(len(t), 960.0), "v": np.full(len(t), 540.0)}
        track["u"][1] = u[1] - 1000.0
        keep = np.arange(len(t)) % 4 != 3
        io._write_rows(workdir / "origin.csv", io.TRACK_COLUMNS,
                       [{name: column[keep] for name, column in track.items()}])
        assert run(
            workdir, "recover",
            "--config", workdir / "run.yaml",
            "--input", workdir / "obs.csv",
            "--output", workdir / "traj.csv",
            "--origin-track", workdir / "origin.csv",
        ) == 0
        assert "out_of_frame" in io.read_trajectory(workdir / "traj.csv")["flags"]
        sidecar = io.read_exclusions(workdir / "traj.csv.exclusions.csv")
        assert list(sidecar["reason"]) == ["no_origin_match"] * 30
        assert run(
            workdir, "evaluate",
            "--config", workdir / "run.yaml",
            "--input", workdir / "traj.csv",
            "--gt", workdir / "gt.csv",
            "--output", workdir / "report.json",
        ) == 0


class TestSimulateErrors:
    def test_infeasible_scene_exits_2(self, workdir, capsys):
        text = SCENARIO.replace("fx: 1000.0", "fx: 1000.0")  # keep file, change area
        text = text.replace("area: [10.0, 6.0]", "area: [200.0, 6.0]")
        (workdir / "big.yaml").write_text(text, encoding="utf-8")
        code = run(
            workdir, "simulate",
            "--config", workdir / "big.yaml",
            "--output", workdir / "obs.csv",
            "--gt", workdir / "gt.csv",
        )
        assert code == 2
        assert "sample" in capsys.readouterr().err


    def refuse(self, workdir, capsys, text, *flags):
        (workdir / "bad.yaml").write_text(text, encoding="utf-8")
        code = run(
            workdir, "simulate",
            "--config", workdir / "bad.yaml",
            "--output", workdir / "obs.csv",
            "--gt", workdir / "gt.csv",
            *flags,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert not (workdir / "obs.csv").exists() and not (workdir / "gt.csv").exists()
        assert not list(workdir.rglob("*.tmp"))
        return err

    @pytest.mark.parametrize("old, new, key", [
        ("area: [10.0, 6.0]", "area: [.inf, 2.0]", "area"),
        ("pattern: lawnmower", "pattern: line\nstart: [0.0, .nan]", "start"),
    ], ids=["area", "start"])
    def test_non_finite_vector_exits_2(self, workdir, capsys, old, new, key):
        err = self.refuse(workdir, capsys, SCENARIO.replace(old, new))
        assert f"key {key} must be" in err

    # no int64 holds the first two counts, and numpy refuses an array of 2**62
    # points before it allocates one: it is never asked for an array that size
    @pytest.mark.parametrize("old, new, message", [
        ("n_samples: 120", "n_samples: 1" + "0" * 30, "n_samples must be a positive integer"),
        ("legs: 4", "legs: 1" + "0" * 30, "legs must be a positive integer"),
        ("n_samples: 120", f"n_samples: {2**62}", f"n_samples {2**62}: "),
        ("pattern: lawnmower\nn_samples: 120", f"pattern: line\nn_samples: {2**62}",
         f"n_samples {2**62}: "),
    ], ids=["n_samples", "legs", "2**62_lawnmower", "2**62_line"])
    def test_count_beyond_int64_exits_2(self, workdir, capsys, old, new, message):
        assert message in self.refuse(workdir, capsys, SCENARIO.replace(old, new))

    def test_latitude_beyond_the_pole_exits_2(self, workdir, capsys):
        err = self.refuse(workdir, capsys, SCENARIO.replace("ref_lat_deg: 42.87", "ref_lat_deg: 95"))
        assert "latitude must be finite and within" in err

    # numpy's generator takes no negative seed; with every sigma at zero it was never asked
    @pytest.mark.parametrize("text, flags", [
        (SCENARIO + "sigma_px: 2.0\nseed: -5\n", ()),
        (SCENARIO + "sigma_px: 2.0\n", ("--seed", "-1")),
        (SCENARIO + "seed: -5\n", ()),
    ], ids=["file", "flag", "noiseless"])
    def test_negative_seed_exits_2(self, workdir, capsys, text, flags):
        assert "seed must be non-negative" in self.refuse(workdir, capsys, text, *flags)

    @pytest.mark.parametrize("seed", ["1.5", "true"])
    def test_seed_that_is_not_an_integer_exits_2(self, workdir, capsys, seed):
        text = SCENARIO + f"sigma_px: 2.0\nseed: {seed}\n"
        assert "seed must be an integer" in self.refuse(workdir, capsys, text)

    # recover reads a row without altitude or with a negative depth as degenerate, so
    # such a log would lose every row; the small area keeps the scene in frame
    @pytest.mark.parametrize("old, new, message", [
        ("altitude: 25.0", "altitude: 0.0", "altitude must be positive"),
        ("altitude: 25.0", "altitude: -0.2", "altitude must be positive"),
        ("depth_min: 0.63", "depth_min: -0.5", "must be non-negative"),
        ("depth_max: 0.63", "depth_max: -0.5", "must be non-negative"),
    ], ids=["altitude_zero", "altitude_negative", "depth_min", "depth_max"])
    def test_scene_recover_would_drop_exits_2(self, workdir, capsys, old, new, message):
        text = SCENARIO.replace("area: [10.0, 6.0]", "area: [0.4, 0.2]").replace(old, new)
        assert message in self.refuse(workdir, capsys, text)

    # the truth file fails to open in a missing directory, or to be renamed onto a directory
    @pytest.mark.parametrize("gt, message", [
        ("missing_dir/gt.csv", "No such file or directory"),
        ("gt_dir", "Is a directory"),
    ], ids=["missing_dir", "directory"])
    def test_failed_gt_leaves_the_old_output(self, workdir, capsys, gt, message):
        (workdir / "obs.csv").write_text("old observations\n", encoding="utf-8")
        (workdir / "gt_dir").mkdir()
        code = run(
            workdir, "simulate",
            "--config", workdir / "scenario.yaml",
            "--output", workdir / "obs.csv",
            "--gt", workdir / gt,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and f"{workdir / gt}" in err
        assert (workdir / "obs.csv").read_bytes() == b"old observations\n"
        assert not list(workdir.rglob("*.tmp"))

    # both outputs name one file: its two temporary files would share a name,
    # so the second rename would fail after the first had replaced the file
    @pytest.mark.parametrize("gt", ["obs.csv", "./obs.csv"])
    def test_one_file_for_both_outputs_is_refused(self, workdir, capsys, monkeypatch, gt):
        (workdir / "obs.csv").write_text("old observations\n", encoding="utf-8")
        monkeypatch.chdir(workdir)
        code = run(
            workdir, "simulate",
            "--config", "scenario.yaml",
            "--output", "obs.csv",
            "--gt", gt,
        )
        assert code == 1
        assert "error: obs.csv: the same file" in capsys.readouterr().err
        assert (workdir / "obs.csv").read_bytes() == b"old observations\n"
        assert not list(workdir.rglob("*.tmp"))


class TestModuleEntry:
    def run_module(self, workdir, config):
        src = Path(depthray.__file__).resolve().parents[1]
        return subprocess.run(
            [sys.executable, "-m", "depthray.cli", "recover", "--config", str(workdir / config),
             "--input", str(workdir / "obs.csv"), "--output", str(workdir / "traj.csv")],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
        )

    def test_python_m_runs_the_command(self, workdir):
        simulate(workdir)
        result = self.run_module(workdir, "run.yaml")
        assert result.returncode == 0, result.stderr
        assert "recovered 120 of 120 samples" in result.stdout
        assert len(io.read_trajectory(workdir / "traj.csv")["t"]) == 120

    def test_python_m_missing_config_exits_2(self, workdir):
        simulate(workdir)
        result = self.run_module(workdir, "absent.yaml")
        assert result.returncode == 2
        assert "absent.yaml" in result.stderr
        assert not (workdir / "traj.csv").exists()

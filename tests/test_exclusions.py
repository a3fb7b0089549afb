"""Exclusion reasons of `recover`: one crafted row per reason, and the
precedence between reasons when a row has several faults."""

import os
import subprocess
import sys
from pathlib import Path

import depthray
from depthray.cli import main

CALIB = """\
fx: 1000.0
fy: 1000.0
cx: 960.0
cy: 540.0
width: 1920
height: 1080
k1: -0.5
"""

HEADER = (
    "t,u,v,a_uav,d_uuv,gimbal_yaw_deg,gimbal_pitch_deg,gimbal_roll_deg,"
    "body_yaw_deg,body_pitch_deg,body_roll_deg,ref_lat_deg,ref_lon_deg,ref_alt_m"
)

# u = 1660 is 0.7 focal lengths off axis, beyond the fold of k1 = -0.5
# (peak image radius ~0.544), so that pixel has no undistorted preimage.
ROWS = [
    # t, u, v, a_uav, d_uuv, gimbal pitch, comment
    (0.0, 960.0, 540.0, 25.0, 0.6, -90.0),  # recovered
    (1.0, 960.0, 540.0, -5.0, 0.6, -90.0),  # degenerate: altitude <= 0
    (2.0, 960.0, 540.0, 25.0, -0.1, -90.0),  # degenerate: negative depth
    (3.0, 960.0, 540.0, 0.1, 0.0, -90.0),  # degenerate: camera below the plane
    (4.0, 1660.0, 540.0, 25.0, 0.6, -90.0),  # undistort_nonconvergence
    (5.0, 960.0, 540.0, 25.0, 0.6, 0.0),  # parallel_ray: horizontal view
    (6.0, 960.0, 540.0, 25.0, 0.6, -0.01),  # ill_conditioned: grazing view
    (7.0, 960.0, 540.0, 25.0, 0.6, 90.0),  # behind_camera: looking up
    (8.0, 1000.0, 500.0, 25.0, 0.6, -90.0),  # no_origin_match
    (9.0, 1660.0, 540.0, -5.0, 0.6, -90.0),  # bad altitude beats bad pixel
    (10.0, 1660.0, 540.0, 0.1, 0.0, -90.0),  # bad pixel beats bad plane
    (11.0, 960.0, 540.0, 0.1, 0.0, 0.0),  # bad plane beats parallel ray
    (12.0, 960.0, 540.0, -5.0, 0.6, 0.0),  # no_origin_match beats everything
    (13.0, 1100.0, 620.0, 20.0, 1.2, -80.0),  # recovered
]
UNTRACKED = {8.0, 12.0}

EXPECTED_SIDECAR = """\
row,t,reason
10,8.0,no_origin_match
14,12.0,no_origin_match
3,1.0,degenerate
4,2.0,degenerate
5,3.0,degenerate
6,4.0,undistort_nonconvergence
7,5.0,parallel_ray
8,6.0,ill_conditioned
9,7.0,behind_camera
11,9.0,degenerate
12,10.0,undistort_nonconvergence
13,11.0,degenerate
"""


def write_inputs(tmp_path):
    (tmp_path / "cal.yaml").write_text(CALIB, encoding="utf-8")
    (tmp_path / "run.yaml").write_text(
        "calibration: cal.yaml\ncam_offset: [0.0, 0.0, -0.2]\n", encoding="utf-8"
    )
    lines = [HEADER] + [
        f"{t},{u},{v},{a},{d},0.0,{pitch},0.0,0.0,0.0,0.0,42.87,17.7,25.0"
        for t, u, v, a, d, pitch in ROWS
    ]
    (tmp_path / "obs.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    track = ["t,u,v"] + [f"{t},960.0,540.0" for t, *_ in ROWS if t not in UNTRACKED]
    (tmp_path / "origin.csv").write_text("\n".join(track) + "\n", encoding="utf-8")


def recover(tmp_path, output="traj.csv"):
    return main([
        "recover", "--config", str(tmp_path / "run.yaml"),
        "--input", str(tmp_path / "obs.csv"), "--output", str(tmp_path / output),
        "--origin-track", str(tmp_path / "origin.csv"),
    ])


def test_each_reason_and_precedence(tmp_path, capsys):
    write_inputs(tmp_path)
    assert recover(tmp_path) == 0
    assert "recovered 2 of 14 samples (12 excluded)" in capsys.readouterr().out
    sidecar = (tmp_path / "traj.csv.exclusions.csv").read_text(encoding="utf-8")
    assert sidecar == EXPECTED_SIDECAR
    traj = (tmp_path / "traj.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in traj[1:]] == ["0.0", "13.0"]


def test_chunked_run_matches_one_chunk(tmp_path, monkeypatch):
    from depthray import io

    write_inputs(tmp_path)
    # a noisy simulated log, where every row recovers, next to the crafted one
    (tmp_path / "scenario.yaml").write_text(
        "n_samples: 40\narea: [6.0, 4.0]\naltitude: 25.0\ndepth_min: 0.4\n"
        "sigma_px: 2.0\nsigma_gimbal_deg: 0.3\ncalibration: cal.yaml\n",
        encoding="utf-8",
    )
    assert main([
        "simulate", "--config", str(tmp_path / "scenario.yaml"),
        "--output", str(tmp_path / "sim.csv"), "--gt", str(tmp_path / "gt.csv"),
    ]) == 0

    def recover_both(tag):
        assert recover(tmp_path, f"{tag}.csv") == 0
        assert main([
            "recover", "--config", str(tmp_path / "run.yaml"),
            "--input", str(tmp_path / "sim.csv"), "--output", str(tmp_path / f"{tag}-sim.csv"),
        ]) == 0

    recover_both("whole")
    # read, recover and write in blocks of 7: the crafted log's 14 rows
    # (12 with an origin match) and its 12-row track make two blocks each,
    # the simulated log's 40 rows six
    monkeypatch.setattr(io, "CSV_BLOCK_ROWS", 7)
    recover_both("chunked")
    for name in ("{}.csv", "{}.csv.exclusions.csv", "{}-sim.csv", "{}-sim.csv.exclusions.csv"):
        whole = (tmp_path / name.format("whole")).read_bytes()
        assert (tmp_path / name.format("chunked")).read_bytes() == whole
    assert len((tmp_path / "whole-sim.csv").read_text().splitlines()) == 41


def test_fix_near_the_earths_centre_is_degenerate(tmp_path):
    # a reference height that puts the fix 20-43 km from the earth's
    # centre, once off and once on the rotation axis
    rows = [
        "0.0,1000.0,500.0,25.0,0.6,0.0,-90.0,0.0,0.0,0.0,0.0,42.87,17.7,25.0",
        "1.0,960.0,540.0,25.0,0.6,0.0,-90.0,0.0,0.0,0.0,0.0,42.87,17.7,-6355000.0",
        "2.0,960.0,540.0,25.0,0.6,0.0,-90.0,0.0,0.0,0.0,0.0,90.0,0.0,-6356000.0",
    ]
    (tmp_path / "cal.yaml").write_text(CALIB, encoding="utf-8")
    (tmp_path / "run.yaml").write_text("calibration: cal.yaml\n", encoding="utf-8")
    src = str(Path(depthray.__file__).resolve().parents[1])

    def run(name, lines):
        (tmp_path / f"{name}.csv").write_text("\n".join([HEADER] + lines) + "\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "depthray.cli", "recover",
             "--config", str(tmp_path / "run.yaml"), "--input", str(tmp_path / f"{name}.csv"),
             "--output", str(tmp_path / f"{name}-traj.csv")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stderr) == (0, "")
        return (tmp_path / f"{name}-traj.csv").read_text(encoding="utf-8")

    traj = run("absurd", rows)
    sidecar = (tmp_path / "absurd-traj.csv.exclusions.csv").read_text(encoding="utf-8")
    assert sidecar == "row,t,reason\n3,1.0,degenerate\n4,2.0,degenerate\n"
    assert traj == run("sane", rows[:1])

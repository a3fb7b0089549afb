"""`recover` streams the log a CSV block at a time: a failed run leaves
no output behind, and its memory does not grow with the log."""

import os
import tracemalloc

import pytest

from depthray import io
from depthray.cli import main

CALIB = """\
fx: 1000.0
fy: 1000.0
cx: 960.0
cy: 540.0
width: 1920
height: 1080
k1: -0.1
"""

SCENARIO = """\
n_samples: {n}
duration: {n}.0
area: [8.0, 5.0]
altitude: 25.0
depth_min: 0.21
depth_max: 1.95
ref_lat_deg: 42.87
ref_lon_deg: 17.7
ref_alt_m: 25.0
sigma_px: 3.0
sigma_alt: 0.1
sigma_gimbal_deg: 0.3
calibration: cal.yaml
"""

# tracemalloc peak of one `recover` of 20 000 rows with 256-row CSV
# blocks: 0.7 MB when each block is read, recovered and written in turn,
# 7.6 MB when the whole log and trajectory are held at once
PEAK_BOUND = 2_000_000


def simulate(tmp_path, n):
    (tmp_path / "cal.yaml").write_text(CALIB, encoding="utf-8")
    (tmp_path / "run.yaml").write_text("calibration: cal.yaml\n", encoding="utf-8")
    (tmp_path / "scenario.yaml").write_text(SCENARIO.format(n=n), encoding="utf-8")
    assert main([
        "simulate", "--config", str(tmp_path / "scenario.yaml"),
        "--output", str(tmp_path / "obs.csv"), "--gt", str(tmp_path / "gt.csv"),
    ]) == 0


def recover(tmp_path, output="traj.csv"):
    return main([
        "recover", "--config", str(tmp_path / "run.yaml"),
        "--input", str(tmp_path / "obs.csv"), "--output", str(tmp_path / output),
    ])


def bad_value_in_a_later_block(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[90].split(",")
    fields[1] = "oops"
    lines[90] = ",".join(fields)
    path.write_text("".join(lines), encoding="utf-8")
    return f"error: line 91: {path}: column u: not a number: 'oops'\n"


def invalid_utf8_in_a_later_block(path):
    data = path.read_bytes()
    offset = data.index(b"\n", len(data) // 2) + 3
    path.write_bytes(data[:offset] + b"\xff" + data[offset + 1:])
    return f"error: {path}: not UTF-8: invalid start byte at byte {offset}\n"


def empty_log(path):
    path.write_text(",".join(io.OBSERVATION_COLUMNS) + "\n", encoding="utf-8")
    return f"error: {path}: no observation rows\n"


@pytest.mark.parametrize("earlier_run", [False, True])
@pytest.mark.parametrize(
    "fault", [bad_value_in_a_later_block, invalid_utf8_in_a_later_block, empty_log]
)
def test_failed_run_leaves_no_output(tmp_path, monkeypatch, capsys, fault, earlier_run):
    simulate(tmp_path, 120)
    if earlier_run:
        assert recover(tmp_path) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    message = fault(tmp_path / "obs.csv")
    monkeypatch.setattr(io, "CSV_BLOCK_ROWS", 16)
    capsys.readouterr()
    assert recover(tmp_path) == 1
    assert capsys.readouterr().err == message
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    del before["obs.csv"], after["obs.csv"]
    # no temporary file, and an earlier trajectory and sidecar unchanged
    assert after == before


def test_unwritable_output_names_the_output(tmp_path, capsys):
    simulate(tmp_path, 20)
    capsys.readouterr()
    assert recover(tmp_path, "missing/traj.csv") == 1
    target = tmp_path / "missing" / "traj.csv"
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{target}'\n"
    assert sorted(os.listdir(tmp_path)) == ["cal.yaml", "gt.csv", "obs.csv", "run.yaml", "scenario.yaml"]


def test_memory_does_not_grow_with_the_log(tmp_path, monkeypatch):
    simulate(tmp_path, 20_000)
    monkeypatch.setattr(io, "CSV_BLOCK_ROWS", 256)
    tracemalloc.start()
    try:
        assert recover(tmp_path) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "traj.csv").read_text(encoding="utf-8").splitlines()) == 20_001
    assert peak < PEAK_BOUND


def test_whole_read_holds_each_column_once(tmp_path, monkeypatch):
    simulate(tmp_path, 20_000)
    monkeypatch.setattr(io, "CSV_BLOCK_ROWS", 256)
    tracemalloc.start()
    try:
        table = io._read_rows(tmp_path / "obs.csv", io.OBSERVATION_COLUMNS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    column_bytes = sum(column.nbytes for column in table.values())
    # 2.0x when every block is kept until all columns are joined
    assert peak <= 1.3 * column_bytes

"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
enforces the stated tolerance; Monte-Carlo statistics use fixed seeds
whose bands were checked to hold across independent seeds.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

from depthray.camera import (
    CameraIntrinsics,
    DistortionCoeffs,
    distort,
    undistort,
)
from depthray.cli import main
from depthray.evaluate import rescale_grid_point, trajectory_errors
from depthray.geodesy import ecef_to_geodetic, geodetic_to_ecef
from depthray.io import RunConfig
from depthray.recovery import Camera, camera_rotation, recover_batch
from depthray.synth import NoiseSpec, Scenario, generate_logs, lawnmower_path

from conftest import (
    CAMERA,
    bowring_oracle,
    geodetic_deg,
    random_geodetic,
    sample_invertible_distortion,
)

REF_DEG = (42.87, 17.7, 25.0)

SURVEY_CALIBRATION = """\
fx: 2000.0
fy: 2000.0
cx: 960.0
cy: 540.0
width: 1920
height: 1080
"""


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number}: FAIL  {label}")
        raise
    print(f"\ncriterion {number}: PASS  {label}")


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def survey_scenario(n, sigma_px=0.0, sigma_alt=0.0, sigma_gimbal_deg=0.0,
                    depth_min=0.63, depth_max=0.63, seed=0):
    return Scenario(
        path_xy=lawnmower_path(n, width=8.0, height=5.0, legs=5),
        duration=200.0,
        altitude=25.0,
        depth_min=depth_min,
        depth_max=depth_max,
        ref_geo=geodetic_deg(*REF_DEG),
        camera=Camera(CameraIntrinsics(2000.0, 2000.0, 960.0, 540.0, 1920, 1080)),
        noise=NoiseSpec(sigma_px=sigma_px, sigma_alt=sigma_alt,
                        sigma_gimbal=math.radians(sigma_gimbal_deg), seed=seed),
    )


def planar_errors(scenario):
    """Run the recovery chain over generated logs; planar error norms."""
    obs_rows, gt_rows = generate_logs(scenario)
    config = RunConfig(scenario.camera)
    traj, _ = recover_batch(obs_rows, config)
    return np.hypot(traj["enu_x"] - gt_rows["x"], traj["enu_y"] - gt_rows["y"])


def test_1_end_to_end_noiseless_identity(tmp_path):
    with criterion(1, "noiseless simulate | recover | evaluate is exact (< 1e-9 m, < 1 s)"):
        write(tmp_path / "cal.yaml", SURVEY_CALIBRATION)
        write(tmp_path / "run.yaml", "calibration: cal.yaml\n")
        write(
            tmp_path / "scenario.yaml",
            "pattern: lawnmower\n"
            "n_samples: 500\n"
            "duration: 200.0\n"
            "area: [8.0, 5.0]\n"
            "legs: 5\n"
            "altitude: 25.0\n"
            "depth_min: 0.63\n"
            "depth_max: 0.63\n"
            f"ref_lat_deg: {REF_DEG[0]}\n"
            f"ref_lon_deg: {REF_DEG[1]}\n"
            f"ref_alt_m: {REF_DEG[2]}\n"
            "calibration: cal.yaml\n",
        )
        start = time.perf_counter()
        assert main([
            "simulate", "--config", str(tmp_path / "scenario.yaml"),
            "--output", str(tmp_path / "obs.csv"), "--gt", str(tmp_path / "gt.csv"),
        ]) == 0
        assert main([
            "recover", "--config", str(tmp_path / "run.yaml"),
            "--input", str(tmp_path / "obs.csv"), "--output", str(tmp_path / "traj.csv"),
        ]) == 0
        assert main([
            "evaluate", "--config", str(tmp_path / "run.yaml"),
            "--input", str(tmp_path / "traj.csv"), "--gt", str(tmp_path / "gt.csv"),
            "--output", str(tmp_path / "report.json"),
        ]) == 0
        elapsed = time.perf_counter() - start
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["n_samples"] == 500
        assert report["mae"] <= 1e-9
        assert report["rmse"] <= 1e-9
        assert elapsed < 1.0, f"pipeline took {elapsed:.2f} s"


def test_2_field_magnitude_noise_study():
    label = "pixel+altitude+gimbal noise lands in the sub-meter band (< 10 s)"
    with criterion(2, label):
        start = time.perf_counter()
        scenario = survey_scenario(
            n=2000, sigma_px=3.0, sigma_alt=0.10, sigma_gimbal_deg=0.3,
            depth_min=0.21, depth_max=1.95, seed=2,
        )
        errors = planar_errors(scenario)
        elapsed = time.perf_counter() - start
        mae = float(np.mean(errors))
        rmse = float(np.sqrt(np.mean(errors**2)))
        assert len(errors) >= 2000
        assert 0.05 <= mae <= 0.6, f"MAE {mae:.3f} outside [0.05, 0.6]"
        assert rmse >= mae
        assert elapsed < 10.0, f"study took {elapsed:.2f} s"


def test_3_pixel_noise_sweep_brackets_simulation_error():
    with criterion(3, "a pixel-noise level in [1, 6] px reproduces MAE 0.142 +- 0.05 m"):
        target, tol = 0.142, 0.05
        maes = {}
        hit = None
        for sigma in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            scenario = survey_scenario(
                n=2000, sigma_px=sigma, depth_min=0.21, depth_max=1.95, seed=3,
            )
            maes[sigma] = float(np.mean(planar_errors(scenario)))
            if abs(maes[sigma] - target) <= tol:
                hit = sigma
                break
        assert hit is not None, f"no sigma matched, sweep gave {maes}"


def test_4_geodetic_round_trip_and_oracle_agreement():
    with criterion(4, "10k geodetic round trips < 1e-6 m and match the iterative oracle (< 1 s)"):
        start = time.perf_counter()
        rng = np.random.default_rng(4)
        g = random_geodetic(rng, 10000)
        e = geodetic_to_ecef(g)
        back = ecef_to_geodetic(e)
        e2 = geodetic_to_ecef(back)
        d = e - e2
        err = np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2)
        assert float(np.max(err)) < 1e-6

        surface = random_geodetic(rng, 1000, h_low=0.0, h_high=0.0)
        es = geodetic_to_ecef(surface)
        lat_oracle, _, _ = bowring_oracle(es[..., 0], es[..., 1], es[..., 2], iterations=20)
        lat_closed = ecef_to_geodetic(es)[:, 0]
        assert float(np.max(np.abs(lat_closed - lat_oracle))) < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"geodesy checks took {elapsed:.2f} s"


def test_5_distortion_inversion():
    with criterion(5, "10k invertible-model distortion round trips < 1e-9; zero case exact"):
        n = (0.4, -0.3)
        assert undistort(*n, DistortionCoeffs())[0] == n  # bitwise

        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(10000):
            d = sample_invertible_distortion(rng, k_max=0.3, p_max=0.01, r_max=0.85)
            r = 0.8 * math.sqrt(rng.uniform())
            ang = rng.uniform(0.0, 2.0 * math.pi)
            point = (r * math.cos(ang), r * math.sin(ang))
            back, converged = undistort(*distort(*point, d), d)
            assert converged
            worst = max(worst, abs(back[0] - point[0]), abs(back[1] - point[1]))
        assert worst < 1e-9, f"worst round-trip error {worst:.2e}"


def test_6_rotation_chain_properties():
    with criterion(6, "10k gimbal rotations are special-orthogonal; nadir identity holds"):
        rng = np.random.default_rng(6)
        eye = np.eye(3)
        for _ in range(10000):
            r = camera_rotation(rng.uniform(-np.pi, np.pi, 3), None, CAMERA)
            assert np.max(np.abs(r.T @ r - eye)) < 1e-12
            assert abs(np.linalg.det(r) - 1.0) < 1e-12
        h = 25.0
        r = camera_rotation(np.array([0.0, -np.pi / 2, 0.0]), None, CAMERA)
        assert_allclose(r @ [0.0, 0.0, -h], [0.0, 0.0, h], atol=1e-12)
        r0 = camera_rotation(np.zeros(3), None, CAMERA)
        assert_allclose(r0 @ [h, 0.0, 0.0], [0.0, 0.0, h], atol=1e-12)


def test_7_error_metric_definitions():
    with criterion(7, "planar MAE/RMSE definitions match the worked examples"):
        xy = np.array([[1.0, 2.0], [3.0, 4.0], [-5.0, 0.5]])
        exact = trajectory_errors(xy, xy)
        assert exact["mae"] == 0.0 and exact["rmse"] == 0.0

        offset = trajectory_errors(xy + np.array([0.3, 0.4]), xy)
        assert offset["mae"] == pytest.approx(0.5, abs=1e-12)
        assert offset["rmse"] == pytest.approx(0.5, abs=1e-12)

        two = trajectory_errors(np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((2, 2)))
        assert two["mae"] == pytest.approx(0.5, abs=1e-15)
        assert two["rmse"] == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert two["rmse"] >= two["mae"]

        rng = np.random.default_rng(7)
        for _ in range(1000):
            count = rng.integers(1, 50)
            report = trajectory_errors(
                rng.normal(0.0, 3.0, (count, 2)), rng.normal(0.0, 3.0, (count, 2))
            )
            assert report["rmse"] >= report["mae"] - 1e-12


def test_8_grid_rescaling():
    with criterion(8, "depth rescaling matches similar triangles and composes (< 1e-12)"):
        assert_allclose(
            rescale_grid_point([2.0, 1.0], [0.0, 0.0], 25.0, 2.5), [2.2, 1.1], atol=1e-12
        )
        rng = np.random.default_rng(8)
        for _ in range(200):
            grid = rng.uniform(-5.0, 5.0, 2)
            nadir = rng.uniform(-1.0, 1.0, 2)
            a_cam = rng.uniform(5.0, 40.0)
            d1, d2 = rng.uniform(0.0, 3.0, 2)
            once = rescale_grid_point(grid, nadir, a_cam, d1 + d2)
            staged = rescale_grid_point(
                rescale_grid_point(grid, nadir, a_cam, d1), nadir, a_cam + d1, d2
            )
            assert_allclose(staged, once, atol=1e-12)

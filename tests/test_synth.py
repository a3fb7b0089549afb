import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from depthray.camera import CameraIntrinsics, DistortionCoeffs
from depthray.errors import InfeasibleScene
from depthray.io import RunConfig
from depthray.recovery import Camera, camera_rotation, project, recover_batch
from depthray.synth import (
    MIN_CAMERA_Z,
    NoiseSpec,
    Scenario,
    circle_path,
    generate_logs,
    lawnmower_path,
    line_path,
)

from conftest import CAMERA, assert_columns_equal, geodetic_deg

REF = geodetic_deg(42.87, 17.7, 25.0)
NADIR = np.array([0.0, -np.pi / 2, 0.0])



def make_scenario(n=50, noise=NoiseSpec(), depth_min=0.63, depth_max=0.63,
                  altitude=25.0, camera=CAMERA, duration=60.0,
                  path_xy=None, ref_geo=REF, **attitudes):
    return Scenario(
        path_xy=lawnmower_path(n, width=10.0, height=6.0, legs=4) if path_xy is None else path_xy,
        duration=duration,
        altitude=altitude,
        depth_min=depth_min,
        depth_max=depth_max,
        ref_geo=ref_geo,
        camera=camera,
        noise=noise,
        **attitudes,
    )


class TestProjectPoint:
    """project, the forward model generate_logs uses."""

    r_nadir = camera_rotation(NADIR, None, CAMERA)[None]

    def test_optical_axis_hits_principal_point(self):
        u, v, _ = project(np.array([[0.0, 0.0, -17.0]]), self.r_nadir, CAMERA)
        assert (u[0], v[0]) == pytest.approx((960.0, 540.0), abs=1e-12)

    def test_north_displacement_moves_u(self):
        # at nadir with zero gimbal yaw, world north maps to image x
        h = 20.0
        u, v, _ = project(np.array([[0.0, 0.1 * h, -h]]), self.r_nadir, CAMERA)
        assert (u[0], v[0]) == pytest.approx((1060.0, 540.0), abs=1e-9)

    def test_point_behind_camera_raises(self):
        _, _, z = project(np.array([[0.0, 0.0, 5.0]]), self.r_nadir, CAMERA)
        assert z[0] <= MIN_CAMERA_Z

    def test_project_then_recover_is_identity(self, intrinsics):
        rng = np.random.default_rng(73)
        camera = Camera(intrinsics, DistortionCoeffs(k1=-0.12, k2=0.04, p1=0.002, p2=-0.001))
        a_uav, d_uuv, truth = np.empty(100), np.empty(100), np.empty((100, 3))
        for i in range(100):
            a_uav[i] = rng.uniform(12.0, 35.0)
            d_uuv[i] = rng.uniform(0.0, 2.0)
            depth = a_uav[i] + d_uuv[i]
            truth[i] = [rng.uniform(-0.3, 0.3) * depth, rng.uniform(-0.3, 0.3) * depth, -depth]
        u, v, _ = project(truth, camera_rotation(np.tile(NADIR, (100, 1)), None, camera), camera)
        zeros = np.zeros(100)
        columns = {
            "t": zeros, "u": u, "v": v, "a_uav": a_uav, "d_uuv": d_uuv,
            "gimbal_yaw_deg": zeros, "gimbal_pitch_deg": np.full(100, -90.0),
            "gimbal_roll_deg": zeros, "body_yaw_deg": zeros, "body_pitch_deg": zeros,
            "body_roll_deg": zeros, "ref_lat_deg": np.full(100, 42.87),
            "ref_lon_deg": np.full(100, 17.7), "ref_alt_m": np.full(100, 25.0),
        }
        traj, _ = recover_batch(columns, RunConfig(camera))
        # compare in {G}: rotate the recovery back out of the camera
        p_c = np.column_stack([traj["cam_x"], traj["cam_y"], traj["cam_z"]])
        p_g = p_c @ camera_rotation(NADIR, None, camera)
        assert_allclose(p_g, truth, atol=1e-9)


class TestGenerateLogs:
    def test_noiseless_rows_recover_exactly(self):
        scenario = make_scenario(n=40)
        obs_rows, gt_rows = generate_logs(scenario)
        assert len(obs_rows["t"]) == len(gt_rows["t"]) == 40
        traj, _ = recover_batch(obs_rows, RunConfig(scenario.camera))
        assert len(traj["t"]) == 40
        for enu, truth in (("enu_x", "x"), ("enu_y", "y"), ("enu_z", "z")):
            assert_allclose(traj[enu], gt_rows[truth], atol=1e-9)

    def test_same_seed_reproduces_rows(self):
        noise = NoiseSpec(sigma_px=2.0, sigma_alt=0.1, sigma_depth=0.02,
                          sigma_gimbal=0.002, seed=99)
        a = generate_logs(make_scenario(noise=noise))
        b = generate_logs(make_scenario(noise=noise))
        for a_rows, b_rows in zip(a, b):
            assert_columns_equal(a_rows, b_rows)

    def test_different_seed_differs(self):
        a = generate_logs(make_scenario(noise=NoiseSpec(sigma_px=2.0, seed=1)))
        b = generate_logs(make_scenario(noise=NoiseSpec(sigma_px=2.0, seed=2)))
        assert not all(np.array_equal(a[0][name], b[0][name]) for name in a[0])

    def test_zero_sigma_is_exact_passthrough(self):
        # noiseless channels are bitwise equal to the projected values
        clean, _ = generate_logs(make_scenario(noise=NoiseSpec(seed=5)))
        noisy_px, _ = generate_logs(make_scenario(noise=NoiseSpec(sigma_px=1.0, seed=5)))
        for name in ("a_uav", "d_uuv", "gimbal_pitch_deg"):
            assert np.array_equal(clean[name], noisy_px[name])
        assert np.all(clean["u"] != noisy_px["u"])

    def test_pixel_noise_monte_carlo_band(self):
        # sigma_px / fx scaled by the ~25.6 m range puts the planar MAE
        # near 0.032 m; first-order propagation bounds it well inside
        # [0.015, 0.04] over a thousand samples
        camera = Camera(CameraIntrinsics(2000.0, 2000.0, 960.0, 540.0, 1920, 1080))
        scenario = make_scenario(n=1200, noise=NoiseSpec(sigma_px=2.0, seed=13), camera=camera)
        obs_rows, gt_rows = generate_logs(scenario)
        traj, _ = recover_batch(obs_rows, RunConfig(camera))
        assert len(traj["t"]) == len(gt_rows["t"])
        errors = np.hypot(traj["enu_x"] - gt_rows["x"], traj["enu_y"] - gt_rows["y"])
        mae = float(np.mean(errors))
        assert 0.015 <= mae <= 0.04

    def test_out_of_frame_point_infeasible(self):
        # a tight telephoto view pushes the survey edge out of frame
        camera = Camera(CameraIntrinsics(20000.0, 20000.0, 960.0, 540.0, 1920, 1080))
        with pytest.raises(InfeasibleScene) as err:
            generate_logs(make_scenario(camera=camera))
        assert err.value.index is not None

    def test_depth_profile_sweeps_linearly(self):
        # an offset camera on a pitched body: the truth in {D} still sits
        # a_uav above the water plus d_uuv below it
        scenario = make_scenario(
            n=11, depth_min=0.21, depth_max=1.95,
            camera=replace(CAMERA, cam_offset=np.array([0.3, 0.0, -0.2])),
            body=np.array([0.0, math.radians(10.0), 0.0]),
        )
        obs, truth = generate_logs(scenario)
        assert_allclose(obs["d_uuv"], np.linspace(0.21, 1.95, 11))
        # the vertical coordinate stays consistent with the channels
        assert_allclose(truth["z"], -(obs["a_uav"] + obs["d_uuv"]), rtol=0.0, atol=1e-12)


class TestPaths:
    def test_lawnmower_covers_area(self):
        xy = lawnmower_path(400, width=10.0, height=6.0, legs=5)
        assert xy.shape == (400, 2)
        assert np.max(np.abs(xy[:, 0])) <= 5.0 + 1e-9
        assert np.max(np.abs(xy[:, 1])) <= 3.0 + 1e-9
        assert np.ptp(xy[:, 1]) > 4.0  # sweeps through the legs

    def test_circle_radius(self):
        xy = circle_path(100, radius=3.0)
        assert_allclose(np.hypot(xy[:, 0], xy[:, 1]), 3.0, atol=1e-12)

    def test_line_endpoints(self):
        xy = line_path(10, start=[1.0, 2.0], end=[5.0, -2.0])
        assert_allclose(xy[0], [1.0, 2.0])
        assert_allclose(xy[-1], [5.0, -2.0])


class TestScenarioValidation:
    def test_timestamps_must_increase(self):
        for duration in (0.0, -3.0):
            with pytest.raises(ValueError, match="timestamps must be strictly increasing"):
                make_scenario(n=5, duration=duration)
        # one sample needs no duration
        obs, _ = generate_logs(make_scenario(n=1, duration=0.0))
        assert obs["t"].tolist() == [0.0]

    def test_path_must_be_planar_points(self):
        for path_xy in (np.zeros((0, 2)), np.zeros((5, 3)), np.zeros(5)):
            with pytest.raises(ValueError, match="path_xy"):
                make_scenario(path_xy=path_xy)

    # recover_batch reads such rows as degenerate, so every row would be dropped
    @pytest.mark.parametrize("altitude", [0.0, -0.2, float("nan"), float("inf")])
    def test_altitude_must_be_positive(self, altitude):
        with pytest.raises(ValueError, match="altitude must be positive"):
            make_scenario(altitude=altitude)

    @pytest.mark.parametrize("depth_min, depth_max",
                             [(-0.5, 0.5), (0.5, -0.5), (math.inf, 0.5), (0.5, math.inf)])
    def test_depths_must_be_nonnegative(self, depth_min, depth_max):
        with pytest.raises(ValueError, match="must be non-negative"):
            make_scenario(depth_min=depth_min, depth_max=depth_max)

    def test_attitudes_wrap_into_half_open_pi_interval(self):
        scenario = make_scenario(gimbal=[3 * math.pi / 2, -3 * math.pi, math.pi],
                                 body=[0.0, 0.0, -math.pi])
        assert tuple(scenario.gimbal) == pytest.approx((-math.pi / 2, math.pi, math.pi))
        assert -math.pi < scenario.gimbal[1] <= math.pi
        assert scenario.body[2] == math.pi

    def test_attitudes_must_be_finite_3_vectors(self):
        for name, angles in [("gimbal", [float("inf"), -math.pi / 2, 0.0]),
                             ("body", [0.0, float("nan"), 0.0]),
                             ("body", [0.0, 0.0])]:
            with pytest.raises(ValueError, match=f"{name} must be 3 finite angles"):
                make_scenario(**{name: angles})

    def test_reference_fix_checked_and_longitude_wrapped(self):
        with pytest.raises(ValueError, match="latitude"):
            make_scenario(ref_geo=geodetic_deg(95.0, 17.7, 25.0))
        scenario = make_scenario(ref_geo=geodetic_deg(42.87, 190.0, 25.0))
        assert math.degrees(scenario.ref_geo[1]) == pytest.approx(-170.0)

    def test_arrays_are_read_only_copies(self):
        path, gimbal, body = line_path(5, [0.0, 0.0], [2.0, 1.0]), NADIR.copy(), np.zeros(3)
        ref = REF.copy()
        scenario = make_scenario(path_xy=path, gimbal=gimbal, body=body, ref_geo=ref)
        before = {name: getattr(scenario, name).copy()
                  for name in ("path_xy", "gimbal", "body", "ref_geo")}
        for array in (path, gimbal, body, ref):
            array[0] += 1.0  # the caller's arrays stay the caller's
        for name, values in before.items():
            np.testing.assert_array_equal(getattr(scenario, name), values)
            with pytest.raises(ValueError, match="read-only"):
                getattr(scenario, name)[0] = 0.0

    def test_target_at_the_surface_is_accepted(self):
        assert len(make_scenario(depth_min=0.0, depth_max=0.0)) == 50

    def test_noise_sigmas_nonnegative(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma_px=-1.0)

    # an infinite duration wrote t = [nan, inf, ...]
    @pytest.mark.parametrize("field, value", [
        ("duration", math.inf), ("duration", math.nan),
        ("path_xy", [[0.0, 0.0], [math.inf, 1.0]]),
    ])
    def test_path_and_duration_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match="path_xy and duration must be finite"):
            make_scenario(**{field: value})

    # a nan sigma drew no noise at all (nan > 0 is false); an infinite one
    # wrote inf into its channel
    @pytest.mark.parametrize("field", ["sigma_px", "sigma_alt", "sigma_depth", "sigma_gimbal"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_noise_sigmas_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be non-negative and finite"):
            NoiseSpec(**{field: value})

    # 1.5 failed in numpy's generator once a sigma was nonzero; True was seed 1
    @pytest.mark.parametrize("seed", [1.5, 2.0, True, np.bool_(True), "3", None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            NoiseSpec(sigma_px=1.0, seed=seed)

    def test_numpy_integer_seed_draws_as_its_int(self):
        a, _ = generate_logs(make_scenario(noise=NoiseSpec(sigma_px=1.0, seed=np.int64(7))))
        b, _ = generate_logs(make_scenario(noise=NoiseSpec(sigma_px=1.0, seed=7)))
        assert np.array_equal(a["u"], b["u"])

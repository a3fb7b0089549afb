import numpy as np
import pytest
from numpy.testing import assert_allclose

from depthray.camera import CameraIntrinsics, DistortionCoeffs
from depthray.errors import InfeasibleScene
from depthray.geodesy import GeodeticCoord
from depthray.geometry import EulerAngles, as_angles
from depthray.io import RunConfig
from depthray.recovery import RigConfig, camera_rotation, project, recover_batch
from depthray.synth import (
    MIN_CAMERA_Z,
    NoiseSpec,
    Scenario,
    build_scenario,
    circle_path,
    generate_logs,
    lawnmower_path,
    line_path,
)

REF = GeodeticCoord.from_degrees(42.87, 17.7, 25.0)
NADIR = EulerAngles(pitch=-np.pi / 2)



def make_scenario(n=50, noise=NoiseSpec(), depth_min=0.63, depth_max=0.63,
                  altitude=25.0, intr=None, dist=DistortionCoeffs()):
    intr = intr or CameraIntrinsics(1000.0, 1000.0, 960.0, 540.0, 1920, 1080)
    return build_scenario(
        path_xy=lawnmower_path(n, width=10.0, height=6.0, legs=4),
        duration=60.0,
        altitude=altitude,
        depth_min=depth_min,
        depth_max=depth_max,
        ref_geo=REF,
        intrinsics=intr,
        distortion=dist,
        noise=noise,
    )


class TestProjectPoint:
    """project, the forward model generate_logs uses."""

    r_nadir = camera_rotation(NADIR, EulerAngles(), RigConfig())[None]

    def test_optical_axis_hits_principal_point(self, intrinsics):
        u, v, _ = project(np.array([[0.0, 0.0, -17.0]]), self.r_nadir, intrinsics,
                          DistortionCoeffs.zero())
        assert (u[0], v[0]) == pytest.approx((960.0, 540.0), abs=1e-12)

    def test_north_displacement_moves_u(self, intrinsics):
        # at nadir with zero gimbal yaw, world north maps to image x
        h = 20.0
        u, v, _ = project(np.array([[0.0, 0.1 * h, -h]]), self.r_nadir, intrinsics,
                          DistortionCoeffs.zero())
        assert (u[0], v[0]) == pytest.approx((1060.0, 540.0), abs=1e-9)

    def test_point_behind_camera_raises(self, intrinsics):
        _, _, z = project(np.array([[0.0, 0.0, 5.0]]), self.r_nadir, intrinsics,
                          DistortionCoeffs.zero())
        assert z[0] <= MIN_CAMERA_Z

    def test_project_then_recover_is_identity(self, intrinsics):
        rng = np.random.default_rng(73)
        rig = RigConfig()
        dist = DistortionCoeffs(k1=-0.12, k2=0.04, p1=0.002, p2=-0.001)
        a_uav, d_uuv, truth = np.empty(100), np.empty(100), np.empty((100, 3))
        for i in range(100):
            a_uav[i] = rng.uniform(12.0, 35.0)
            d_uuv[i] = rng.uniform(0.0, 2.0)
            depth = a_uav[i] + d_uuv[i]
            truth[i] = [rng.uniform(-0.3, 0.3) * depth, rng.uniform(-0.3, 0.3) * depth, -depth]
        gimbal, body = np.tile(as_angles(NADIR), (100, 1)), np.zeros((100, 3))
        u, v, _ = project(truth, camera_rotation(gimbal, body, rig), intrinsics, dist)
        zeros = np.zeros(100)
        columns = {
            "t": zeros, "u": u, "v": v, "a_uav": a_uav, "d_uuv": d_uuv,
            "gimbal_yaw_deg": zeros, "gimbal_pitch_deg": np.full(100, -90.0),
            "gimbal_roll_deg": zeros, "body_yaw_deg": zeros, "body_pitch_deg": zeros,
            "body_roll_deg": zeros, "ref_lat_deg": np.full(100, 42.87),
            "ref_lon_deg": np.full(100, 17.7), "ref_alt_m": np.full(100, 25.0),
        }
        traj, _ = recover_batch(columns, RunConfig(intrinsics, dist, rig))
        # compare in {G}: rotate the recovery back out of the camera
        p_c = np.column_stack([traj["cam_x"], traj["cam_y"], traj["cam_z"]])
        p_g = p_c @ camera_rotation(NADIR, EulerAngles(), rig)
        assert_allclose(p_g, truth, atol=1e-9)


class TestGenerateLogs:
    def test_noiseless_rows_recover_exactly(self, intrinsics):
        scenario = make_scenario(n=40)
        obs_rows, gt_rows = generate_logs(scenario)
        assert len(obs_rows) == len(gt_rows) == 40
        traj, _ = recover_batch(
            obs_rows, RunConfig(scenario.intrinsics, scenario.distortion, scenario.rig)
        )
        assert len(traj) == 40
        for enu, truth in (("enu_x", "x"), ("enu_y", "y"), ("enu_z", "z")):
            assert_allclose(traj[enu], gt_rows[truth], atol=1e-9)

    def test_same_seed_reproduces_rows(self):
        noise = NoiseSpec(sigma_px=2.0, sigma_alt=0.1, sigma_depth=0.02,
                          sigma_gimbal=0.002, seed=99)
        a = generate_logs(make_scenario(noise=noise))
        b = generate_logs(make_scenario(noise=noise))
        assert a == b

    def test_different_seed_differs(self):
        a = generate_logs(make_scenario(noise=NoiseSpec(sigma_px=2.0, seed=1)))
        b = generate_logs(make_scenario(noise=NoiseSpec(sigma_px=2.0, seed=2)))
        assert a != b

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
        intr = CameraIntrinsics(2000.0, 2000.0, 960.0, 540.0, 1920, 1080)
        scenario = make_scenario(n=1200, noise=NoiseSpec(sigma_px=2.0, seed=13), intr=intr)
        obs_rows, gt_rows = generate_logs(scenario)
        traj, _ = recover_batch(obs_rows, RunConfig(intr, scenario.distortion, scenario.rig))
        assert len(traj) == len(gt_rows)
        errors = np.hypot(traj["enu_x"] - gt_rows["x"], traj["enu_y"] - gt_rows["y"])
        mae = float(np.mean(errors))
        assert 0.015 <= mae <= 0.04

    def test_out_of_frame_point_infeasible(self):
        # a tight telephoto view pushes the survey edge out of frame
        intr = CameraIntrinsics(20000.0, 20000.0, 960.0, 540.0, 1920, 1080)
        with pytest.raises(InfeasibleScene) as err:
            generate_logs(make_scenario(intr=intr))
        assert err.value.index is not None

    def test_depth_profile_sweeps_linearly(self):
        scenario = make_scenario(n=11, depth_min=0.21, depth_max=1.95)
        assert_allclose(scenario.d_uuv, np.linspace(0.21, 1.95, 11))
        # the vertical coordinate stays consistent with the channels
        assert_allclose(
            scenario.positions[:, 2],
            -(scenario.a_uav + scenario.rig.cam_offset[2] + scenario.d_uuv),
        )


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
        s = make_scenario(n=5)
        with pytest.raises(ValueError):
            Scenario(
                t=np.zeros(5), positions=s.positions, a_uav=s.a_uav, d_uuv=s.d_uuv,
                gimbal=s.gimbal, body=s.body, ref_geo=s.ref_geo,
                intrinsics=s.intrinsics,
            )

    def test_noise_sigmas_nonnegative(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma_px=-1.0)

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from depthray.camera import CameraIntrinsics, DistortionCoeffs
from depthray.geometry import (
    CAM_FROM_FORWARD,
    EulerAngles,
    as_angles,
    ray_plane_hits,
    yaw_pitch_roll_matrix,
)
from depthray.io import RunConfig
from depthray.recovery import (
    BEHIND_CAMERA,
    DEGENERATE,
    ILL_CONDITIONED,
    PARALLEL_RAY,
    RECOVERED,
    RigConfig,
    camera_rotation,
    recover_batch,
)
from depthray.synth import project

REF_DEG = (42.87, 17.7, 25.0)
NADIR = EulerAngles(pitch=-np.pi / 2)
LEVEL = EulerAngles()
CAM = ("cam_x", "cam_y", "cam_z")
ENU = ("enu_x", "enu_y", "enu_z")


def make_columns(px, a_uav=25.0, d_uuv=0.63, gimbal=NADIR, body=LEVEL, t=0.0):
    """One observation row as recover_batch input columns."""
    values = {
        "t": t, "u": px[0], "v": px[1], "a_uav": a_uav, "d_uuv": d_uuv,
        "gimbal_yaw_deg": math.degrees(gimbal.yaw),
        "gimbal_pitch_deg": math.degrees(gimbal.pitch),
        "gimbal_roll_deg": math.degrees(gimbal.roll),
        "body_yaw_deg": math.degrees(body.yaw),
        "body_pitch_deg": math.degrees(body.pitch),
        "body_roll_deg": math.degrees(body.roll),
        "ref_lat_deg": REF_DEG[0], "ref_lon_deg": REF_DEG[1], "ref_alt_m": REF_DEG[2],
    }
    return {name: np.atleast_1d(np.asarray(v, dtype=float)) for name, v in values.items()}


class TestBuildPlane:
    """The depth plane: camera height plus offset plus target depth."""

    def test_offsets_and_depth_sum(self, intrinsics):
        rig = RigConfig(cam_offset=np.array([0.0, 0.0, -0.2]))
        config = RunConfig(intrinsics, DistortionCoeffs.zero(), rig)
        r = camera_rotation(NADIR, LEVEL, rig)
        traj, _ = recover_batch(make_columns((960.0, 540.0)), config)
        assert_allclose(r.T @ [traj[c][0] for c in CAM], [0.0, 0.0, -25.43], atol=1e-12)
        # an off-axis hit lies at the same height: the plane's normal is e_z
        traj, _ = recover_batch(make_columns((1300.0, 200.0)), config)
        assert_allclose((r.T @ [traj[c][0] for c in CAM])[2], -25.43)

    def test_surface_target(self, intrinsics):
        traj, _ = recover_batch(
            make_columns((960.0, 540.0), a_uav=10.0, d_uuv=0.0),
            RunConfig(intrinsics, DistortionCoeffs.zero(), RigConfig()),
        )
        p_g = camera_rotation(NADIR, LEVEL, RigConfig()).T @ [traj[c][0] for c in CAM]
        assert_allclose(p_g, [0.0, 0.0, -10.0], atol=1e-12)

    def test_camera_below_surface_degenerate(self, intrinsics):
        rig = RigConfig(cam_offset=np.array([0.0, 0.0, -0.2]))
        _, codes = recover_batch(
            make_columns((960.0, 540.0), a_uav=0.1, d_uuv=0.0),
            RunConfig(intrinsics, DistortionCoeffs.zero(), rig),
        )
        assert codes[0] == DEGENERATE


class TestRecoverCameraFrame:
    def test_nadir_principal_point(self, intrinsics):
        # ray along the optical axis: range is the full vertical distance
        traj, codes = recover_batch(
            make_columns((960.0, 540.0)), RunConfig(intrinsics, DistortionCoeffs.zero(), RigConfig())
        )
        assert codes[0] == RECOVERED
        assert [traj[c][0] for c in CAM] == pytest.approx((0.0, 0.0, 25.63), abs=1e-12)

    def test_forward_projection_round_trip(self, intrinsics):
        rig = RigConfig()
        dist = DistortionCoeffs(k1=-0.1, k2=0.05, p1=0.001, p2=-0.002)
        truth = np.array([3.0, -2.0, -25.63])
        u, v, _ = project(truth[None], as_angles(NADIR)[None], as_angles(LEVEL)[None],
                          intrinsics, dist, rig)
        traj, _ = recover_batch(make_columns((u, v)), RunConfig(intrinsics, dist, rig))
        expected_c = camera_rotation(NADIR, LEVEL, rig) @ truth
        assert_allclose([traj[c][0] for c in CAM], expected_c, atol=1e-9)

    def test_random_scene_round_trips(self, intrinsics):
        rng = np.random.default_rng(61)
        rig = RigConfig(cam_offset=np.array([0.1, -0.05, -0.2]))
        count = 0
        while count < 100:
            gimbal = EulerAngles(
                yaw=rng.uniform(-np.pi, np.pi),
                pitch=-np.pi / 2 + rng.uniform(-0.4, 0.4),
                roll=rng.uniform(-0.3, 0.3),
            )
            body = EulerAngles(*rng.uniform(-0.2, 0.2, 3))
            a_uav = rng.uniform(10.0, 40.0)
            d_uuv = rng.uniform(0.0, 3.0)
            depth = a_uav + rig.cam_offset[2] + d_uuv
            truth = np.array([rng.uniform(-0.3, 0.3) * depth,
                              rng.uniform(-0.3, 0.3) * depth, -depth])
            dist = DistortionCoeffs(
                k1=rng.uniform(-0.15, 0.15), k2=rng.uniform(-0.05, 0.05),
                p1=rng.uniform(-0.005, 0.005), p2=rng.uniform(-0.005, 0.005),
            )
            r = camera_rotation(gimbal, body, rig)
            if (r @ truth)[2] < 0.2 * depth:
                continue  # scene behind or grazing the camera
            u, v, _ = project(truth[None], as_angles(gimbal)[None], as_angles(body)[None],
                              intrinsics, dist, rig)
            traj, codes = recover_batch(
                make_columns((u, v), a_uav=a_uav, d_uuv=d_uuv, gimbal=gimbal, body=body),
                RunConfig(intrinsics, dist, rig),
            )
            assert_allclose([traj[c][0] for c in CAM], r @ truth, atol=1e-9)
            assert codes[0] == RECOVERED and traj["cam_z"][0] > 0
            count += 1

    def test_recovered_point_lies_on_rotated_plane(self, intrinsics):
        rig = RigConfig()
        gimbal = EulerAngles(yaw=0.4, pitch=-1.2, roll=0.1)
        traj, _ = recover_batch(
            make_columns((1200.0, 300.0), gimbal=gimbal),
            RunConfig(intrinsics, DistortionCoeffs.zero(), rig),
        )
        p_c = np.array([traj[c][0] for c in CAM])
        plane_point, plane_normal = np.array([0.0, 0.0, -25.63]), np.array([0.0, 0.0, 1.0])
        r = camera_rotation(gimbal, LEVEL, rig)
        residual = (p_c - r @ plane_point) @ (r @ plane_normal)
        assert abs(residual) < 1e-9

    def test_pixel_noise_first_order_magnitude(self):
        # sigma_px / fx scaled by the range predicts the planar error
        intr = CameraIntrinsics(2000.0, 2000.0, 960.0, 540.0, 1920, 1080)
        rig = RigConfig()
        sigma_px, z = 2.0, 25.63
        predicted = sigma_px / 2000.0 * z
        truth = np.array([0.0, 0.0, -z])
        u, v, _ = project(truth[None], as_angles(NADIR)[None], as_angles(LEVEL)[None],
                          intr, DistortionCoeffs.zero(), rig)
        rng = np.random.default_rng(67)
        noise = rng.normal(0, sigma_px, (1000, 2))  # u then v, row by row
        columns = {k: np.repeat(c, 1000) for k, c in make_columns((u, v)).items()}
        columns["u"] += noise[:, 0]
        columns["v"] += noise[:, 1]
        traj, _ = recover_batch(columns, RunConfig(intr, DistortionCoeffs.zero(), rig))
        p_c = np.column_stack([traj[c] for c in CAM])
        p_g = p_c @ camera_rotation(NADIR, LEVEL, rig)
        errors = p_g[:, :2] - truth[:2]
        rms = np.sqrt(np.mean(errors**2, axis=0))
        mean_abs = np.mean(np.abs(errors), axis=0)
        assert np.all(rms > 0.7 * predicted) and np.all(rms < 1.3 * predicted)
        assert np.all(mean_abs > 0.7 * predicted * np.sqrt(2 / np.pi))
        assert np.all(mean_abs < 1.3 * predicted * np.sqrt(2 / np.pi))

    def test_grazing_ray_ill_conditioned(self, intrinsics):
        _, codes = recover_batch(
            make_columns((960.0, 540.0), gimbal=EulerAngles(pitch=-1e-4)),
            RunConfig(intrinsics, DistortionCoeffs.zero(), RigConfig()),
        )
        assert codes[0] == ILL_CONDITIONED

    def test_horizontal_ray_parallel(self, intrinsics):
        _, codes = recover_batch(
            make_columns((960.0, 540.0), gimbal=EulerAngles(pitch=0.0)),
            RunConfig(intrinsics, DistortionCoeffs.zero(), RigConfig()),
        )
        assert codes[0] == PARALLEL_RAY

    def test_upward_camera_behind(self, intrinsics):
        _, codes = recover_batch(
            make_columns((960.0, 540.0), gimbal=EulerAngles(pitch=np.pi / 2)),
            RunConfig(intrinsics, DistortionCoeffs.zero(), RigConfig()),
        )
        assert codes[0] == BEHIND_CAMERA

    def test_depth_monotonicity_along_fixed_ray(self, intrinsics):
        # deeper target on the same pixel ray is strictly farther
        config = RunConfig(intrinsics, DistortionCoeffs.zero(), RigConfig())
        last = 0.0
        for depth in np.linspace(0.0, 5.0, 11):
            traj, _ = recover_batch(make_columns((1100.0, 650.0), d_uuv=depth), config)
            norm = np.linalg.norm([traj[c][0] for c in CAM])
            assert norm > last
            last = norm

    def test_ray_scale_invariance(self):
        # the intersection compensates any positive rescaling of the direction
        normal = np.array([0.05, 0.1, 1.0])
        normal /= np.linalg.norm(normal)
        offset = np.array([0.3, -0.2, 18.0]) @ normal
        direction = np.array([0.12, -0.07, 1.0])
        d1, _ = ray_plane_hits(direction, normal, offset)
        d2, _ = ray_plane_hits(3.7 * direction, normal, offset)
        assert_allclose(3.7 * direction * d2, direction * d1, rtol=1e-12, atol=0.0)


class TestCameraToUavEnu:
    """{C} to the body-fixed ENU frame {D}."""

    def test_straight_down_inverse(self, intrinsics):
        traj, _ = recover_batch(
            make_columns((960.0, 540.0)), RunConfig(intrinsics, DistortionCoeffs.zero(), RigConfig())
        )
        assert [traj[c][0] for c in CAM] == pytest.approx((0.0, 0.0, 25.63), abs=1e-12)
        assert [traj[c][0] for c in ENU] == pytest.approx((0.0, 0.0, -25.63), abs=1e-12)

    def test_offset_pure_translation(self, intrinsics):
        # the body 25.2 m up puts the camera 25.63 m above the target
        rig = RigConfig(cam_offset=np.array([0.0, 0.0, -0.2]))
        traj, _ = recover_batch(
            make_columns((960.0, 540.0), a_uav=25.2), RunConfig(intrinsics, DistortionCoeffs.zero(), rig)
        )
        assert [traj[c][0] for c in CAM] == pytest.approx((0.0, 0.0, 25.63), abs=1e-12)
        assert [traj[c][0] for c in ENU] == pytest.approx((0.0, 0.0, -25.83), abs=1e-12)

    def test_full_round_trip_random_attitudes(self, intrinsics):
        rng = np.random.default_rng(71)
        count = 0
        while count < 100:
            rig = RigConfig(cam_offset=rng.uniform(-0.3, 0.3, 3))
            gimbal = EulerAngles(
                yaw=rng.uniform(-np.pi, np.pi),
                pitch=-np.pi / 2 + rng.uniform(-0.35, 0.35),
                roll=rng.uniform(-0.25, 0.25),
            )
            body = EulerAngles(*rng.uniform(-0.15, 0.15, 3))
            a_uav = rng.uniform(15.0, 35.0)
            d_uuv = rng.uniform(0.0, 2.0)
            depth = a_uav + rig.cam_offset[2] + d_uuv
            truth_g = np.array([rng.uniform(-0.25, 0.25) * depth,
                                rng.uniform(-0.25, 0.25) * depth, -depth])
            if (camera_rotation(gimbal, body, rig) @ truth_g)[2] < 0.2 * depth:
                continue
            u, v, _ = project(truth_g[None], as_angles(gimbal)[None], as_angles(body)[None],
                              intrinsics, DistortionCoeffs.zero(), rig)
            traj, _ = recover_batch(
                make_columns((u, v), a_uav=a_uav, d_uuv=d_uuv, gimbal=gimbal, body=body),
                RunConfig(intrinsics, DistortionCoeffs.zero(), rig),
            )
            expected = truth_g + yaw_pitch_roll_matrix(body) @ rig.cam_offset
            assert_allclose([traj[c][0] for c in ENU], expected, atol=1e-9)
            count += 1


class TestGimbalConventions:
    def test_pitch_sign_flag(self, intrinsics):
        # vendors reporting nadir as +90 recover identically with sign -1
        rig_flip = RigConfig(gimbal_pitch_sign=-1)
        traj, _ = recover_batch(
            make_columns((960.0, 540.0), gimbal=EulerAngles(pitch=np.pi / 2)),
            RunConfig(intrinsics, DistortionCoeffs.zero(), rig_flip),
        )
        assert [traj[c][0] for c in CAM] == pytest.approx((0.0, 0.0, 25.63), abs=1e-12)

    def test_body_referenced_gimbal(self, intrinsics):
        # nadir gimbal relative to a yawed body equals the composed chain
        body = EulerAngles(yaw=0.8)
        rig_body = RigConfig(gimbal_frame="body")
        rig_world = RigConfig()
        r_body = camera_rotation(NADIR, body, rig_body)
        composed = yaw_pitch_roll_matrix(body) @ yaw_pitch_roll_matrix(NADIR)
        assert_allclose(r_body, CAM_FROM_FORWARD @ composed.T, atol=1e-15)
        # with identity body the two conventions coincide
        assert_allclose(
            camera_rotation(NADIR, LEVEL, rig_body),
            camera_rotation(NADIR, LEVEL, rig_world),
            atol=1e-15,
        )


class TestValidation:
    def test_rejects_nonpositive_altitude(self, intrinsics):
        _, codes = recover_batch(
            make_columns((0.0, 0.0), a_uav=0.0),
            RunConfig(intrinsics, DistortionCoeffs.zero(), RigConfig()),
        )
        assert codes[0] == DEGENERATE

    def test_rejects_negative_depth(self, intrinsics):
        _, codes = recover_batch(
            make_columns((0.0, 0.0), d_uuv=-0.1),
            RunConfig(intrinsics, DistortionCoeffs.zero(), RigConfig()),
        )
        assert codes[0] == DEGENERATE

    def test_rig_offset_sanity_bound(self):
        with pytest.raises(ValueError):
            RigConfig(cam_offset=np.array([0.0, 0.0, -12.0]))

    def test_rig_frame_validated(self):
        with pytest.raises(ValueError):
            RigConfig(gimbal_frame="enu")

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from depthray.camera import CameraIntrinsics, DistortionCoeffs
from depthray.geometry import ray_plane_hits, yaw_pitch_roll_matrix
from depthray.io import RunConfig
from depthray.recovery import (
    BEHIND_CAMERA,
    DEGENERATE,
    ILL_CONDITIONED,
    PARALLEL_RAY,
    RECOVERED,
    Camera,
    camera_pose,
    camera_rotation,
    cast,
    project,
    recover_batch,
)

from conftest import CAMERA

REF_DEG = (42.87, 17.7, 25.0)
NADIR = np.array([0.0, -np.pi / 2, 0.0])
LEVEL = np.zeros(3)
CAM = ("cam_x", "cam_y", "cam_z")
ENU = ("enu_x", "enu_y", "enu_z")


def make_columns(px, a_uav=25.0, d_uuv=0.63, gimbal=NADIR, body=LEVEL, t=0.0):
    """One observation row as recover_batch input columns."""
    values = {
        "t": t, "u": px[0], "v": px[1], "a_uav": a_uav, "d_uuv": d_uuv,
        "gimbal_yaw_deg": math.degrees(gimbal[0]),
        "gimbal_pitch_deg": math.degrees(gimbal[1]),
        "gimbal_roll_deg": math.degrees(gimbal[2]),
        "body_yaw_deg": math.degrees(body[0]),
        "body_pitch_deg": math.degrees(body[1]),
        "body_roll_deg": math.degrees(body[2]),
        "ref_lat_deg": REF_DEG[0], "ref_lon_deg": REF_DEG[1], "ref_alt_m": REF_DEG[2],
    }
    return {name: np.atleast_1d(np.asarray(v, dtype=float)) for name, v in values.items()}


class TestBuildPlane:
    """The depth plane: camera height plus offset plus target depth."""

    def test_offsets_and_depth_sum(self, intrinsics):
        camera = Camera(intrinsics, cam_offset=np.array([0.0, 0.0, -0.2]))
        config = RunConfig(camera)
        r = camera_rotation(NADIR, None, camera)
        traj, _ = recover_batch(make_columns((960.0, 540.0)), config)
        assert_allclose(r.T @ [traj[c][0] for c in CAM], [0.0, 0.0, -25.43], atol=1e-12)
        # an off-axis hit lies at the same height: the plane's normal is e_z
        traj, _ = recover_batch(make_columns((1300.0, 200.0)), config)
        assert_allclose((r.T @ [traj[c][0] for c in CAM])[2], -25.43)

    def test_surface_target(self, intrinsics):
        traj, _ = recover_batch(
            make_columns((960.0, 540.0), a_uav=10.0, d_uuv=0.0),
            RunConfig(Camera(intrinsics)),
        )
        p_g = camera_rotation(NADIR, None, CAMERA).T @ [traj[c][0] for c in CAM]
        assert_allclose(p_g, [0.0, 0.0, -10.0], atol=1e-12)

    def test_camera_below_surface_degenerate(self, intrinsics):
        camera = Camera(intrinsics, cam_offset=np.array([0.0, 0.0, -0.2]))
        _, codes = recover_batch(
            make_columns((960.0, 540.0), a_uav=0.1, d_uuv=0.0), RunConfig(camera)
        )
        assert codes[0] == DEGENERATE


class TestRecoverCameraFrame:
    def test_nadir_principal_point(self, intrinsics):
        # ray along the optical axis: range is the full vertical distance
        traj, codes = recover_batch(
            make_columns((960.0, 540.0)), RunConfig(Camera(intrinsics))
        )
        assert codes[0] == RECOVERED
        assert [traj[c][0] for c in CAM] == pytest.approx((0.0, 0.0, 25.63), abs=1e-12)

    def test_forward_projection_round_trip(self, intrinsics):
        camera = Camera(intrinsics, DistortionCoeffs(k1=-0.1, k2=0.05, p1=0.001, p2=-0.002))
        truth = np.array([3.0, -2.0, -25.63])
        u, v, _ = project(truth[None], camera_rotation(NADIR, None, camera)[None], camera)
        traj, _ = recover_batch(make_columns((u, v)), RunConfig(camera))
        expected_c = camera_rotation(NADIR, None, camera) @ truth
        assert_allclose([traj[c][0] for c in CAM], expected_c, atol=1e-9)

    def test_random_scene_round_trips(self, intrinsics):
        rng = np.random.default_rng(61)
        offset = np.array([0.1, -0.05, -0.2])
        count = 0
        while count < 100:
            gimbal = np.array([
                rng.uniform(-np.pi, np.pi),
                -np.pi / 2 + rng.uniform(-0.4, 0.4),
                rng.uniform(-0.3, 0.3),
            ])
            body = rng.uniform(-0.2, 0.2, 3)
            a_uav = rng.uniform(10.0, 40.0)
            d_uuv = rng.uniform(0.0, 3.0)
            # the camera sits (R_body o)_z above the body on a tilted body
            depth = a_uav + (yaw_pitch_roll_matrix(body) @ offset)[2] + d_uuv
            truth = np.array([rng.uniform(-0.3, 0.3) * depth,
                              rng.uniform(-0.3, 0.3) * depth, -depth])
            dist = DistortionCoeffs(
                k1=rng.uniform(-0.15, 0.15), k2=rng.uniform(-0.05, 0.05),
                p1=rng.uniform(-0.005, 0.005), p2=rng.uniform(-0.005, 0.005),
            )
            camera = Camera(intrinsics, dist, cam_offset=offset)
            r = camera_rotation(gimbal, None, camera)
            if (r @ truth)[2] < 0.2 * depth:
                continue  # scene behind or grazing the camera
            u, v, _ = project(truth[None], camera_rotation(gimbal, None, camera)[None], camera)
            traj, codes = recover_batch(
                make_columns((u, v), a_uav=a_uav, d_uuv=d_uuv, gimbal=gimbal, body=body),
                RunConfig(camera),
            )
            assert_allclose([traj[c][0] for c in CAM], r @ truth, atol=1e-9)
            assert codes[0] == RECOVERED and traj["cam_z"][0] > 0
            count += 1

    def test_recovered_point_lies_on_rotated_plane(self, intrinsics):
        camera = Camera(intrinsics)
        gimbal = np.array([0.4, -1.2, 0.1])
        traj, _ = recover_batch(make_columns((1200.0, 300.0), gimbal=gimbal), RunConfig(camera))
        p_c = np.array([traj[c][0] for c in CAM])
        plane_point, plane_normal = np.array([0.0, 0.0, -25.63]), np.array([0.0, 0.0, 1.0])
        r = camera_rotation(gimbal, None, camera)
        residual = (p_c - r @ plane_point) @ (r @ plane_normal)
        assert abs(residual) < 1e-9

    def test_pixel_noise_first_order_magnitude(self):
        # sigma_px / fx scaled by the range predicts the planar error
        camera = Camera(CameraIntrinsics(2000.0, 2000.0, 960.0, 540.0, 1920, 1080))
        sigma_px, z = 2.0, 25.63
        predicted = sigma_px / 2000.0 * z
        truth = np.array([0.0, 0.0, -z])
        u, v, _ = project(truth[None], camera_rotation(NADIR, None, camera)[None], camera)
        rng = np.random.default_rng(67)
        noise = rng.normal(0, sigma_px, (1000, 2))  # u then v, row by row
        columns = {k: np.repeat(c, 1000) for k, c in make_columns((u, v)).items()}
        columns["u"] += noise[:, 0]
        columns["v"] += noise[:, 1]
        traj, _ = recover_batch(columns, RunConfig(camera))
        p_c = np.column_stack([traj[c] for c in CAM])
        p_g = p_c @ camera_rotation(NADIR, None, camera)
        errors = p_g[:, :2] - truth[:2]
        rms = np.sqrt(np.mean(errors**2, axis=0))
        mean_abs = np.mean(np.abs(errors), axis=0)
        assert np.all(rms > 0.7 * predicted) and np.all(rms < 1.3 * predicted)
        assert np.all(mean_abs > 0.7 * predicted * np.sqrt(2 / np.pi))
        assert np.all(mean_abs < 1.3 * predicted * np.sqrt(2 / np.pi))

    def test_grazing_ray_ill_conditioned(self, intrinsics):
        _, codes = recover_batch(
            make_columns((960.0, 540.0), gimbal=np.array([0.0, -1e-4, 0.0])),
            RunConfig(Camera(intrinsics)),
        )
        assert codes[0] == ILL_CONDITIONED

    def test_horizontal_ray_parallel(self, intrinsics):
        _, codes = recover_batch(
            make_columns((960.0, 540.0), gimbal=np.zeros(3)),
            RunConfig(Camera(intrinsics)),
        )
        assert codes[0] == PARALLEL_RAY

    def test_upward_camera_behind(self, intrinsics):
        _, codes = recover_batch(
            make_columns((960.0, 540.0), gimbal=np.array([0.0, np.pi / 2, 0.0])),
            RunConfig(Camera(intrinsics)),
        )
        assert codes[0] == BEHIND_CAMERA

    def test_depth_monotonicity_along_fixed_ray(self, intrinsics):
        # deeper target on the same pixel ray is strictly farther
        config = RunConfig(Camera(intrinsics))
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
            make_columns((960.0, 540.0)), RunConfig(Camera(intrinsics))
        )
        assert [traj[c][0] for c in CAM] == pytest.approx((0.0, 0.0, 25.63), abs=1e-12)
        assert [traj[c][0] for c in ENU] == pytest.approx((0.0, 0.0, -25.63), abs=1e-12)

    def test_offset_pure_translation(self, intrinsics):
        # the body 25.2 m up puts the camera 25.63 m above the target
        camera = Camera(intrinsics, cam_offset=np.array([0.0, 0.0, -0.2]))
        traj, _ = recover_batch(make_columns((960.0, 540.0), a_uav=25.2), RunConfig(camera))
        assert [traj[c][0] for c in CAM] == pytest.approx((0.0, 0.0, 25.63), abs=1e-12)
        assert [traj[c][0] for c in ENU] == pytest.approx((0.0, 0.0, -25.83), abs=1e-12)

    def test_offset_on_a_pitched_body(self, intrinsics):
        # a camera 0.3 m along the body's x axis and 0.2 m below it; pitching
        # the body 10 degrees raises x, so the camera hangs c_z below the body
        pitch = math.radians(10.0)
        c_z = 0.3 * math.sin(pitch) - 0.2 * math.cos(pitch)
        camera = Camera(intrinsics, cam_offset=np.array([0.3, 0.0, -0.2]))
        traj, codes = recover_batch(
            make_columns((960.0, 540.0), a_uav=25.0, d_uuv=1.0, body=np.array([0.0, pitch, 0.0])),
            RunConfig(camera),
        )
        assert codes[0] == RECOVERED
        assert traj["cam_z"][0] == pytest.approx(26.0 + c_z, abs=1e-12)
        assert traj["enu_z"][0] == pytest.approx(-26.0, abs=1e-12)

    def test_full_round_trip_random_attitudes(self, intrinsics):
        rng = np.random.default_rng(71)
        count = 0
        while count < 100:
            camera = Camera(intrinsics, cam_offset=rng.uniform(-0.3, 0.3, 3))
            gimbal = np.array([
                rng.uniform(-np.pi, np.pi),
                -np.pi / 2 + rng.uniform(-0.35, 0.35),
                rng.uniform(-0.25, 0.25),
            ])
            body = rng.uniform(-0.15, 0.15, 3)
            a_uav = rng.uniform(15.0, 35.0)
            d_uuv = rng.uniform(0.0, 2.0)
            cam = yaw_pitch_roll_matrix(body) @ camera.cam_offset  # the camera in {D}
            depth = a_uav + cam[2] + d_uuv
            truth_g = np.array([rng.uniform(-0.25, 0.25) * depth,
                                rng.uniform(-0.25, 0.25) * depth, -depth])
            if (camera_rotation(gimbal, None, camera) @ truth_g)[2] < 0.2 * depth:
                continue
            u, v, _ = project(truth_g[None], camera_rotation(gimbal, None, camera)[None], camera)
            traj, _ = recover_batch(
                make_columns((u, v), a_uav=a_uav, d_uuv=d_uuv, gimbal=gimbal, body=body),
                RunConfig(camera),
            )
            expected = truth_g + cam
            assert expected[2] == pytest.approx(-(a_uav + d_uuv), abs=1e-12)
            assert_allclose([traj[c][0] for c in ENU], expected, atol=1e-9)
            count += 1


class TestGimbalConventions:
    def test_pitch_sign_flag(self, intrinsics):
        # vendors reporting nadir as +90 recover identically with sign -1
        traj, _ = recover_batch(
            make_columns((960.0, 540.0), gimbal=np.array([0.0, np.pi / 2, 0.0])),
            RunConfig(Camera(intrinsics, gimbal_pitch_sign=-1)),
        )
        assert [traj[c][0] for c in CAM] == pytest.approx((0.0, 0.0, 25.63), abs=1e-12)

    def test_body_referenced_gimbal(self, intrinsics):
        # nadir gimbal relative to a yawed body equals the composed chain
        body = np.array([0.8, 0.0, 0.0])
        body_gimbal = Camera(CAMERA.intrinsics, gimbal_frame="body")
        r_body, _, _ = camera_pose(NADIR, body, 25.0, 1.0, body_gimbal)
        composed = yaw_pitch_roll_matrix(body) @ yaw_pitch_roll_matrix(NADIR)
        cam_from_forward = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        assert_allclose(r_body, cam_from_forward @ composed.T, atol=1e-15)
        # with identity body the two conventions coincide
        assert_allclose(
            camera_pose(NADIR, LEVEL, 25.0, 1.0, body_gimbal)[0],
            camera_pose(NADIR, LEVEL, 25.0, 1.0, CAMERA)[0],
            atol=1e-15,
        )


class TestCameraPose:
    """camera_pose against values worked out by hand with math.sin/math.cos;
    each case pins one sense of the body attitude (the legacy conventions)."""

    deg10 = math.radians(10.0)

    def pose(self, body, offset, a_uav=25.0, d_uuv=1.0):
        return camera_pose(NADIR, np.array(body), a_uav, d_uuv,
                           Camera(CAMERA.intrinsics, cam_offset=np.array(offset)))

    def test_positive_yaw_turns_the_nose_from_east_to_south(self):
        _, c, depth = self.pose([math.pi / 2, 0.0, 0.0], [1.0, 0.0, 0.0])
        assert_allclose(c, [0.0, -1.0, 0.0], atol=1e-15)
        assert depth == 26.0

    def test_positive_pitch_raises_the_nose(self):
        # o = (0.3, 0, -0.2): the forward arm rises, the hanging arm swings back
        _, c, depth = self.pose([0.0, self.deg10, 0.0], [0.3, 0.0, -0.2])
        s, co = math.sin(self.deg10), math.cos(self.deg10)
        assert_allclose(c, [0.3 * co + 0.2 * s, 0.0, 0.3 * s - 0.2 * co], atol=1e-15)
        assert_allclose(c, [0.33017, 0.0, -0.14487], atol=5e-6)
        # the plane lies a_uav + c_z + d_uuv below the camera
        assert depth == pytest.approx(25.0 + (0.3 * s - 0.2 * co) + 1.0, abs=1e-14)
        assert depth == pytest.approx(25.85513, abs=5e-6)

    def test_positive_roll_lowers_the_right_side(self):
        _, c, _ = self.pose([0.0, 0.0, self.deg10], [0.0, 1.0, 0.0])
        assert_allclose(c, [0.0, math.cos(self.deg10), -math.sin(self.deg10)], atol=1e-15)

    def test_body_gimbal_on_a_yawed_body_equals_a_yawed_world_gimbal(self):
        # one body rotation feeds r_cw; the nadir gimbal turns with the body
        for yaw in (0.3, -1.2, math.pi / 2, math.pi):
            r_body, _, _ = camera_pose(NADIR, np.array([yaw, 0.0, 0.0]), 25.0, 1.0,
                                       Camera(CAMERA.intrinsics, gimbal_frame="body"))
            r_world, _, _ = camera_pose(np.array([yaw, -math.pi / 2, 0.0]), LEVEL,
                                        25.0, 1.0, CAMERA)
            assert_allclose(r_body, r_world, atol=1e-15)


S45 = math.sqrt(0.5)

# Today's attitude and image conventions, each built by hand from plain ENU
# vectors: the camera centre in {D}, the optical axis, and the image-right
# and image-down unit vectors. With f = 2000 and the principal point
# (960, 540), a point p in {D} at q = p - centre projects to
# (960 + 2000 q.right / q.axis, 540 + 2000 q.down / q.axis), to the pixels
# listed. The points lie on the depth plane a_uav + d_uuv below the body,
# d_uuv = 1 m and a_uav = 9 m where not given; angles are in degrees.
# README "Conventions" states each case.
CONVENTION_CASES = {
    # (a) a world gimbal pitched 45 deg down looks east; at roll 0 the image
    # is upside down: image-right points north, image-down up and east
    "world_gimbal": dict(
        gimbal=(0.0, -45.0, 0.0), points=[(10.0, 3.0, -10.0), (13.0, 0.0, -10.0)],
        axis=(S45, 0.0, -S45), right=(0.0, 1.0, 0.0), down=(S45, 0.0, S45),
        pixels=[(1384.26, 540.0), (960.0, 800.87)],
    ),
    # the same camera, from a vendor that reports it pitched +45 deg
    "world_gimbal_pitch_sign": dict(
        gimbal=(0.0, 45.0, 0.0), mount=dict(gimbal_pitch_sign=-1),
        points=[(10.0, 3.0, -10.0), (13.0, 0.0, -10.0)],
        axis=(S45, 0.0, -S45), right=(0.0, 1.0, 0.0), down=(S45, 0.0, S45),
        pixels=[(1384.26, 540.0), (960.0, 800.87)],
    ),
    # (b) nadir: image-right points north and image-down east, so the pixel
    # (960 + 2000 * 3 / 26, 540) is 3 m north on the plane 26 m down
    "nadir": dict(
        gimbal=(0.0, -90.0, 0.0), a_uav=25.0, points=[(0.0, 3.0, -26.0), (2.0, -1.0, -26.0)],
        axis=(0.0, 0.0, -1.0), right=(0.0, 1.0, 0.0), down=(1.0, 0.0, 0.0),
        pixels=[(1190.77, 540.0), (883.08, 693.85)],
    ),
    # (c) a body rolled 30 deg swings a camera 0.4 m out along its y axis,
    # north at yaw 0, down by 0.2 m; the world gimbal keeps the nadir view
    "rolled_body_lateral_offset": dict(
        gimbal=(0.0, -90.0, 0.0), body=(0.0, 0.0, 30.0), mount=dict(cam_offset=(0.0, 0.4, 0.0)),
        a_uav=25.0, points=[(0.0, 0.0, -26.0), (2.0, -1.0, -26.0)],
        centre=(0.0, 0.2 * math.sqrt(3.0), -0.2),
        axis=(0.0, 0.0, -1.0), right=(0.0, 1.0, 0.0), down=(1.0, 0.0, 0.0),
        pixels=[(933.15, 540.0), (855.63, 695.04)],
    ),
    # (d) a body gimbal pitched 45 deg down on a body yawed 90 deg, its nose
    # turned from east to south, looks south: image-right points east
    "body_gimbal_yawed_body": dict(
        gimbal=(0.0, -45.0, 0.0), body=(90.0, 0.0, 0.0), mount=dict(gimbal_frame="body"),
        points=[(3.0, -10.0, -10.0), (0.0, -13.0, -10.0)],
        axis=(0.0, -S45, -S45), right=(1.0, 0.0, 0.0), down=(0.0, -S45, S45),
        pixels=[(1384.26, 540.0), (960.0, 800.87)],
    ),
}


class TestConventionFixtures:
    intrinsics = CameraIntrinsics(2000.0, 2000.0, 960.0, 540.0, 1920, 1080)

    @pytest.mark.parametrize("case", CONVENTION_CASES.values(), ids=list(CONVENTION_CASES))
    def test_pose_agrees_with_the_hand_built_camera(self, case):
        camera = Camera(self.intrinsics, **case.get("mount", {}))
        r_cw, c, depth = camera_pose(
            np.radians(case["gimbal"]), np.radians(case.get("body", (0.0, 0.0, 0.0))),
            case.get("a_uav", 9.0), 1.0, camera,
        )
        points, centre = np.array(case["points"]), case.get("centre", (0.0, 0.0, 0.0))
        q = points - centre
        u = 960.0 + 2000.0 * (q @ case["right"]) / (q @ case["axis"])
        v = 540.0 + 2000.0 * (q @ case["down"]) / (q @ case["axis"])
        assert_allclose(np.column_stack([u, v]), case["pixels"], atol=0.005)
        assert_allclose(c, centre, atol=1e-12)
        pu, pv, _ = project(points - c, r_cw, camera)
        assert_allclose(pu, u, atol=1e-9)
        assert_allclose(pv, v, atol=1e-9)
        p_c, codes = cast(u, v, depth, r_cw, camera)
        assert codes.tolist() == [RECOVERED] * len(points)
        assert_allclose(p_c @ r_cw + c, points, atol=1e-9)


class TestValidation:
    def test_rejects_nonpositive_altitude(self, intrinsics):
        _, codes = recover_batch(
            make_columns((0.0, 0.0), a_uav=0.0),
            RunConfig(Camera(intrinsics)),
        )
        assert codes[0] == DEGENERATE

    def test_rejects_negative_depth(self, intrinsics):
        _, codes = recover_batch(
            make_columns((0.0, 0.0), d_uuv=-0.1),
            RunConfig(Camera(intrinsics)),
        )
        assert codes[0] == DEGENERATE

    def test_rig_offset_sanity_bound(self, intrinsics):
        with pytest.raises(ValueError):
            Camera(intrinsics, cam_offset=np.array([0.0, 0.0, -12.0]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rig_offset_must_be_finite(self, intrinsics, value):
        with pytest.raises(ValueError, match="cam_offset must be finite"):
            Camera(intrinsics, cam_offset=np.array([0.0, value, -0.2]))

    def test_rig_offset_is_a_read_only_copy(self, intrinsics):
        offset = np.array([0.0, 0.0, -0.2])
        camera = Camera(intrinsics, cam_offset=offset)
        offset[2] = 5.0  # the caller's array stays the caller's
        assert camera.cam_offset.tolist() == [0.0, 0.0, -0.2]
        with pytest.raises(ValueError, match="read-only"):
            camera.cam_offset[2] = 5.0

    def test_rig_frame_validated(self, intrinsics):
        with pytest.raises(ValueError):
            Camera(intrinsics, gimbal_frame="enu")

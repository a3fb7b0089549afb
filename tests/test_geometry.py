from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from depthray.geometry import (
    PARALLEL_EPS,
    ray_plane_hits,
    yaw_pitch_roll_matrix,
)
from depthray.recovery import camera_pose, camera_rotation

from conftest import CAMERA


def long_hand_yaw_pitch_roll(angles):
    """Rz(yaw) Ry(pitch) Rx(roll) from the passive elementary matrices,
    written out entry by entry."""
    (cy, cp, cr), (sy, sp, sr) = np.cos(angles), np.sin(angles)
    rz = np.array([[cy, sy, 0.0], [-sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, -sp], [0.0, 1.0, 0.0], [sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, sr], [0.0, -sr, cr]])
    return rz @ ry @ rx


def assert_special_orthogonal(r, atol=1e-12):
    assert_allclose(r.T @ r, np.eye(3), atol=atol)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=atol)


# positions in yaw_pitch_roll_matrix's angle triple: about z, y and x
YAW, PITCH, ROLL = 0, 1, 2


def elementary(angle, axis):
    """yaw_pitch_roll_matrix of angles that are zero but at `axis`."""
    angle = np.asarray(angle, dtype=float)
    angles = np.zeros(angle.shape + (3,))
    angles[..., axis] = angle
    return yaw_pitch_roll_matrix(angles)


class TestElementaryRotations:
    def test_zero_angle_is_identity(self):
        for axis in (ROLL, PITCH, YAW):
            assert_allclose(elementary(0.0, axis), np.eye(3))

    def test_passive_convention(self):
        # coordinates rotate opposite to the frame
        assert_allclose(elementary(np.pi / 2, YAW) @ [1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                        atol=1e-15)

    def test_stacks_match_the_elementary_matrices(self):
        angle = np.random.default_rng(2).uniform(-np.pi, np.pi, (4, 5))
        c, s, o, i = np.cos(angle), np.sin(angle), np.zeros_like(angle), np.ones_like(angle)
        expected = {
            ROLL: [[i, o, o], [o, c, s], [o, -s, c]],
            PITCH: [[c, o, -s], [o, i, o], [s, o, c]],
            YAW: [[c, s, o], [-s, c, o], [o, o, i]],
        }
        for axis, rows in expected.items():
            assert np.array_equal(elementary(angle, axis),
                                  np.moveaxis(np.array(rows), (0, 1), (-2, -1)))

    def test_inverse_is_negated_angle(self):
        rng = np.random.default_rng(3)
        for axis in (ROLL, PITCH, YAW):
            for angle in rng.uniform(-np.pi, np.pi, 100):
                assert_allclose(elementary(angle, axis) @ elementary(-angle, axis), np.eye(3),
                                atol=1e-14)

    def test_all_outputs_in_so3(self):
        rng = np.random.default_rng(4)
        for axis in (ROLL, PITCH, YAW):
            for angle in rng.uniform(-10.0, 10.0, 50):
                assert_special_orthogonal(elementary(angle, axis))


class TestGimbalChain:
    def test_nadir_points_camera_straight_down(self):
        # pitch -90 deg: a point h below the camera sits h ahead on the
        # optical axis
        r = camera_rotation(np.array([0.0, -np.pi / 2, 0.0]), None, CAMERA)
        h = 25.0
        assert_allclose(r @ [0.0, 0.0, -h], [0.0, 0.0, h], atol=1e-12)

    def test_zero_angles_look_east(self):
        # zero gimbal: optical axis along world +x
        r = camera_rotation(np.zeros(3), None, CAMERA)
        h = 7.5
        assert_allclose(r @ [h, 0.0, 0.0], [0.0, 0.0, h], atol=1e-12)

    def test_output_in_so3_for_random_angles(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            yaw, pitch, roll = rng.uniform(-np.pi, np.pi, 3)
            r = camera_rotation(np.array([yaw, pitch, roll]), None, CAMERA)
            assert_special_orthogonal(r)

    def test_matches_hand_composed_chain(self):
        # oracle: compose the passive elementary matrices and the fixed
        # axis permutation long-hand, one matrix at a time: for single
        # angles, then for a stack of angles with world- and body-referenced
        # gimbals
        rng = np.random.default_rng(6)
        perm = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        for _ in range(50):
            angles = rng.uniform(-np.pi, np.pi, 3)
            expected = perm @ long_hand_yaw_pitch_roll(angles).T
            r = camera_rotation(angles, None, CAMERA)
            assert_allclose(r, expected, atol=1e-15)
        gimbal, body = rng.uniform(-np.pi, np.pi, (2, 1000, 3))
        for camera in (CAMERA, replace(CAMERA, gimbal_frame="body")):
            r, _, _ = camera_pose(gimbal, body, 0.0, 0.0, camera)
            assert r.shape == (1000, 3, 3)
            for k in range(1000):
                r_world_fwd = long_hand_yaw_pitch_roll(gimbal[k])
                if camera.gimbal_frame == "body":
                    r_world_fwd = long_hand_yaw_pitch_roll(body[k]) @ r_world_fwd
                assert_allclose(r[k], perm @ r_world_fwd.T, rtol=0.0, atol=1e-15)


class TestRayPlane:
    """ray_plane_hits, the depth-plane kernel of the recovery."""

    def test_axis_aligned_intersection(self):
        direction = np.array([0.0, 0.0, 1.0])
        d, _ = ray_plane_hits(direction, np.array([0.0, 0.0, 1.0]), 10.0)
        assert_allclose(direction * d, [0.0, 0.0, 10.0])
        assert d == pytest.approx(10.0)

    def test_oblique_ray_similar_triangles(self):
        direction = np.array([0.5, 0.0, 1.0])
        d, _ = ray_plane_hits(direction, np.array([0.0, 0.0, 1.0]), 10.0)
        assert_allclose(direction * d, [5.0, 0.0, 10.0])
        assert d == pytest.approx(10.0)

    def test_parallel_ray_raises(self):
        d, conditioning = ray_plane_hits(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), 10.0)
        assert conditioning <= PARALLEL_EPS
        assert not np.isfinite(d)

    def test_intersection_behind_origin_raises(self):
        d, _ = ray_plane_hits(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]), -4.0)
        assert d <= 0.0

    def test_point_satisfies_plane_equation(self):
        rng = np.random.default_rng(8)
        count = 0
        while count < 200:
            direction = rng.uniform(-1.0, 1.0, 3)
            normal = rng.uniform(-1.0, 1.0, 3)
            if np.linalg.norm(direction) < 0.1 or np.linalg.norm(normal) < 0.1:
                continue
            normal /= np.linalg.norm(normal)
            plane_point = rng.uniform(-20.0, 20.0, 3)
            origin = rng.uniform(-5.0, 5.0, 3)
            d, cosine = ray_plane_hits(direction, normal, (plane_point - origin) @ normal)
            if cosine < 1e-3 or d <= 0.0:
                continue
            point = origin + direction * d
            assert abs((point - plane_point) @ normal) < 1e-9
            count += 1

    def test_result_invariant_to_plane_anchor(self):
        # moving the anchor within the plane leaves the hit unchanged
        rng = np.random.default_rng(9)
        normal = np.array([0.2, -0.3, 0.93])
        normal /= np.linalg.norm(normal)
        anchor = np.array([1.0, 2.0, 12.0])
        direction = np.array([0.1, 0.2, 1.0])
        d, _ = ray_plane_hits(direction, normal, anchor @ normal)
        for _ in range(20):
            shift = rng.uniform(-5.0, 5.0, 3)
            shift -= (shift @ normal) * normal  # keep it in-plane
            d2, _ = ray_plane_hits(direction, normal, (anchor + shift) @ normal)
            assert_allclose(direction * d2, direction * d, atol=1e-9)
            assert d2 == pytest.approx(d, abs=1e-9)

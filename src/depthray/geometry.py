"""3D primitives: passive rotations and the depth-plane kernel.

All rotation matrices follow the passive convention: R expresses the
coordinates of a fixed point in a rotated frame, so rot_z(pi/2) maps
(1, 0, 0) to (0, -1, 0). yaw_pitch_roll_matrix, in closed form, builds
them all from a scalar angle or an array of angles: one matrix or a stack
of shape (..., 3, 3). `rotate` applies a stack to points column by column.
"""

import math

import numpy as np

# A ray whose conditioning (see ray_plane_hits) is at or below this is
# parallel to its plane.
PARALLEL_EPS = 1e-12

# Axis permutation from a forward/right/down mount frame into the camera
# frame (x right, y down, z along the optical axis): camera axis i is mount
# axis CAM_AXES[i], so X->Z, Y->X, Z->Y.
CAM_AXES = [1, 2, 0]


def wrap_angle(a):
    """Wrap angles into (-pi, pi], elementwise.

    fmod and the one correcting step of tau are both exact, so the result
    is the exact residue of `a`, the same as math.remainder's.
    """
    a = np.fmod(a, math.tau)
    a = np.where(a > math.pi, a - math.tau, a)
    return np.where(a <= -math.pi, a + math.tau, a)


def yaw_pitch_roll_matrix(angles) -> np.ndarray:
    """Rz(yaw) Ry(pitch) Rx(roll) of the passive elementary rotations.

    `angles` is an (..., 3) array of yaw, pitch, roll in radians. Maps
    coordinates from the rotated frame back to the reference frame; the
    same composition serves gimbal-to-world and body-to-world. The nine
    entries are closed-form products of the six sines and cosines.
    """
    angles = np.asarray(angles, dtype=float)
    cy, cp, cr = np.moveaxis(np.cos(angles), -1, 0)
    sy, sp, sr = np.moveaxis(np.sin(angles), -1, 0)
    cs, ss = cy * sp, sy * sp
    r = np.array([
        [cy * cp, sy * cr + cs * sr, sy * sr - cs * cr],
        [-sy * cp, cy * cr - ss * sr, cy * sr + ss * cr],
        [sp, -cp * sr, cp * cr],
    ])
    return np.moveaxis(r, (0, 1), (-2, -1))


def _elementary(angle, axis: int) -> np.ndarray:
    angle = np.asarray(angle, dtype=float)
    angles = np.zeros(angle.shape + (3,))
    angles[..., axis] = angle
    return yaw_pitch_roll_matrix(angles)


def rot_x(angle) -> np.ndarray:
    """Passive elementary rotation about the x axis."""
    return _elementary(angle, 2)


def rot_y(angle) -> np.ndarray:
    """Passive elementary rotation about the y axis."""
    return _elementary(angle, 1)


def rot_z(angle) -> np.ndarray:
    """Passive elementary rotation about the z axis."""
    return _elementary(angle, 0)


def _dot(a, b):
    """Dot products over the last axis of (..., 3) arrays, summed in index order."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def rotate(r, p) -> np.ndarray:
    """r @ p for stacked rotations r (..., 3, 3) and points p (..., 3),
    summed column by column, without a per-row matrix product."""
    return _dot(r, np.asarray(p, dtype=float)[..., None, :])


def ray_plane_hits(direction, normal, offset):
    """Scale along rays from the frame origin to their planes, stacked.

    direction, normal: (..., 3); offset: (...,) signed distance of each
    plane along its unit normal, (p0 - l0) . n. Returns (d, conditioning)
    with d = offset / (l . n), so the hit is direction * d, and
    conditioning = |l . n| / |l|. Parallel rays give a non-finite d.
    """
    ln = _dot(direction, normal)
    conditioning = np.abs(ln) / np.sqrt(_dot(direction, direction))
    with np.errstate(divide="ignore", invalid="ignore"):
        return offset / ln, conditioning


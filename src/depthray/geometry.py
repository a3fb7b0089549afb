"""3D primitives: passive rotations and the depth-plane kernel.

All rotation matrices follow the passive convention: R expresses the
coordinates of a fixed point in a rotated frame, so rot_z(pi/2) maps
(1, 0, 0) to (0, -1, 0). Every builder accepts a scalar angle or an
array of angles and returns one matrix or a stack of shape (..., 3, 3).
"""

import math

import numpy as np

# A ray whose conditioning (see ray_plane_hits) is at or below this is
# parallel to its plane.
PARALLEL_EPS = 1e-12

# Axis permutation from a forward/right/down mount frame into the camera
# frame (x right, y down, z along the optical axis): X->Z, Y->X, Z->Y.
CAM_FROM_FORWARD = np.array(
    [
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
    ]
)


def wrap_angle(a):
    """Wrap angles into (-pi, pi], elementwise.

    fmod and the one correcting step of tau are both exact, so the result
    is the exact residue of `a`, the same as math.remainder's.
    """
    a = np.fmod(a, math.tau)
    a = np.where(a > math.pi, a - math.tau, a)
    return np.where(a <= -math.pi, a + math.tau, a)


def _rotation(angle, axis: int) -> np.ndarray:
    """Passive rotation about coordinate axis 0, 1 or 2, stacked over angles."""
    angle = np.asarray(angle, dtype=float)
    c, s = np.cos(angle), np.sin(angle)
    i, j = ((1, 2), (2, 0), (0, 1))[axis]
    r = np.zeros(angle.shape + (3, 3))
    r[..., axis, axis] = 1.0
    r[..., i, i] = r[..., j, j] = c
    r[..., i, j] = s
    r[..., j, i] = -s
    return r


def rot_x(angle) -> np.ndarray:
    """Passive elementary rotation about the x axis."""
    return _rotation(angle, 0)


def rot_y(angle) -> np.ndarray:
    """Passive elementary rotation about the y axis."""
    return _rotation(angle, 1)


def rot_z(angle) -> np.ndarray:
    """Passive elementary rotation about the z axis."""
    return _rotation(angle, 2)


def yaw_pitch_roll_matrix(angles) -> np.ndarray:
    """Compose Rz(yaw) Ry(pitch) Rx(roll) from passive elementary rotations.

    `angles` is an (..., 3) array of yaw, pitch, roll in radians. Maps
    coordinates from the rotated frame back to the reference frame; the
    same composition serves gimbal-to-world and body-to-world.
    """
    yaw, pitch, roll = np.moveaxis(np.asarray(angles, dtype=float), -1, 0)
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


def ray_plane_hits(direction, normal, offset):
    """Scale along rays from the frame origin to their planes, stacked.

    direction, normal: (..., 3); offset: (...,) signed distance of each
    plane along its unit normal, (p0 - l0) . n. Returns (d, conditioning)
    with d = offset / (l . n), so the hit is direction * d, and
    conditioning = |l . n| / |l|. Parallel rays give a non-finite d.
    """
    ln = np.sum(direction * normal, axis=-1)
    conditioning = np.abs(ln) / np.sqrt(np.sum(direction * direction, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return offset / ln, conditioning


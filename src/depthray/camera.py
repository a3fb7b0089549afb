"""Pinhole projection and radial-tangential lens distortion.

Pixel coordinates (u, v), u rightward and v downward, relate to
normalized camera coordinates (x, y) = (X/Z, Y/Z) through the focal
lengths and principal point:

    u = fx * x + cx
    v = fy * y + cy

Lens distortion follows the standard five-coefficient Brown-Conrady
model (three radial terms k1..k3, two tangential terms p1, p2) applied
in normalized coordinates. Every function takes a point as two
arguments, (u, v) or (x, y), each a scalar or an equal-shaped array,
acts elementwise and returns a plain tuple. A pixel may lie outside the
image bounds: trackers report near-edge or overshooting boxes.
"""

import math
from dataclasses import dataclass

import numpy as np

UNDISTORT_MAX_ITER = 50
UNDISTORT_TOL = 1e-10


@dataclass(frozen=True)
class CameraIntrinsics:
    """Focal lengths and principal point, all in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    image_width: int
    image_height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if not (0 <= self.cx < self.image_width and 0 <= self.cy < self.image_height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside image "
                f"{self.image_width}x{self.image_height}"
            )

    def contains(self, u, v):
        """True where the pixel (u, v) falls inside the image bounds."""
        return (0 <= u) & (u < self.image_width) & (0 <= v) & (v < self.image_height)


@dataclass(frozen=True)
class DistortionCoeffs:
    """Radial (k1, k2, k3) and tangential (p1, p2) coefficients."""

    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0
    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self):
        for name in ("k1", "k2", "k3", "p1", "p2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"distortion coefficient {name} must be finite")

    def is_zero(self) -> bool:
        return self.k1 == self.k2 == self.k3 == self.p1 == self.p2 == 0.0


def normalized_to_pixel(x, y, intr: CameraIntrinsics):
    """Scale normalized coordinates (x, y) into pixels (u, v)."""
    return intr.fx * x + intr.cx, intr.fy * y + intr.cy


def pixel_to_normalized(u, v, intr: CameraIntrinsics):
    """Invert the intrinsic scaling, pixels (u, v) to normalized (x, y)."""
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValueError(f"non-finite pixel coordinate ({u}, {v})")
    return (u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy


def distort(x, y, d: DistortionCoeffs):
    """Apply Brown-Conrady distortion to ideal normalized points (x, y)."""
    r2 = x * x + y * y
    radial = 1.0 + r2 * (d.k1 + r2 * (d.k2 + r2 * d.k3))
    xd = x * radial + 2.0 * d.p1 * x * y + d.p2 * (r2 + 2.0 * x * x)
    yd = y * radial + d.p1 * (r2 + 2.0 * y * y) + 2.0 * d.p2 * x * y
    return xd, yd


def _distortion_jacobian(x, y, d):
    """Partial derivatives of the distorted point w.r.t. (x, y)."""
    r2 = x * x + y * y
    radial = 1.0 + r2 * (d.k1 + r2 * (d.k2 + r2 * d.k3))
    # derivative of the radial factor w.r.t. r2
    dr = d.k1 + r2 * (2.0 * d.k2 + r2 * 3.0 * d.k3)
    jxx = radial + 2.0 * x * x * dr + 2.0 * d.p1 * y + 6.0 * d.p2 * x
    jxy = 2.0 * x * y * dr + 2.0 * d.p1 * x + 2.0 * d.p2 * y
    jyy = radial + 2.0 * y * y * dr + 6.0 * d.p1 * y + 2.0 * d.p2 * x
    return jxx, jxy, jxy, jyy


def undistort(x_d, y_d, d: DistortionCoeffs):
    """Invert the distortion model for distorted points (x_d, y_d), elementwise.

    Starts at the distorted point and iterates a damped Newton update on
    the residual distort(x, y) - (x_d, y_d) until its max-norm drops
    below UNDISTORT_TOL. A plain fixed-point update is not contractive for
    strong distortion near the edge of the field, so each step solves the
    2x2 distortion Jacobian and backtracks when the residual would grow.
    Each point is frozen once its residual is below UNDISTORT_TOL, so it
    follows the same iterates as it would alone.

    Returns ((x, y), converged): the undistorted points and a boolean
    array that is False where a point did not converge: its residual was
    still above UNDISTORT_TOL after UNDISTORT_MAX_ITER iterations, or its
    iterate escaped the model's invertible region around the input. Those
    points hold their last iterate.
    """
    shape = np.shape(x_d)
    xd = np.asarray(x_d, dtype=float).reshape(-1)
    yd = np.asarray(y_d, dtype=float).reshape(-1)
    if d.is_zero():
        return (xd.reshape(shape), yd.reshape(shape)), np.ones(shape, dtype=bool)

    x, y = xd.copy(), yd.copy()
    fx, fy = distort(x, y, d)
    rx, ry = fx - xd, fy - yd
    res = np.maximum(np.abs(rx), np.abs(ry))
    escaped = np.zeros(xd.shape, dtype=bool)
    # iterates wandering far outside the input radius have left the
    # invertible region; any root found there is on a folded sheet
    bound = 4.0 * (1.0 + np.hypot(xd, yd))
    for _ in range(UNDISTORT_MAX_ITER):
        live = np.flatnonzero(~(res < UNDISTORT_TOL) & ~escaped)
        if live.size == 0:
            break
        xl, yl, rxl, ryl, start_res = x[live], y[live], rx[live], ry[live], res[live]
        jxx, jxy, jyx, jyy = _distortion_jacobian(xl, yl, d)
        det = jxx * jyy - jxy * jyx
        solvable = np.abs(det) > 1e-14
        det = np.where(solvable, det, 1.0)
        # fall back to the undamped fixed-point step where J is singular
        sx = np.where(solvable, (jyy * rxl - jxy * ryl) / det, rxl)
        sy = np.where(solvable, (-jyx * rxl + jxx * ryl) / det, ryl)
        # halve the step until the residual shrinks; every point still
        # searching has been halved the same number of times
        lam, search = 1.0, np.arange(live.size)
        while search.size:
            k = live[search]
            x[k] = xl[search] - lam * sx[search]
            y[k] = yl[search] - lam * sy[search]
            fx, fy = distort(x[k], y[k], d)
            rx[k], ry[k] = fx - xd[k], fy - yd[k]
            res[k] = np.maximum(np.abs(rx[k]), np.abs(ry[k]))
            if lam < 1.0 / 64.0:
                break
            search = search[~(res[k] < start_res[search])]
            lam *= 0.5
        escaped[live] = np.hypot(x[live], y[live]) > bound[live]
    converged = (res < UNDISTORT_TOL) & ~escaped
    return (x.reshape(shape), y.reshape(shape)), converged.reshape(shape)


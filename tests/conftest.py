"""Shared helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from depthray import io
from depthray.camera import CameraIntrinsics, DistortionCoeffs
from depthray.geodesy import WGS84
from depthray.recovery import Camera

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run,
# and more of them for the properties that leave max_examples unset
settings.register_profile("ci", derandomize=True, max_examples=500)


@pytest.fixture
def intrinsics():
    """1920x1080 camera with square 1000 px focal length."""
    return CameraIntrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0,
                            image_width=1920, image_height=1080)


# the intrinsics fixture's lens without distortion, on a world gimbal without
# offset: a camera for camera_pose and camera_rotation, which read only the mount
CAMERA = Camera(CameraIntrinsics(1000.0, 1000.0, 960.0, 540.0, 1920, 1080))


def bowring_oracle(x, y, z, ell=WGS84, iterations=20):
    """Independent iterative geodetic solver: fixed point on the
    parametric latitude, kept free of the library's closed-form path.
    """
    a, b = ell.r_e, ell.r_p
    e2 = (a * a - b * b) / (a * a)
    ep2 = (a * a - b * b) / (b * b)
    p = np.hypot(x, y)
    beta = np.arctan2(a * z, b * p)
    lat = np.arctan2(z, (1 - e2) * p)
    for _ in range(iterations):
        lat = np.arctan2(z + ep2 * b * np.sin(beta) ** 3, p - e2 * a * np.cos(beta) ** 3)
        beta = np.arctan2(b * np.sin(lat), a * np.cos(lat))
    n = a / np.sqrt(1 - e2 * np.sin(lat) ** 2)
    h = np.where(
        np.abs(lat) <= np.pi / 4,
        p / np.cos(lat) - n,
        z / np.sin(lat) - (1 - e2) * n,
    )
    return lat, np.arctan2(y, x), h


def assert_columns_equal(a, b):
    """Two column mappings hold the same names, in the same order, and equal columns."""
    assert list(a) == list(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def read_observation_log(path) -> dict:
    """A whole observation log as one column dict, joined from the blocks
    io.read_observation_blocks reads."""
    blocks = [columns for _, columns in io.read_observation_blocks(path)]
    return {name: np.concatenate([block[name] for block in blocks])
            for name in io.OBSERVATION_COLUMNS}


def geodetic_deg(lat_deg, lon_deg, h):
    """Geodetic points (..., 3) from latitudes and longitudes in degrees."""
    return np.stack([np.radians(lat_deg), np.radians(lon_deg), np.asarray(h, dtype=float)], axis=-1)


def random_geodetic(rng, n, h_low=-100.0, h_high=10000.0):
    lat = np.arcsin(rng.uniform(-1.0, 1.0, n))  # area-uniform on the sphere
    lon = rng.uniform(-np.pi, np.pi, n)
    h = rng.uniform(h_low, h_high, n)
    return np.stack([lat, lon, h], axis=-1)


def radial_slope(d: DistortionCoeffs, rho: np.ndarray) -> np.ndarray:
    """Derivative of rho * radial_factor(rho^2) w.r.t. rho.

    Positive slope over [0, r] means the radial profile is strictly
    increasing there, i.e. the distortion is invertible along that path.
    """
    r2 = rho * rho
    return 1.0 + r2 * (3.0 * d.k1 + r2 * (5.0 * d.k2 + r2 * 7.0 * d.k3))


def invertible(d: DistortionCoeffs, r_max: float, margin: float = 0.05) -> bool:
    """True when the radial profile keeps a positive slope up to r_max.

    Round-trip guarantees only hold inside the invertible region of the
    model; folded profiles map distinct points to the same image.
    """
    rho = np.linspace(0.0, r_max, 64)
    return bool(np.min(radial_slope(d, rho)) > margin)


def sample_invertible_distortion(rng, k_max: float, p_max: float, r_max: float) -> DistortionCoeffs:
    """Draw distortion coefficients until the model is invertible to r_max."""
    while True:
        d = DistortionCoeffs(
            k1=rng.uniform(-k_max, k_max),
            k2=rng.uniform(-k_max, k_max),
            k3=rng.uniform(-k_max, k_max),
            p1=rng.uniform(-p_max, p_max),
            p2=rng.uniform(-p_max, p_max),
        )
        if invertible(d, r_max):
            return d

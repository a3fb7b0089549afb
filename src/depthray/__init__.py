"""Recover 3D and geodetic positions of a submerged vehicle from
aerial pixel tracks fused with altitude, attitude and depth readings.
"""

from .camera import (
    CameraIntrinsics,
    DistortionCoeffs,
    distort,
    normalized_to_pixel,
    pixel_to_normalized,
    undistort,
)
from .evaluate import (
    enu_to_ground_truth,
    match_sorted,
    rescale_grid_point,
    trajectory_errors,
)
from .geodesy import (
    WGS84,
    Ellipsoid,
    ecef_to_geodetic,
    enu_to_ecef,
    geodetic_to_ecef,
)
from .recovery import Camera, camera_pose, camera_rotation, recover_batch
from .synth import NoiseSpec, Scenario, generate_logs

__all__ = [
    "CameraIntrinsics",
    "DistortionCoeffs",
    "distort",
    "normalized_to_pixel",
    "pixel_to_normalized",
    "undistort",
    "enu_to_ground_truth",
    "match_sorted",
    "rescale_grid_point",
    "trajectory_errors",
    "WGS84",
    "Ellipsoid",
    "ecef_to_geodetic",
    "enu_to_ecef",
    "geodetic_to_ecef",
    "Camera",
    "camera_pose",
    "camera_rotation",
    "recover_batch",
    "NoiseSpec",
    "Scenario",
    "generate_logs",
]

__version__ = "0.1.0"

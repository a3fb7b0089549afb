"""Recover 3D and geodetic positions of a submerged vehicle from
aerial pixel tracks fused with altitude, attitude and depth readings.
"""

from .camera import (
    CameraIntrinsics,
    DistortionCoeffs,
    NormalizedCoord,
    PixelCoord,
    distort,
    normalized_to_pixel,
    pixel_to_normalized,
    undistort,
)
from .evaluate import (
    GroundTruthFrame,
    enu_to_ground_truth,
    rescale_grid_point,
    time_sync,
    trajectory_errors,
)
from .geodesy import (
    WGS84,
    Ellipsoid,
    GeodeticCoord,
    ecef_to_geodetic,
    enu_to_ecef,
    geodetic_to_ecef,
    prime_vertical_radius,
)
from .geometry import EulerAngles, rot_x, rot_y, rot_z
from .recovery import RigConfig, camera_rotation, recover_batch
from .synth import NoiseSpec, Scenario, generate_logs
from .table import Table

__all__ = [
    "CameraIntrinsics",
    "DistortionCoeffs",
    "NormalizedCoord",
    "PixelCoord",
    "distort",
    "normalized_to_pixel",
    "pixel_to_normalized",
    "undistort",
    "GroundTruthFrame",
    "enu_to_ground_truth",
    "rescale_grid_point",
    "time_sync",
    "trajectory_errors",
    "WGS84",
    "Ellipsoid",
    "GeodeticCoord",
    "ecef_to_geodetic",
    "enu_to_ecef",
    "geodetic_to_ecef",
    "prime_vertical_radius",
    "EulerAngles",
    "rot_x",
    "rot_y",
    "rot_z",
    "RigConfig",
    "camera_rotation",
    "recover_batch",
    "NoiseSpec",
    "Scenario",
    "generate_logs",
    "Table",
]

__version__ = "0.1.0"

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
    undistort_batch,
)
from .evaluate import (
    GroundTruthFrame,
    TrajectoryErrorReport,
    enu_to_ground_truth,
    rescale_grid_point,
    time_sync,
    trajectory_errors,
)
from .geodesy import (
    WGS84,
    EcefCoord,
    Ellipsoid,
    GeodeticCoord,
    ecef_to_geodetic,
    enu_to_ecef,
    geodetic_to_ecef,
    prime_vertical_radius,
)
from .geometry import (
    EulerAngles,
    Plane,
    Ray,
    gimbal_to_camera_rotation,
    intersect_ray_plane,
    rot_x,
    rot_y,
    rot_z,
)
from .recovery import (
    CameraFramePoint,
    EnuPoint,
    Observation,
    RigConfig,
    build_plane,
    camera_to_uav_enu,
    recover_batch,
    recover_camera_frame,
    recover_uav_enu,
)
from .synth import NoiseSpec, Scenario, build_scenario, generate_logs, project_point
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
    "undistort_batch",
    "GroundTruthFrame",
    "TrajectoryErrorReport",
    "enu_to_ground_truth",
    "rescale_grid_point",
    "time_sync",
    "trajectory_errors",
    "WGS84",
    "EcefCoord",
    "Ellipsoid",
    "GeodeticCoord",
    "ecef_to_geodetic",
    "enu_to_ecef",
    "geodetic_to_ecef",
    "prime_vertical_radius",
    "EulerAngles",
    "Plane",
    "Ray",
    "gimbal_to_camera_rotation",
    "intersect_ray_plane",
    "rot_x",
    "rot_y",
    "rot_z",
    "CameraFramePoint",
    "EnuPoint",
    "Observation",
    "RigConfig",
    "build_plane",
    "camera_to_uav_enu",
    "recover_batch",
    "recover_camera_frame",
    "recover_uav_enu",
    "NoiseSpec",
    "Scenario",
    "build_scenario",
    "generate_logs",
    "project_point",
    "Table",
]

__version__ = "0.1.0"

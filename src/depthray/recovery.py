"""The camera model, and recovery of a submerged target from one aerial view.

The altitude of the camera above the water and the target's pressure
depth fix a horizontal plane `plane_depth` below the camera. `cast`
sends the undistorted pixel ray onto it, which resolves the scale
ambiguity of the single view; `project` maps a point in {G} back to its
pixel. Both take the rotation of `camera_rotation`, the one rotation
builder, and the simulator calls the same functions.

`recover_batch` runs the chain on columns of observations, on to {D}
(`camera_to_body`) and geodetic fixes. Every row is recovered on its own,
so any split of a log into blocks gives the same rows; `recover` feeds
it one CSV block at a time.

Frames:
    {G}  ENU with origin at the camera optical center, z up.
    {C}  camera frame, x right, y down, z along the optical axis.
    {D}  ENU fixed to the UAV body (same axes as {G}, origin at the body).
"""

from dataclasses import dataclass, field

import numpy as np

from .camera import (
    NormalizedCoord,
    PixelCoord,
    distort,
    normalized_to_pixel,
    pixel_to_normalized,
    undistort,
)
from .geodesy import GeodeticCoord, ecef_to_geodetic, enu_to_ecef
from .geometry import (
    CAM_FROM_FORWARD,
    PARALLEL_EPS,
    as_angles,
    ray_plane_hits,
    wrap_angle,
    yaw_pitch_roll_matrix,
)
from .table import Table

# Rays meeting the depth plane shallower than this (normalized inner
# product) produce fixes too noisy to aggregate.
CONDITIONING_MIN = 1e-3

GIMBAL_FRAMES = ("world", "body")

# Per-row outcome codes; REASONS[code] is the name written to the
# exclusions sidecar. A row with more than one fault gets the first in
# this order.
RECOVERED = 0
NO_ORIGIN_MATCH = 1
DEGENERATE = 2
UNDISTORT_NONCONVERGENCE = 3
PARALLEL_RAY = 4
ILL_CONDITIONED = 5
BEHIND_CAMERA = 6
REASONS = (
    "",
    "no_origin_match",
    "degenerate",
    "undistort_nonconvergence",
    "parallel_ray",
    "ill_conditioned",
    "behind_camera",
)

# Observation log and trajectory schemas, in file column order.
OBSERVATION_COLUMNS = [
    "t",
    "u",
    "v",
    "a_uav",
    "d_uuv",
    "gimbal_yaw_deg",
    "gimbal_pitch_deg",
    "gimbal_roll_deg",
    "body_yaw_deg",
    "body_pitch_deg",
    "body_roll_deg",
    "ref_lat_deg",
    "ref_lon_deg",
    "ref_alt_m",
]

TRAJECTORY_COLUMNS = [
    "t",
    "cam_x",
    "cam_y",
    "cam_z",
    "enu_x",
    "enu_y",
    "enu_z",
    "lat_deg",
    "lon_deg",
    "alt_m",
    "flags",
]


@dataclass(frozen=True)
class RigConfig:
    """Mounting geometry and telemetry conventions of the camera rig.

    cam_offset is the camera position in the UAV body frame with z up,
    so a camera hanging 0.2 m below the body is (0, 0, -0.2).
    gimbal_frame selects whether gimbal angles are reported against the
    world ENU frame or against the body; gimbal_pitch_sign absorbs
    vendors that report nadir as +90 instead of -90 degrees.
    """

    cam_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gimbal_pitch_sign: int = 1
    gimbal_frame: str = "world"

    def __post_init__(self):
        offset = np.asarray(self.cam_offset, dtype=float)
        if offset.shape != (3,):
            raise ValueError("cam_offset must be a 3-vector")
        if not np.linalg.norm(offset) < 10.0:
            raise ValueError("cam_offset exceeds the 10 m sanity bound")
        # a bool is an int equal to 1 or 0, but not a pitch sign
        if isinstance(self.gimbal_pitch_sign, bool) or self.gimbal_pitch_sign not in (1, -1):
            raise ValueError("gimbal_pitch_sign must be +1 or -1")
        if self.gimbal_frame not in GIMBAL_FRAMES:
            raise ValueError(f"gimbal_frame must be one of {GIMBAL_FRAMES}")
        object.__setattr__(self, "cam_offset", offset)
        object.__setattr__(self, "gimbal_pitch_sign", int(self.gimbal_pitch_sign))


def camera_rotation(gimbal, body, rig: RigConfig) -> np.ndarray:
    """Rotation from {G} into {C} for one observation, or a stack.

    gimbal, body: EulerAngles, or (..., 3) arrays of wrapped yaw, pitch,
    roll in radians. The gimbal angles (composed after the body attitude
    when they are body-referenced) orient a forward/right/down frame whose
    x axis is the optical axis; CAM_FROM_FORWARD permutes it into {C}.
    """
    gimbal = as_angles(gimbal)
    if rig.gimbal_pitch_sign != 1:
        gimbal = gimbal.copy()
        gimbal[..., 1] = wrap_angle(rig.gimbal_pitch_sign * gimbal[..., 1])
    r_world_fwd = yaw_pitch_roll_matrix(gimbal)
    if rig.gimbal_frame == "body":
        r_world_fwd = yaw_pitch_roll_matrix(body) @ r_world_fwd
    return CAM_FROM_FORWARD @ np.swapaxes(r_world_fwd, -1, -2)


def plane_depth(a_uav, d_uuv, rig: RigConfig):
    """Depth-plane distance below the camera: a_uav + cam_offset_z + d_uuv."""
    return a_uav + float(rig.cam_offset[2]) + d_uuv


def cast(u, v, depth, r_cw, intr, dist):
    """Cast stacked pixels onto the planes `depth` below the camera.

    Each pixel is undistorted into a unit-plane ray l = (x, y, 1); in {C}
    the plane's normal is R e_z, so the hit is l * s, s = -depth / (R e_z) . l.
    Returns (p_c, codes): camera-frame points (n, 3) and a reason code per
    row (RECOVERED where the fix is usable).
    """
    (x, y), converged = undistort(pixel_to_normalized(PixelCoord(u, v), intr), dist)
    ray = np.stack([x, y, np.ones_like(x)], axis=-1)
    s, conditioning = ray_plane_hits(ray, r_cw[..., :, 2], -depth)
    codes = np.select(
        [
            ~converged,
            ~(depth > 0),
            conditioning <= PARALLEL_EPS,
            conditioning < CONDITIONING_MIN,
            s <= 0.0,
        ],
        [UNDISTORT_NONCONVERGENCE, DEGENERATE, PARALLEL_RAY, ILL_CONDITIONED, BEHIND_CAMERA],
        RECOVERED,
    )
    with np.errstate(invalid="ignore"):  # parallel rays: 0 * inf
        return ray * s[:, None], codes


def project(p_g, r_cw, intr, dist):
    """The inverse of `cast`: (n, 3) points in {G} to pixels (u, v) and
    camera-frame depths z, by rotation, perspective division, distortion
    and scaling. A point at or behind the camera gets a non-finite pixel;
    callers reject it by z.
    """
    p_c = (r_cw @ p_g[..., None])[..., 0]
    x, y, z = p_c[:, 0], p_c[:, 1], p_c[:, 2]
    with np.errstate(all="ignore"):
        u, v = normalized_to_pixel(distort(NormalizedCoord(x / z, y / z), dist), intr)
    return u, v, z


def camera_to_body(p_g, body, rig: RigConfig):
    """Stacked points from {G} to {D}: p_D = p_G + R_body o, o the camera offset."""
    return p_g + yaw_pitch_roll_matrix(body) @ rig.cam_offset


def _degrees_to_angles(columns, prefix):
    return wrap_angle(np.radians(np.stack(
        [columns[f"{prefix}_yaw_deg"], columns[f"{prefix}_pitch_deg"], columns[f"{prefix}_roll_deg"]],
        axis=-1,
    )))


def recover_batch(columns, config) -> tuple[Table, np.ndarray]:
    """Recover every observation row, column by column.

    columns: mapping from OBSERVATION_COLUMNS (angles in degrees) to
    equal-length arrays, such as the table io.read_observations returns.
    config: a run configuration with intrinsics, distortion, rig,
    ellipsoid and altitude_datum_offset.

    Returns the trajectory table (TRAJECTORY_COLUMNS) of the recovered
    rows, in input order, and an int8 reason code per input row:
    RECOVERED, or why the row was excluded (REASONS names the codes).
    The intermediate arrays grow with the rows passed in; `recover`
    passes one CSV block at a time.
    """
    intr = config.intrinsics
    a_uav = columns["a_uav"] + config.altitude_datum_offset
    lat = np.radians(columns["ref_lat_deg"])
    # a row with a non-finite reading, no altitude above the datum, a
    # negative depth, a latitude beyond the poles, or an altitude, depth or
    # reference height over 100 km (where geodesy warns) is degenerate
    valid = np.all([np.isfinite(columns[k]) for k in OBSERVATION_COLUMNS[1:]], axis=0)
    valid &= np.isfinite(a_uav) & (a_uav > 0) & (columns["d_uuv"] >= 0)
    valid &= np.abs(lat) <= np.pi / 2 + 1e-12
    valid &= np.max(np.abs([a_uav, columns["d_uuv"], columns["ref_alt_m"]]), axis=0) <= 1e5
    rows = np.flatnonzero(valid)
    u, v, body = columns["u"][rows], columns["v"][rows], _degrees_to_angles(columns, "body")[rows]
    r_cw = camera_rotation(_degrees_to_angles(columns, "gimbal")[rows], body, config.rig)
    depth = plane_depth(a_uav[rows], columns["d_uuv"][rows], config.rig)
    p_c, hit_codes = cast(u, v, depth, r_cw, intr, config.distortion)
    codes = np.full(len(valid), DEGENERATE, dtype=np.int8)
    codes[rows] = hit_codes
    ok = hit_codes == RECOVERED
    rows, u, v, p_c = rows[ok], u[ok], v[ok], p_c[ok]
    p_g = (np.swapaxes(r_cw[ok], -1, -2) @ p_c[..., None])[..., 0]
    p_d = camera_to_body(p_g, body[ok], config.rig)
    ref = GeodeticCoord(lat[rows], np.radians(columns["ref_lon_deg"][rows]), columns["ref_alt_m"][rows])
    geo = ecef_to_geodetic(enu_to_ecef(p_d, ref, config.ellipsoid), config.ellipsoid)
    return Table({
        "t": columns["t"][rows],
        "cam_x": p_c[:, 0], "cam_y": p_c[:, 1], "cam_z": p_c[:, 2],
        "enu_x": p_d[:, 0], "enu_y": p_d[:, 1], "enu_z": p_d[:, 2],
        "lat_deg": np.degrees(geo.lat), "lon_deg": np.degrees(geo.lon), "alt_m": geo.h,
        "flags": np.where(intr.contains(PixelCoord(u, v)), "", "out_of_frame"),
    }), codes

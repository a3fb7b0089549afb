"""The camera model, and recovery of a submerged target from one aerial view.

`Camera` is the one camera of `simulate` and `recover`: intrinsics,
distortion and mount, passed as one value to each function below.
`camera_pose` is the one pose of the camera, shared by `recover_batch`
and the simulator: from the angles (radians) it builds the body rotation
once, the camera rotation of `camera_rotation`, the camera's position c
in {D} (the offset rotated by the body), and the depth of the horizontal
plane a_uav + c_z + d_uuv below the camera. `cast` sends the undistorted
pixel ray onto that plane, which resolves the scale ambiguity of the
single view; `project` maps a point in {G} back to its pixel.

`recover_batch` runs the chain on columns of observations, on to {D}
(p_G + c) and geodetic fixes, applying rotations as column sums
(`geometry.rotate`), with no per-row matrix product.
Every row is recovered on its own, so any split of a log into blocks
gives the same rows; `recover` feeds it one CSV block at a time.

Frames:
    {G}  ENU with origin at the camera optical center, z up.
    {C}  camera frame, x right, y down, z along the optical axis.
    {D}  ENU fixed to the UAV body (same axes as {G}, origin at the body).
"""

from dataclasses import dataclass, field

import numpy as np

from .camera import (
    CameraIntrinsics,
    DistortionCoeffs,
    distort,
    normalized_to_pixel,
    pixel_to_normalized,
    undistort,
)
from .geodesy import ecef_to_geodetic, enu_to_ecef
from .geometry import (
    CAM_AXES,
    PARALLEL_EPS,
    ray_plane_hits,
    rotate,
    wrap_angle,
    yaw_pitch_roll_matrix,
)

# Rays meeting the depth plane shallower than this (normalized inner
# product) produce fixes too noisy to aggregate.
CONDITIONING_MIN = 1e-3

GIMBAL_FRAMES = ("world", "body")

# Per-row outcome codes; REASONS[code] is the name written to the
# exclusions sidecar. A row with more than one fault gets one reason, the
# first that applies of: no_origin_match (`recover` with an origin track),
# degenerate for an unusable reading, then `cast`'s order:
# undistort_nonconvergence, degenerate for a camera at or below the depth
# plane, parallel_ray, ill_conditioned, behind_camera.
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
class Camera:
    """The camera of `simulate` and `recover`: its lens and its mount.

    intrinsics and distortion map normalized rays to pixels. cam_offset
    is the camera position o in the UAV body frame with z up, so a
    camera hanging 0.2 m below the body is (0, 0, -0.2); on a tilted
    body the camera's height above the body is (R_body o)_z.
    gimbal_frame selects whether gimbal angles are reported against the
    world ENU frame or against the body; gimbal_pitch_sign absorbs
    vendors that report nadir as +90 instead of -90 degrees.
    """

    intrinsics: CameraIntrinsics
    distortion: DistortionCoeffs = DistortionCoeffs()
    cam_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gimbal_pitch_sign: int = 1
    gimbal_frame: str = "world"

    def __post_init__(self):
        offset = np.array(self.cam_offset, dtype=float)  # a copy the caller cannot change
        if offset.shape != (3,):
            raise ValueError("cam_offset must be a 3-vector")
        if not np.all(np.isfinite(offset)):
            raise ValueError("cam_offset must be finite")
        if not np.linalg.norm(offset) < 10.0:
            raise ValueError("cam_offset exceeds the 10 m sanity bound")
        offset.flags.writeable = False
        # a bool is an int equal to 1 or 0, but not a pitch sign
        if isinstance(self.gimbal_pitch_sign, bool) or self.gimbal_pitch_sign not in (1, -1):
            raise ValueError("gimbal_pitch_sign must be +1 or -1")
        if self.gimbal_frame not in GIMBAL_FRAMES:
            raise ValueError(f"gimbal_frame must be one of {GIMBAL_FRAMES}")
        object.__setattr__(self, "cam_offset", offset)
        object.__setattr__(self, "gimbal_pitch_sign", int(self.gimbal_pitch_sign))


def camera_rotation(gimbal, r_body, camera: Camera) -> np.ndarray:
    """Rotation from {G} into {C} for one observation, or a stack.

    gimbal: (..., 3) array of wrapped yaw, pitch, roll in radians.
    r_body: the body-to-world rotation (..., 3, 3), read only for a
    body-referenced gimbal, which is composed after it; None will do for
    a world gimbal. The gimbal angles orient a forward/right/down frame
    whose x axis is the optical axis; {C} takes that frame's transpose,
    rows in CAM_AXES order.
    """
    gimbal = np.array(gimbal, dtype=float)
    gimbal[..., 1] = wrap_angle(camera.gimbal_pitch_sign * gimbal[..., 1])
    r_t = np.swapaxes(yaw_pitch_roll_matrix(gimbal), -1, -2)
    if camera.gimbal_frame == "body":
        # row j of (B G)^T is column j of G, a row of G^T, rotated by B
        r_t = rotate(r_body[..., None, :, :], r_t)
    return r_t[..., CAM_AXES, :]


def camera_pose(gimbal, body, a_uav, d_uuv, camera: Camera):
    """The camera's pose and depth plane for one observation, or a stack.

    gimbal, body: (..., 3) wrapped yaw, pitch, roll in radians; a_uav,
    d_uuv: altitude above the water and target depth, broadcast against
    the angles. Returns (r_cw, c, depth): the rotation of
    `camera_rotation`, the camera's position c = R_body o in {D} for the
    offset o, and the plane depth a_uav + c_z + d_uuv below the camera.
    A point in {G} sits at p_G + c in {D}.
    """
    r_body = yaw_pitch_roll_matrix(body)
    c = rotate(r_body, camera.cam_offset)
    return camera_rotation(gimbal, r_body, camera), c, a_uav + c[..., 2] + d_uuv


def cast(u, v, depth, r_cw, camera: Camera):
    """Cast stacked pixels onto the planes `depth` below the camera.

    Each pixel is undistorted into a unit-plane ray l = (x, y, 1); in {C}
    the plane's normal is R e_z, so the hit is l * s, s = -depth / (R e_z) . l.
    Returns (p_c, codes): camera-frame points (n, 3) and a reason code per
    row (RECOVERED where the fix is usable).
    """
    (x, y), converged = undistort(*pixel_to_normalized(u, v, camera.intrinsics), camera.distortion)
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


def project(p_g, r_cw, camera: Camera):
    """The inverse of `cast`: (n, 3) points in {G} to pixels (u, v) and
    camera-frame depths z, by rotation, perspective division, distortion
    and scaling. A point at or behind the camera gets a non-finite pixel;
    callers reject it by z.
    """
    x, y, z = np.moveaxis(rotate(r_cw, p_g), -1, 0)
    with np.errstate(all="ignore"):
        u, v = normalized_to_pixel(*distort(x / z, y / z, camera.distortion), camera.intrinsics)
    return u, v, z


def _degrees_to_angles(columns, prefix, rows):
    """(n, 3) wrapped angles in radians of `rows`, each angle a contiguous column."""
    angles = np.stack([columns[f"{prefix}_{name}_deg"][rows] for name in ("yaw", "pitch", "roll")])
    return wrap_angle(np.radians(angles)).T


def recover_batch(columns, config) -> tuple[dict, np.ndarray]:
    """Recover every observation row, column by column.

    columns: mapping from OBSERVATION_COLUMNS (angles in degrees) to
    equal-length arrays, such as each block io.read_observation_blocks reads.
    config: a run configuration with camera, ellipsoid and
    altitude_datum_offset.

    Returns a dict from TRAJECTORY_COLUMNS to the columns of the
    recovered rows, in input order, and an int8 reason code per input row:
    RECOVERED, or why the row was excluded (REASONS names the codes).
    enu_* is the fix in {D}, ENU at the UAV body at the row's reference
    fix. For the landmark offsets `recover --origin-track` passes as pixels,
    that holds for a pure image shift only (README "File formats").
    The intermediate arrays grow with the rows passed in; `recover`
    passes one CSV block at a time.
    """
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
    u, v = columns["u"][rows], columns["v"][rows]
    r_cw, cam, depth = camera_pose(
        _degrees_to_angles(columns, "gimbal", rows), _degrees_to_angles(columns, "body", rows),
        a_uav[rows], columns["d_uuv"][rows], config.camera,
    )
    p_c, hit_codes = cast(u, v, depth, r_cw, config.camera)
    codes = np.full(len(valid), DEGENERATE, dtype=np.int8)
    codes[rows] = hit_codes
    ok = hit_codes == RECOVERED
    with np.errstate(invalid="ignore"):  # rows without a hit may be non-finite; dropped
        p_g = rotate(np.swapaxes(r_cw, -1, -2), p_c)[ok]
    rows, u, v, p_c = rows[ok], u[ok], v[ok], p_c[ok]
    p_d = p_g + cam[ok]
    lon = np.radians(columns["ref_lon_deg"][rows])
    ref = np.column_stack([lat[rows], lon, columns["ref_alt_m"][rows]])
    geo = ecef_to_geodetic(enu_to_ecef(p_d, ref, config.ellipsoid), config.ellipsoid)
    return {
        "t": columns["t"][rows],
        "cam_x": p_c[:, 0], "cam_y": p_c[:, 1], "cam_z": p_c[:, 2],
        "enu_x": p_d[:, 0], "enu_y": p_d[:, 1], "enu_z": p_d[:, 2],
        "lat_deg": np.degrees(geo[:, 0]), "lon_deg": np.degrees(geo[:, 1]), "alt_m": geo[:, 2],
        "flags": np.where(config.camera.intrinsics.contains(u, v), "", "out_of_frame"),
    }, codes

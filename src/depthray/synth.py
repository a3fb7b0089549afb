"""Forward-model scene generator with known ground truth.

Projects true target trajectories through the exact camera and attitude
chain into pixel observations, optionally perturbed by seeded Gaussian
noise, and emits log rows in the same shapes the batch pipeline ingests.
Replaces field experiments for verification at desk scale.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .camera import (
    CameraIntrinsics,
    DistortionCoeffs,
    NormalizedCoord,
    PixelCoord,
    distort,
    normalized_to_pixel,
)
from .errors import InfeasibleScene
from .geodesy import GeodeticCoord
from .geometry import EulerAngles, wrap_angle, yaw_pitch_roll_matrix
from .recovery import OBSERVATION_COLUMNS, RigConfig, camera_rotation
from .table import Table

MIN_CAMERA_Z = 1e-9


@dataclass(frozen=True)
class NoiseSpec:
    """Per-channel zero-mean Gaussian noise, seeded for reproducibility."""

    sigma_px: float = 0.0
    sigma_alt: float = 0.0
    sigma_depth: float = 0.0
    sigma_gimbal: float = 0.0  # radians, applied to each gimbal angle
    seed: int = 0

    def __post_init__(self):
        for name in ("sigma_px", "sigma_alt", "sigma_depth", "sigma_gimbal"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class Scenario:
    """True trajectory plus sensor channels for one simulated flight.

    positions are in the camera-centered ENU frame {G}; altitude, depth
    and attitude arrays run parallel to the timestamps.
    """

    t: np.ndarray
    positions: np.ndarray  # (n, 3) in {G}
    a_uav: np.ndarray
    d_uuv: np.ndarray
    gimbal: np.ndarray  # (n, 3) yaw/pitch/roll, radians
    body: np.ndarray  # (n, 3) yaw/pitch/roll, radians
    ref_geo: GeodeticCoord
    intrinsics: CameraIntrinsics
    distortion: DistortionCoeffs = field(default_factory=DistortionCoeffs)
    rig: RigConfig = field(default_factory=RigConfig)
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.ndim != 1 or len(t) == 0:
            raise ValueError("need at least one timestamp")
        if np.any(np.diff(t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        n = len(t)
        for name, cols in (("positions", 3), ("gimbal", 3), ("body", 3)):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n, cols):
                raise ValueError(f"{name} must have shape ({n}, {cols})")
            object.__setattr__(self, name, arr)
        for name in ("a_uav", "d_uuv"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "t", t)

    def __len__(self):
        return len(self.t)


def project(p_g, gimbal, body, intr, dist, rig):
    """Stacked forward projection: (n, 3) points in {G} and (n, 3)
    wrapped gimbal and body angles to pixels (u, v) and the camera-frame
    depth z of each point.

    Exact forward composition of the recovery chain: rotate into the
    camera frame, perspective-divide, distort, scale to pixels. A point
    at or behind the camera (z <= MIN_CAMERA_Z) has no pixel.
    """
    p_c = (camera_rotation(gimbal, body, rig) @ p_g[..., None])[..., 0]
    x, y, z = p_c[:, 0], p_c[:, 1], p_c[:, 2]
    # points at or behind the camera give non-finite pixels; callers reject them by z
    with np.errstate(all="ignore"):
        u, v = normalized_to_pixel(distort(NormalizedCoord(x / z, y / z), dist), intr)
    return u, v, z


def generate_logs(scenario: Scenario) -> tuple[Table, Table]:
    """Produce the observation log and the exact ground truth as tables.

    The observation table has the batch-pipeline input columns (pixel
    track, altitude, depth, attitudes, reference fix) with noise applied
    per channel; the truth table (t, x, y, z) holds the exact positions
    in {D}, the body-fixed ENU frame of the recovered trajectory, as
    p_G + R_body o for the camera offset o. The same seed always yields
    the same rows: noise is drawn row by row, in channel order, for the
    channels with a nonzero sigma.

    Raises:
        InfeasibleScene: a noiseless projection falls outside the image
            or behind the camera (reported with its sample index).
    """
    intr, body = scenario.intrinsics, wrap_angle(scenario.body)
    u, v, z = project(
        scenario.positions, wrap_angle(scenario.gimbal), body,
        intr, scenario.distortion, scenario.rig,
    )
    behind = z <= MIN_CAMERA_Z
    infeasible = np.flatnonzero(behind | ~intr.contains(PixelCoord(u, v)))
    if infeasible.size:
        i = int(infeasible[0])
        if behind[i]:
            raise InfeasibleScene(f"camera-frame z = {z[i]:.6g}", index=i)
        raise InfeasibleScene(
            f"projects to ({u[i]:.1f}, {v[i]:.1f}) outside "
            f"{intr.image_width}x{intr.image_height}",
            index=i,
        )

    noise = scenario.noise
    a_uav, d_uuv, gimbal = scenario.a_uav.copy(), scenario.d_uuv.copy(), scenario.gimbal.copy()
    channels = [
        (u, noise.sigma_px),
        (v, noise.sigma_px),
        (a_uav, noise.sigma_alt),
        (d_uuv, noise.sigma_depth),
        *((gimbal[:, k], noise.sigma_gimbal) for k in range(3)),
    ]
    noisy = [(values, sigma) for values, sigma in channels if sigma > 0]
    if noisy:
        rng = np.random.default_rng(noise.seed)
        draws = rng.normal(0.0, [sigma for _, sigma in noisy], size=(len(scenario), len(noisy)))
        for (values, _), column in zip(noisy, draws.T):
            values += column

    n = len(scenario)
    ref = scenario.ref_geo
    obs = dict(zip(OBSERVATION_COLUMNS, [
        scenario.t.copy(), u, v, a_uav, d_uuv,
        *np.degrees(gimbal).T, *np.degrees(scenario.body).T,
        np.full(n, math.degrees(ref.lat)), np.full(n, math.degrees(ref.lon)),
        np.full(n, float(ref.h)),
    ]))
    p_d = scenario.positions + yaw_pitch_roll_matrix(body) @ scenario.rig.cam_offset
    truth = dict(zip(["t", "x", "y", "z"], [scenario.t.copy(), *p_d.T]))
    return Table(obs), Table(truth)


def lawnmower_path(n: int, width: float, height: float, legs: int) -> np.ndarray:
    """Serpentine survey path over a width x height area centered on origin."""
    if legs < 1:
        raise ValueError("need at least one leg")
    s = np.linspace(0.0, float(legs), n)
    leg = np.minimum(s.astype(int), legs - 1)
    frac = s - leg
    x = np.where(leg % 2 == 0, frac, 1.0 - frac) * width - width / 2.0
    y = (leg + 0.5) / legs * height - height / 2.0
    return np.column_stack([x, y])


def circle_path(n: int, radius: float) -> np.ndarray:
    """One full circle of the given radius around the origin."""
    ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang)])


def line_path(n: int, start, end) -> np.ndarray:
    """Straight segment from start to end (2-vectors, meters)."""
    s = np.linspace(0.0, 1.0, n)[:, None]
    return np.asarray(start, dtype=float) + s * (
        np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    )


def build_scenario(
    path_xy: np.ndarray,
    duration: float,
    altitude: float,
    depth_min: float,
    depth_max: float,
    ref_geo: GeodeticCoord,
    intrinsics: CameraIntrinsics,
    distortion: DistortionCoeffs = DistortionCoeffs(),
    rig: RigConfig = RigConfig(),
    noise: NoiseSpec = NoiseSpec(),
    gimbal: EulerAngles = EulerAngles(pitch=-math.pi / 2),
    body: EulerAngles = EulerAngles(),
) -> Scenario:
    """Assemble a hovering-camera scenario from a planar path.

    Depth sweeps linearly from depth_min to depth_max along the path and
    the vertical coordinate is derived from altitude, camera offset and
    depth so the depth channel and the geometry agree exactly.
    """
    path_xy = np.asarray(path_xy, dtype=float)
    n = len(path_xy)
    t = np.linspace(0.0, duration, n, endpoint=False) if n > 1 else np.array([0.0])
    depth = np.linspace(depth_min, depth_max, n)
    a_cam = altitude + float(rig.cam_offset[2])
    z = -(a_cam + depth)
    positions = np.column_stack([path_xy[:, 0], path_xy[:, 1], z])
    return Scenario(
        t=t,
        positions=positions,
        a_uav=np.full(n, float(altitude)),
        d_uuv=depth,
        gimbal=np.tile([gimbal.yaw, gimbal.pitch, gimbal.roll], (n, 1)),
        body=np.tile([body.yaw, body.pitch, body.roll], (n, 1)),
        ref_geo=ref_geo,
        intrinsics=intrinsics,
        distortion=distortion,
        rig=rig,
        noise=noise,
    )

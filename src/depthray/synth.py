"""Scene generator with known ground truth: scenarios, noise and paths.

A `Scenario` describes one flight: a planar path, a duration, an
altitude, a depth sweep and one gimbal and one body attitude.
`generate_logs` derives the per-row columns from it and projects the
target through the camera model that `recovery` inverts, with one
camera rotation for the whole flight, into pixel observations,
optionally perturbed by seeded Gaussian noise. Replaces field
experiments for verification at desk scale.
"""

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, DistortionCoeffs, PixelCoord
from .errors import InfeasibleScene
from .geodesy import GeodeticCoord
from .geometry import EulerAngles, as_angles
from .recovery import (
    OBSERVATION_COLUMNS,
    RigConfig,
    camera_rotation,
    camera_to_body,
    plane_depth,
    project,
)
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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class Scenario:
    """One simulated flight: a hovering camera over a planar path.

    The target follows path_xy (n, 2) in the camera-centered ENU frame
    {G} over `duration` seconds, while its depth sweeps linearly from
    depth_min to depth_max; altitude and both attitudes stay constant.
    Its height in {G} follows from altitude, camera offset and depth, so
    the depth channel and the geometry agree exactly.
    """

    path_xy: np.ndarray
    duration: float
    altitude: float
    depth_min: float
    depth_max: float
    ref_geo: GeodeticCoord
    intrinsics: CameraIntrinsics
    distortion: DistortionCoeffs = DistortionCoeffs()
    rig: RigConfig = RigConfig()
    noise: NoiseSpec = NoiseSpec()
    gimbal: EulerAngles = EulerAngles(pitch=-math.pi / 2)
    body: EulerAngles = EulerAngles()

    def __post_init__(self):
        path_xy = np.asarray(self.path_xy, dtype=float)
        if path_xy.ndim != 2 or path_xy.shape[1] != 2 or len(path_xy) == 0:
            raise ValueError("path_xy must have shape (n, 2) with n >= 1")
        if len(path_xy) > 1 and not self.duration > 0:
            raise ValueError("timestamps must be strictly increasing")
        # recover_batch reads a row without altitude or with a negative depth as degenerate
        if not self.altitude > 0:
            raise ValueError("altitude must be positive")
        if not (self.depth_min >= 0 and self.depth_max >= 0):
            raise ValueError("depth_min and depth_max must be non-negative")
        object.__setattr__(self, "path_xy", path_xy)

    def __len__(self):
        return len(self.path_xy)


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
    n, rig, intr = len(scenario), scenario.rig, scenario.intrinsics
    t = np.linspace(0.0, scenario.duration, n, endpoint=False) if n > 1 else np.array([0.0])
    d_uuv = np.linspace(scenario.depth_min, scenario.depth_max, n)
    positions = np.column_stack([scenario.path_xy, -plane_depth(scenario.altitude, d_uuv, rig)])
    r_cw = camera_rotation(scenario.gimbal, scenario.body, rig)
    u, v, z = project(positions, r_cw, intr, scenario.distortion)
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
    a_uav, gimbal = np.full(n, float(scenario.altitude)), np.tile(as_angles(scenario.gimbal), (n, 1))
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
        draws = rng.normal(0.0, [sigma for _, sigma in noisy], size=(n, len(noisy)))
        for (values, _), column in zip(noisy, draws.T):
            values += column

    ref = scenario.ref_geo
    obs = dict(zip(OBSERVATION_COLUMNS, [
        t, u, v, a_uav, d_uuv,
        *np.degrees(gimbal).T, *np.degrees(np.tile(as_angles(scenario.body), (n, 1))).T,
        np.full(n, math.degrees(ref.lat)), np.full(n, math.degrees(ref.lon)),
        np.full(n, float(ref.h)),
    ]))
    p_d = camera_to_body(positions, scenario.body, rig)
    truth = dict(zip(["t", "x", "y", "z"], [t.copy(), *p_d.T]))
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

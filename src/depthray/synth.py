"""Scene generator with known ground truth: scenarios, noise and paths.

A `Scenario` describes one flight: a planar path, a duration, an
altitude, a depth sweep and one gimbal and one body attitude.
`generate_logs` derives the per-row columns from it, places the target
on the depth plane of `recovery.camera_pose` (one pose for the whole
flight, the one `recover` rebuilds from the logged columns) and projects
it through the scenario's `recovery.Camera`, the camera model `recover`
inverts, into pixel observations, optionally perturbed by seeded
Gaussian noise. Replaces field experiments for verification at desk
scale.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleScene
from .geodesy import _checked_geodetic
from .geometry import wrap_angle
from .recovery import OBSERVATION_COLUMNS, Camera, camera_pose, project

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
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError("seed must be an integer")
        for name in ("sigma_px", "sigma_alt", "sigma_depth", "sigma_gimbal", "seed"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")


@dataclass(frozen=True)
class Scenario:
    """One simulated flight: a hovering camera over a planar path.

    The target follows path_xy (n, 2) in the camera-centered ENU frame
    {G} over `duration` seconds, while its depth sweeps linearly from
    depth_min to depth_max; altitude and both attitudes stay constant.
    It lies on the depth plane of `recovery.camera_pose`, so the depth
    channel and the geometry agree exactly. Every number must be finite.

    ref_geo is the reference fix, a (3,) array of latitude and longitude
    in radians and height in meters; gimbal and body are (3,) arrays of
    yaw, pitch and roll in radians, wrapped into (-pi, pi]. camera is
    the lens and mount that a run configuration gives `recover`.
    """

    path_xy: np.ndarray
    duration: float
    altitude: float
    depth_min: float
    depth_max: float
    ref_geo: np.ndarray
    camera: Camera
    noise: NoiseSpec = NoiseSpec()
    gimbal: np.ndarray = field(default_factory=lambda: np.array([0.0, -math.pi / 2, 0.0]))
    body: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        path_xy = np.array(self.path_xy, dtype=float)  # a copy the caller cannot change
        if path_xy.ndim != 2 or path_xy.shape[1] != 2 or len(path_xy) == 0:
            raise ValueError("path_xy must have shape (n, 2) with n >= 1")
        if not (np.all(np.isfinite(path_xy)) and math.isfinite(self.duration)):
            raise ValueError("path_xy and duration must be finite")
        if len(path_xy) > 1 and not self.duration > 0:
            raise ValueError("timestamps must be strictly increasing")
        # recover_batch reads a row without altitude or with a negative depth as degenerate
        if not 0 < self.altitude < math.inf:
            raise ValueError("altitude must be positive and finite")
        if not (0 <= self.depth_min < math.inf and 0 <= self.depth_max < math.inf):
            raise ValueError("depth_min and depth_max must be non-negative and finite")
        for name in ("gimbal", "body"):
            angles = np.asarray(getattr(self, name), dtype=float)
            if angles.shape != (3,) or not np.all(np.isfinite(angles)):
                raise ValueError(f"{name} must be 3 finite angles (yaw, pitch, roll)")
            object.__setattr__(self, name, wrap_angle(angles))
        object.__setattr__(self, "path_xy", path_xy)
        object.__setattr__(self, "ref_geo", _checked_geodetic(self.ref_geo).reshape(3))
        for name in ("path_xy", "ref_geo", "gimbal", "body"):
            getattr(self, name).flags.writeable = False

    def __len__(self):
        return len(self.path_xy)


def generate_logs(scenario: Scenario) -> tuple[dict, dict]:
    """Produce the observation log and the exact ground truth as column dicts.

    The observation dict has the batch-pipeline input columns (pixel
    track, altitude, depth, attitudes, reference fix) with noise applied
    per channel; the truth dict (t, x, y, z) holds the exact positions
    in {D}, the body-fixed ENU frame of the recovered trajectory, as
    p_G + c for the camera position c of `camera_pose`. The same seed
    always yields the same rows: noise is drawn row by row, in channel
    order, for the channels with a nonzero sigma.

    Raises:
        InfeasibleScene: a noiseless projection falls outside the image
            or behind the camera (reported with its sample index).
    """
    n, camera, intr = len(scenario), scenario.camera, scenario.camera.intrinsics
    t = np.linspace(0.0, scenario.duration, n, endpoint=False) if n > 1 else np.array([0.0])
    d_uuv = np.linspace(scenario.depth_min, scenario.depth_max, n)
    r_cw, cam, depth = camera_pose(scenario.gimbal, scenario.body, scenario.altitude, d_uuv, camera)
    positions = np.column_stack([scenario.path_xy, -depth])
    u, v, z = project(positions, r_cw, camera)
    behind = z <= MIN_CAMERA_Z
    infeasible = np.flatnonzero(behind | ~intr.contains(u, v))
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
    a_uav, gimbal = np.full(n, float(scenario.altitude)), np.tile(scenario.gimbal, (n, 1))
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

    lat, lon, h = scenario.ref_geo
    obs = dict(zip(OBSERVATION_COLUMNS, [
        t, u, v, a_uav, d_uuv,
        *np.degrees(gimbal).T, *np.degrees(np.tile(scenario.body, (n, 1))).T,
        np.full(n, math.degrees(lat)), np.full(n, math.degrees(lon)), np.full(n, h),
    ]))
    truth = dict(zip(["t", "x", "y", "z"], [t.copy(), *(positions + cam).T]))
    return obs, truth


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

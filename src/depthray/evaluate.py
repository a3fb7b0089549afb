"""Trajectory evaluation against surveyed ground truth.

Position errors are Euclidean norms in the x-y plane; depth is a direct
sensor reading, so vertical residuals are reported separately as a
diagnostic rather than folded into the headline numbers.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometry, EmptyTrajectory, LengthMismatch
from .geometry import rot_z


@dataclass(frozen=True)
class GroundTruthFrame:
    """Survey frame: yawed about z relative to ENU, then translated."""

    yaw: float  # radians
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if not (math.isfinite(self.yaw) and abs(self.yaw) <= math.pi):
            raise ValueError(f"yaw must be finite and within [-pi, pi], got {self.yaw}")
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (3,) or not np.all(np.isfinite(t)):
            raise ValueError("translation must be a finite 3-vector")
        object.__setattr__(self, "translation", t)


def enu_to_ground_truth(p, frame: GroundTruthFrame) -> np.ndarray:
    """Rigidly transform ENU points, (3,) or (n, 3), into the survey frame."""
    return np.asarray(p, dtype=float) @ rot_z(frame.yaw).T + frame.translation


def rescale_grid_point(grid_xy, nadir_xy, a_cam: float, d_uuv: float) -> np.ndarray:
    """Correct surface-grid readings for target depth.

    A point at depth projects onto the surface grid closer to the camera
    nadir than its true planar position; similar triangles scale the
    reading about the nadir by (a_cam + d_uuv) / a_cam. grid_xy is (2,)
    with a scalar depth, or (n, 2) with n depths.
    """
    if not a_cam > 0:
        raise DegenerateGeometry(f"camera height above surface must be positive, got {a_cam}")
    grid_xy = np.asarray(grid_xy, dtype=float)
    nadir_xy = np.asarray(nadir_xy, dtype=float)
    scale = np.asarray((a_cam + np.asarray(d_uuv, dtype=float)) / a_cam)
    return nadir_xy + (grid_xy - nadir_xy) * scale[..., None]


def trajectory_errors(est, gt) -> dict:
    """Planar MAE and RMSE between time-aligned position sequences.

    est, gt: (n, 2) arrays (extra columns are ignored) of x-y positions.
    Returns the planar part of the evaluation report: {"mae", "rmse",
    "n_samples"}.

    Raises:
        EmptyTrajectory: no samples.
        LengthMismatch: sequences differ in length.
    """
    est = np.atleast_2d(np.asarray(est, dtype=float))
    gt = np.atleast_2d(np.asarray(gt, dtype=float))
    if len(est) != len(gt):
        raise LengthMismatch(f"{len(est)} estimates vs {len(gt)} ground-truth samples")
    if len(est) == 0 or est.size == 0:
        raise EmptyTrajectory("no samples to evaluate")
    residuals = np.linalg.norm(est[:, :2] - gt[:, :2], axis=1)
    return {
        "mae": float(np.mean(residuals)),
        "rmse": float(np.sqrt(np.mean(residuals**2))),
        "n_samples": len(est),
    }


def time_sync(t_est, t_gt, max_gap: float):
    """Match each estimate timestamp to the nearest ground-truth one.

    Returns (est_idx, gt_idx, n_dropped): paired index arrays for samples
    whose nearest neighbor lies within max_gap seconds, and the count of
    estimates dropped for lack of a close-enough match.
    """
    t_est = np.asarray(t_est, dtype=float)
    t_gt = np.asarray(t_gt, dtype=float)
    if len(t_gt) == 0 or len(t_est) == 0:
        raise EmptyTrajectory("cannot sync empty timestamp sequences")
    order = np.argsort(t_gt, kind="stable")
    est_idx, nearest, n_dropped = _match_sorted(t_est, t_gt[order], max_gap)
    return est_idx, order[nearest], n_dropped


def _match_sorted(t_est, sorted_gt, max_gap: float):
    """time_sync against stably sorted timestamps, its gt_idx indexing `sorted_gt`."""
    pos = np.searchsorted(sorted_gt, t_est)
    pos = np.clip(pos, 1, len(sorted_gt) - 1) if len(sorted_gt) > 1 else np.zeros_like(pos)
    left = np.abs(t_est - sorted_gt[np.maximum(pos - 1, 0)])
    right = np.abs(sorted_gt[pos] - t_est)
    nearest = np.where(left <= right, np.maximum(pos - 1, 0), pos)
    gap = np.abs(sorted_gt[nearest] - t_est)
    keep = gap <= max_gap
    return np.nonzero(keep)[0], nearest[keep], int(np.sum(~keep))

"""Trajectory evaluation against surveyed ground truth.

Position errors are Euclidean norms in the x-y plane; depth is a direct
sensor reading, so vertical residuals are reported separately as a
diagnostic rather than folded into the headline numbers.
"""

import math

import numpy as np

from .errors import EmptyTrajectory, LengthMismatch
from .geometry import yaw_pitch_roll_matrix


def enu_to_ground_truth(p, yaw: float, translation) -> np.ndarray:
    """Rigidly transform ENU points, (3,) or (n, 3), into a survey frame:
    yawed by `yaw` radians about z relative to ENU, then translated by
    the 3-vector `translation`."""
    translation = np.asarray(translation, dtype=float)
    if not math.isfinite(yaw):
        raise ValueError(f"yaw must be finite, got {yaw}")
    if translation.shape != (3,) or not np.all(np.isfinite(translation)):
        raise ValueError("translation must be a finite 3-vector")
    return np.asarray(p, dtype=float) @ yaw_pitch_roll_matrix([yaw, 0.0, 0.0]).T + translation


def rescale_grid_point(grid_xy, nadir_xy, a_cam: float, d_uuv: float) -> np.ndarray:
    """Correct surface-grid readings for target depth.

    A point at depth projects onto the surface grid closer to the camera
    nadir than its true planar position; similar triangles scale the
    reading about the nadir by (a_cam + d_uuv) / a_cam. grid_xy is (2,)
    with a scalar depth, or (n, 2) with n depths.
    """
    if not a_cam > 0:
        raise ValueError(f"camera height above surface must be positive, got {a_cam}")
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


def match_sorted(t, sorted_ref, max_gap: float):
    """Match each timestamp of `t` to the nearest of `sorted_ref`.

    `sorted_ref` must be sorted ascending. Returns (idx, ref_idx,
    n_dropped): paired indices into `t` and `sorted_ref` for the
    timestamps whose nearest lies within max_gap seconds, and the count
    of timestamps left without such a match.

    Raises:
        EmptyTrajectory: `sorted_ref` is empty.
    """
    t = np.asarray(t, dtype=float)
    sorted_ref = np.asarray(sorted_ref, dtype=float)
    if len(sorted_ref) == 0:
        raise EmptyTrajectory("no reference timestamps to match against")
    # each timestamp's neighbours below and above; one sample is both (clip gives 0)
    pos = np.clip(np.searchsorted(sorted_ref, t), 1, len(sorted_ref) - 1)
    below = np.maximum(pos - 1, 0)
    left = np.abs(t - sorted_ref[below])
    right = np.abs(sorted_ref[pos] - t)
    nearest = np.where(left <= right, below, pos)
    keep = np.minimum(left, right) <= max_gap
    return np.nonzero(keep)[0], nearest[keep], int(np.sum(~keep))

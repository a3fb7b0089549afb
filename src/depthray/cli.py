"""Batch front-end: simulate, recover and evaluate trajectories.

Exit codes: 0 success, 1 input error (bad or empty logs, failed sync),
2 configuration error (bad config or calibration, infeasible scenario).
"""

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import io
from .errors import (
    ConfigError,
    EmptyTrajectory,
    InfeasibleScene,
    LengthMismatch,
    SchemaError,
)
from .evaluate import enu_to_ground_truth, match_sorted, rescale_grid_point, trajectory_errors
from .recovery import NO_ORIGIN_MATCH, OBSERVATION_COLUMNS, RECOVERED, REASONS, recover_batch
from .synth import generate_logs

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2


def _exclusions_path(trajectory) -> Path:
    """The sidecar listing the observation rows a trajectory left out."""
    return Path(str(trajectory) + ".exclusions.csv")


def _read_sorted(read, path, what) -> dict:
    """A time-keyed log read whole by `read` and stably sorted by time, once
    for all the matching against it; an empty log is an EmptyTrajectory."""
    rows = read(path)
    if not len(rows["t"]):
        raise EmptyTrajectory(f"{path}: no {what} rows")
    order = np.argsort(rows["t"], kind="stable")
    # each column is sorted in turn and its unsorted copy dropped
    return {name: rows.pop(name)[order] for name in list(rows)}


def _recover_blocks(blocks, track, config, outcomes):
    """Recover observation blocks ((line numbers, column dict) pairs) one
    at a time, yielding their trajectory columns.

    With an origin track (see _read_sorted), each pixel is replaced by
    its offset from the time-matched origin sample, re-anchored at the
    principal point, which cancels hover drift; rows without a match are
    excluded. Appends to `outcomes`, per block, its row count and copies
    (not views of the parsed block) of the line number, time and code of
    excluded rows.
    """
    intr = config.camera.intrinsics
    for lines, obs in blocks:
        t, matched = obs["t"], slice(None)
        codes = np.full(len(t), NO_ORIGIN_MATCH, dtype=np.int8)
        if track is not None:
            matched, track_idx, _ = match_sorted(t, track["t"], config.sync_max_gap)
            obs = {name: obs[name][matched] for name in OBSERVATION_COLUMNS}
            obs["u"] = intr.cx + (obs["u"] - track["u"][track_idx])
            obs["v"] = intr.cy + (obs["v"] - track["v"][track_idx])
        trajectory, codes[matched] = recover_batch(obs, config)
        excluded = np.flatnonzero(codes != RECOVERED)
        outcomes.append((len(codes), lines[excluded], t[excluded], codes[excluded]))
        yield trajectory


def cmd_recover(args) -> int:
    config = io.load_run_config(args.config)
    blocks = io.read_observation_blocks(args.input)
    try:  # an empty or bad log is reported before any fault of the track
        blocks = itertools.chain([next(blocks)], blocks)
    except StopIteration:
        raise EmptyTrajectory(f"{args.input}: no observation rows") from None
    track = None
    if args.origin_track:
        track = _read_sorted(io.read_track, args.origin_track, "track")
    outcomes = []
    # the trajectory replaces --output only once its sidecar is in place
    with io.staged(args.output, _exclusions_path(args.output)) as (output, sidecar):
        io.write_trajectory(output, _recover_blocks(blocks, track, config, outcomes))
        sizes, rows, t, codes = zip(*outcomes)
        rows, t, codes = np.concatenate(rows), np.concatenate(t), np.concatenate(codes)
        # rows without an origin match come first, then the others in row order
        order = np.argsort(codes != NO_ORIGIN_MATCH, kind="stable")
        io.write_exclusions(sidecar, [{
            "row": rows[order],
            "t": t[order],
            "reason": np.array(REASONS, dtype=object)[codes[order]],
        }])
    n_input = sum(sizes)
    print(f"recovered {n_input - len(rows)} of {n_input} samples ({len(rows)} excluded)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = io.load_run_config(args.config)
    est_rows = io.read_trajectory(args.input)
    if not len(est_rows["t"]):
        raise EmptyTrajectory(f"{args.input}: no trajectory rows")
    gt_rows = _read_sorted(io.read_ground_truth, args.gt, "ground-truth")

    est_idx, gt_idx, n_dropped = match_sorted(est_rows["t"], gt_rows["t"], config.sync_max_gap)
    if len(est_idx) == 0:
        raise LengthMismatch(
            f"no timestamps match within {config.sync_max_gap} s "
            f"({len(est_rows['t'])} estimates, {len(gt_rows['t'])} ground-truth samples)"
        )

    est = np.column_stack([est_rows[c][est_idx] for c in ("enu_x", "enu_y", "enu_z")])
    gt = np.column_stack([gt_rows[c][gt_idx] for c in ("x", "y", "z")])

    est = enu_to_ground_truth(est, config.gt_frame_yaw, config.gt_frame_translation)
    a_cam = config.gt_rescale_a_cam
    if a_cam is not None:
        depth = np.maximum(-gt[:, 2] - a_cam, 0.0)
        gt[:, :2] = rescale_grid_point(gt[:, :2], config.gt_rescale_nadir, a_cam, depth)

    # rows recover wrote to its exclusions sidecar never reached the trajectory
    sidecar = _exclusions_path(args.input)
    if sidecar.exists():
        n_dropped += len(io.read_exclusions(sidecar)["row"])
    report = trajectory_errors(est[:, :2], gt[:, :2])
    report["n_excluded"] = n_dropped
    report["z_mae"] = float(np.mean(np.abs(est[:, 2] - gt[:, 2])))
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.output:
        with io.staged(args.output) as (output,):
            output.write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = io.load_scenario_config(args.config, seed=args.seed)
    obs_rows, gt_rows = generate_logs(scenario)
    with io.staged(args.output, args.gt) as (output, gt):
        io.write_observations(output, [obs_rows])
        io.write_ground_truth(gt, [gt_rows])
    print(f"simulated {len(obs_rows['t'])} samples")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthray",
        description="Recover and evaluate submerged-vehicle trajectories from aerial tracks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recover", help="observations CSV to trajectory CSV")
    p.add_argument("--config", required=True, help="run configuration (YAML)")
    p.add_argument("--input", required=True, help="observation log CSV")
    p.add_argument("--output", required=True, help="trajectory CSV to write")
    p.add_argument(
        "--origin-track", default=None, help="optional origin pixel track CSV (t,u,v)"
    )
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("evaluate", help="compare a trajectory against ground truth")
    p.add_argument("--config", required=True, help="run configuration (YAML)")
    p.add_argument("--input", required=True, help="trajectory CSV")
    p.add_argument("--gt", required=True, help="ground-truth CSV")
    p.add_argument("--output", default=None, help="report file (default: stdout only)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", help="generate synthetic observation and truth logs")
    p.add_argument("--config", required=True, help="scenario description (YAML)")
    p.add_argument("--output", required=True, help="observation CSV to write")
    p.add_argument("--gt", required=True, help="ground-truth CSV to write")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InfeasibleScene) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SchemaError, EmptyTrajectory, LengthMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""depthray benchmark: seeded flight logs through the real command line.

    python3 bench/run.py --workload survey --seed 0 --seconds 24 --trace 0

Run it from the root of a checkout. It writes the workload's inputs
(scenario and run YAMLs, calibration, survey-frame truth, origin track)
from the seed under `.bench_work/`, then runs passes of `simulate`,
`recover` and `evaluate` until `--seconds` have gone by, each command
in a fresh child process started one at a time. `simulate` and
`evaluate` are short, so each pass runs them several times in their
child; `recover` runs once, alone, so its peak RSS is its own.
Every output is checked; a failed check or a nonzero exit counts as a
failed operation. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: with `--trace 0` the end-to-end
metrics (medians over all samples), with `--trace 1` the per-layer metrics
of a run whose commands have every layer wrapped (see tracing.py).
The line before it holds the environment and the per-pass samples.
"""

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
N_ROWS = 20_000
SETUP_REPEATS = 12
# The host's speed drifts by a third within seconds; medians over more
# samples of the short commands keep runs of different seeds comparable.
SIMULATE_REPEATS = 3
EVALUATE_REPEATS = 6
DEADLINE_MARGIN_S = 120.0  # allowed beyond --seconds for the whole run, children included
REASONS = (
    "degenerate",
    "behind_camera",
    "parallel_ray",
    "ill_conditioned",
    "undistort_nonconvergence",
    "no_origin_match",
)
WGS84_RADII = (6378137.0, 6356752.314245)
GEODETIC_TOL_M = 1e-6  # lat/lon/alt mapped back onto the enu_* columns

INTRINSICS = {"fx": 2000.0, "fy": 2000.0, "cx": 960.0, "cy": 540.0, "width": 1920, "height": 1080}
FIELD_NOISE = {"sigma_px": 3.0, "sigma_alt": 0.10, "sigma_gimbal_deg": 0.3}

WORKLOADS = {
    "survey": {
        "why": "paper field setup: noisy lawnmower, README lens, nadir world gimbal; "
        "geodesy dominates recover and evaluate runs its survey-frame transform",
        "calibration": dict(INTRINSICS, k1=-0.1, k2=0.05, k3=0.0, p1=0.001, p2=-0.002),
        "scenario": dict(
            FIELD_NOISE, pattern="lawnmower", duration=200.0, area=[8.0, 5.0], legs=5,
            altitude=25.0, depth_min=0.21, depth_max=1.95, gimbal_pitch_deg=-90.0,
        ),
        "run": {},
        "ref": (42.87, 17.7, 25.0),
        "survey_frame": {"yaw_deg": -67.3, "translation": [412.5, -1250.0, 0.0]},
    },
    "degraded_log": {
        "why": "rectified video, noisy depth and an origin track with dropouts: ~25% of "
        "rows excluded, so the exception path, sidecar and time_sync carry the load",
        "calibration": dict(INTRINSICS),
        "scenario": dict(
            FIELD_NOISE, pattern="line", start=[-6.0, -3.0], end=[6.0, 3.0], duration=2000.0,
            altitude=25.0, depth_min=0.05, depth_max=0.6, sigma_depth=0.3,
            gimbal_pitch_deg=-90.0,
        ),
        "run": {},
        "origin_dropout": 0.10,
    },
}


class Abort(Exception):
    """A command failed, so the passes that depend on it cannot run."""


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_yaml(path, mapping):
    # JSON is a subset of the YAML the program reads
    Path(path).write_text(json.dumps(mapping, indent=1) + "\n", encoding="utf-8")


def write_csv(path, header, rows):
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def rot_z(a):
    """Passive rotations about z, stacked: (n,) angles -> (n, 3, 3)."""
    c, s, o, i = np.cos(a), np.sin(a), np.zeros_like(a), np.ones_like(a)
    return np.stack([c, s, o, -s, c, o, o, o, i], axis=-1).reshape(-1, 3, 3)


def geodetic_to_ecef(lat, lon, h):
    a, b = WGS84_RADII
    n = a * a / np.sqrt((a * np.cos(lat)) ** 2 + (b * np.sin(lat)) ** 2)
    return np.stack(
        [
            (n + h) * np.cos(lat) * np.cos(lon),
            (n + h) * np.cos(lat) * np.sin(lon),
            ((b / a) ** 2 * n + h) * np.sin(lat),
        ],
        axis=-1,
    )


def geodetic_to_enu(lat_deg, lon_deg, alt, ref_deg):
    """Independent oracle: geodetic columns to ENU at the reference fix."""
    lat0, lon0 = math.radians(ref_deg[0]), math.radians(ref_deg[1])
    delta = geodetic_to_ecef(np.radians(lat_deg), np.radians(lon_deg), alt) - geodetic_to_ecef(
        lat0, lon0, ref_deg[2]
    )
    axes = np.array(
        [
            [-math.sin(lon0), math.cos(lon0), 0.0],
            [-math.sin(lat0) * math.cos(lon0), -math.sin(lat0) * math.sin(lon0), math.cos(lat0)],
            [math.cos(lat0) * math.cos(lon0), math.cos(lat0) * math.sin(lon0), math.sin(lat0)],
        ]
    )
    return delta @ axes.T


def environment(root):
    src = root / "src"
    files = sorted(src.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(src)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    git_sha = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            )
            git_sha = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_py_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Bench:
    def __init__(self, root, workload, seed, deadline_s):
        self.root = root
        self.spec = WORKLOADS[workload]
        self.sim_seed = seed % 2**32
        self.rng = np.random.default_rng([self.sim_seed, 1])
        self.work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.deadline = time.monotonic() + deadline_s
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.sim_digest = None

    # --- children ---

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)

    def child(self, *args, operations=1):
        """Run worker.py once; its last stdout line is the result."""
        self.attempted += operations
        timeout = self.deadline - time.monotonic()
        label = " ".join(args[:4])
        if timeout <= 0:
            self.fail(f"{label}: run deadline reached")
            raise Abort
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), *args],
                cwd=self.root, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.fail(f"{label}: timed out")
            raise Abort from None
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        if result is None or result.get("exit", 0) != 0:
            code = result["exit"] if result else proc.returncode
            self.fail(f"{label}: exit {code}: {proc.stderr.strip()[-500:]}")
            raise Abort
        return result

    @contextlib.contextmanager
    def outputs_of(self, command):
        """Outputs that cannot be read or parsed fail the command."""
        try:
            yield
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.fail(f"{command}: unreadable output: {exc!r}")
            raise Abort from None

    def command(self, trace, repeats, *argv):
        return self.child(
            "run", "1" if trace else "0", str(repeats), *map(str, argv), operations=repeats
        )

    # --- inputs ---

    def path(self, name):
        return self.work / name

    def write_inputs(self):
        self.work.mkdir(parents=True)
        spec = self.spec
        ref = spec.get("ref")
        if ref is None:
            lat, lon, alt = self.rng.uniform([41.0, 15.0, 20.0], [45.0, 20.0, 30.0])
            ref = (round(lat, 6), round(lon, 6), round(alt, 3))
        self.ref = ref
        write_yaml(self.path("cal.yaml"), spec["calibration"])
        scenario = dict(
            spec["scenario"], n_samples=N_ROWS, seed=self.sim_seed, calibration="cal.yaml"
        )
        scenario.update(ref_lat_deg=ref[0], ref_lon_deg=ref[1], ref_alt_m=ref[2])
        write_yaml(self.path("scenario.yaml"), scenario)
        run = dict(spec["run"], calibration="cal.yaml")
        frame = spec.get("survey_frame")
        if frame:
            run.update(gt_frame_yaw_deg=frame["yaw_deg"], gt_frame_translation=frame["translation"])
        write_yaml(self.path("run.yaml"), run)

    def derive_from_simulation(self):
        """Truth in the evaluation frame, origin track, expected exclusions."""
        spec = self.spec
        with self.path("obs.csv").open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            raw = list(reader)
        obs = np.array(raw, dtype=float).reshape(-1, len(header))
        self.obs = {name: obs[:, k] for k, name in enumerate(header)}
        self.n = len(obs)
        if self.n != N_ROWS:
            self.fail(f"simulate wrote {self.n} rows, expected {N_ROWS}")
        gt = np.loadtxt(self.path("gt.csv"), delimiter=",", skiprows=1, ndmin=2)
        self.truth_g = gt[:, 1:4]

        self.gt_eval = self.path("gt.csv")
        frame = spec.get("survey_frame")
        if frame:
            yaw = np.radians(np.full(1, frame["yaw_deg"]))
            p = self.truth_g @ rot_z(yaw)[0].T + np.asarray(frame["translation"])
            self.gt_eval = self.path("gt_survey.csv")
            write_csv(self.gt_eval, ["t", "x", "y", "z"],
                      [[repr(float(v)) for v in (gt[i, 0], *p[i])] for i in range(len(gt))])

        dropped = np.zeros(self.n, dtype=bool)
        self.track = None
        if "origin_dropout" in spec:
            dropped = self.rng.random(self.n) < spec["origin_dropout"]
            cx, cy = repr(spec["calibration"]["cx"]), repr(spec["calibration"]["cy"])
            self.track = self.path("origin.csv")
            write_csv(self.track, ["t", "u", "v"],
                      [[raw[i][0], cx, cy] for i in range(self.n) if not dropped[i]])

        # `recover` excludes rows without an origin sample first, then rows
        # whose altitude or depth fails validation
        datum = spec["run"].get("altitude_datum_offset", 0.0)
        a, d = self.obs["a_uav"] + datum, self.obs["d_uuv"]
        degenerate = ~((a > 0) & (d >= 0))
        self.expected = {}
        for i in np.nonzero(dropped | degenerate)[0]:
            self.expected[int(i) + 2] = "no_origin_match" if dropped[i] else "degenerate"

    # --- commands ---

    def simulate(self, trace, repeats=1):
        """Only the last repeat's outputs remain to be checked."""
        result = self.command(
            trace, repeats, "simulate", "--config", self.path("scenario.yaml"),
            "--output", self.path("obs.csv"), "--gt", self.path("gt.csv"),
            "--seed", self.sim_seed,
        )
        with self.outputs_of("simulate"):
            digest = (sha256(self.path("obs.csv")), sha256(self.path("gt.csv")))
            if self.sim_digest is None:
                self.sim_digest = digest
                self.derive_from_simulation()
            elif digest != self.sim_digest:
                self.fail("simulate output differs from the first pass for the same seed")
        result["rows"] = self.n
        return result

    def recover(self, trace):
        argv = ["recover", "--config", self.path("run.yaml"), "--input", self.path("obs.csv"),
                "--output", self.path("traj.csv")]
        if self.track is not None:
            argv += ["--origin-track", self.track]
        result = self.command(trace, 1, *argv)
        with self.outputs_of("recover"):
            problems, counts = self.check_recover()
        if problems:
            self.fail("recover: " + "; ".join(problems))
        result.update(counts)
        return result

    def evaluate(self, trace, rows_out, repeats=1):
        """Only the last repeat's report remains to be checked."""
        result = self.command(
            trace, repeats, "evaluate", "--config", self.path("run.yaml"),
            "--input", self.path("traj.csv"), "--gt", self.gt_eval,
            "--output", self.path("report.json"),
        )
        problems = []
        with self.outputs_of("evaluate"):
            report = json.loads(self.path("report.json").read_text(encoding="utf-8"))
            if report["n_samples"] != rows_out:
                problems.append(f"n_samples {report['n_samples']} != rows out {rows_out}")
            if not (math.isfinite(report["mae"]) and report["mae"] >= 0):
                problems.append(f"mae {report['mae']} is not a finite non-negative number")
        if problems:
            self.fail("evaluate: " + "; ".join(problems))
        result.update(mae=report["mae"], matched=report["n_samples"])
        return result

    # --- checks ---

    def check_recover(self):
        problems = []
        with self.path("traj.csv.exclusions.csv").open(newline="", encoding="utf-8") as handle:
            excl_rows = list(csv.reader(handle))[1:]
        excluded = {int(r[0]): r[2] for r in excl_rows}
        reasons = Counter(r[2] for r in excl_rows)
        traj = np.loadtxt(self.path("traj.csv"), delimiter=",", skiprows=1,
                          usecols=range(10), ndmin=2)
        rows_out = len(traj)
        counts = {"rows_in": self.n, "rows_out": rows_out, "excluded": dict(reasons)}
        if rows_out + len(excl_rows) != self.n:
            problems.append(f"{rows_out} rows out + {len(excl_rows)} excluded != {self.n} in")
        unknown = sorted(set(reasons) - set(REASONS))
        if unknown:
            problems.append(f"unknown exclusion reasons {unknown}")
        if excluded != self.expected:
            want = Counter(self.expected.values())
            problems.append(f"exclusions {dict(reasons)} differ from expected {dict(want)}")
        kept = np.array([i for i in range(self.n) if i + 2 not in excluded], dtype=int)
        if len(kept) != rows_out or not np.array_equal(traj[:, 0], self.obs["t"][kept]):
            problems.append("trajectory rows do not line up with the kept observations")
            return problems, counts
        enu = traj[:, 4:7]
        geo_enu = geodetic_to_enu(traj[:, 7], traj[:, 8], traj[:, 9], self.ref)
        gap = float(np.max(np.abs(geo_enu - enu))) if rows_out else 0.0
        if not gap <= GEODETIC_TOL_M:
            problems.append(f"lat/lon/alt map back to enu_* within {gap:.3g} m")
        return problems, counts

    # --- passes ---

    def timed_pass(self):
        sim = self.simulate(False, SIMULATE_REPEATS)
        rec = self.recover(False)
        ev = self.evaluate(False, rec["rows_out"], EVALUATE_REPEATS)
        return {
            "simulate_samples_per_s": [sim["rows"] / wall for wall in sim["wall_s"]],
            "recover_samples_per_s": [rec["rows_in"] / wall for wall in rec["wall_s"]],
            "evaluate_samples_per_s": [ev["matched"] / wall for wall in ev["wall_s"]],
            "recover_peak_rss_mb": [rec["maxrss_kb"] / 1024.0],
            "mae_m": [ev["mae"]],
            "recovered_fraction": [rec["rows_out"] / rec["rows_in"]],
        }

    def traced_pass(self):
        sim = self.simulate(True)
        plain = self.recover(False)
        rec = self.recover(True)
        ev = self.evaluate(True, rec["rows_out"])
        self.last_trace = {k: r["trace"] for k, r in
                           (("simulate", sim), ("recover", rec), ("evaluate", ev))}
        return {k: [v] for k, v in layer_metrics(self, sim, rec, ev, plain["wall_s"][0]).items()}


def file_size(path):
    return path.stat().st_size if path is not None and path.exists() else 0


def layer_metrics(bench, sim, rec, ev, plain_recover_s):
    ls, lr, le = (r["trace"]["layers"] for r in (sim, rec, ev))
    n_sim, n_in, n_out, n_eval = sim["rows"], rec["rows_in"], rec["rows_out"], ev["matched"]
    n_excl = n_in - n_out
    n_track = n_in - list(bench.expected.values()).count("no_origin_match") if bench.track else 0

    def us(layers, layer, per, kind="total_s"):
        return 1e6 * layers.get(layer, {}).get(kind, 0.0) / per if per else 0.0

    def per_call(layers, layer, kind="total_s"):
        return us(layers, layer, layers.get(layer, {}).get("calls", 0), kind)

    def calls(layers, layer):
        return layers.get(layer, {}).get("calls", 0)

    undistorts = calls(lr, "camera.undistort")
    evals = rec["trace"]["distort_evals_in_undistort"]
    p = bench.path
    metrics = {
        "io.read_observations_us_per_row": us(lr, "io.read_observations", n_in),
        "io.write_trajectory_us_per_row": us(lr, "io.write_trajectory", n_out),
        "io.read_track_us_per_row": us(lr, "io.read_track", n_track),
        "io.write_exclusions_us_per_excluded_row": us(lr, "io.write_exclusions", n_excl),
        "io.write_observations_us_per_row": us(ls, "io.write_observations", n_sim),
        "io.write_ground_truth_us_per_row": us(ls, "io.write_ground_truth", n_sim),
        "io.read_trajectory_us_per_row": us(le, "io.read_trajectory", n_out),
        "io.read_ground_truth_us_per_row": us(le, "io.read_ground_truth", n_sim),
        # one pass: simulate, recover and evaluate each read the YAMLs they name
        "io.bytes_read": sum(map(file_size, (
            p("scenario.yaml"), p("obs.csv"), bench.track, p("traj.csv"), bench.gt_eval,
        ))) + 3 * file_size(p("cal.yaml")) + 2 * file_size(p("run.yaml")),
        "io.bytes_written": sum(map(file_size, (
            p("obs.csv"), p("gt.csv"), p("traj.csv"), p("traj.csv.exclusions.csv"),
            p("report.json"),
        ))),
        "cli.recover_self_us_per_row": us(lr, "cli.recover", n_in, "self_s"),
        "cli.evaluate_self_us_per_row": us(le, "cli.evaluate", n_eval, "self_s"),
        "cli.simulate_self_us_per_row": us(ls, "cli.simulate", n_sim, "self_s"),
        "camera.undistort_us_per_call": per_call(lr, "camera.undistort", "self_s"),
        "camera.pixel_to_normalized_us_per_call": per_call(lr, "camera.pixel_to_normalized"),
        "camera.distort_evals_per_undistort_mean": evals / undistorts if undistorts else 0.0,
        "camera.distort_evals_per_undistort_max":
            lr.get("camera.undistort", {}).get("max_children", 0),
        "geometry.yaw_pitch_roll_matrix_calls_per_row":
            calls(lr, "geometry.yaw_pitch_roll_matrix") / n_in,
        "geometry.yaw_pitch_roll_matrix_us_per_row": us(lr, "geometry.yaw_pitch_roll_matrix", n_in),
        "geometry.intersect_ray_plane_us_per_call": per_call(lr, "geometry.intersect_ray_plane"),
        "recovery.recover_camera_frame_self_us_per_row":
            us(lr, "recovery.recover_camera_frame", n_in, "self_s"),
        "recovery.camera_to_uav_enu_self_us_per_row":
            us(lr, "recovery.camera_to_uav_enu", n_in, "self_s"),
        "recovery.camera_rotation_us_per_row": us(ls, "recovery.camera_rotation", n_sim),
        "geodesy.enu_to_ecef_us_per_row": us(lr, "geodesy.enu_to_ecef", n_in),
        "geodesy.ecef_to_geodetic_us_per_row": us(lr, "geodesy.ecef_to_geodetic", n_in),
        "geodesy.calls_per_row": calls(lr, "geodesy.ecef_to_geodetic") / n_in,
        "synth.generate_logs_self_us_per_row": us(ls, "synth.generate_logs", n_sim, "self_s"),
        "synth.project_point_us_per_row": us(ls, "synth.project_point", n_sim),
        "evaluate.time_sync_us_per_row": us(le, "evaluate.time_sync", n_eval),
        # recover matches rows to the origin track with the same function
        "evaluate.time_sync_in_recover_us_per_row": us(lr, "evaluate.time_sync", n_in),
        "evaluate.enu_to_ground_truth_us_per_row": us(le, "evaluate.enu_to_ground_truth", n_eval),
        "evaluate.trajectory_errors_us": per_call(le, "evaluate.trajectory_errors"),
        "recover.rows_in": n_in,
        "recover.rows_out": n_out,
    }
    for reason in REASONS:
        metrics[f"recover.excluded.{reason}"] = rec["excluded"].get(reason, 0)
    metrics["trace.overhead_fraction"] = rec["wall_s"][0] / plain_recover_s - 1.0
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "depthray" / "cli.py").is_file():
        print(f"error: no depthray sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    bench = Bench(root, args.workload, args.seed, args.seconds + DEADLINE_MARGIN_S)
    samples = {}
    setup = []
    passes = 0
    try:
        bench.write_inputs()
        if not args.trace:
            setup = [bench.child("setup", str(bench.path("run.yaml")))["setup_s"]
                     for _ in range(SETUP_REPEATS)]
        start = time.monotonic()
        while not passes or time.monotonic() - start < args.seconds:
            values = bench.traced_pass() if args.trace else bench.timed_pass()
            passes += 1
            for name, value in values.items():
                samples.setdefault(name, []).extend(value)
    except Abort:
        pass
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass

    if setup:
        samples["setup_s"] = setup
    metrics = {
        m["name"]: {
            "value": statistics.median(samples[m["name"]]) if samples.get(m["name"]) else 0.0,
            "unit": m["unit"],
        }
        for m in declared
    }
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "environment": environment(root),
        "samples": samples,
    }
    if args.trace and passes:
        info["trace"] = bench.last_trace
        missing = sorted({m for t in bench.last_trace.values() for m in t["missing"]})
        if missing:
            print(f"layers missing (reported as 0): {', '.join(missing)}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": bench.failed == 0 and passes > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

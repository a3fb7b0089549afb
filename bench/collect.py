"""Repeat bench/run.py over seeds and summarise each metric.

    python3 bench/collect.py [--out FILE]

Run from the root of a checkout. Every workload of BENCHMARK.json runs
untraced with seeds 0-9 and traced with seed 0, each for the
run_seconds of BENCHMARK.json. For every workload and metric it prints
the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json: end-to-end metrics from untraced runs, per-layer metrics
from traced runs. With --out it writes the runs, the summaries and the
environment of the first run as JSON: one point of the BENCH trajectory.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SEEDS = range(10)  # untraced runs per workload
TRACED_SEEDS = range(1)


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "n": len(values),
    }


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    info, last = json.loads(lines[-2]), json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={last['correct']} "
          f"attempted={last['attempted']} failed={last['failed']} passes={info['passes']}",
          file=sys.stderr)
    return info, {"seed": seed, "passes": info["passes"], **last}


def main(argv=None):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    result = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        entry = result["workloads"][workload] = {}
        for trace, seeds in ((0, SEEDS), (1, TRACED_SEEDS)):
            runs = []
            for seed in seeds:
                info, run = run_once(workload, seed, seconds, trace)
                result.setdefault("environment", info["environment"])
                ok &= run["correct"]
                runs.append(run)
            summary = {}
            for name in runs[0]["metrics"]:
                stats = summarise([r["metrics"][name]["value"] for r in runs])
                stats["unit"] = runs[0]["metrics"][name]["unit"]
                summary[name] = stats
                bound = bounds.get(name)
                flag = ""
                if bound is not None:
                    flag = "over bound" if stats["spread"] > bound else (
                        "over bound/3" if stats["spread"] > bound / 3 else "ok")
                print(f"{workload:13s} {name:48s} {stats['median']:12.6g} {stats['unit']:10s} "
                      f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f}"
                      + (f" bound {bound} {flag}" if bound is not None else ""))
            entry["per_layer" if trace else "end_to_end"] = {"summary": summary, "runs": runs}
    result["all_correct"] = ok
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

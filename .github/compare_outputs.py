"""Compare the files two checkouts write for the benchmark's workloads.

    python3 .github/compare_outputs.py BASE HEAD

Each checkout runs its own, unmodified `bench/run.py`: its `Bench` writes
the inputs and runs `simulate`, `recover` and `evaluate` once, each in a
child process on that checkout's `src/`, for the `survey` and
`degraded_log` workloads at seeds 0-2. Every file a run leaves (inputs,
logs, trajectory, sidecar and report) is hashed. The result, "N files
byte-identical" or the names of the files that differ, goes to stdout
and, when GITHUB_STEP_SUMMARY is set, to the run summary. The exit code
is 1 when any file differs or a run fails, 0 otherwise; a change that
alters outputs on purpose is expected to differ.
"""

import hashlib
import importlib.util
import os
import shutil
import sys
from pathlib import Path

WORKLOADS = ("survey", "degraded_log")
SEEDS = (0, 1, 2)
DEADLINE_S = 600.0  # for each simulate -> recover -> evaluate run


def load_bench(root, name):
    """The `bench/run.py` module of the checkout at `root`."""
    spec = importlib.util.spec_from_file_location(name, root / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def outputs(run, root, workload, seed):
    """SHA-256 of every file one pass leaves, by "workload/seed/name", and
    the problems the pass reported."""
    bench = run.Bench(root, workload, seed, DEADLINE_S)
    try:
        bench.write_inputs()
        bench.simulate(False)
        bench.evaluate(False, bench.recover(False)["rows_out"])
    except run.Abort:
        pass
    finally:
        hashes = {
            f"{workload}/{seed}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(bench.work.iterdir())
        } if bench.work.is_dir() else {}
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    return hashes, [f"{root}: {workload} seed {seed}: {p}" for p in bench.problems]


def tree_outputs(root, name):
    run = load_bench(root, name)
    hashes, problems = {}, []
    for workload in WORKLOADS:
        for seed in SEEDS:
            files, notes = outputs(run, root, workload, seed)
            hashes.update(files)
            problems += notes
    return hashes, problems


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, head = (Path(p).resolve() for p in argv)
    base_hashes, base_problems = tree_outputs(base, "base_bench_run")
    head_hashes, head_problems = tree_outputs(head, "head_bench_run")
    names = sorted(set(base_hashes) | set(head_hashes))
    differ = [n for n in names if base_hashes.get(n) != head_hashes.get(n)]
    if differ:
        lines = [f"{len(differ)} of {len(names)} files differ from the base commit:"]
        lines += [f"- `{n}`" for n in differ]
    else:
        lines = [f"{len(names)} files byte-identical to the base commit"]
    lines += [f"- check failed: {p}" for p in base_problems + head_problems]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as handle:
            handle.write("Outputs against the base commit:\n\n" + text + "\n")
    return 1 if differ or base_problems or head_problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

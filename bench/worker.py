"""One child process of the benchmark; prints one JSON line last.

    worker.py setup RUN_YAML       time `import depthray.cli` plus
                                   `io.load_run_config` in a fresh interpreter
    worker.py run TRACE REPEATS ARGS...
                                   time `depthray.cli.main(ARGS)` REPEATS times
                                   in this process; with TRACE 1 the layers are
                                   wrapped and their spans kept

The benchmark starts it with `src/` of the checkout on PYTHONPATH and
the checkout as working directory.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _check_origin(module):
    src = (Path.cwd() / "src").resolve()
    if src not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"depthray imported from {module.__file__}, not from {src}")


def setup(run_yaml):
    start = time.perf_counter()
    import depthray.cli  # noqa: F401
    from depthray import io

    io.load_run_config(run_yaml)
    elapsed = time.perf_counter() - start
    _check_origin(io)
    return {"setup_s": elapsed}


def run(trace, repeats, argv):
    import depthray.cli

    _check_origin(depthray.cli)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    walls = []
    code = 0
    while code == 0 and len(walls) < repeats:
        start = time.perf_counter()
        code = depthray.cli.main(argv)
        walls.append(time.perf_counter() - start)
    result = {
        "exit": code,
        "wall_s": walls,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    return result


def main(argv):
    if len(argv) == 2 and argv[0] == "setup":
        result = setup(argv[1])
    elif len(argv) >= 4 and argv[0] == "run" and argv[1] in ("0", "1") and argv[2].isdigit():
        result = run(argv[1] == "1", int(argv[2]), argv[3:])
    else:
        raise SystemExit(__doc__)
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])

"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py SPEC.json

SPEC names the pass directory, the CLI invocations and whether to trace.
The worker imports spinsense.cli (the moment it is ready ends the set-up
time), calls ``spinsense.cli.main`` once per invocation in the pass
directory, and writes ``result.json`` there.  With no invocations it only
measures set-up.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

import spinsense.cli as cli

READY = time.perf_counter()


def _invoke(argv):
    """Exit code of one CLI call, as a user of the command would see it."""
    try:
        cli.main(argv, prog_name="spinsense", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else code if isinstance(code, int) else 1
    except Exception as exc:  # a traceback escaped the CLI: a failed operation
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "spinsense": str(Path(cli.__file__).resolve().parent),
    }


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    pass_dir = Path(spec["dir"])
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    os.chdir(pass_dir)
    codes = []
    start = time.perf_counter()
    for argv in spec["invocations"]:
        codes.append(_invoke(argv))
    wall = time.perf_counter() - start
    result = {
        "ready": READY,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exit_codes": codes,
        "environment": _environment(),
    }
    if tracer:
        tracer.restore()
        tracer.write(pass_dir / "spans.json")
        result["layers"] = tracer.metrics()
    (pass_dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()

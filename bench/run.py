"""spinsense benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload {scan,sweep,large_n} --seed N --seconds S --trace {0,1}

Runs the workload's CLI invocations in fresh interpreters (one per pass,
through ``spinsense.cli.main``) for about S seconds, checks every output CSV
and prints one JSON object as its last line:

- ``--trace 0``: end-to-end metrics ``setup_s``, ``wall_s``, ``peak_rss_mb``
  and ``max_err``;
- ``--trace 1``: per-layer metrics from passes with spans, each paired with
  an untraced pass whose CSVs must be byte-identical.

The program is imported from ``src/`` of the checkout this file sits in.
Child processes run with single-threaded BLAS (see BENCHMARK.md); no
machine setting is changed.  Scratch output goes to ``.bench_run/``.
"""

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SCAN_OPTIMA, TINT_UNITS, WORKLOADS, invocations

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference.json"
RUN_DIR = ROOT / ".bench_run"

# Pinned for every child: two OpenBLAS threads on a 2-core machine made the
# N = 600 sweep 2.5x slower and noisier, and changed its CSV in the last bits.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 3
RUN_LIMIT_S = 170  # every child is killed before the run reaches this

# p of the N = 10 sweep at T_a = 150 (paper: 0.935 +- 0.02).
P_N10 = (0.935, 0.02)
# Largest relative delta_h error accepted at N = 600: the 400-step midpoint
# ramps are 1.1e-2 off the reference today.
LARGE_N_TOLERANCE = 2e-2

SWEEP_HEADER = ["T_int_2JN2", "delta_h_over_JN", "HL", "SQL"]
SCAN_HEADER = ["N", "T_a_opt_2JN2", "fid_ghz", "fid_init"]


class Fault(Exception):
    """The benchmark cannot produce a result (missing program, crashed pass)."""


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    try:
        values = [[float(x) for x in row] for row in rows[1:]]
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from exc
    if not all(math.isfinite(x) for row in values for x in row):
        raise ValueError(f"{path.name}: non-finite values")
    return rows[0], values


def check_scan(path, ref):
    """(|fid - ref| errors, problem or None) of fig5.csv; raises if malformed."""
    header, rows = read_csv(path)
    if header != SCAN_HEADER or any(len(r) != 4 for r in rows) or (
        sorted(r[0] for r in rows) != sorted(SCAN_OPTIMA)
    ):
        raise ValueError(f"fig5.csv has header {header} and N = {[r[0] for r in rows]}")
    errors, problem = [], None
    for n, ta, fid_ghz, fid_init in rows:
        n = int(n)
        if ta != SCAN_OPTIMA[n]:
            problem = f"N = {n}: selected T_a = {ta:g}, expected {SCAN_OPTIMA[n]}"
            continue  # fidelities at another T_a have no reference
        point = ref[str(n)]
        errors += [abs(fid_ghz - point["fid_ghz"]), abs(fid_init - point["fid_init"])]
    return errors, problem


def check_sweep_csv(path, ref_delta_h):
    """(p, relative delta_h errors) of one sweep CSV; raises if malformed."""
    header, rows = read_csv(path)
    if header != SWEEP_HEADER or len(rows) != len(TINT_UNITS) or any(len(r) != 4 for r in rows):
        raise ValueError(f"{path.name} has header {header} and {len(rows)} rows")
    if [r[0] for r in rows] != list(TINT_UNITS):
        raise ValueError(f"{path.name}: unexpected sensing-time grid")
    p = statistics.fmean(1 / (tau * dh) for tau, dh, _, _ in rows)
    errors = [abs(r[1] / ref - 1) for r, ref in zip(rows, ref_delta_h)]
    return p, errors


def check(workload, path, values):
    """(errors against the reference, problem or None) of one output CSV."""
    if workload == "scan":
        return check_scan(path, values)
    n = int(path.stem.rsplit("_N", 1)[1])
    p, errors = check_sweep_csv(path, values[str(n)]["delta_h"])
    problem = None
    if workload == "sweep":
        if not p > 1 / math.sqrt(n):
            problem = f"N = {n}: p = {p:.4f} does not beat the SQL line"
        elif n == 10 and abs(p - P_N10[0]) > P_N10[1]:
            problem = f"N = {n}: p = {p:.4f}, expected {P_N10[0]} +- {P_N10[1]}"
    elif max(errors) > LARGE_N_TOLERANCE:
        problem = f"N = {n}: delta_h is {max(errors):.3g} off the reference"
    return errors, problem


def spawn(pass_dir, argvs, trace, deadline):
    """Run one worker in a fresh interpreter; returns (set-up seconds, result)."""
    pass_dir.mkdir()
    spec = pass_dir / "spec.json"
    spec.write_text(json.dumps({"dir": str(pass_dir), "trace": trace, "invocations": argvs}))
    env = dict(os.environ, **BLAS_THREADS, PYTHONPATH=str(ROOT / "src"))
    env.pop("SPINSENSE_OUTDIR", None)
    with open(pass_dir / "output.txt", "w") as log:
        spawned = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(spec)],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            timeout=max(deadline - spawned, 1),
        )
    result_file = pass_dir / "result.json"
    if proc.returncode != 0 or not result_file.is_file():
        tail = (pass_dir / "output.txt").read_text()[-2000:]
        raise Fault(f"worker exited with {proc.returncode}:\n{tail}")
    result = json.loads(result_file.read_text())
    return result["ready"] - spawned, result


def machine(env):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": env["python"],
        "numpy": env["numpy"],
        "scipy": env["scipy"],
        "blas": env["blas"],
        "child_thread_env": env["thread_env"],
        "machine_settings": "unchanged: no pinning, frequency, cgroup or kernel setting "
        "is touched; BLAS threads are set only in the environment of child processes",
    }


def run(args):
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    if not (ROOT / "src" / "spinsense" / "cli.py").is_file():
        raise Fault(f"no spinsense sources under {ROOT / 'src'}")
    if not REFERENCE_FILE.is_file():
        raise Fault(f"missing {REFERENCE_FILE.name}; run bench/reference.py")
    ref = json.loads(REFERENCE_FILE.read_text())
    for name, shift in ref["tolerance_shift"].items():
        if not shift < ref["floors"][name]:
            raise Fault(f"reference for {name} moved {shift:g} under a tighter tolerance")
    values = ref["values"][args.workload]

    out_root = RUN_DIR / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    calls = invocations(args.workload, args.seed)
    argvs = [argv for argv, _ in calls]
    dirs = (out_root / f"pass{i:03d}" for i in range(1000))

    setups = [] if args.trace else [
        spawn(next(dirs), [], False, deadline)[0] for _ in range(SETUP_PROBES)
    ]
    attempted = 0
    failures = []
    errors = [0.0]
    plain, traced = [], []  # (set-up seconds, result, pass dir)

    def measured(trace):
        nonlocal attempted
        pass_dir = next(dirs)
        setup, result = spawn(pass_dir, argvs, trace, deadline)
        for (argv, name), code in zip(calls, result["exit_codes"]):
            attempted += 1
            try:
                if code != 0:
                    raise ValueError(f"exit {code}")
                errs, problem = check(args.workload, pass_dir / name, values)
                errors.extend(errs)
                if problem:
                    raise ValueError(problem)
                if trace and (pass_dir / name).read_bytes() != (plain[-1][2] / name).read_bytes():
                    raise ValueError("CSV differs from the untraced pass before it")
            except (OSError, ValueError) as exc:
                failures.append(f"spinsense {' '.join(argv)}: {exc}")
        (traced if trace else plain).append((setup, result, pass_dir))

    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        measured(False)
        if args.trace:
            measured(True)
        now = time.perf_counter()
        if now - begin + (now - t0) > args.seconds:  # the next pass would overrun
            break

    setups += [setup for setup, _, _ in plain]
    wall = statistics.median(result["wall_s"] for _, result, _ in plain)
    if args.trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name][0] for _, r, _ in traced),
                   "unit": unit}
            for name, (_, unit) in traced[0][1]["layers"].items()
        }
        overhead = statistics.median(r["wall_s"] for _, r, _ in traced) - wall
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for _, r, _ in plain),
                            "unit": "MB"},
            "max_err": {"value": max(max(errors), ref["floors"][args.workload]), "unit": "1"},
        }
    env = plain[0][1]["environment"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "invocations": argvs,
        "wall_s_samples": [r["wall_s"] for _, r, _ in plain],
        "traced_wall_s_samples": [r["wall_s"] for _, r, _ in traced],
        "setup_s_samples": setups,
        "failures": failures,
        "machine": machine(env),
        "spinsense": env["spinsense"],
        "run_s": time.perf_counter() - started,
        "metrics": metrics,
    }
    (out_root / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print("# " + json.dumps(record))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        summary = run(args)
    except (Fault, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload definitions shared by run.py and reference.py.

Every workload runs the public command-line interface with fixed inputs; the
seed only permutes the order of the invocations in a pass (or, for
the single fig5 invocation, the order of its system sizes).
"""

import random

# fig5 at its defaults (3000 steps) for N = 10..40, and the optima it selects.
SCAN_OPTIMA = {10: 166, 20: 290, 30: 430, 40: 510}

# (N, T_a) pairs of the sensing sweeps: the fig5 optima for N = 10..50.
SWEEP_POINTS = ((10, 150), (20, 290), (30, 430), (40, 510), (50, 645))
SWEEP_STEPS = 4000

# One large sweep: T_a = 11.6 N + 60 at N = 600, 400 midpoint steps per ramp.
LARGE_N = (600, 7020)
LARGE_N_STEPS = 400

# Sensing-time grid (2 J N^2) T_int = 1, 3, ..., 199 used by every sweep.
TINT_GRID = "1:199:2"
TINT_UNITS = tuple(range(1, 200, 2))

WORKLOADS = ("scan", "sweep", "large_n")  # reasons: BENCHMARK.md


def sweep_csv(n):
    return f"sweep_N{n}.csv"


def invocations(workload, seed):
    """(argv, csv name) of every CLI invocation of one pass, in seed order."""
    rng = random.Random(seed)
    if workload == "scan":
        ns = list(SCAN_OPTIMA)
        rng.shuffle(ns)
        spec = ",".join(str(n) for n in ns)
        return [(["figure", "fig5", "--N", spec, "--out", "fig5.csv"], "fig5.csv")]
    if workload == "sweep":
        points = list(SWEEP_POINTS)
        rng.shuffle(points)
        return [
            (
                ["uncertainty-sweep", "--N", str(n), "--Ta", str(ta),
                 "--tint-grid", TINT_GRID, "--steps", str(SWEEP_STEPS),
                 "--out", sweep_csv(n)],
                sweep_csv(n),
            )
            for n, ta in points
        ]
    if workload == "large_n":
        n, ta = LARGE_N
        return [
            (
                ["uncertainty-sweep", "--N", str(n), "--Ta", str(ta),
                 "--tint-grid", TINT_GRID, "--steps", str(LARGE_N_STEPS),
                 "--out", sweep_csv(n)],
                sweep_csv(n),
            )
        ]
    raise ValueError(f"unknown workload {workload!r}")

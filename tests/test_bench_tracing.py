"""The benchmark's tracer still finds every name it wraps in the package.

``bench/tracing.py`` replaces package functions by name for one traced pass.
A rename under ``src/`` would leave its spans and counters silently at zero,
so these tests run it around a small scan, a kernel build and a sweep.
"""

import types
from pathlib import Path

import numpy as np

from spinsense import dynamics, metrology
from spinsense.metrology import time_unit

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    """Execute the tracer's source as a fresh module, writing no bytecode."""
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_records_scan_and_kernel():
    # At N = 10 and 40 exponentials the scan's block takes the eigenbasis
    # carry, one eigensolve per exponential, and the kernel's column at the
    # fig5 line the interpolation, one eigensolve per node (17).
    tracing = _load_tracing()
    originals = {name: getattr(dynamics, name)
                 for name in ("eigh_tridiagonal", "scan_ramp_time", "protocol_kernel")}
    n, steps = 10, 40
    taus = np.arange(1.0, 11.0) * time_unit(n)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        dynamics.scan_ramp_time(n, 1.0, taus, ramp_steps=steps)
        dynamics.protocol_kernel(n, 1.0, (11.6 * n + 60) * time_unit(n), ramp_steps=steps)
    finally:
        tracer.restore()
    for name, fn in originals.items():
        assert getattr(dynamics, name) is fn

    metrics = {name: value for name, (value, _) in tracer.metrics().items()}
    # one scan ramp and one kernel build, and one even-sector pencil
    # (diag, off, B) per stepped ramp
    assert metrics["dynamics.eigensolves"] == steps + 17
    assert metrics["model.sector_tridiagonal_calls"] == 2
    assert metrics["dynamics.scan_points"] == len(taus)
    assert metrics["dynamics.phase_exps"] > 0
    assert metrics["dynamics.matmul_flops"] > 0
    assert metrics["dynamics.scan_ramp_time.self_s"] > 0
    assert metrics["dynamics.protocol_kernel_s"] > 0


def test_tracer_records_sweep():
    # The tracer also replaces ProtocolKernel.survival; a rename there would
    # make every traced pass fail when it installs.
    tracing = _load_tracing()
    original = dynamics.ProtocolKernel.survival
    n = 6
    grid = np.arange(1.0, 8.0, 2.0) * time_unit(n)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        kernel = dynamics.protocol_kernel(n, 1.0, 40 * time_unit(n),
                                          ramp_steps=20)
        metrology.tint_sweep(kernel, tint_grid=grid)
    finally:
        tracer.restore()
    assert dynamics.ProtocolKernel.survival is original

    assert tracer.counters["metrology.sweep_points"] == len(grid)
    metrics = {name: value for name, (value, _) in tracer.metrics().items()}
    assert metrics["metrology.survival_evals"] >= 1
    assert metrics["metrology.tint_sweep.self_s"] > 0

"""Independent reference for the benchmark's ``max_err`` metric.

The reference never calls ``spinsense``.  It integrates the Schroedinger
equation of the ramps in the Z basis of the maximum-spin multiplet, where

    H(t) = -2 J S_Z^2 - 2 h^x(t) S_X

is a real symmetric tridiagonal matrix written out below from the
angular-momentum ladder elements, with scipy's DOP853 at a tight tolerance.
The strong-field state |N/2, N/2>_X has the binomial amplitudes
sqrt(C(N, k)) / 2^(N/2) over the Z basis and the GHZ state is
(|N/2> + |-N/2>) / sqrt(2), so no basis rotation is needed:

- scan: GHZ fidelity after the cosine down ramp and return fidelity after
  the following sine up ramp, at the selected fig5 optima;
- sweep, large_n: the survival amplitude <x| U_up D(T_int, h^z) U_down |x>
  with D the diagonal sensing evolution, its analytic h^z slope, and the
  error-propagation uncertainty delta_h = sqrt(P (1 - P)) / |dP/dh^z|.

Each value is computed at two tolerances; the larger difference is stored
as ``tolerance_shift`` and must stay below the workload's floor (the
resolution of ``max_err``), or the script fails.

Regenerate with:  python3 bench/reference.py   (about 20 s on one core)
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from workloads import LARGE_N, SCAN_OPTIMA, SWEEP_POINTS, TINT_UNITS

REFERENCE_FILE = Path(__file__).with_name("reference.json")
RTOL = 1e-12
RTOL_LOOSE = 1e-11
H0X_OVER_JN = 1.0
# Resolution of max_err per workload: absolute error of a fidelity (scan),
# relative error of delta_h (sweep, large_n).  Errors below it read as it.
FLOORS = {"scan": 1e-9, "sweep": 1e-9, "large_n": 1e-7}


class Ramps:
    """Z-basis ramp dynamics of N qubits with J = 1/N (so JN = 1)."""

    def __init__(self, n):
        self.n = n
        self.j = 1.0 / n
        spin = n / 2
        self.m = spin - np.arange(n + 1)
        self.diag = -2 * self.j * self.m**2
        # <m| S_X |m - 1> = sqrt(s (s + 1) - m (m - 1)) / 2
        mu = self.m[:-1]
        self.sx_off = 0.5 * np.sqrt(spin * (spin + 1) - mu * (mu - 1))
        logc = [
            0.5 * (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))
            - 0.5 * n * math.log(2)
            for k in range(n + 1)
        ]
        self.x_state = np.exp(np.array(logc)).astype(complex)
        self.ghz = np.zeros(n + 1, dtype=complex)
        self.ghz[0] = self.ghz[-1] = 1 / math.sqrt(2)
        self.unit = 1.0 / (2 * self.j * n**2)  # (2 J N^2)^-1

    def evolve(self, psi, field, t0, t1, rtol):
        diag, off = self.diag, self.sx_off

        def rhs(t, y):
            h = field(t)
            hy = diag * y
            hy[:-1] -= 2 * h * off * y[1:]
            hy[1:] -= 2 * h * off * y[:-1]
            return -1j * hy

        sol = solve_ivp(rhs, (t0, t1), psi, method="DOP853", rtol=rtol,
                        atol=rtol * 1e-2)
        if not sol.success:
            raise RuntimeError(sol.message)
        return sol.y[:, -1]

    def down(self, psi, t_ramp, rtol):
        field = lambda t: H0X_OVER_JN * math.cos(math.pi * t / (2 * t_ramp))
        return self.evolve(psi, field, 0.0, t_ramp, rtol)

    def up(self, psi, t_ramp, rtol, backward=False):
        field = lambda t: H0X_OVER_JN * math.sin(math.pi * t / (2 * t_ramp))
        if backward:  # U_up^dagger psi
            return self.evolve(psi, field, t_ramp, 0.0, rtol)
        return self.evolve(psi, field, 0.0, t_ramp, rtol)


def scan_point(n, ta_units, rtol):
    r = Ramps(n)
    t_ramp = ta_units * r.unit
    after_down = r.down(r.x_state, t_ramp, rtol)
    after_up = r.up(after_down, t_ramp, rtol)
    return {
        "fid_ghz": float(abs(np.vdot(r.ghz, after_down)) ** 2),
        "fid_init": float(abs(np.vdot(r.x_state, after_up)) ** 2),
    }


def sweep_point(n, ta_units, rtol):
    """delta_h over the sensing grid at the paper offset h^z = (pi/2) JN."""
    r = Ramps(n)
    t_ramp = ta_units * r.unit
    prep = r.down(r.x_state, t_ramp, rtol)
    read = r.up(r.x_state, t_ramp, rtol, backward=True)
    hz = math.pi / 2
    t = np.array(TINT_UNITS, dtype=float)[:, None] * r.unit
    terms = read.conj() * np.exp(-1j * (r.diag - 2 * hz * r.m) * t) * prep
    amp = terms.sum(axis=1)
    d_amp = (terms * (2j * r.m * t)).sum(axis=1)  # dE_m / dh^z = -2 m
    p = np.abs(amp) ** 2
    slope = 2 * np.real(np.conj(amp) * d_amp)
    delta_h = np.sqrt(p * (1 - p)) / np.abs(slope)
    return {"delta_h": delta_h.tolist()}


def compute(rtol):
    return {
        "scan": {str(n): scan_point(n, ta, rtol) for n, ta in SCAN_OPTIMA.items()},
        "sweep": {str(n): sweep_point(n, ta, rtol) for n, ta in SWEEP_POINTS},
        "large_n": {str(LARGE_N[0]): sweep_point(*LARGE_N, rtol)},
    }


def errors(workload, values, ref):
    """Per-output errors of a workload's values against reference values."""
    out = []
    for n, point in ref.items():
        if workload == "scan":
            out += [abs(values[n][k] - point[k]) for k in ("fid_ghz", "fid_init")]
        else:
            out += [abs(a / b - 1) for a, b in zip(values[n]["delta_h"], point["delta_h"])]
    return out


def main():
    start = time.perf_counter()
    tight = compute(RTOL)
    loose = compute(RTOL_LOOSE)
    shifts = {w: max(errors(w, loose[w], tight[w])) for w in tight}
    for w, shift in shifts.items():
        print(f"{w}: tolerance shift {shift:.3e} (floor {FLOORS[w]:.0e})")
        if not shift < FLOORS[w]:
            print(f"{w}: tightening rtol {RTOL_LOOSE:g} -> {RTOL:g} moved the reference "
                  "by more than the floor", file=sys.stderr)
            return 1
    record = {
        "generated_by": "python3 bench/reference.py",
        "method": "DOP853 on the Z-basis ramp ODE, independent of spinsense",
        "rtol": RTOL,
        "rtol_loose": RTOL_LOOSE,
        "floors": FLOORS,
        "tolerance_shift": shifts,
        "values": tight,
    }
    REFERENCE_FILE.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE} in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

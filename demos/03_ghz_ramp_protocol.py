"""The prepare -> sense -> readout protocol on nonadiabatic time scales.

A cosine ramp takes the X-polarized probe to (near) the GHZ state, the
longitudinal field is sensed at zero transverse field, and a sine ramp maps
the parity-encoded signal back to magnetization.  Short ramps work because
nonadiabatic transitions interfere constructively at particular ramp times.
"""

import numpy as np

from spinsense import ghz_state, protocol_kernel, scan_ramp_time, select_optimum, time_unit

n = 10
unit = time_unit(n)  # (2JN^2)^-1

# Fidelity against the ramp time: oscillating, with a good local optimum
# near T_a = 150 time units.
scan = scan_ramp_time(n, 1.0, np.arange(1.0, 301.0) * unit, ramp_steps=400)
print(f"{len(scan.optima)} local optima of the GHZ fidelity in T_a <= 300")
ta_opt, fid_opt = select_optimum(scan, 150 * unit)
print(f"optimum near 150: T_a = {ta_opt / unit:.0f} units, fidelity {fid_opt:.4f}")

# The ramps are stepped once, into a protocol kernel.  Its column prep_z is
# the state after the down ramp; the up ramp is that ramp's transpose, so the
# kernel gives the survival of any sensing window without stepping again.
kernel = protocol_kernel(n, 1.0, 150 * unit, ramp_steps=400)
prep = kernel.prep_z
print(f"\nT_a = 150 units: GHZ fidelity {abs(np.vdot(ghz_state(n), prep)) ** 2:.4f}, "
      f"return fidelity {kernel.survival(0.0, 0.0):.4f}")

# Parity is conserved by the ramps (symmetry protection): the even start
# stays in the even sector.  In the Z basis the spin-flip parity exchanges
# m <-> -m, that is, it reverses the amplitudes.
print(f"parity after the down ramp: {np.vdot(prep, prep[::-1]).real:+.12f}")

# With a longitudinal field on during the sensing window, the survival
# probability traces the interference fringe.
hz = np.pi / 2  # offset operating point, in units of JN
taus = np.array([1, 3, 5])
for tau, p in zip(taus, kernel.survival(taus * unit, hz)):
    print(f"T_int = {tau} units: P = {p:.4f} "
          f"(ideal cos^2 = {np.cos(hz * n * tau * unit) ** 2:.4f})")

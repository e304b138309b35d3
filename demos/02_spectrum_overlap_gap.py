"""Parity-resolved spectra, ground-state overlaps, and the critical gap.

The infinite-range Ising Hamiltonian -2J S_Z^2 - 2h^x S_X splits into even
and odd parity sectors.  The even ground state connects the GHZ state at
h^x = 0 to the X-polarized state at strong field; how much of the projected
initial state it captures at finite field is the overlap |g_0|^2.
"""

import numpy as np

from spinsense import (
    gap_scaling,
    ghz_state,
    ground_overlap,
    minimum_gap,
    parity_resolved_spectrum,
)

n = 10
spec = parity_resolved_spectrum(n, 0.0)
print(f"N = {n}, h^x = 0:")
print(f"  ground pair degenerate: E0(even) = {spec.even_energies[0]:.6f}, "
      f"E0(odd) = {spec.odd_energies[0]:.6f}")
print(f"  even ground state vs GHZ fidelity: "
      f"{abs(np.vdot(spec.even_states[:, 0], ghz_state(n))) ** 2:.10f}")

# Overlap between the projected strong-field state and the finite-field
# ground state.  |g_0|^4 > 1/2 keeps the slope bound nontrivial; a field of
# twice JN is comfortably above that threshold for all sizes shown.
print("\noverlap |g0|^2 at h^x/JN in {0.5, 1, 2, 3}:")
for n_probe in (10, 50, 100):
    vals = ground_overlap(n_probe, [0.5, 1.0, 2.0, 3.0])
    print(f"  N = {n_probe:3d}: " + "  ".join(f"{v:.4f}" for v in vals))

# The even-sector gap closes near the critical point h^x/JN = 1.  Its value
# at the critical point follows the N^(-1/3) law; the raw minimum location
# still drifts toward 1 at these sizes.
gm = minimum_gap(n)
print(f"\nN = {n}: minimum even-sector gap {gm.gap_over_jn:.4f} JN "
      f"at h^x/JN = {gm.field_over_jn:.3f}")

scaling = gap_scaling(range(10, 101, 10))
print("gap scaling over N = 10..100:")
print(f"  critical-point fit slope: {scaling.critical_fit[0]:+.4f} (law: -1/3)")
print(f"  raw-minimum fit slope:    {scaling.min_fit[0]:+.4f}")

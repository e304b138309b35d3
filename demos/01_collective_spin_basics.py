"""Collective-spin building blocks: operators, parity, and basis rotations.

Everything in this package lives in the (N+1)-dimensional maximum-spin
subspace of N qubits.  This script walks through the algebra that the rest
of the library is built on.
"""

import numpy as np

from spinsense import ghz_state, x_polarized_state
from spinsense.dicke import ladder_elements, sector_to_z, z_to_sector

n = 8
# S_X, S_Y and S_Z over the Z basis |N/2, m>_Z, in descending m, from the
# raising operator's elements.
sp = np.diag(ladder_elements(n), 1)
sx, sy, sz = (sp + sp.T) / 2, (sp - sp.T) / 2j, np.diag(n / 2 - np.arange(n + 1))

print(f"N = {n}: the maximum-spin subspace has dimension {n + 1}")
print("S_Z is diagonal with entries m =", np.diag(sz))

comm = sx @ sy - sy @ sx - 1j * sz
print(f"|[S_X, S_Y] - i S_Z| = {np.abs(comm).max():.2e}")

casimir = sx @ sx + sy @ sy + sz @ sz
print(f"Casimir eigenvalue: {casimir[0, 0].real:.4f} "
      f"(expected (N/2)(N/2+1) = {(n / 2) * (n / 2 + 1)})")

# The spin-flip parity is diagonal in the X basis, with entries (-1)^k, and
# exchanges m <-> -m in the Z basis, where it reverses the amplitudes.  It
# commutes with the Ising Hamiltonian at zero longitudinal field, which is
# what protects the adiabatic ramps.
print("parity spectrum in the X basis:", (-1) ** np.arange(n + 1))

ghz = ghz_state(n)
print(f"<GHZ|parity|GHZ> = {np.vdot(ghz, ghz[::-1]).real:+.1f}")

# The fully X-polarized state (the strong-field ground state) has binomial
# amplitudes over the Z basis.
plus = x_polarized_state(n)
print("x-polarized state amplitudes over m:", np.round(plus, 4))

# Basis changes are unitary; a round trip through the X states of both
# parity sectors is the identity.
round_trip = sum(sector_to_z(n, parity, z_to_sector(n, parity, ghz)) for parity in (+1, -1))
print(f"round-trip rotation error: {np.abs(round_trip - ghz).max():.2e}")

"""Collective-spin building blocks: operators, parity, and basis rotations.

Everything in this package lives in the (N+1)-dimensional maximum-spin
subspace of N qubits.  This script walks through the algebra that the rest
of the library is built on.
"""

import numpy as np

from spinsense import (
    DickeBasis,
    collective_operators,
    ghz_state,
    parity_operator,
    rotate_basis,
    x_polarized_state,
)

n = 8
sx, sy, sz = collective_operators(n)

print(f"N = {n}: the maximum-spin subspace has dimension {n + 1}")
print("S_Z is diagonal with entries m =", np.diag(sz.matrix).real)

comm = sx.matrix @ sy.matrix - sy.matrix @ sx.matrix - 1j * sz.matrix
print(f"|[S_X, S_Y] - i S_Z| = {np.abs(comm).max():.2e}")

casimir = sx.matrix @ sx.matrix + sy.matrix @ sy.matrix + sz.matrix @ sz.matrix
print(f"Casimir eigenvalue: {casimir[0, 0].real:.4f} "
      f"(expected (N/2)(N/2+1) = {(n / 2) * (n / 2 + 1)})")

# The spin-flip parity is diagonal in the X basis and exchanges m <-> -m in
# the Z basis.  It commutes with the Ising Hamiltonian at zero longitudinal
# field, which is what protects the adiabatic ramps.
pi_x = parity_operator(DickeBasis(n, "X"))
print("parity spectrum in the X basis:", np.diag(pi_x.matrix).real.astype(int))

ghz = ghz_state(n)
print(f"<GHZ|parity|GHZ> = {ghz.expectation(parity_operator(DickeBasis(n, 'Z'))):+.1f}")

# The fully X-polarized state (the strong-field ground state) has binomial
# amplitudes over the Z basis.
plus = x_polarized_state(n)
print("x-polarized state amplitudes over m:", np.round(plus.amplitudes.real, 4))

# Basis changes are unitary; a round trip is the identity.
round_trip = rotate_basis(rotate_basis(ghz, "X"), "Z")
print(f"round-trip rotation error: {np.abs(round_trip.amplitudes - ghz.amplitudes).max():.2e}")

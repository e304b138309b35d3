"""Shared fixtures and brute-force full-Hilbert-space oracles.

The oracles build operators and dynamics in the full 2^N qubit space and
project onto the symmetric subspace, completely independently of the
collective-spin code under test.  Only usable for small N.  The Z -> X
rotation oracle is the dense matrix exponential of its definition instead,
written out from the angular-momentum ladder elements, and is usable up to a
few hundred qubits.
"""

import os
from itertools import combinations
from math import comb

# One BLAS thread, as the benchmark runs: set before numpy loads OpenBLAS,
# which reads these once.  Two threads on a 2-core host made the small dense
# oracle tests about 15 times slower.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest
from scipy.linalg import expm


def _kron_chain(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_I = np.eye(2)


def single_site(n_qubits, site, op):
    ops = [_I] * n_qubits
    ops[site] = op
    return _kron_chain(ops)


def full_collective(n_qubits, op):
    """(1/2) sum_i op_i in the full 2^N space."""
    total = np.zeros((2**n_qubits, 2**n_qubits))
    for i in range(n_qubits):
        total += single_site(n_qubits, i, op)
    return total / 2


def full_parity(n_qubits):
    return _kron_chain([_X] * n_qubits)


def symmetric_isometry(n_qubits):
    """(2^N, N+1) isometry onto the symmetrized Z basis, descending m.

    Column k is the normalized equal superposition of all computational
    states with k qubits flipped to |1>, matching |N/2, N/2 - k>_Z.
    """
    dim = 2**n_qubits
    q = np.zeros((dim, n_qubits + 1))
    for k in range(n_qubits + 1):
        for flipped in combinations(range(n_qubits), k):
            index = sum(1 << (n_qubits - 1 - site) for site in flipped)
            q[index, k] = 1.0
        q[:, k] /= np.sqrt(comb(n_qubits, k))
    return q


def dense_rotation(n_qubits):
    """exp(-i (pi/2) S_Y) by dense expm, S_Y in the descending-m Z basis."""
    j = n_qubits / 2
    m = j - np.arange(1, n_qubits + 1)
    sp = np.diag(np.sqrt(j * (j + 1) - m * (m + 1)), 1)
    sy = (sp - sp.T) / 2j
    return expm(-1j * (np.pi / 2) * sy)


def full_hamiltonian(n_qubits, interaction, hx, hz):
    """-(J/2) sum_ij Z_i Z_j - h^x sum_i X_i - h^z sum_i Z_i (full double sum)."""
    sz_sum = 2 * full_collective(n_qubits, _Z)
    sx_sum = 2 * full_collective(n_qubits, _X)
    return -(interaction / 2) * (sz_sum @ sz_sum) - hx * sx_sum - hz * sz_sum


def brute_force_ramp(n_qubits, interaction, field_of_t, duration, hz, psi_full, steps):
    """CF4 propagation in the full 2^N space with ``steps`` exponentials.

    Each of the steps / 2 CF4 steps of length dt applies
    exp(-i dt (a_1 H_1 + a_2 H_2)) exp(-i dt (a_2 H_1 + a_1 H_2)), the right
    factor first, with H_1,2 the full Hamiltonians at the Gauss points
    t + (1/2 -+ sqrt(3)/6) dt and a_1,2 = 1/4 -+ sqrt(3)/6.
    """
    c = np.sqrt(3) / 6
    a1, a2 = 0.25 - c, 0.25 + c
    # H is affine in h^x: build its h^x = 0 part and sum_i X_i once.
    h_zero = full_hamiltonian(n_qubits, interaction, 0.0, hz)
    sx_sum = 2 * full_collective(n_qubits, _X)
    psi = psi_full.astype(complex)
    dt = duration / (steps // 2)
    for i in range(steps // 2):
        h1 = h_zero - field_of_t((i + 0.5 - c) * dt) * sx_sum
        h2 = h_zero - field_of_t((i + 0.5 + c) * dt) * sx_sum
        psi = expm(-1j * dt * (a2 * h1 + a1 * h2)) @ psi
        psi = expm(-1j * dt * (a1 * h1 + a2 * h2)) @ psi
    return psi


def ramp_profiles(kind):
    """(down, up) field profiles over the fraction of the ramp elapsed."""
    if kind == "cosine-sine":
        return (lambda g: np.cos(np.pi * g / 2)), (lambda g: np.sin(np.pi * g / 2))
    return (lambda g: 1 - g), (lambda g: g)


def brute_force_protocol(n_qubits, interaction, h0x, t_ramp, t_sense, hz, kind, psi_full,
                         steps):
    """The full protocol in the 2^N space: (after prep, after sensing, final).

    The down ramp from h0x and the up ramp back to it run at h^z = 0 with
    ``steps`` exponentials each; sensing runs at h^x = 0 with h^z on, where H
    is constant and one CF4 step is exact.  All three go through
    brute_force_ramp.
    """
    down, up = ramp_profiles(kind)
    prep = brute_force_ramp(n_qubits, interaction, lambda t: h0x * down(t / t_ramp), t_ramp,
                            0.0, psi_full, steps)
    sensed = brute_force_ramp(n_qubits, interaction, lambda t: 0.0, t_sense, hz, prep, 2)
    final = brute_force_ramp(n_qubits, interaction, lambda t: h0x * up(t / t_ramp), t_ramp,
                             0.0, sensed, steps)
    return prep, sensed, final


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def stepper_widths(monkeypatch):
    """Width K of the block of every ramp-stepper call made from here on.

    The length of the list counts the calls, so one scan or one kernel build
    reads as one entry: its number of columns.
    """
    from spinsense import dynamics

    widths = []
    step = dynamics._exponential_steps

    def recorded(a, b, fields, durations, psi):
        widths.append(np.shape(psi)[1])
        return step(a, b, fields, durations, psi)

    monkeypatch.setattr(dynamics, "_exponential_steps", recorded)
    return widths

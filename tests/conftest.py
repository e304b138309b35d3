"""Shared fixtures, brute-force full-Hilbert-space oracles and dense references.

The oracles build operators and dynamics in the full 2^N qubit space and
project onto the symmetric subspace, completely independently of the
collective-spin code under test.  Only usable for small N.  The Z -> X
rotation oracle is the dense matrix exponential of its definition instead,
written out from the angular-momentum ladder elements, and is usable up to a
few hundred qubits.  The dense references (the (N+1)^2 Hamiltonian, the
exact S_Z statistics of a state) use dense S_X, S_Y and S_Z arrays built
here from the package's ladder elements, which its fast paths never build.
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

from spinsense import ProtocolKernel, parity_resolved_spectrum, rotation_matrix
from spinsense.dicke import fold, ladder_elements, sector_to_z, z_to_sector
from spinsense.dynamics import _down_ramp_fields, _exponential_steps
from spinsense.metrology import SzReadout
from spinsense.model import sector_tridiagonal, z_diagonal


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


def ramp_profiles():
    """(down, up) field profiles over the fraction of the ramp elapsed: cosine, sine."""
    return (lambda g: np.cos(np.pi * g / 2)), (lambda g: np.sin(np.pi * g / 2))


def brute_force_protocol(n_qubits, interaction, h0x, t_ramp, t_sense, hz, psi_full, steps):
    """The full protocol in the 2^N space: (after prep, after sensing, final).

    The down ramp from h0x and the up ramp back to it run at h^z = 0 with
    ``steps`` exponentials each; sensing runs at h^x = 0 with h^z on, where H
    is constant and one CF4 step is exact.  All three go through
    brute_force_ramp.
    """
    down, up = ramp_profiles()
    prep = brute_force_ramp(n_qubits, interaction, lambda t: h0x * down(t / t_ramp), t_ramp,
                            0.0, psi_full, steps)
    sensed = brute_force_ramp(n_qubits, interaction, lambda t: 0.0, t_sense, hz, prep, 2)
    final = brute_force_ramp(n_qubits, interaction, lambda t: h0x * up(t / t_ramp), t_ramp,
                             0.0, sensed, steps)
    return prep, sensed, final


def sector_terms(n_qubits, parity):
    """(A, B) of one parity sector, H = A + h^x B with B = -2 m diagonal."""
    diag, off, b = sector_tridiagonal(n_qubits, 0.0, parity)
    return (diag, off), b


def sensing_phases(n_qubits, hz, t_sense):
    """Diagonal Z-basis phases exp(-i E_m T_int) of the sensing at h^x = 0, coupling on."""
    return np.exp(-1j * z_diagonal(n_qubits, hz) * t_sense)


def sector_ramp(n_qubits, fields, t_ramp, amp, step=_exponential_steps):
    """Z amplitudes ``amp`` after one ramp, each parity sector stepped on its own.

    Only the sectors whose folded part of ``amp`` is nonzero are stepped, so
    parity is conserved identically.  ``step`` is called as
    ``_exponential_steps`` is, with one column.
    """
    out = np.zeros(n_qubits + 1, dtype=complex)
    for parity, part in zip((+1, -1), fold(amp)):
        if np.any(part):
            a, b = sector_terms(n_qubits, parity)
            coords = z_to_sector(n_qubits, parity, amp)
            stepped = step(a, b, fields, [t_ramp], coords[:, None])
            out += sector_to_z(n_qubits, parity, stepped[:, 0])
    return out


def sector_protocol(n_qubits, h0x, t_ramp, t_sense, hz, amp, steps):
    """Z amplitudes (after prep, after sensing, final) of the protocol from any start.

    Not an oracle: the library's ramp stepper and sensing phases, both ramps
    stepped (the up ramp through the down ramp's fields reversed), for starts
    other than |N/2, N/2>_X, such as ones with both parity sectors filled.
    The library's own path is the ProtocolKernel, whose ramps start from
    |N/2, N/2>_X alone.
    """
    fields = _down_ramp_fields(h0x, steps)
    prep = sector_ramp(n_qubits, fields, t_ramp, amp)
    sensed = prep * sensing_phases(n_qubits, hz, t_sense)
    return prep, sensed, sector_ramp(n_qubits, fields[::-1], t_ramp, sensed)


def cooled_start(n_qubits, h0x):
    """Z amplitudes of the even ground state at h^x = h0x, a real vector."""
    spectrum = parity_resolved_spectrum(n_qubits, h0x)
    return spectrum.even_states[:, 0]


def cooled_kernel(n_qubits, h0x, t_ramp, steps):
    """ProtocolKernel of the cooled preparation, read out in its own basis.

    The cosine down ramp steps the real cooled start c to U_down c.  The
    matched readout column U_up^+ c is conj(U_down c), as U_up = U_down^T,
    so the kernel of the column U_down c projects onto c itself.
    """
    fields = _down_ramp_fields(h0x, steps)
    prep = sector_ramp(n_qubits, fields, t_ramp, cooled_start(n_qubits, h0x))
    return ProtocolKernel(prep)


def spin_matrices(n_qubits):
    """Dense (S_X, S_Y, S_Z) over the descending-m Z basis, from the ladder elements.

    S_Z is diagonal with entries m; S_X and S_Y are the standard
    angular-momentum matrices for j = N/2.
    """
    sp = np.diag(ladder_elements(n_qubits), 1)
    return (sp + sp.T) / 2, (sp - sp.T) / 2j, np.diag(n_qubits / 2 - np.arange(n_qubits + 1))


def parity_expectation(amp):
    """<amp|P|amp> of the spin-flip parity P, which reverses Z amplitudes."""
    return np.vdot(amp, amp[::-1]).real


def build_hamiltonian(n_qubits, interaction, hx, hz=0.0):
    """H = -2J S_Z^2 - 2 h^x S_X - 2 h^z S_Z as a dense real Z-basis matrix."""
    sx, _, sz = spin_matrices(n_qubits)
    return -2 * interaction * (sz @ sz) - 2 * hx * sx - 2 * hz * sz


def ideal_readout_state(n_qubits, hz, t_sense, alpha=0.0):
    """Z amplitudes of cos(theta)|psi0(inf)> + e^{i alpha} sin(theta)|phi0(inf)>.

    theta = h^z N T_int, and psi0(inf), phi0(inf) are the X states of index
    0 and 1.  alpha is quoted in the gauge where alpha = 0 maximizes <S_Z>;
    relative phases are convention dependent while all probabilities are
    not.
    """
    theta = hz * n_qubits * t_sense
    u = rotation_matrix(n_qubits)
    # the sign makes <S_Z> = +(sqrt(N)/2) cos(alpha) sin(2 theta) at alpha = 0
    return np.cos(theta) * u[:, 0] - np.exp(1j * alpha) * np.sin(theta) * u[:, 1]


def survival_from_overlaps(overlaps, hz, n_qubits, t_sense):
    """P = |sum_n |g_n|^2 e^{i gamma_n} cos(h^z (N - 2n) T_int)|^2 of one instance.

    The closed form whose h^z derivative metrology.survival_slope_from_overlaps
    gives, kept here as the oracle for that slope's finite difference.
    """
    g = np.asarray(overlaps, dtype=complex)
    w = np.abs(g) * g  # |g_n|^2 e^{i gamma_n}
    phases = np.cos(hz * (n_qubits - 2 * np.arange(len(g))) * t_sense)
    return float(abs(np.sum(w * phases)) ** 2)


def sz_readout_state(amp):
    """Numerically exact S_Z statistics of arbitrary Z amplitudes.

    S_Z is diagonal in the Z basis, so moments are plain weighted sums.
    Without a known slope ``delta_h`` is reported as infinite.
    """
    m = len(amp) // 2 - np.arange(len(amp))
    w = np.abs(amp) ** 2
    exp_sz = float(np.sum(m * w))
    second = float(np.sum(m**2 * w))
    return SzReadout(exp_sz, float(np.sqrt(max(second - exp_sz**2, 0.0))), np.inf)


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

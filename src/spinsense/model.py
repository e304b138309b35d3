"""Infinite-range Ising model: parity sectors, spectra, overlaps and gaps.

The sensing Hamiltonian in collective-spin form is

    H = -2 J S_Z^2 - 2 h^x S_X - 2 h^z S_Z,

the rewriting of the ferromagnetic all-to-all Ising model (full double sum,
so the i = j constant is kept inside S_Z^2) with transverse field h^x and
longitudinal field h^z.  For h^z = 0 the spin-flip parity is conserved and
the spectrum splits into an even sector {psi_n} of dimension N/2 + 1 and an
odd sector {phi_n} of dimension N/2, each sorted by ascending energy.

J only sets the energy unit, so it is fixed here at J = 1/N (``coupling``):
every field is in units of JN and every energy, whatever function returns
it, is too.
"""

from typing import NamedTuple

import numpy as np

from .dicke import (
    check_n,
    eigh_tridiagonal,
    ladder_elements,
    lowest_eigenpairs,
    sector_to_z,
)


# ---------------------------------------------------------------------------
# Parity sectors.
#
# In the X eigenbasis S_X is diagonal and S_Z acts as the (real, zero-diagonal)
# tridiagonal ladder matrix, so S_Z^2 couples X indices k and k +- 2 only.
# The Hamiltonian with h^z = 0 therefore never mixes even and odd X indices:
# restricted to one parity sector it is a real symmetric tridiagonal matrix
# in the compressed sector index.  This makes parity conservation exact in
# floating point and halves the diagonalization size.
# ---------------------------------------------------------------------------


def coupling(n_qubits):
    """J = 1/N, which makes JN the energy unit; checks N first."""
    check_n(n_qubits)
    return 1.0 / n_qubits


def sector_tridiagonal(n_qubits, transverse_field, parity):
    """(diag, offdiag, B) of H = A + h^x B on one parity sector, at h^x = transverse_field.

    B = dH/dh^x = -2 m is diagonal on the sector's X states, of even (parity
    +1) or odd (parity -1) X index; this is the one place the pencil is written.
    """
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    j = coupling(n_qubits)
    if not np.isfinite(transverse_field):
        raise ValueError(f"transverse field must be finite, got {transverse_field}")
    lad = ladder_elements(n_qubits)
    # In the X basis S_Z acts as minus the S_X ladder matrix, so S_Z^2 has
    #   diagonal      (S_Z^2)_X[k, k]   = sx_off[k-1]^2 + sx_off[k]^2
    #   second diag   (S_Z^2)_X[k, k+2] = sx_off[k] * sx_off[k+1]
    sx_off = lad / 2
    sq_diag = np.zeros(n_qubits + 1)
    sq_diag[:-1] += sx_off**2
    sq_diag[1:] += sx_off**2
    sq_off2 = sx_off[:-1] * sx_off[1:]
    idx = np.arange(0 if parity == +1 else 1, n_qubits + 1, 2)
    b = 2.0 * idx - n_qubits  # -2 m of X index k, with m = N/2 - k
    diag = -2 * j * sq_diag[idx] + transverse_field * b
    off = -2 * j * sq_off2[idx[:-1]]
    return diag, off, b


def z_diagonal(n_qubits, hz):
    """Z-basis diagonal of H at h^x = 0."""
    j = coupling(n_qubits)
    m = n_qubits / 2 - np.arange(n_qubits + 1)
    return -2 * j * m**2 - 2 * hz * m


class SpectrumData(NamedTuple):
    """Parity-resolved eigenpairs and overlaps with the strong-field ground state."""

    even_energies: np.ndarray
    even_states: np.ndarray  # column n: Z amplitudes of psi_n
    odd_energies: np.ndarray
    odd_states: np.ndarray  # column n: Z amplitudes of phi_n
    overlaps: np.ndarray  # g_n = <psi_n | N/2, N/2>_X, complex, even sector


def parity_resolved_spectrum(n_qubits, transverse_field):
    """Diagonalize each parity sector of H at h^z = 0.

    Eigenstates are the columns of two real arrays of Z amplitudes, with the
    gauge fixed by making each state's largest-magnitude amplitude positive,
    which pins the overlap phases gamma_n reproducibly.  An odd state's
    amplitudes at m and -m are exact negatives, and the one at m > 0 is made
    positive.
    """

    def solve(parity):
        diag, off, _ = sector_tridiagonal(n_qubits, transverse_field, parity)
        w, v = eigh_tridiagonal(diag, off)
        amps = sector_to_z(n_qubits, parity, v)  # sector coordinates are X coordinates
        # The largest-magnitude amplitude of each (real) state made positive.
        signs = np.sign(amps[np.argmax(np.abs(amps), axis=0), np.arange(len(v))])
        # g_n = <psi_n | psi_0(inf)>, and |psi_0(inf)> = |+>^N is e_0 of the even sector
        return w, amps * signs, (v[0] * signs).astype(complex)

    even_w, even_states, overlaps = solve(+1)
    odd_w, odd_states, _ = solve(-1)
    return SpectrumData(even_w, even_states, odd_w, odd_states, overlaps)


def ground_overlap(n_qubits, fields_over_jn):
    """|g_0|^2 = |<psi_0(h^x) | N/2, N/2>_X|^2 on a grid of h^x / JN.

    The overlap is scale free: it depends on the field only through h^x/JN.
    Monotone increasing in the field, approaching 1 as h^x -> infinity.
    """
    check_n(n_qubits)  # an empty grid reaches no sector_tridiagonal
    fields = np.atleast_1d(np.asarray(fields_over_jn, dtype=float))
    if np.any(fields < 0):
        raise ValueError("fields must be nonnegative")
    out = np.empty(fields.shape)
    for i, h in enumerate(fields):
        diag, off, _ = sector_tridiagonal(n_qubits, h, +1)
        _, v = lowest_eigenpairs(diag, off, 1)
        out[i] = abs(v[0, 0]) ** 2
    return out


def _gap_and_slope(n_qubits, field_over_jn):
    """Even-sector gap E(psi_1) - E(psi_0) and its h^x derivative, units of JN."""
    diag, off, b = sector_tridiagonal(n_qubits, field_over_jn, +1)
    w, v = lowest_eigenpairs(diag, off, 2)
    # Hellmann-Feynman: dE_n/dh^x = <n|B|n>, with B = dH/dh^x diagonal
    slope = (v[:, 1] ** 2 - v[:, 0] ** 2) @ b
    return float(w[1] - w[0]), float(slope)


def even_gap_at(n_qubits, field_over_jn):
    """E(psi_1) - E(psi_0) in units of JN at the given h^x / JN."""
    return _gap_and_slope(n_qubits, field_over_jn)[0]


class GapMinimum(NamedTuple):
    field_over_jn: float
    gap_over_jn: float


def minimum_gap(n_qubits, bracket=(0.3, 1.5)):
    """Location and value of the minimum even-sector gap over a field range.

    The bracket (in units of JN) must contain the critical point h^x/JN = 1;
    for growing N the minimum moves toward it.  The minimum is the root of
    the analytic slope of the gap, found by bisection down to adjacent
    floats; where the slope keeps one sign over the bracket, the minimum is
    the endpoint it points to.
    """
    lo, hi = bracket
    if not (0 <= lo < hi):
        raise ValueError(f"invalid field range {bracket}")
    if not (lo < 1.0 < hi):
        raise ValueError("field range must bracket the critical point h^x/JN = 1")
    slope = lambda h: _gap_and_slope(n_qubits, h)[1]
    if slope(lo) >= 0:
        hi = lo
    elif slope(hi) <= 0:
        lo = hi
    while lo < (mid := (lo + hi) / 2) < hi:
        if slope(mid) < 0:
            lo = mid
        else:
            hi = mid
    return GapMinimum(float(lo), even_gap_at(n_qubits, lo))


class GapScaling(NamedTuple):
    n_values: np.ndarray
    min_gaps: np.ndarray
    min_locations: np.ndarray
    critical_gaps: np.ndarray
    min_fit: tuple  # (slope, intercept) of log(min gap) vs log N
    critical_fit: tuple  # (slope, intercept) of log(critical gap) vs log N


def gap_scaling(n_values, bracket=(0.3, 1.5)):
    """Gap-vs-N scaling data with log-log fits.

    Reports both the true minimum gap over the bracket and the gap at the
    critical point h^x/JN = 1.  At N ~ 100 the critical-point gap already
    follows the asymptotic N^(-1/3) law, while the location of the true
    minimum still drifts with N, which flattens its fitted slope.
    """
    n_values = np.asarray(list(n_values), dtype=int)
    if len(n_values) < 2:
        raise ValueError("need at least two system sizes to fit a slope")
    mins, locs, crits = [], [], []
    for n in n_values:
        gm = minimum_gap(int(n), bracket)
        mins.append(gm.gap_over_jn)
        locs.append(gm.field_over_jn)
        crits.append(even_gap_at(int(n), 1.0))
    mins = np.array(mins)
    locs = np.array(locs)
    crits = np.array(crits)
    logn = np.log(n_values)
    min_fit = tuple(np.polyfit(logn, np.log(mins), 1))
    crit_fit = tuple(np.polyfit(logn, np.log(crits), 1))
    return GapScaling(n_values, mins, locs, crits, min_fit, crit_fit)

"""Hamiltonian construction, parity-resolved spectra, overlaps, and gaps."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import minimize_scalar

from spinsense import (
    even_gap_at,
    gap_scaling,
    ghz_state,
    ground_overlap,
    minimum_gap,
    parity_resolved_spectrum,
    protocol_kernel,
    rotation_matrix,
    scan_ramp_time,
    x_polarized_state,
)
from spinsense import model
from spinsense.dynamics import check_sensing_time
from spinsense.model import _gap_and_slope, sector_tridiagonal

from conftest import build_hamiltonian, full_hamiltonian, parity_expectation, symmetric_isometry


def test_params_validation():
    with pytest.raises(ValueError):
        parity_resolved_spectrum(3, 0.0)


@pytest.mark.parametrize("n", [-2, 0, 3, 2.0])
@pytest.mark.parametrize("entry", [
    pytest.param(lambda n: sector_tridiagonal(n, 1.0, +1), id="sector_tridiagonal"),
    pytest.param(lambda n: parity_resolved_spectrum(n, 1.0), id="spectrum"),
    pytest.param(lambda n: ground_overlap(n, [1.0]), id="ground_overlap"),
    pytest.param(lambda n: ground_overlap(n, []), id="ground_overlap_empty"),
    pytest.param(lambda n: even_gap_at(n, 1.0), id="even_gap_at"),
    pytest.param(lambda n: minimum_gap(n), id="minimum_gap"),
    pytest.param(lambda n: scan_ramp_time(n, 1.0, [1.0, 2.0, 3.0], ramp_steps=4),
                 id="scan_ramp_time"),
    pytest.param(lambda n: protocol_kernel(n, 1.0, 10.0, ramp_steps=4), id="protocol_kernel"),
    pytest.param(x_polarized_state, id="x_polarized_state"),
    pytest.param(ghz_state, id="ghz_state"),
    pytest.param(lambda n: check_sensing_time(n, 1.0, 1.0), id="check_sensing_time"),
])
def test_entry_points_reject_bad_n(entry, n):
    # Each checks N through dicke.check_n, most of them in sector_tridiagonal.
    # A negative N used to fail inside numpy, N = 0 to divide by zero and an
    # odd N to return numbers.
    with pytest.raises(ValueError, match="^n_qubits must be an even integer >= 2, got "):
        entry(n)


@pytest.mark.parametrize("entry", [
    pytest.param(lambda: sector_tridiagonal(10, float("nan"), +1), id="sector_tridiagonal"),
    pytest.param(lambda: parity_resolved_spectrum(10, float("nan")), id="spectrum"),
    pytest.param(lambda: ground_overlap(10, [1.0, float("nan")]), id="ground_overlap"),
    pytest.param(lambda: even_gap_at(10, float("nan")), id="even_gap_at"),
])
def test_entry_points_reject_a_nan_field(entry):
    # A NaN field used to reach LAPACK, which failed with "?stebz failed with
    # info = 4" or "?stevd failed with info = 5".
    with pytest.raises(ValueError, match="^transverse field must be finite, got nan$"):
        entry()


def _fidelity(a, b):
    return abs(np.vdot(a, b)) ** 2


def test_hand_diagonalization_n2():
    # H = -2 S_Z^2 at J=1: eigenvalues {-2, 0, -2} on m = {1, 0, -1}.
    h = build_hamiltonian(2, 1.0, 0.0, 0.0)
    assert np.abs(h - np.diag([-2.0, 0.0, -2.0])).max() < 1e-14


@pytest.mark.parametrize("n", [2, 4, 6])
def test_hamiltonian_matches_full_space(n, rng):
    j, hx, hz = 0.7, 0.4, 0.13
    q = symmetric_isometry(n)
    oracle = q.T @ full_hamiltonian(n, j, hx, hz) @ q
    ours = build_hamiltonian(n, j, hx, hz)
    assert np.abs(ours - oracle).max() < 1e-12


def test_parity_conservation(rng):
    n = 8
    pi = np.eye(n + 1)[::-1]  # the spin-flip parity over the Z basis
    for hx in rng.uniform(0, 5, 5):
        h = build_hamiltonian(n, 1.0 / n, hx)
        assert np.abs(h @ pi - pi @ h).max() < 1e-12


def test_strong_field_ground_state():
    n = 10
    spec = parity_resolved_spectrum(n, 1e6)
    assert _fidelity(spec.even_states[:, 0], x_polarized_state(n)) > 1 - 1e-8


def test_strong_field_ordering():
    # psi_n -> m = N/2 - 2n and phi_n -> m = N/2 - (2n + 1) as h^x -> inf.
    n = 6
    spec = parity_resolved_spectrum(n, 1e6)
    x_states = rotation_matrix(n)  # column k: Z amplitudes of |N/2, N/2 - k>_X
    for k, state in enumerate(spec.even_states.T):
        assert _fidelity(state, x_states[:, 2 * k]) > 1 - 1e-8
    for k, state in enumerate(spec.odd_states.T):
        assert _fidelity(state, x_states[:, 2 * k + 1]) > 1 - 1e-8


def test_zero_field_ghz_pair():
    n = 8
    spec = parity_resolved_spectrum(n, 0.0)
    ghz_odd = ghz_state(n)
    ghz_odd[-1] *= -1
    assert _fidelity(spec.even_states[:, 0], ghz_state(n)) > 1 - 1e-8
    assert _fidelity(spec.odd_states[:, 0], ghz_odd) > 1 - 1e-8
    assert spec.even_energies[0] == pytest.approx(spec.odd_energies[0], abs=1e-12)


def test_sector_dimensions_and_parity_labels():
    n = 10
    spec = parity_resolved_spectrum(n, 0.7)
    assert spec.even_states.shape == (n + 1, n // 2 + 1)
    assert spec.odd_states.shape == (n + 1, n // 2)
    for states, parity in ((spec.even_states, 1.0), (spec.odd_states, -1.0)):
        for state in states.T:
            assert parity_expectation(state) == pytest.approx(parity, abs=1e-10)
    assert np.all(np.diff(spec.even_energies) >= 0)
    assert np.all(np.diff(spec.odd_energies) >= 0)


@pytest.mark.parametrize("n", [2, 10, 50])
def test_eigenstate_gauge_is_reproducible(n):
    # The largest-magnitude amplitude is real positive; an odd state's come
    # as an exact pair at m and -m, and the one at m > 0 is taken.
    spec = parity_resolved_spectrum(n, 0.7)
    for amp in np.hstack([spec.even_states, spec.odd_states]).T:
        assert amp.dtype == np.float64 and amp[np.argmax(np.abs(amp))] > 0
    for amp in spec.odd_states.T:
        assert np.array_equal(amp, -amp[::-1])


def test_sector_vs_full_diagonalization():
    n = 8
    spec = parity_resolved_spectrum(n, 0.9)
    merged = np.sort(np.concatenate([spec.even_energies, spec.odd_energies]))
    full = np.linalg.eigvalsh(build_hamiltonian(n, 1.0 / n, 0.9))
    assert np.abs(merged - full).max() < 1e-10


def test_overlaps_unit_weight_and_phase_gauge():
    n = 10
    spec = parity_resolved_spectrum(n, 1.3)
    assert np.sum(np.abs(spec.overlaps) ** 2) == pytest.approx(1.0, abs=1e-10)
    # survival amplitudes reproduce |g_0|^2 from the dedicated routine
    assert abs(spec.overlaps[0]) ** 2 == pytest.approx(
        ground_overlap(n, [1.3])[0], abs=1e-12
    )


@pytest.mark.parametrize("n", [2, 10, 40])
def test_overlaps_are_the_returned_states_projections(n):
    # g_n = <psi_n | +>^N, for the Z-basis states exactly as returned, so the
    # overlap phases follow the eigenstates' gauge.
    spec = parity_resolved_spectrum(n, 0.8)
    plus = x_polarized_state(n)
    expected = [np.vdot(state, plus) for state in spec.even_states.T]
    assert spec.overlaps.dtype == complex
    assert np.abs(spec.overlaps - expected).max() < 1e-13


def test_ground_overlap_monotone_and_limits():
    n = 10
    grid = np.linspace(0, 3, 31)
    vals = ground_overlap(n, grid)
    assert np.all(np.diff(vals) > 0)
    assert ground_overlap(n, [1e6])[0] > 1 - 1e-8
    with pytest.raises(ValueError):
        ground_overlap(n, [-0.1])


@pytest.mark.parametrize("n", [10, 50, 100])
def test_overlap_threshold_at_twice_critical(n):
    g0_sq = ground_overlap(n, [2.0])[0]
    assert g0_sq**2 > 0.5


@pytest.mark.parametrize("n", [10, 50, 100])
def test_bound_beats_sql_at_critical_field(n):
    # 2|g0|^4 - 1 > 1/sqrt(N) makes the slope bound beat the SQL at h/JN = 1.
    g0_sq = ground_overlap(n, [1.0])[0]
    assert 2 * g0_sq**2 - 1 > 1 / np.sqrt(n)


def test_minimum_gap_small_case_hand_check():
    # N=2 even sector: H = [[-J - 2h, -J], [-J, -J + 2h]], gap 2 sqrt(4h^2 + J^2),
    # increasing in h, so the bracket minimum sits at the left edge.
    lo = 0.3
    gm = minimum_gap(2, bracket=(lo, 1.5))
    j = 0.5  # J = 1/N
    assert gm.gap_over_jn == pytest.approx(2 * np.sqrt(4 * lo**2 + j**2), rel=1e-6)
    assert gm.field_over_jn == pytest.approx(lo, abs=1e-3)


def test_even_gap_closed_form_n2():
    j = 0.5
    for h in (0.4, 1.0, 1.3):
        assert even_gap_at(2, h) == pytest.approx(2 * np.sqrt(4 * h**2 + j**2), rel=1e-12)


def test_minimum_gap_validation():
    with pytest.raises(ValueError):
        minimum_gap(10, bracket=(1.2, 0.5))
    with pytest.raises(ValueError):
        minimum_gap(10, bracket=(1.1, 1.5))  # does not bracket the critical point


def test_gap_minimum_location_approaches_critical_point():
    locs = [minimum_gap(n).field_over_jn for n in (10, 40, 100)]
    assert locs[0] < locs[1] < locs[2] < 1.0
    assert abs(locs[2] - 1.0) < 0.15


def test_critical_gap_scaling_slope():
    scaling = gap_scaling(range(10, 101, 10))
    assert scaling.critical_fit[0] == pytest.approx(-1 / 3, abs=0.05)


FIG1_GRID = np.round(np.arange(0, 3.0 + 1e-9, 0.02), 10)


@pytest.mark.parametrize("n", [10, 50, 100])
def test_selected_eigenpairs_are_scipys_bits(n):
    # ground_overlap and even_gap_at call ?stebz + ?stein as
    # scipy.linalg.eigh_tridiagonal(select="i") does, so the bits agree.
    overlaps = ground_overlap(n, FIG1_GRID)
    for h, overlap in zip(FIG1_GRID, overlaps):
        diag, off, _ = sector_tridiagonal(n, h, +1)
        _, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        w = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1))[0]
        assert overlap == abs(v[0, 0]) ** 2
        assert even_gap_at(n, h) == float(w[1] - w[0])


@pytest.mark.parametrize("n", [2, 4] + list(range(10, 101, 10)))
def test_minimum_gap_matches_bounded_brent(n):
    # The bisection on the analytic slope against scipy's bounded Brent at
    # xatol = 1e-10, which itself stops within about sqrt(eps) of the minimum.
    ref = minimize_scalar(lambda h: even_gap_at(n, h), bounds=(0.3, 1.5), method="bounded",
                          options={"xatol": 1e-10})
    gm = minimum_gap(n)
    assert abs(gm.field_over_jn - ref.x) < 5e-8
    if n >= 10:  # an interior minimum, where the gap is flat
        assert gm.gap_over_jn == pytest.approx(ref.fun, rel=1e-12, abs=0)
    else:  # the left end: Brent stops 8.5e-9 inside it, on a higher gap
        assert gm.field_over_jn == 0.3
        assert gm.gap_over_jn < ref.fun
        assert gm.gap_over_jn == even_gap_at(n, 0.3)


@pytest.mark.parametrize("n", [10, 100])
def test_minimum_gap_returns_the_endpoint_of_a_one_signed_slope(n):
    # The gap rises across 0.95:1.05 (its minimum lies below 0.9 up to N = 100).
    gm = minimum_gap(n, bracket=(0.95, 1.05))
    assert gm == (0.95, even_gap_at(n, 0.95))


@pytest.mark.parametrize("centre, expected", [(0.7, 0.7), (-1.0, 0.3), (2.0, 1.5)])
def test_minimum_gap_bisects_the_slope(monkeypatch, centre, expected):
    # On a parabola the slope's root is the minimum; a slope of one sign
    # over the bracket puts it exactly on the endpoint it points to.
    monkeypatch.setattr(model, "_gap_and_slope", lambda n, h: ((h - centre) ** 2, 2 * (h - centre)))
    gm = minimum_gap(10, bracket=(0.3, 1.5))
    assert gm.field_over_jn == pytest.approx(expected, abs=1e-15)
    if expected != centre:
        assert gm.field_over_jn == expected


def test_gap_slope_is_the_derivative_of_the_gap():
    n, h, dh = 40, 0.8, 1e-5
    slope = _gap_and_slope(n, h)[1]
    fd = (even_gap_at(n, h + dh) - even_gap_at(n, h - dh)) / (2 * dh)
    assert slope == pytest.approx(fd, rel=1e-7)

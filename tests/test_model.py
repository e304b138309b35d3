"""Hamiltonian construction, parity-resolved spectra, overlaps, and gaps."""

import numpy as np
import pytest

from spinsense import (
    DickeBasis,
    ModelParams,
    even_gap_at,
    gap_scaling,
    ghz_state,
    ground_overlap,
    minimum_gap,
    parity_operator,
    parity_resolved_spectrum,
    rotate_basis,
    x_polarized_state,
)

from conftest import build_hamiltonian, full_hamiltonian, symmetric_isometry


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(3, 1.0, 0.0)
    with pytest.raises(ValueError):
        ModelParams(4, -1.0, 0.0)
    assert ModelParams(4, 0.25, 0.0).jn == pytest.approx(1.0)


def test_hand_diagonalization_n2():
    # H = -2 S_Z^2 at J=1: eigenvalues {-2, 0, -2} on m = {1, 0, -1}.
    h = build_hamiltonian(ModelParams(2, 1.0, 0.0, 0.0))
    assert np.abs(h.matrix - np.diag([-2.0, 0.0, -2.0])).max() < 1e-14


@pytest.mark.parametrize("n", [2, 4, 6])
def test_hamiltonian_matches_full_space(n, rng):
    j, hx, hz = 0.7, 0.4, 0.13
    q = symmetric_isometry(n)
    oracle = q.T @ full_hamiltonian(n, j, hx, hz) @ q
    ours = build_hamiltonian(ModelParams(n, j, hx, hz)).matrix
    assert np.abs(ours - oracle).max() < 1e-12


def test_parity_conservation(rng):
    n = 8
    pi = parity_operator(DickeBasis(n, "Z")).matrix
    for hx in rng.uniform(0, 5, 5):
        h = build_hamiltonian(ModelParams(n, 1.0 / n, hx)).matrix
        assert np.abs(h @ pi - pi @ h).max() < 1e-12


def test_strong_field_ground_state():
    n = 10
    spec = parity_resolved_spectrum(ModelParams(n, 1.0 / n, 1e6))
    assert spec.even_states[0].fidelity(x_polarized_state(n, axis="Z")) > 1 - 1e-8


def test_strong_field_ordering():
    # psi_n -> m = N/2 - 2n and phi_n -> m = N/2 - (2n + 1) as h^x -> inf.
    n = 6
    spec = parity_resolved_spectrum(ModelParams(n, 1.0 / n, 1e6))
    basis_x = DickeBasis(n, "X")
    from spinsense import basis_state

    for k, state in enumerate(spec.even_states):
        limit = rotate_basis(basis_state(basis_x, 2 * k), "Z")
        assert state.fidelity(limit) > 1 - 1e-8
    for k, state in enumerate(spec.odd_states):
        limit = rotate_basis(basis_state(basis_x, 2 * k + 1), "Z")
        assert state.fidelity(limit) > 1 - 1e-8


def test_zero_field_ghz_pair():
    n = 8
    spec = parity_resolved_spectrum(ModelParams(n, 1.0 / n, 0.0))
    assert spec.even_states[0].fidelity(ghz_state(n, +1)) > 1 - 1e-8
    assert spec.odd_states[0].fidelity(ghz_state(n, -1)) > 1 - 1e-8
    assert spec.even_energies[0] == pytest.approx(spec.odd_energies[0], abs=1e-12)


def test_sector_dimensions_and_parity_labels():
    n = 10
    spec = parity_resolved_spectrum(ModelParams(n, 1.0 / n, 0.7))
    assert len(spec.even_states) == n // 2 + 1
    assert len(spec.odd_states) == n // 2
    pi = parity_operator(DickeBasis(n, "Z"))
    for state in spec.even_states:
        assert state.expectation(pi) == pytest.approx(1.0, abs=1e-10)
    for state in spec.odd_states:
        assert state.expectation(pi) == pytest.approx(-1.0, abs=1e-10)
    assert np.all(np.diff(spec.even_energies) >= 0)
    assert np.all(np.diff(spec.odd_energies) >= 0)


@pytest.mark.parametrize("n", [2, 10, 50])
def test_eigenstate_gauge_is_reproducible(n):
    # The largest-magnitude amplitude is real positive; an odd state's come
    # as an exact pair at m and -m, and the one at m > 0 is taken.
    spec = parity_resolved_spectrum(ModelParams(n, 1.0 / n, 0.7))
    for state in spec.even_states + spec.odd_states:
        amp = state.amplitudes
        assert amp.imag.max() == 0 and amp[np.argmax(np.abs(amp))].real > 0
    for state in spec.odd_states:
        assert np.array_equal(state.amplitudes, -state.amplitudes[::-1])


def test_sector_vs_full_diagonalization():
    n = 8
    params = ModelParams(n, 1.0 / n, 0.9)
    spec = parity_resolved_spectrum(params)
    merged = np.sort(np.concatenate([spec.even_energies, spec.odd_energies]))
    full = np.linalg.eigvalsh(build_hamiltonian(params).matrix)
    assert np.abs(merged - full).max() < 1e-10


def test_spectrum_rejects_longitudinal_field():
    with pytest.raises(ValueError):
        parity_resolved_spectrum(ModelParams(4, 1.0, 0.5, 0.1))


def test_overlaps_unit_weight_and_phase_gauge():
    n = 10
    spec = parity_resolved_spectrum(ModelParams(n, 1.0 / n, 1.3))
    assert np.sum(np.abs(spec.overlaps) ** 2) == pytest.approx(1.0, abs=1e-10)
    # survival amplitudes reproduce |g_0|^2 from the dedicated routine
    assert abs(spec.overlaps[0]) ** 2 == pytest.approx(
        ground_overlap(n, [1.3])[0], abs=1e-12
    )


@pytest.mark.parametrize("n", [2, 10, 40])
def test_overlaps_are_the_returned_states_projections(n):
    # g_n = <psi_n | +>^N, for the Z-basis states exactly as returned, so the
    # overlap phases follow the eigenstates' gauge.
    spec = parity_resolved_spectrum(ModelParams(n, 1.0 / n, 0.8))
    plus = x_polarized_state(n, axis="Z")
    expected = [state.overlap(plus) for state in spec.even_states]
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

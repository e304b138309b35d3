"""Collective operators, parity, and basis rotation against brute force."""

from math import comb, lgamma, log

import numpy as np
import pytest

from spinsense import (
    DickeBasis,
    DickeState,
    basis_state,
    collective_operators,
    ghz_state,
    parity_operator,
    rotate_basis,
    rotation_matrix,
    x_polarized_state,
)
from spinsense.dicke import ladder_elements

from conftest import dense_rotation, full_collective, full_parity, symmetric_isometry, _X, _Z


def test_basis_validation():
    with pytest.raises(ValueError):
        DickeBasis(3)
    with pytest.raises(ValueError):
        DickeBasis(0)
    with pytest.raises(ValueError):
        DickeBasis(4, "Y")
    b = DickeBasis(6)
    assert b.dimension == 7
    assert np.all(np.diff(b.m_values) == -1)
    assert b.m_values[0] == 3 and b.m_values[-1] == -3


def test_sz_diagonal_n2():
    _, _, sz = collective_operators(2)
    assert np.array_equal(sz.matrix, np.diag([1.0, 0.0, -1.0]))


def test_sx_elements_n2_brute_force():
    # Oracle: (X_1 + X_2)/2 in the symmetrized two-qubit basis.
    q = symmetric_isometry(2)
    oracle = q.T @ full_collective(2, _X) @ q
    sx = collective_operators(2)[0].matrix
    assert np.abs(sx - oracle).max() < 1e-14
    assert sx[0, 1] == pytest.approx(1 / np.sqrt(2))
    assert sx[1, 2] == pytest.approx(1 / np.sqrt(2))


@pytest.mark.parametrize("n", [2, 4, 10, 40])
def test_commutators(n):
    sx, sy, sz = (op.matrix for op in collective_operators(n))
    for a, b, c in [(sx, sy, sz), (sy, sz, sx), (sz, sx, sy)]:
        assert np.abs(a @ b - b @ a - 1j * c).max() < 1e-12


@pytest.mark.parametrize("n", [2, 10, 100])
def test_casimir(n):
    sx, sy, sz = (op.matrix for op in collective_operators(n))
    cas = sx @ sx + sy @ sy + sz @ sz
    target = (n / 2) * (n / 2 + 1) * np.eye(n + 1)
    assert np.abs(cas - target).max() < 1e-10


@pytest.mark.parametrize("n", [2, 4, 6])
def test_operators_match_full_space(n):
    q = symmetric_isometry(n)
    sx, _, sz = collective_operators(n)
    assert np.abs(q.T @ full_collective(n, _X) @ q - sx.matrix).max() < 1e-12
    assert np.abs(q.T @ full_collective(n, _Z) @ q - sz.matrix).max() < 1e-12


def test_parity_x_basis_n2():
    # Oracle: product of X_i acting on the symmetrized two-qubit states.
    pi = parity_operator(DickeBasis(2, "X"))
    assert np.array_equal(pi.matrix.real, np.diag([1.0, -1.0, 1.0]))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_parity_matches_full_space(n):
    q = symmetric_isometry(n)
    oracle = q.T @ full_parity(n) @ q
    pi_z = parity_operator(DickeBasis(n, "Z"))
    assert np.abs(pi_z.matrix - oracle).max() < 1e-12


@pytest.mark.parametrize("n", [2, 8])
def test_parity_involution_and_rotation_consistency(n):
    for axis in ("Z", "X"):
        pi = parity_operator(DickeBasis(n, axis))
        assert np.abs(pi.matrix @ pi.matrix - np.eye(n + 1)).max() < 1e-12
        evals = np.linalg.eigvalsh(pi.matrix)
        assert np.abs(np.abs(evals) - 1).max() < 1e-12
    # the Z form equals the rotated X form
    rotated = rotate_basis(parity_operator(DickeBasis(n, "X")), "Z")
    assert np.abs(rotated.matrix - parity_operator(DickeBasis(n, "Z")).matrix).max() < 1e-12


def test_parity_commutes_with_sx():
    n = 6
    basis = DickeBasis(n, "X")
    # S_X in its own eigenbasis is exactly diag(m); commutation with the
    # diagonal parity is then exact, not merely within tolerance.
    sx_diag = np.diag(basis.m_values.astype(complex))
    pi = parity_operator(basis)
    assert np.abs(sx_diag @ pi.matrix - pi.matrix @ sx_diag).max() == 0.0
    # and the numerically rotated S_X agrees with that diagonal
    sx_rot = rotate_basis(collective_operators(n)[0], "X")
    assert np.abs(sx_rot.matrix - sx_diag).max() < 1e-12


def test_ghz_even_parity_expectation_n4():
    state = ghz_state(4)
    pi = parity_operator(DickeBasis(4, "Z"))
    assert state.expectation(pi) == pytest.approx(1.0, abs=1e-12)
    odd = ghz_state(4, parity=-1)
    assert odd.expectation(pi) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 4, 20])
def test_rotation_unitary_and_round_trip(n, rng):
    u = rotation_matrix(n)
    assert np.abs(u.conj().T @ u - np.eye(n + 1)).max() < 1e-12
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    state = DickeState(DickeBasis(n, "Z"), amp / np.linalg.norm(amp))
    back = rotate_basis(rotate_basis(state, "X"), "Z")
    assert np.abs(back.amplitudes - state.amplitudes).max() < 1e-12


@pytest.mark.parametrize("n", [2, 4, 10, 50, 100, 200])
def test_rotation_matches_expm_oracle(n):
    # Entry by entry, so the column signs (the gauge every overlap phase
    # depends on) are compared, not only the spanned subspaces.
    u = rotation_matrix(n)
    assert u.dtype == np.float64
    assert np.abs(u - dense_rotation(n)).max() < 1e-12


@pytest.mark.parametrize("n", [1000, 2000])
def test_rotation_structure_large_n(n):
    u = rotation_matrix(n)
    assert u.dtype == np.float64 and u.shape == (n + 1, n + 1)
    assert np.abs(u.T @ u - np.eye(n + 1)).max() < 1e-12
    sp = np.diag(ladder_elements(n), 1)
    m = DickeBasis(n).m_values
    # Columns are the S_X eigenvectors in descending m ...
    assert np.abs((sp + sp.T) / 2 @ u - u * m).max() <= 1e-10
    # ... and U commutes with -i S_Y = (S_+^T - S_+)/2, the real generator.
    minus_i_sy = (sp.T - sp) / 2
    assert np.abs(u.T @ minus_i_sy @ u - minus_i_sy).max() < 1e-12 * n
    # Column 0 is |+>^N: 2^{-N/2} sqrt(binom(N, k)), through log-gamma.
    log_binom = np.array([lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1) for k in range(n + 1)])
    assert np.abs(u[:, 0] - np.exp(0.5 * log_binom - (n / 2) * log(2))).max() < 1e-12


@pytest.mark.parametrize("n", [0, 3, 2.5])
def test_rotation_matrix_rejects_bad_n(n):
    with pytest.raises(ValueError, match="n_qubits must be an even integer >= 2"):
        rotation_matrix(n)


def test_rotation_cache_is_bounded():
    assert rotation_matrix.cache_info().maxsize == 8


@pytest.mark.parametrize("n", [4, 10])
def test_x_polarized_state_is_binomial(n):
    # |N/2, N/2>_X = |+>^N: amplitudes 2^{-N/2} sqrt(binom(N, k)) over Z states.
    amp = x_polarized_state(n, axis="Z").amplitudes
    expected = np.array([np.sqrt(comb(n, k)) / 2 ** (n / 2) for k in range(n + 1)])
    assert np.abs(amp - expected).max() < 1e-12


def test_rotation_of_m0_state_n2():
    # Oracle: the explicit 3x3 rotation by pi/2 about Y for j = 1 sends
    # |1, 0>_Z to (|1, -1>_Z - |1, 1>_Z)/sqrt(2); our X state may differ by
    # a global phase only.
    target = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2)
    got = rotate_basis(basis_state(DickeBasis(2, "X"), 1), "Z").amplitudes
    overlap = abs(np.vdot(target, got))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_state_immutability_and_norm():
    state = ghz_state(4)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 2.0
    assert state.norm == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        DickeState(DickeBasis(4), np.ones(3))


def test_hermiticity_flag_enforced():
    from spinsense import CollectiveOperator

    mat = np.arange(9.0).reshape(3, 3)
    with pytest.raises(ValueError):
        CollectiveOperator(DickeBasis(2), mat, hermitian=True)
    CollectiveOperator(DickeBasis(2), mat, hermitian=False)

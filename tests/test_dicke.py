"""Collective operators, parity, and basis rotation against brute force.

States are Z amplitude arrays.  In the Z basis the spin-flip parity reverses
them (``amp[::-1]``); in the X basis it is diagonal with entries (-1)^k.
"""

import os
import subprocess
import sys
from math import comb, lgamma, log
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg

from spinsense import ghz_state, rotation_matrix, x_polarized_state
from spinsense import dicke, model
from spinsense.dicke import check_n, ladder_elements, parity_block, sector_to_z, z_to_sector

from conftest import (
    dense_rotation,
    full_collective,
    full_parity,
    parity_expectation,
    spin_matrices,
    symmetric_isometry,
    _X,
    _Z,
)


def _flip(n):
    """The spin-flip parity over the Z basis: the anti-diagonal permutation."""
    return np.eye(n + 1)[::-1]


def test_basis_validation():
    for n in (3, 0, -2, 2.0, "4"):
        with pytest.raises(ValueError, match=f"^n_qubits must be an even integer >= 2, got {n!r}$"):
            check_n(n)
    for n in (2, 6, np.int64(8)):
        check_n(n)


def test_sz_diagonal_n2():
    _, _, sz = spin_matrices(2)
    assert np.array_equal(sz, np.diag([1.0, 0.0, -1.0]))


def test_sx_elements_n2_brute_force():
    # Oracle: (X_1 + X_2)/2 in the symmetrized two-qubit basis.
    q = symmetric_isometry(2)
    oracle = q.T @ full_collective(2, _X) @ q
    sx = spin_matrices(2)[0]
    assert np.abs(sx - oracle).max() < 1e-14
    assert sx[0, 1] == pytest.approx(1 / np.sqrt(2))
    assert sx[1, 2] == pytest.approx(1 / np.sqrt(2))


@pytest.mark.parametrize("n", [2, 4, 10, 40])
def test_commutators(n):
    sx, sy, sz = spin_matrices(n)
    for a, b, c in [(sx, sy, sz), (sy, sz, sx), (sz, sx, sy)]:
        assert np.abs(a @ b - b @ a - 1j * c).max() < 1e-12


@pytest.mark.parametrize("n", [2, 10, 100])
def test_casimir(n):
    sx, sy, sz = spin_matrices(n)
    cas = sx @ sx + sy @ sy + sz @ sz
    target = (n / 2) * (n / 2 + 1) * np.eye(n + 1)
    assert np.abs(cas - target).max() < 1e-10


@pytest.mark.parametrize("n", [2, 4, 6])
def test_operators_match_full_space(n):
    q = symmetric_isometry(n)
    sx, _, sz = spin_matrices(n)
    assert np.abs(q.T @ full_collective(n, _X) @ q - sx).max() < 1e-12
    assert np.abs(q.T @ full_collective(n, _Z) @ q - sz).max() < 1e-12


def test_parity_x_basis_n2():
    # Oracle: product of X_i acting on the symmetrized two-qubit states,
    # taken to the X basis by the dense expm rotation.
    q, u = symmetric_isometry(2), dense_rotation(2)
    pi_x = u.conj().T @ (q.T @ full_parity(2) @ q) @ u
    assert np.abs(pi_x - np.diag([1.0, -1.0, 1.0])).max() < 1e-14


@pytest.mark.parametrize("n", [2, 4, 6])
def test_parity_matches_full_space(n, rng):
    q = symmetric_isometry(n)
    oracle = q.T @ full_parity(n) @ q
    assert np.abs(_flip(n) - oracle).max() < 1e-12
    # so the tests' parity_expectation, which reverses the amplitudes, is <P>
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    assert abs(parity_expectation(amp) - np.vdot(amp, oracle @ amp).real) < 1e-12


@pytest.mark.parametrize("n", [2, 8])
def test_parity_involution_and_rotation_consistency(n):
    pi_x = np.diag((-1.0) ** np.arange(n + 1))
    for pi in (_flip(n), pi_x):
        assert np.array_equal(pi @ pi, np.eye(n + 1))
    # the Z form equals the rotated X form
    u = rotation_matrix(n)
    assert np.abs(u @ pi_x @ u.T - _flip(n)).max() < 1e-12


def test_parity_commutes_with_sx():
    n = 6
    # S_X in its own eigenbasis is exactly diag(m); commutation with the
    # diagonal parity is then exact, not merely within tolerance.
    sx_diag = np.diag(n / 2 - np.arange(n + 1))
    pi_x = np.diag((-1.0) ** np.arange(n + 1))
    assert np.abs(sx_diag @ pi_x - pi_x @ sx_diag).max() == 0.0
    # and the numerically rotated S_X agrees with that diagonal
    u = rotation_matrix(n)
    sx_rot = u.T @ spin_matrices(n)[0] @ u
    assert np.abs(sx_rot - sx_diag).max() < 1e-12


def test_ghz_even_parity_expectation_n4():
    state = ghz_state(4)
    assert state.dtype == complex and np.linalg.norm(state) == pytest.approx(1.0, abs=1e-15)
    assert parity_expectation(state) == pytest.approx(1.0, abs=1e-12)
    odd = state.copy()
    odd[-1] *= -1
    assert parity_expectation(odd) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 4, 20])
def test_rotation_unitary_and_round_trip(n, rng):
    u = rotation_matrix(n)
    assert np.abs(u.conj().T @ u - np.eye(n + 1)).max() < 1e-12
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    amp /= np.linalg.norm(amp)
    back = sum(sector_to_z(n, parity, z_to_sector(n, parity, amp)) for parity in (+1, -1))
    assert np.abs(back - amp).max() < 1e-12


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
    m = n / 2 - np.arange(n + 1)
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


def test_linalg_wrappers_are_scipys():
    # Loaded from scipy's extension files, the wrappers are the objects
    # scipy.linalg exposes, whichever of the two is imported first.
    assert dicke.dstevd is scipy.linalg.lapack.dstevd
    assert dicke.zhbmv is scipy.linalg.blas.zhbmv
    assert dicke.zspmv is scipy.linalg.blas.zspmv
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import spinsense.dicke as d, scipy.linalg as s; "
        "print(d.dstevd is s.lapack.dstevd and d.zhbmv is s.blas.zhbmv "
        "and d.zspmv is s.blas.zspmv)"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "True"


@pytest.mark.parametrize("n", [2, 600, 2000])
def test_rotation_matrix_bits_match_scipy_solver(monkeypatch, n):
    u = rotation_matrix(n)
    monkeypatch.setattr(dicke, "eigh_tridiagonal", scipy.linalg.eigh_tridiagonal)
    assert np.array_equal(u, rotation_matrix(n))


def test_spectrum_bits_match_scipy_solver(monkeypatch):
    spec = model.parity_resolved_spectrum(50, 0.7)
    monkeypatch.setattr(model, "eigh_tridiagonal", scipy.linalg.eigh_tridiagonal)
    ref = model.parity_resolved_spectrum(50, 0.7)
    for field in ("even_energies", "odd_energies", "overlaps"):
        assert np.array_equal(getattr(spec, field), getattr(ref, field))
    for field in ("even_states", "odd_states"):
        assert np.array_equal(getattr(spec, field), getattr(ref, field))


@pytest.mark.parametrize("d, count", [(2, 1), (2, 2), (7, 3), (51, 2), (301, 1)])
def test_lowest_eigenpairs_are_scipys_bits(d, count):
    rng = np.random.default_rng(d + count)
    diag, off = rng.normal(size=d), rng.normal(size=d - 1)
    w, v = dicke.lowest_eigenpairs(diag, off, count)
    w_ref, v_ref = scipy.linalg.eigh_tridiagonal(diag, off, select="i",
                                                 select_range=(0, count - 1))
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
    assert w.shape == (count,) and v.shape == (d, count)


def test_missing_linalg_extension_names_file_and_version():
    with pytest.raises(ImportError, match=rf"scipy {scipy.__version__} .*/_no_such_module"):
        dicke._linalg_extension("_no_such_module")
    assert "scipy.linalg._no_such_module" not in sys.modules


def test_missing_scipy_is_an_import_error(monkeypatch):
    monkeypatch.setattr(dicke, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="^spinsense needs scipy's compiled LAPACK/BLAS wrappers$"):
        dicke._linalg_extension("_no_such_module")


_FLAKY_LOAD = """
import importlib.util, sys
real = importlib.util.module_from_spec
def load(spec):
    # a bundled-BLAS wheel cannot open the wrappers before scipy/__init__ ran
    if spec.name.startswith("scipy.linalg._f") and ({always} or "scipy" not in sys.modules):
        raise ImportError("DLL load failed while importing " + spec.name)
    return real(spec)
importlib.util.module_from_spec = load
"""


@pytest.mark.parametrize("always", [False, True])
def test_wrapper_load_falls_back_to_importing_scipy(always):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = _FLAKY_LOAD.format(always=always) + (
        "import numpy as np, spinsense.dicke as d\n"
        "print('scipy' in sys.modules, d.eigh_tridiagonal(np.ones(2), np.ones(1))[0])\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120)
    if always:  # the retry fails too: the loader's own error, not a later one
        assert out.returncode == 1
        assert out.stderr.strip().endswith(
            "ImportError: DLL load failed while importing scipy.linalg._flapack")
    else:
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "True [0. 2.]"


def _folding(n):
    """Isometries onto the folded Z basis: columns (e_k +- e_{N-k})/sqrt(2), and e_{N/2}."""
    h, eye = n // 2, np.eye(n + 1)
    sym = np.column_stack([(eye[k] + eye[n - k]) / np.sqrt(2) for k in range(h)] + [eye[h]])
    antisym = np.column_stack([(eye[k] - eye[n - k]) / np.sqrt(2) for k in range(h)])
    return sym, antisym


@pytest.mark.parametrize("n", [2, 4, 10])
def test_fold_is_the_parity_isometry(n, rng):
    q_sym, q_anti = _folding(n)
    z = rng.normal(size=(n + 1, 3)) + 1j * rng.normal(size=(n + 1, 3))
    sym, antisym = dicke.fold(z)
    assert np.abs(sym - q_sym.T @ z).max() < 1e-15
    assert np.abs(antisym - q_anti.T @ z).max() < 1e-15
    assert np.abs(dicke.unfold(sym, antisym) - z).max() < 1e-15
    assert np.abs(dicke.unfold(sym) - q_sym @ sym).max() < 1e-15
    assert np.abs(dicke.unfold(None, antisym) - q_anti @ antisym).max() < 1e-15
    # The folded bases are the two eigenspaces of the spin-flip parity.
    assert np.array_equal(_flip(n) @ q_sym, q_sym) and np.array_equal(_flip(n) @ q_anti, -q_anti)


@pytest.mark.parametrize("n", [2, 4, 10, 100, 600])
def test_parity_blocks_carry_the_sector_hamiltonians(n):
    # The invariant that ties the X-sector stepper to the Z amplitudes: each
    # block takes H on its folded Z basis to the tridiagonal sector_tridiagonal
    # matrix, signs of the off-diagonal included.
    j, hx = 1.0 / n, 0.7
    sx, _, sz = spin_matrices(n)
    h_z = -2 * j * sz @ sz - 2 * hx * sx
    for parity, fold_basis in zip((+1, -1), _folding(n)):
        block = parity_block(n, parity)
        diag, off, _ = model.sector_tridiagonal(n, hx, parity)
        sector = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert block.dtype == np.float64
        assert np.abs(block.T @ (fold_basis.T @ h_z @ fold_basis) @ block - sector).max() < 1e-12 * n


@pytest.mark.parametrize("n", [2, 10, 600])
def test_rotation_matrix_interleaves_the_parity_blocks(n):
    u = rotation_matrix(n)
    for parity, fold_basis, columns in zip((+1, -1), _folding(n), (u[:, 0::2], u[:, 1::2])):
        assert np.abs(fold_basis.T @ columns - parity_block(n, parity)).max() < 1e-15


@pytest.mark.parametrize("n", [2, 10])
def test_sector_maps_are_the_rotation_columns(n, rng):
    u = rotation_matrix(n)
    z = rng.normal(size=(n + 1, 3)) + 1j * rng.normal(size=(n + 1, 3))
    for parity, columns in ((+1, u[:, 0::2]), (-1, u[:, 1::2])):
        coords = dicke.z_to_sector(n, parity, z)
        assert np.abs(coords - columns.T @ z).max() < 1e-14
        assert np.abs(dicke.sector_to_z(n, parity, coords) - columns @ coords).max() < 1e-14
        real = coords.real[:, 0]
        assert np.abs(dicke.sector_to_z(n, parity, real) - columns @ real).max() < 1e-14


def test_parity_block_rejects_bad_input():
    with pytest.raises(ValueError, match="n_qubits must be an even integer >= 2"):
        parity_block(3, +1)
    with pytest.raises(ValueError, match="parity must be"):
        parity_block(4, 0)


@pytest.mark.parametrize("n", [4, 10])
def test_x_polarized_state_is_binomial(n):
    # |N/2, N/2>_X = |+>^N: amplitudes 2^{-N/2} sqrt(binom(N, k)) over Z states.
    amp = x_polarized_state(n)
    expected = np.array([np.sqrt(comb(n, k)) / 2 ** (n / 2) for k in range(n + 1)])
    assert np.abs(amp - expected).max() < 1e-12


@pytest.mark.parametrize("n", [2, 600, 2000])
def test_x_polarized_state_is_the_rotation_column(n):
    amp = x_polarized_state(n)
    assert amp.dtype == np.float64 and amp.min() >= 0
    assert np.abs(amp - rotation_matrix(n)[:, 0]).max() < 1e-12


def test_x_polarized_state_solves_the_even_block_only(monkeypatch):
    # |+>^N is e_0 of the even sector; the odd block is not needed for it.
    sizes = []
    solve = dicke.eigh_tridiagonal

    def counted(diag, off):
        sizes.append(len(diag))
        return solve(diag, off)

    monkeypatch.setattr(dicke, "eigh_tridiagonal", counted)
    x_polarized_state(20)
    assert sizes == [11]  # one solve of the even block, N/2 + 1 = 11; the odd one has 10


def test_rotation_of_m0_state_n2():
    # Oracle: the explicit 3x3 rotation by pi/2 about Y for j = 1 sends
    # |1, 0>_Z to (|1, -1>_Z - |1, 1>_Z)/sqrt(2); our X state may differ by
    # a global phase only.
    target = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2)
    got = sector_to_z(2, -1, np.array([1.0]))  # X state 1 is column 0 of the odd sector
    overlap = abs(np.vdot(target, got))
    assert overlap == pytest.approx(1.0, abs=1e-12)

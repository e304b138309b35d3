"""Collective-spin algebra on the maximum-spin (Dicke) subspace of N qubits.

All states and operators live in the (N+1)-dimensional spin-N/2 multiplet of
N qubits (N even).  Basis vectors |N/2, m>_W are eigenvectors of the
collective operator S_W (W = Z or X) and are ordered by descending m, so
index 0 carries m = +N/2.  The Z <-> X change of basis is fixed to the
rotation exp(-i (pi/2) S_Y); with this gauge |N/2, N/2>_X has nonnegative
binomial amplitudes over the Z basis.  That rotation is real (S_Y is i times
a real antisymmetric matrix), and its columns are the eigenvectors of the
tridiagonal S_X with a sign gauge fixed by the X-frame lowering operator.
S_X commutes with the spin-flip parity, so on the Z basis folded into
(|m> + |-m>)/sqrt(2) and (|m> - |-m>)/sqrt(2) it splits into two tridiagonal
blocks of half the size; the rotation is built from their eigenvectors (see
`parity_block`), and states are rotated block by block (`sector_to_z`,
`z_to_sector`), never through the dense (N+1) x (N+1) matrix
(`rotation_matrix`), which is kept as their dense reference.

scipy is used only through its compiled LAPACK and BLAS wrappers: ``dstevd``
for all eigenpairs of a tridiagonal matrix, ``dstebz`` and ``dstein`` for its
lowest ones (`lowest_eigenpairs`), and ``zhbmv`` in the ramp stepper.  They
are loaded from the files of scipy's own f2py extension modules, without
importing the scipy package itself: the scipy.linalg package would also
import numpy.f2py and numpy.testing, about half of the CLI's start-up.
Only when a file will not load is the scipy package imported, once, and
the load retried (see `_linalg_extension`).

States are plain numpy arrays of Z amplitudes, index k carrying
m = N/2 - k.  The functions are pure, keep no state and return fresh arrays,
so everything can be shared freely across threads or sweep workers.
"""

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

import numpy as np


def _linalg_extension(name):
    """scipy's compiled module scipy.linalg.<name>, without importing the scipy package.

    The module is registered under its own name, so a later import of
    scipy.linalg uses it and its functions are the very same objects.
    """
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    package = find_spec("scipy")  # locates the package without running its __init__
    if package is None:
        raise ImportError("spinsense needs scipy's compiled LAPACK/BLAS wrappers", name="scipy")
    directory = os.path.join(package.submodule_search_locations[0], "linalg")
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(fullname)
    if spec is None:
        from importlib.metadata import version

        raise ImportError(
            f"scipy {version('scipy')} has no extension module "
            f"{os.path.join(directory, name)}{EXTENSION_SUFFIXES[0]}",
            name=fullname,
        )
    try:
        module = module_from_spec(spec)  # loads the shared library
    except ImportError:
        # A wheel that bundles its BLAS (delvewheel on Windows) adds that
        # library's folder to the DLL search path in scipy/__init__.py.
        import scipy  # noqa: F401

        module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[fullname] = module
    return module


_flapack = _linalg_extension("_flapack")
dstevd, dstebz, dstein = _flapack.dstevd, _flapack.dstebz, _flapack.dstein
zhbmv = _linalg_extension("_fblas").zhbmv


def eigh_tridiagonal(diag, off):
    """Eigenvalues w and eigenvectors V of a real symmetric tridiagonal matrix.

    Calls LAPACK ?stevd, the driver scipy.linalg.eigh_tridiagonal picks for
    all eigenpairs, so w and V are the same bits, without the wrapper's
    argument checks: callers pass float arrays of matching lengths.
    """
    if len(diag) == 1:  # ?stevd rejects 1 x 1 input
        return np.array(diag, dtype=float), np.ones((1, 1))
    w, v, info = dstevd(diag, off)
    if info:
        raise np.linalg.LinAlgError(f"?stevd failed with info = {info} (eigh_tridiagonal)")
    return w, v


def lowest_eigenpairs(diag, off, count):
    """The ``count`` lowest eigenpairs (w, V) of a real symmetric tridiagonal matrix.

    LAPACK ?stebz (bisection, block order) and then ?stein (inverse
    iteration) on its eigenvalues, sorted ascending: the calls and the order
    of scipy.linalg.eigh_tridiagonal(select="i", select_range=(0, count - 1)),
    so w and V are the same bits.  Callers pass float arrays of matching
    lengths and 1 <= count <= len(diag), with len(diag) >= 2.
    """
    # range 2 selects eigenvalues il..iu (1-based); vl and vu are then unused
    m, w, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 1.0, 1, count, 0.0, "B")
    if info:
        raise np.linalg.LinAlgError(f"?stebz failed with info = {info} (lowest_eigenpairs)")
    w = w[:m]
    v, info = dstein(diag, off, w, iblock, isplit)
    if info:
        raise np.linalg.LinAlgError(f"?stein failed with info = {info} (lowest_eigenpairs)")
    order = np.argsort(w)
    return w[order], v[:, order]


def check_n(n_qubits):
    """ValueError unless N is an even integer >= 2, as every function here needs."""
    if not isinstance(n_qubits, (int, np.integer)) or n_qubits < 2 or n_qubits % 2:
        raise ValueError(f"n_qubits must be an even integer >= 2, got {n_qubits!r}")


def ladder_elements(n_qubits):
    """Raising-operator elements sqrt(j(j+1) - m(m+1)) between index k and k-1.

    Entry k couples |N/2, m_k> to |N/2, m_k + 1> (descending-m index order),
    for j = N/2 and k = 1..N.
    """
    j = n_qubits / 2
    m = j - np.arange(1, n_qubits + 1)
    return np.sqrt(j * (j + 1) - m * (m + 1))


_SQRT_HALF = np.sqrt(0.5)


def fold(z):
    """Folded coordinates (sym, antisym) of Z-basis amplitudes along axis 0.

    ``sym`` is over (|m>_Z + |-m>_Z)/sqrt(2) for m = N/2, ..., 1 and then
    |0>_Z, ``antisym`` over (|m>_Z - |-m>_Z)/sqrt(2) for m = N/2, ..., 1:
    the spin-flip parity is +1 on the first and -1 on the second.
    """
    h = len(z) // 2
    top, bottom = z[:h], z[:h:-1]
    return np.concatenate([(top + bottom) * _SQRT_HALF, z[h:h + 1]]), (top - bottom) * _SQRT_HALF


def unfold(sym, antisym=None):
    """Z-basis amplitudes of folded coordinates (see fold); None stands for zeros."""
    if sym is None:
        sym = np.zeros((len(antisym) + 1,) + antisym.shape[1:], antisym.dtype)
    h = len(sym) - 1
    top = sym[:h] * _SQRT_HALF
    bottom = top.copy()
    if antisym is not None:
        odd = antisym * _SQRT_HALF
        top += odd
        bottom -= odd
    return np.concatenate([top, sym[h:], bottom[::-1]])


def real_matmul(m, z):
    """m @ z for real m and a C-ordered complex block z, on its float64 view."""
    return (m @ z.view(float)).view(complex)


def parity_block(n_qubits, parity):
    """The X states of one spin-flip parity over the folded Z basis (see fold).

    On the folded basis S_X is two real symmetric tridiagonal blocks: the
    even one (parity +1, size N/2 + 1) holds the X states of even index,
    m = N/2, N/2 - 2, ..., -N/2, the odd one (size N/2) the others.  Column
    i of a block is X state 2i (even) or 2i + 1 (odd), in descending m.

    The signs are those of exp(-i (pi/2) S_Y), for which the X-frame lowering
    operator L = -S_Z - i S_Y has <U_{k+1}|L|U_k> > 0.  Column 0 of the even
    block is the nonnegative binomial |+>^N.  L^+ annihilates |+>^N, so
    L |+>^N = -2 S_Z |+>^N, and column 0 of the odd block is nonpositive.
    Within a block <U_{k+2}|S_Z^2|U_k> = <U_{k+2}|L^2|U_k> / 4 > 0, with
    S_Z^2 the diagonal m^2 of the folded basis: the sign that
    model.sector_tridiagonal takes for S_Z^2 in the X basis.

    Each block is one ?stevd call of half the size of the full S_X (the even
    one takes about 6 ms at N = 600 and 76 ms at N = 2000, one BLAS thread
    on a 2-core x86 host).  The returned array is float64.
    """
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    check_n(n_qubits)
    h = n_qubits // 2
    off = ladder_elements(n_qubits)[: h if parity == +1 else h - 1] / 2
    if parity == +1:
        off[-1] *= np.sqrt(2)  # |0>_Z couples to both |+-1>_Z
    _, v = eigh_tridiagonal(np.zeros(len(off) + 1), off)
    v = v[:, ::-1]  # ascending eigenvalues -> descending m
    m_sq = (h - np.arange(len(v)))[:, None] ** 2.0
    steps = np.einsum("ij,ij->j", v[:, 1:], m_sq * v[:, :-1])
    signs = np.cumprod(np.concatenate([[parity * np.sign(v[:, 0].sum())], np.sign(steps)]))
    return v * signs


def rotation_matrix(n_qubits):
    """Real orthogonal U = exp(-i (pi/2) S_Y) mapping the Z basis onto the X basis.

    Columns are the X-basis states expressed over Z-basis amplitudes:
    |N/2, m>_X = U |N/2, m>_Z, i.e. the Wigner matrix d^{N/2}(pi/2), the
    eigenvectors of S_X in descending m.  Its even columns are the unfolded
    even parity block and its odd columns the odd one (see parity_block); it
    agrees with the dense exponential to about 1e-14.  Building it is two
    half-size eigensolves with vectors plus O(N^2) assembly: about 19 ms at
    N = 600, 47 ms at N = 1000 and 0.2 s at N = 2000 (one BLAS thread on a
    2-core x86 host; one eigensolve of the full S_X took 35, 90 and 450 ms).
    States are rotated through the blocks (see sector_to_z); no ramp, scan
    or sweep builds this dense matrix, which is the reference the tests
    hold the blocks to and the span the benchmark's tracer records.
    """
    even, odd = parity_block(n_qubits, +1), parity_block(n_qubits, -1)
    u = np.empty((n_qubits + 1, n_qubits + 1))
    u[:, 0::2] = unfold(even)
    u[:, 1::2] = unfold(None, odd)
    return u


def _block_product(block, coords):
    """block @ coords for real or complex coords, a vector or a block of columns."""
    if not np.iscomplexobj(coords):
        return block @ coords
    columns = np.ascontiguousarray(coords).reshape(len(coords), -1)
    return real_matmul(block, columns).reshape(coords.shape)


def sector_to_z(n_qubits, parity, coords):
    """Z-basis amplitudes of coordinates over one parity sector's X states.

    ``coords`` runs over column i of parity_block(n_qubits, parity), that is
    X state 2i (parity +1) or 2i + 1 (parity -1); it is real or complex, a
    vector or a block of columns along axis 0.
    """
    folded = _block_product(parity_block(n_qubits, parity), coords)
    return unfold(folded) if parity == +1 else unfold(None, folded)


def z_to_sector(n_qubits, parity, amp):
    """Coordinates over one parity sector's X states of Z-basis amplitudes.

    The inverse of sector_to_z on states of that parity; the other parity's
    part of ``amp`` is dropped.
    """
    sym, antisym = fold(amp)
    return _block_product(parity_block(n_qubits, parity).T, sym if parity == +1 else antisym)


def x_polarized_state(n_qubits):
    """Z amplitudes of |N/2, N/2>_X = |+>^N, the strong transverse-field ground state.

    A real array.  It is e_0 of the even parity sector, so the odd block is
    never solved.
    """
    check_n(n_qubits)
    e0 = np.zeros(n_qubits // 2 + 1)
    e0[0] = 1.0
    return sector_to_z(n_qubits, +1, e0)


def ghz_state(n_qubits):
    """Z amplitudes of (|N/2, N/2>_Z + |N/2, -N/2>_Z) / sqrt(2), a complex array.

    The even ground state of the zero-field Ising model, complex like the
    ramp states it is compared with.
    """
    check_n(n_qubits)
    amp = np.zeros(n_qubits + 1, dtype=complex)
    amp[0] = amp[-1] = 1 / np.sqrt(2)
    return amp

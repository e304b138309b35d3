"""Collective-spin algebra on the maximum-spin (Dicke) subspace of N qubits.

All states and operators live in the (N+1)-dimensional spin-N/2 multiplet of
N qubits (N even).  Basis vectors |N/2, m>_W are eigenvectors of the
collective operator S_W (W = Z or X) and are ordered by descending m, so
index 0 carries m = +N/2.  The Z <-> X change of basis is fixed to the
rotation exp(-i (pi/2) S_Y); with this gauge |N/2, N/2>_X has nonnegative
binomial amplitudes over the Z basis.  That rotation is real (S_Y is i times
a real antisymmetric matrix), and its columns are the eigenvectors of the
tridiagonal S_X with a sign gauge fixed by the X-frame lowering operator, so
it is built in O(N^2) from one tridiagonal eigensolve rather than a dense
matrix exponential (see `rotation_matrix`).

Objects are immutable after construction and all functions are pure, so
states and operators can be shared freely across threads or sweep workers.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

AXES = ("Z", "X")


def _readonly(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DickeBasis:
    """Eigenbasis |N/2, m>_axis of one collective spin component."""

    n_qubits: int
    axis: str = "Z"

    def __post_init__(self):
        n = self.n_qubits
        if not isinstance(n, (int, np.integer)) or n < 2 or n % 2:
            raise ValueError(f"n_qubits must be an even integer >= 2, got {n!r}")
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")

    @property
    def dimension(self):
        return self.n_qubits + 1

    @property
    def m_values(self):
        """Magnetic quantum numbers, descending from +N/2 to -N/2."""
        return _readonly(self.n_qubits / 2 - np.arange(self.n_qubits + 1))


@dataclass(frozen=True)
class DickeState:
    """Complex amplitude vector over a DickeBasis."""

    basis: DickeBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (self.basis.dimension,):
            raise ValueError(
                f"amplitudes must have shape ({self.basis.dimension},), got {amp.shape}"
            )
        object.__setattr__(self, "amplitudes", _readonly(amp))

    @property
    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self):
        n = self.norm
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return DickeState(self.basis, self.amplitudes / n)

    def overlap(self, other):
        """<self|other>; both states must share the same basis."""
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other):
        return abs(self.overlap(other)) ** 2

    def expectation(self, operator):
        """<self|A|self>, returned real when the operator is Hermitian."""
        if operator.basis != self.basis:
            raise ValueError("operator and state bases differ")
        val = np.vdot(self.amplitudes, operator.matrix @ self.amplitudes)
        return float(val.real) if operator.hermitian else complex(val)


@dataclass(frozen=True)
class CollectiveOperator:
    """Dense operator on a DickeBasis with a Hermiticity tag."""

    basis: DickeBasis
    matrix: np.ndarray
    hermitian: bool = True

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        d = self.basis.dimension
        if mat.shape != (d, d):
            raise ValueError(f"matrix must have shape ({d}, {d}), got {mat.shape}")
        if self.hermitian and np.abs(mat - mat.conj().T).max() > 1e-12:
            raise ValueError("matrix tagged hermitian is not Hermitian within 1e-12")
        object.__setattr__(self, "matrix", _readonly(mat))


def ladder_elements(n_qubits):
    """Raising-operator elements sqrt(j(j+1) - m(m+1)) between index k and k-1.

    Entry k couples |N/2, m_k> to |N/2, m_k + 1> (descending-m index order),
    for j = N/2 and k = 1..N.
    """
    j = n_qubits / 2
    m = j - np.arange(1, n_qubits + 1)
    return np.sqrt(j * (j + 1) - m * (m + 1))


def collective_operators(n_qubits):
    """(S_X, S_Y, S_Z) in the Z eigenbasis.

    S_Z is diagonal with entries m; S_X, S_Y follow from the standard
    angular-momentum ladder elements for j = N/2.  They satisfy
    [S_A, S_B] = i eps_ABC S_C and the Casimir constraint
    S_X^2 + S_Y^2 + S_Z^2 = (N/2)(N/2 + 1) I.
    """
    basis = DickeBasis(n_qubits, "Z")
    sp = np.diag(ladder_elements(n_qubits), 1)
    sx = (sp + sp.T) / 2
    sy = (sp - sp.T) / 2j
    sz = np.diag(basis.m_values)
    return (
        CollectiveOperator(basis, sx),
        CollectiveOperator(basis, sy),
        CollectiveOperator(basis, sz),
    )


def parity_operator(basis):
    """Spin-flip parity (the product of all single-qubit X operators).

    Diagonal with entries (-1)^(N/2 - m) in the X eigenbasis; in the Z
    eigenbasis the same operator exchanges m <-> -m (the anti-diagonal
    matrix).  It is Hermitian, unitary, and squares to the identity.
    """
    d = basis.dimension
    if basis.axis == "X":
        mat = np.diag((-1.0) ** np.arange(d))
    else:
        mat = np.fliplr(np.eye(d))
    return CollectiveOperator(basis, mat)


@lru_cache(maxsize=8)
def rotation_matrix(n_qubits):
    """Real orthogonal U = exp(-i (pi/2) S_Y) mapping the Z basis onto the X basis.

    Columns are the X-basis states expressed over Z-basis amplitudes:
    |N/2, m>_X = U |N/2, m>_Z, i.e. the Wigner matrix d^{N/2}(pi/2).  It is
    built from the eigenvectors of S_X, which is real symmetric tridiagonal
    in the Z basis with the distinct eigenvalues m, in descending m.  Their
    signs are fixed to the gauge of exp(-i (pi/2) S_Y): column 0 (the
    binomial |+>^N) is nonnegative, and column k + 1 has a positive overlap
    with L U_k, where L = U S_- U^T = -S_Z - i S_Y is the X-frame lowering
    operator (real tridiagonal in the Z basis; |<U_{k+1}|L|U_k>| >= sqrt(N)).
    This costs O(N^2) and agrees with the dense exponential to about 1e-14.
    The returned array is float64 and read-only; a few recent N are cached.
    """
    basis = DickeBasis(n_qubits, "Z")
    half = ladder_elements(n_qubits) / 2
    _, v = eigh_tridiagonal(np.zeros(basis.dimension), half)
    v = v[:, ::-1]  # ascending eigenvalues -> descending m
    # L v as a band product: -S_Z on the diagonal, -i S_Y = (S_+^T - S_+)/2 off it.
    lv = -basis.m_values[:, None] * v
    lv[1:] += half[:, None] * v[:-1]
    lv[:-1] -= half[:, None] * v[1:]
    steps = np.einsum("ij,ij->j", v[:, 1:], lv[:, :-1])
    signs = np.cumprod(np.concatenate([[np.sign(v[:, 0].sum())], np.sign(steps)]))
    return _readonly(v * signs)


def rotate_basis(obj, to_axis):
    """Re-express a DickeState or CollectiveOperator in the Z or X basis."""
    if to_axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {to_axis!r}")
    if obj.basis.axis == to_axis:
        return obj
    u = rotation_matrix(obj.basis.n_qubits)
    target = DickeBasis(obj.basis.n_qubits, to_axis)
    if isinstance(obj, DickeState):
        # Z amplitudes c and X amplitudes d of the same state: c = U d.
        amp = u.T @ obj.amplitudes if to_axis == "X" else u @ obj.amplitudes
        return DickeState(target, amp)
    if isinstance(obj, CollectiveOperator):
        mat = (
            u.T @ obj.matrix @ u
            if to_axis == "X"
            else u @ obj.matrix @ u.T
        )
        return CollectiveOperator(target, mat, hermitian=obj.hermitian)
    raise TypeError(f"cannot rotate object of type {type(obj).__name__}")


def basis_state(basis, index):
    """The basis vector at the given descending-m index."""
    amp = np.zeros(basis.dimension, dtype=complex)
    amp[index] = 1.0
    return DickeState(basis, amp)


def x_polarized_state(n_qubits, axis="X"):
    """|N/2, N/2>_X, the ground state in the strong transverse-field limit."""
    state = basis_state(DickeBasis(n_qubits, "X"), 0)
    return rotate_basis(state, axis)


def ghz_state(n_qubits, parity=+1, axis="Z"):
    """(|N/2, N/2>_Z + parity |N/2, -N/2>_Z) / sqrt(2).

    parity = +1 gives the even ground state of the zero-field Ising model,
    parity = -1 its odd degenerate partner.
    """
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    basis = DickeBasis(n_qubits, "Z")
    amp = np.zeros(basis.dimension, dtype=complex)
    amp[0] = 1 / np.sqrt(2)
    amp[-1] = parity / np.sqrt(2)
    return rotate_basis(DickeState(basis, amp), axis)

"""Time-dependent dynamics: field schedules, propagation, protocol runs.

Every ramp is stepped by one kernel, ``_exponential_steps``, which applies
exponentials exp(-i H(h) dt) of the frozen Hamiltonian, either exactly
through its eigendecomposition or as a Chebyshev series whose dropped terms
weigh at most 1e-16.  Either way every step is unitary to that bound plus
round-off, whatever the step size.  The kernel writes
H(h^x) = A + h^x B with A and B real symmetric tridiagonal and advances a
(d, K) block of states, each column by its own signed time step.

The fields come from the fourth-order commutator-free Magnus rule CF4
(Blanes & Moan 2006; Alvermann & Fehske, J. Comput. Phys. 230, 5930, 2011):
a step of length dt samples the field at the Gauss points t_1,2 and applies
exp(-i dt (a_1 H_1 + a_2 H_2)) exp(-i dt (a_2 H_1 + a_1 H_2)), the right
factor first.  Because H is linear in h^x and a_1 + a_2 = 1/2, each factor is
exp(-i (dt/2) H(h')) with h' a weighted mean of the two Gauss-point fields,
so a CF4 step is two exponentials of half the step length, each of the same
tridiagonal form.  Every step count in this module counts exponentials per
ramp (two per CF4 step), so it is even.

For h^z = 0 the evolution is computed inside the two parity sectors of the
X eigenbasis, where the Hamiltonian is exactly tridiagonal and B = -2 m is
diagonal; parity is then conserved identically, which is the symmetry
protection the prepare/readout ramps rely on.  With h^z != 0 the
Hamiltonian is real symmetric tridiagonal in the Z basis, with h^x on the
off-diagonal, and is stepped there instead.

A ramp-time scan steps all its durations as the columns of one block through
the down ramp alone, the up ramp being its transpose.  The protocol kernel
steps the prepared state and the readout state together: the up ramp's
adjoint, walked backwards, meets the down ramp's exponents in the same order,
so preparation and readout share each exponential's eigendecomposition or
series.

Two choices are made per call from what the stepper sees.  The first picks
the Chebyshev series or the eigensolves, from the rows d, the columns K and
the length of the series.

A block no wider than tall (the protocol kernel's two columns, a propagated
state) skips the eigensolves when its series are short (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967, 1984).  With [c - r, c + r] holding the spectrum
of H and H' = (H - c) / r,

    exp(-i H dt) = e^{-i c dt} sum_j (2 - delta_j0) (-i)^j J_j(r dt) T_j(H'),

the Bessel coefficients of all columns come from one FFT per exponential,
and T_j(H') psi from the three-term recurrence on the block's float64 view,
O(d K) per term.
The interval is Gershgorin's: its ends are concave and convex in h, so
their chords between 17 fields spanning the ramp enclose the spectrum at
every field.  The series stops at the least m whose dropped terms weigh at
most 1e-16 by |J_k(x)| <= (|x|/2)^k / k!; m grows with r |dt|, not with d.
A call takes the series when its longest one satisfies
m_max (550 + d K) < 3.75 d^2, a cost model fitted to an earlier timing of
both paths.  It still takes the faster one on these times per exponential
of the current code (one BLAS thread on a shared 2-core x86 host, best of
4-6 runs; m is the mean series length over the ramp, at T_a = 11.6 N + 60):

       N     d    K   exps      m   eigensolves   series   taken
      50    26    2   4000    7.3        54 us    132 us   eigensolves
      50    26    2    400   12.2        46 us    172 us   eigensolves
     100    51    2    400   14.6       139 us    223 us   eigensolves
     100    51    2   4000    8.3       182 us    145 us   series
     100    51    1   4000    8.3       169 us    134 us   series
     150    76    2    400   16.5       292 us    212 us   series
     200   101    2    400   18.2       502 us    247 us   series
     200   101   32    400   18.2       637 us   1217 us   eigensolves
     600   301    2    400   27.9      5167 us    666 us   series
     600   301    2     40  112.0      5210 us   2321 us   series
    1000   501    2    400   35.6     16774 us    921 us   series

Every other block goes through the eigendecompositions, one direct call of
LAPACK ?stevd per exponential (``eigh_tridiagonal``), and is carried in the
instantaneous eigenbasis: moved between exponentials by the real transfer
matrix W_i = V_{i+1}^T V_i (one d^3 product and one d x d x K product each),
with V_{-1} = 1 so that W_0 = V_0^T rotates it in, and rotated out by the
last V.  The fields are walked in chunks whose stacks hold at most 2^13
float64 each (one exponential's worth when that is more): a chunk's
diagonals come from one broadcast, its eigenpairs fill preallocated stacks,
its transfer matrices come from one stacked product and its phase table
from one cos and one sin, so the loop over exponentials keeps only the
d x d x K products and the phase multiplies.

The second choice is the phase table.  When K >= 3 signed steps form an
arithmetic progression s_k = s_0 + k delta, the phase table exp(i w s_k) is
applied as exp(i w (s_0 + q B delta)) times exp(i w r delta) with
k = q B + r and B = ceil(sqrt(K)): two exact tables of about d sqrt(K)
entries each instead of d K cos/sin evaluations.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .dicke import (
    DickeBasis,
    DickeState,
    collective_operators,
    ghz_state,
    ladder_elements,
    rotate_basis,
    rotation_matrix,
    x_polarized_state,
)
from .model import sector_indices, sector_tridiagonal

SEGMENT_KINDS = ("cosine-down", "sine-up", "linear", "constant")
_STEPS_RULE = "steps must be even and at least 2"
_GAUSS = np.sqrt(3) / 6  # Gauss points of a CF4 step sit at 1/2 -+ _GAUSS
_CONTINUITY_TOL = 1e-12


@dataclass(frozen=True)
class Segment:
    """One piece of the transverse-field profile h^x(t)."""

    kind: str
    duration: float
    field_start: float
    field_end: float

    def __post_init__(self):
        if self.kind not in SEGMENT_KINDS:
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if not self.duration > 0:
            raise ValueError("segment duration must be positive")
        if self.kind == "cosine-down" and abs(self.field_end) > _CONTINUITY_TOL:
            raise ValueError("cosine-down must end at zero field")
        if self.kind == "sine-up" and abs(self.field_start) > _CONTINUITY_TOL:
            raise ValueError("sine-up must start at zero field")
        if self.kind == "constant" and self.field_start != self.field_end:
            raise ValueError("constant segment must have equal endpoint fields")

    def field_at(self, t):
        """Field at local time t in [0, duration]."""
        if self.kind == "cosine-down":
            return self.field_start * np.cos(np.pi * t / (2 * self.duration))
        if self.kind == "sine-up":
            return self.field_end * np.sin(np.pi * t / (2 * self.duration))
        if self.kind == "linear":
            return self.field_start + (self.field_end - self.field_start) * t / self.duration
        return self.field_start


def cosine_ramp_down(field, duration):
    """h^x(t) = h0 cos(pi t / 2T): field -> 0 over the given duration."""
    return Segment("cosine-down", duration, field, 0.0)


def sine_ramp_up(field, duration):
    """h^x(t) = h0 sin(pi t / 2T): 0 -> field over the given duration."""
    return Segment("sine-up", duration, 0.0, field)


def linear_ramp(field_start, field_end, duration):
    return Segment("linear", duration, field_start, field_end)


def hold(field, duration):
    return Segment("constant", duration, field, field)


@dataclass(frozen=True)
class Schedule:
    """Ordered transverse-field segments, continuous across boundaries."""

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("schedule needs at least one segment")
        for a, b in zip(segs, segs[1:]):
            if abs(a.field_end - b.field_start) > _CONTINUITY_TOL:
                raise ValueError(
                    f"field jump {a.field_end} -> {b.field_start} between segments"
                )
        object.__setattr__(self, "segments", segs)

    @property
    def total_duration(self):
        return sum(s.duration for s in self.segments)

    def field(self, t):
        """Field at global time t."""
        if t < 0 or t > self.total_duration + _CONTINUITY_TOL:
            raise ValueError(f"time {t} outside schedule [0, {self.total_duration}]")
        for seg in self.segments:
            if t <= seg.duration:
                return seg.field_at(t)
            t -= seg.duration
        return self.segments[-1].field_at(self.segments[-1].duration)


# ---------------------------------------------------------------------------
# The ramp stepper (see the module docstring).
# ---------------------------------------------------------------------------


def _cf4_fields(profile, n_exps):
    """CF4 exponent fields of a ramp over [0, 1] in ``n_exps`` exponentials.

    ``profile`` maps the fraction of the ramp elapsed to the field.  Step j of
    the n_exps / 2 steps samples it at the Gauss fractions g_1,2 and yields
    2 (a_2 h(g_1) + a_1 h(g_2)), applied first, then 2 (a_1 h(g_1) + a_2 h(g_2)).
    """
    if n_exps < 2 or n_exps % 2:
        raise ValueError(_STEPS_RULE)
    m = n_exps // 2
    h1 = profile((np.arange(m) + 0.5 - _GAUSS) / m)
    h2 = profile((np.arange(m) + 0.5 + _GAUSS) / m)
    a1, a2 = 0.25 - _GAUSS, 0.25 + _GAUSS
    fields = np.empty(n_exps)
    fields[0::2] = 2 * (a2 * h1 + a1 * h2)
    fields[1::2] = 2 * (a1 * h1 + a2 * h2)
    return fields


_ARITHMETIC_TOL = 1e-13  # relative; any np.arange(...) * unit grid passes


def _phase_factors(steps):
    """Outer and inner step lengths of an arithmetic progression, else None.

    For K >= 3 steps s_k = s_0 + k delta (to _ARITHMETIC_TOL relative to
    the largest |s_k|), B = ceil(sqrt(K)) and k = q B + r, returns
    (s_0 + q B delta for q < Q, r delta for r < B) with Q = ceil(K / B).
    """
    k = len(steps)
    if k < 3:
        return None
    delta = (steps[-1] - steps[0]) / (k - 1)
    ramp = steps[0] + delta * np.arange(k)
    if np.abs(steps - ramp).max() > _ARITHMETIC_TOL * np.abs(steps).max():
        return None
    width = int(np.ceil(np.sqrt(k)))
    rows = -(-k // width)
    return steps[0] + delta * width * np.arange(rows), delta * np.arange(width)


_STEVD = get_lapack_funcs("stevd", dtype=np.float64)


def eigh_tridiagonal(diag, off):
    """Eigenvalues w and eigenvectors V of a real symmetric tridiagonal matrix.

    Calls LAPACK ?stevd, the driver scipy.linalg.eigh_tridiagonal picks for
    all eigenpairs, so w and V are the same bits, without the wrapper's
    argument checks: the stepper checks its inputs once per call.
    """
    if len(diag) == 1:  # ?stevd rejects 1 x 1 input
        return np.array(diag, dtype=float), np.ones((1, 1))
    w, v, info = _STEVD(diag, off)
    if info:
        raise LinAlgError(f"?stevd failed with info = {info} (eigh_tridiagonal)")
    return w, v


def _real_matmul(m, z):
    """m @ z for real m and a C-ordered complex block z, on its float64 view."""
    return (m @ z.view(float)).view(complex)


_SERIES_TAIL = 1e-16  # bound on the weight of the dropped Chebyshev terms
# Cost model of the path choice, in units of one series term's work per row
# and column: a term costs _SERIES_TERM + d K, an eigensolve with its two
# products about _EIGEN_COST d^2 (see the module docstring for the table).
_SERIES_TERM = 550.0
_EIGEN_COST = 3.75
_SERIES_KNOTS = 17  # fields at which the Gershgorin bounds are evaluated
_STACK_FLOATS = 1 << 13  # float64 entries per stack of an eigenbasis chunk


def _series_lengths(x, limit=math.inf):
    """Index m of the last Chebyshev term kept for exp(i x y), |y| <= 1, per x.

    The dropped terms weigh 2 sum_{k>m} |J_k(x)| <= 2 sum_{k>m} (|x|/2)^k / k!,
    at most four times its first term once |x| <= m + 2, as the ratio of
    successive terms is then below 1/2; m is the least index that puts this
    below _SERIES_TAIL.  Returns None as soon as some m reaches ``limit``.
    """
    half = np.abs(np.asarray(x, dtype=float)) / 2
    with np.errstate(divide="ignore"):
        log_half = np.log(half)  # -inf at x = 0, which keeps T_0 alone
    log_term = log_half.copy()  # log (|x|/2)^k / k! at k = m + 1
    lengths = np.full(half.shape, -1)
    log_tail = math.log(_SERIES_TAIL / 4)
    m = 0
    while (open_ := lengths < 0).any():
        if m >= limit:
            return None
        lengths[open_ & (2 * half <= m + 2) & (log_term <= log_tail)] = m
        m += 1
        log_term += log_half - math.log(m + 1)
    return lengths


def _bessel_table(x, m):
    """J_k(x) for k = 0..m along a new last axis, without scipy.special.

    exp(i x sin t) = sum_k J_k(x) e^{ikt}, so an M-point FFT of it returns
    J_k plus the aliases J_{k -+ M}; M >= 2 (m + 1) puts every alias past
    index m, below _SERIES_TAIL when m is at least _series_lengths(x).
    """
    size = 1 << int(2 * m + 1).bit_length()
    waves = np.exp(1j * np.multiply.outer(x, np.sin(2 * np.pi / size * np.arange(size))))
    return np.fft.fft(waves, axis=-1)[..., : m + 1].real / size


def _gershgorin(diag, off):
    """Ends (lo, hi) of an interval holding the tridiagonal's spectrum."""
    size = np.abs(off)
    rad = np.zeros(len(diag))
    rad[1:] = size
    rad[:-1] += size
    return (diag - rad).min(), (diag + rad).max()


def _exponential_steps(a, b, fields, durations, psi):
    """Step a (d, K) block through H(h) = A + h B, one exponential per field.

    Column k of ``psi`` spans the signed duration ``durations[k]`` in
    len(fields) equal steps; step i applies exp(-i H(fields[i]) dt_k).
    Returns the evolved block as a new array.  A block no wider than tall
    whose Chebyshev series are short takes the series, any other is carried
    in the eigenbasis, and arithmetic step lengths get the factored phase
    table (see the module docstring).
    """
    neg_dts = -np.asarray(durations, dtype=float) / len(fields)
    # One check here stands in for a per-step input scan of the eigensolves.
    if not all(np.isfinite(x).all() for x in (fields, neg_dts, *a, *b)):
        raise ValueError("ramp fields, durations and couplings must be finite")
    d, k = np.shape(psi)
    lengths = None
    if k <= d:
        # Gershgorin's lo(h) is concave and hi(h) convex in h, so their chords
        # between knots spanning the fields enclose the spectrum at every field.
        knots = np.linspace(np.min(fields), np.max(fields), _SERIES_KNOTS)
        ends = np.array([_gershgorin(a[0] + h * b[0], a[1] + h * b[1]) for h in knots])
        lo, hi = np.interp(fields, knots, ends[:, 0]), np.interp(fields, knots, ends[:, 1])
        centres, radii = (hi + lo) / 2, (hi - lo) / 2
        limit = _EIGEN_COST * d * d / (_SERIES_TERM + d * k)
        lengths = _series_lengths(radii * np.abs(neg_dts).max(), limit)
    if lengths is not None:
        # exp(i x y) = sum_j (2 - delta_j0) i^j J_j(x) T_j(y): real weights
        # here, the i of the odd terms applied where the two sums meet.
        weights = 2.0 - 4.0 * (np.arange(lengths.max() + 1) // 2 % 2)
        weights[0] = 1.0
        # Rows are the columns of psi, each an interleaved (re, im) float64
        # row, so H' = (H - c) / r acts along the rows on repeated diagonals.
        a2, b2 = [np.repeat(x, 2) for x in a], [np.repeat(x, 2) for x in b]
        psi = np.ascontiguousarray(np.transpose(psi), dtype=complex)
        for h, centre, radius, m in zip(fields, centres, radii, lengths):
            coef = (_bessel_table(radius * neg_dts, m) * weights[: m + 1])[..., None]
            cur = psi.view(float)
            sums = [coef[:, 0] * cur, np.zeros_like(cur)]  # even and odd j
            if m:
                diag = (a2[0] + h * b2[0] - centre) * (2 / radius)
                off = (a2[1] + h * b2[1]) * (2 / radius)
            prev = None
            for j in range(1, m + 1):
                # T_j = 2 H' T_{j-1} - T_{j-2}, and T_1 = H' T_0
                nxt = diag * cur
                nxt[:, :-2] += off * cur[:, 2:]
                nxt[:, 2:] += off * cur[:, :-2]
                if prev is None:
                    nxt *= 0.5
                else:
                    nxt -= prev
                sums[j % 2] += coef[:, j] * nxt
                prev, cur = cur, nxt
            psi = sums[0].view(complex) + 1j * sums[1].view(complex)
            psi *= np.exp(1j * centre * neg_dts)[:, None]
        return np.transpose(psi)
    factors = _phase_factors(neg_dts)
    if factors is None:
        table_steps, width = neg_dts, k
    else:  # one table holds both factors: columns [:rows] and [rows:]
        table_steps = np.concatenate(factors)
        rows, width = len(factors[0]), len(factors[0]) * len(factors[1])
    coeffs = np.zeros((d, width), dtype=complex)
    coeffs[:, :k] = psi
    t = len(table_steps)
    chunk = max(1, _STACK_FLOATS // (d * max(d, 2 * t)))
    # Two stacks of V^T take turns, so the last V of a chunk stays in place
    # as the link to the next.  The carried coefficients start out referring
    # to the identity, so the first transfer matrix is V_0^T.
    stacks = np.empty((2, chunk, d, d))
    prev = np.eye(d)
    eigvals = np.empty((chunk, d))
    transfers = np.empty((chunk, d, d))
    phase = np.empty((chunk, d, t), dtype=complex)
    for start in range(0, len(fields), chunk):
        hs = fields[start:start + chunk, None]
        n = len(hs)
        diags, offs = a[0] + hs * b[0], a[1] + hs * b[1]
        bases = stacks[start // chunk % 2]
        for i in range(n):
            w, v = eigh_tridiagonal(diags[i], offs[i])
            eigvals[i], bases[i] = w, v.T  # LAPACK's V is column-major: a flat copy
        np.matmul(bases[0], prev.T, out=transfers[0])
        np.matmul(bases[1:n], bases[:n - 1].transpose(0, 2, 1), out=transfers[1:n])
        prev = bases[n - 1]
        tables = phase[:n]  # the angles w s first, in the imaginary parts
        np.multiply(eigvals[:n, :, None], table_steps, out=tables.imag)
        np.cos(tables.imag, out=tables.real)
        np.sin(tables.imag, out=tables.imag)
        for transfer, table in zip(transfers[:n], tables):
            coeffs = _real_matmul(transfer, coeffs)
            if factors is None:
                coeffs *= table
            else:
                grid = coeffs.reshape(d, rows, -1)
                grid *= table[:, :rows, None]
                grid *= table[:, None, rows:]
    return _real_matmul(prev.T, coeffs)[:, :k]


def _sector_terms(n_qubits, interaction, parity):
    """(A, B, X indices) of one parity sector, H = A + h^x B."""
    diag, off, idx = sector_tridiagonal(n_qubits, interaction, 0.0, parity)
    return (diag, off), (2.0 * idx - n_qubits, np.zeros_like(off)), idx


def _z_diagonal(n_qubits, interaction, hz):
    """Z-basis diagonal of H at h^x = 0."""
    m = n_qubits / 2 - np.arange(n_qubits + 1)
    return -2 * interaction * m**2 - 2 * hz * m


def _segment_fields(segment, steps_per_unit):
    """Exponent fields of one segment; a constant one is a single exact exponential."""
    if segment.kind == "constant":
        return np.array([segment.field_start])
    if steps_per_unit is None:
        raise ValueError(f"a {segment.kind} segment needs steps_per_unit")
    # the 1e-9 absorbs roundoff in steps_per_unit = steps / duration
    n_exps = 2 * max(1, int(np.ceil(segment.duration * steps_per_unit / 2 - 1e-9)))
    return _cf4_fields(lambda frac: segment.field_at(frac * segment.duration), n_exps)


def _propagate_segments(a, b, segments, steps_per_unit, psi):
    """Step one state vector through every segment of a schedule."""
    block = psi[:, None]
    for seg in segments:
        fields = _segment_fields(seg, steps_per_unit)
        block = _exponential_steps(a, b, fields, [seg.duration], block)
    return block[:, 0]


def propagate(state, schedule, interaction, hz=0.0, steps_per_unit=None):
    """Propagate a DickeState through a transverse-field schedule.

    Parameters
    ----------
    state : DickeState
        Normalized input state (Z or X basis).
    schedule : Schedule
        Transverse-field profile h^x(t).
    interaction : float
        Ising coupling J.
    hz : float
        Longitudinal field held during the whole schedule.
    steps_per_unit : float or None
        Exponentials per unit time; each non-constant segment takes that
        many rounded up to an even count (two per CF4 step).  Constant
        segments are always evolved exactly in a single exponential, so None
        is valid only for a schedule of constant segments.

    Returns the final state in the same basis as the input.
    """
    if abs(state.norm - 1) > 1e-10:
        raise ValueError(f"input state is not normalized (norm = {state.norm})")
    n = state.basis.n_qubits
    in_axis = state.basis.axis
    u = rotation_matrix(n)
    if hz == 0.0:
        # Each parity sector is stepped on its own, so parity is exact.
        amp_x = state.amplitudes if in_axis == "X" else u.T @ state.amplitudes
        out_x = np.zeros(n + 1, dtype=complex)
        for parity in (+1, -1):
            a, b, idx = _sector_terms(n, interaction, parity)
            if np.any(amp_x[idx]):
                out_x[idx] = _propagate_segments(
                    a, b, schedule.segments, steps_per_unit, amp_x[idx]
                )
        out = out_x if in_axis == "X" else u @ out_x
    else:
        amp_z = state.amplitudes if in_axis == "Z" else u @ state.amplitudes
        a = (_z_diagonal(n, interaction, hz), np.zeros(n))
        b = (np.zeros(n + 1), -ladder_elements(n))
        out_z = _propagate_segments(a, b, schedule.segments, steps_per_unit, amp_z)
        out = out_z if in_axis == "Z" else u.T @ out_z
    return DickeState(DickeBasis(n, in_axis), out)


# ---------------------------------------------------------------------------
# The prepare -> sense -> readout protocol.
# ---------------------------------------------------------------------------


def sensing_phases(n_qubits, interaction, hz, t_sense):
    """Diagonal Z-basis phases accumulated at h^x = 0 with the coupling on."""
    diag = _z_diagonal(n_qubits, interaction, hz)
    return np.exp(-1j * diag * t_sense)


@dataclass(frozen=True)
class ProtocolResult:
    state_after_prep: DickeState
    state_after_sense: DickeState
    final_state: DickeState
    fidelity_to_ghz: float
    fidelity_to_initial: float
    survival_probability: float
    expectation: float
    variance: float


def _ramp_schedules(h0x, t_ramp, kind):
    if kind == "cosine-sine":
        return Schedule((cosine_ramp_down(h0x, t_ramp),)), Schedule(
            (sine_ramp_up(h0x, t_ramp),)
        )
    if kind == "linear":
        return Schedule((linear_ramp(h0x, 0.0, t_ramp),)), Schedule(
            (linear_ramp(0.0, h0x, t_ramp),)
        )
    raise ValueError(f"unknown schedule kind {kind!r}")


def run_protocol(
    n_qubits,
    interaction,
    h0x,
    t_ramp,
    t_sense,
    hz_total,
    kind="cosine-sine",
    initial_state=None,
    steps_per_ramp=400,
    observable="projection",
):
    """Run the full protocol: ramp h^x down, sense at h^x = 0, ramp back up.

    The ramps are evolved with h^z = 0 (the target field acts only during
    the sensing window) so the spin-flip symmetry protects both transforms.
    At h^x = 0 the Hamiltonian is diagonal in the Z basis and the sensing
    evolution is applied as exact phases, with the interaction term left on.

    Parameters
    ----------
    steps_per_ramp : int
        Exponentials per ramp, even (two per CF4 step).
    initial_state : DickeState or None
        None starts from the projected strong-field state |N/2, N/2>_X;
        pass a finite-field ground state to model a cooled preparation.
    observable : "projection" or "sx"
        Readout statistics reported in ``expectation``/``variance``: the
        survival projector onto |N/2, N/2>_X, or global magnetization S_X.
    """
    if t_ramp < 0 or t_sense < 0:
        raise ValueError("times must be nonnegative")
    if observable not in ("projection", "sx"):
        raise ValueError(f"unknown observable {observable!r}")
    if steps_per_ramp < 2 or steps_per_ramp % 2:
        raise ValueError(_STEPS_RULE)
    init = x_polarized_state(n_qubits, axis="Z") if initial_state is None else initial_state
    psi = rotate_basis(init, "Z")

    def ramp(state, schedule):
        spu = steps_per_ramp / schedule.total_duration
        return propagate(state, schedule, interaction, 0.0, spu)

    if t_ramp > 0:
        down, up = _ramp_schedules(h0x, t_ramp, kind)
        after_prep = ramp(psi, down)
    else:
        after_prep = psi

    if t_sense > 0:
        amp = after_prep.amplitudes * sensing_phases(
            n_qubits, interaction, hz_total, t_sense
        )
        after_sense = DickeState(after_prep.basis, amp)
    else:
        after_sense = after_prep

    final = ramp(after_sense, up) if t_ramp > 0 else after_sense

    ref = x_polarized_state(n_qubits, axis="Z")
    survival = final.fidelity(ref)
    fid_ghz = after_prep.fidelity(ghz_state(n_qubits))
    fid_init = final.fidelity(psi)
    if observable == "projection":
        expectation, variance = survival, survival * (1 - survival)
    else:
        sx = collective_operators(n_qubits)[0]
        expectation = final.expectation(sx)
        second = float(
            np.vdot(final.amplitudes, sx.matrix @ (sx.matrix @ final.amplitudes)).real
        )
        variance = second - expectation**2
    return ProtocolResult(
        state_after_prep=after_prep,
        state_after_sense=after_sense,
        final_state=final,
        fidelity_to_ghz=fid_ghz,
        fidelity_to_initial=fid_init,
        survival_probability=survival,
        expectation=expectation,
        variance=variance,
    )


# ---------------------------------------------------------------------------
# Batched ramp-time scans.
#
# For a one-segment cosine (or sine, or linear) ramp the CF4 fields depend
# only on the fraction of the ramp elapsed, not on the ramp duration.  A whole
# grid of ramp times therefore shares every per-exponential
# eigendecomposition, each grid column advancing with its own dt.
#
# The up ramp mirrors the down ramp: its field at fraction g is the down
# ramp's at 1 - g (sin(pi g / 2) = cos(pi (1 - g) / 2), and g against 1 - g
# for the linear profile), and the Gauss fractions of step p are those of
# step M - 1 - p mirrored with g_1 and g_2 swapped.  So the up ramp's two
# exponents of step p are the down ramp's two of step M - 1 - p in swapped
# order: the up ramp runs through the down-ramp fields in reverse, and its
# adjoint, walked backwards, meets at exponent i exactly the Hamiltonian of
# the down ramp's exponent i.  The protocol kernel uses this to step the
# prepared state and the readout state as the two columns of one block, with
# time steps +dt and -dt.
#
# The same mirror makes the up ramp the down ramp's transpose.  Each factor
# E_i = exp(-i H_i dt) of a real symmetric H_i is complex symmetric
# (E_i^T = E_i), and the up ramp applies the down ramp's factors in reverse,
# so U_up = E_0 E_1 ... E_{n-1} = (E_{n-1} ... E_1 E_0)^T = U_down^T.  A scan
# therefore steps only the down ramp: the return amplitude is
# <e_0|U_down^T U_down|e_0> = psi^T psi with psi = U_down e_0.
# ---------------------------------------------------------------------------


def _down_ramp_fields(kind, h0x, n_exps):
    """CF4 exponent fields of the down ramp; the up ramp's are these reversed."""
    if kind == "cosine-sine":
        return _cf4_fields(lambda frac: h0x * np.cos(np.pi * frac / 2), n_exps)
    if kind == "linear":
        return _cf4_fields(lambda frac: h0x * (1 - frac), n_exps)
    raise ValueError(f"unknown schedule kind {kind!r}")


@dataclass(frozen=True)
class RampScan:
    ramp_times: np.ndarray
    ghz_fidelity: np.ndarray
    return_fidelity: np.ndarray
    optima: tuple  # (ramp_time, ghz_fidelity) at local maxima, see local_maxima


_ROUNDOFF_RISE = 1e-12


def local_maxima(x, y):
    """Grid points exceeding both neighbors by more than 1e-12.

    A rise of at most 1e-12 is round-off, not a maximum: at N = 100 the GHZ
    fidelity of the shortest ramps is below 1e-28 and its strict "maxima"
    flip under any 1e-16 change of the inputs.  Real maxima rise by 1e-6
    and more.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    mid = y[1:-1]
    hits = np.flatnonzero((mid - y[:-2] > _ROUNDOFF_RISE) & (mid - y[2:] > _ROUNDOFF_RISE)) + 1
    return tuple((float(x[i]), float(y[i])) for i in hits)


def scan_ramp_time(
    n_qubits, interaction, h0x, ramp_times, kind="cosine-sine", ramp_steps=400
):
    """GHZ and return fidelities of the T_int = 0 protocol over a T_a grid.

    Evaluates the protocol with h^z = 0 at every grid point and reports the
    local maxima of the GHZ fidelity (see local_maxima).  The whole grid is
    propagated in one batch sharing the per-exponential eigendecompositions;
    ``ramp_steps`` counts exponentials per ramp (even, two per CF4 step).
    Only the down ramp is stepped: the up ramp's propagator is its transpose,
    so the return amplitude is psi^T psi with psi the state after the down
    ramp (no complex conjugate; see the scan notes).
    """
    ramp_times = np.asarray(ramp_times, dtype=float)
    if ramp_times.size == 0:
        raise ValueError("empty ramp-time grid")
    fields = _down_ramp_fields(kind, h0x, ramp_steps)
    a, b, _ = _sector_terms(n_qubits, interaction, +1)
    start = np.zeros((len(a[0]), ramp_times.size), dtype=complex)
    start[0] = 1.0
    after_down = _exponential_steps(a, b, fields, ramp_times, start)
    fid_ghz = np.abs(_ghz_even_coords(n_qubits).conj() @ after_down) ** 2
    fid_init = np.abs(np.sum(after_down * after_down, axis=0)) ** 2

    return RampScan(
        ramp_times=ramp_times,
        ghz_fidelity=fid_ghz,
        return_fidelity=fid_init,
        optima=local_maxima(ramp_times, fid_ghz),
    )


def _ghz_even_coords(n_qubits):
    """Even-sector X coordinates of the even GHZ state."""
    u = rotation_matrix(n_qubits)
    ghz_z = ghz_state(n_qubits).amplitudes
    return (u.T @ ghz_z)[sector_indices(n_qubits, +1)]


def select_optimum(scan, target):
    """The local GHZ-fidelity optimum nearest a target ramp time."""
    if not scan.optima:
        raise ValueError("scan found no local optima")
    return min(scan.optima, key=lambda o: (abs(o[0] - target), o[0]))


# ---------------------------------------------------------------------------
# Protocol kernel: O(N) survival evaluations over the sensing parameters.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolKernel:
    """Precomputed ramps of the protocol, leaving (T_int, h^z) free.

    Because the ramps carry no longitudinal field, the survival amplitude
    factorizes as <readout| D(T_int, h^z) |prep> with D the diagonal sensing
    evolution in the Z basis.  ``prep_z`` is the initial state after the
    down ramp and ``read_z`` the up-ramp adjoint applied to the readout
    projector state, so each (T_int, h^z) evaluation costs O(N).  Both
    methods take arrays of T_int and h^z that broadcast against each other.
    """

    n_qubits: int
    interaction: float
    prep_z: np.ndarray
    read_z: np.ndarray

    def _terms(self, t_sense, hz):
        """(..., d) summands of the survival amplitude; T_int and h^z broadcast."""
        hz = np.asarray(hz, dtype=float)[..., None]
        diag = _z_diagonal(self.n_qubits, self.interaction, hz)
        t = np.asarray(t_sense, dtype=float)[..., None]
        return self.read_z.conj() * np.exp(-1j * diag * t) * self.prep_z

    def survival(self, t_sense, hz):
        """P = |<N/2, N/2|_X final>|^2 for the given sensing windows."""
        return np.minimum(1.0, np.abs(self._terms(t_sense, hz).sum(-1)) ** 2)

    def survival_slope(self, t_sense, hz):
        """Analytic dP/dh^z at the given sensing windows."""
        m = self.n_qubits / 2 - np.arange(self.n_qubits + 1)
        terms = self._terms(t_sense, hz)
        amp = terms.sum(-1)
        t = np.asarray(t_sense, dtype=float)[..., None]
        d_amp = (terms * (2j * m * t)).sum(-1)  # dE_m/dh^z = -2m
        # 2 Re(conj(amp) d_amp) in real arithmetic, the same for arrays and scalars
        return 2 * (amp.real * d_amp.real + amp.imag * d_amp.imag)


def _even_coords(state):
    """Even-sector X coordinates of an even-parity DickeState."""
    n = state.basis.n_qubits
    amp_x = rotate_basis(state, "X").amplitudes
    odd = amp_x[sector_indices(n, -1)]
    if np.linalg.norm(odd) > 1e-12:
        raise ValueError("kernel states must have even parity")
    return amp_x[sector_indices(n, +1)].astype(complex)


def protocol_kernel(
    n_qubits,
    interaction,
    h0x,
    t_ramp,
    kind="cosine-sine",
    ramp_steps=400,
    initial_state=None,
    readout_state=None,
):
    """Build a ProtocolKernel for fixed ramps of the standard protocol.

    ``initial_state``/``readout_state`` default to the projected strong-field
    state |N/2, N/2>_X; passing the finite-field ground state for both models
    the cooled preparation read out in its own basis.  Both must be
    even-parity (the ramps never leave the even sector).  ``ramp_steps``
    counts exponentials per ramp (even, two per CF4 step).
    """
    a, b, even_idx = _sector_terms(n_qubits, interaction, +1)
    e0 = np.zeros(len(even_idx), dtype=complex)
    e0[0] = 1.0
    init_even = e0 if initial_state is None else _even_coords(initial_state)
    read_even = e0 if readout_state is None else _even_coords(readout_state)
    # Column 0 runs the down ramp forward; column 1 runs the up ramp's
    # adjoint backwards, which meets the same exponents (see the scan notes).
    ends = _exponential_steps(
        a, b, _down_ramp_fields(kind, h0x, ramp_steps), [t_ramp, -t_ramp],
        np.column_stack([init_even, read_even]),
    )
    ends_x = np.zeros((n_qubits + 1, 2), dtype=complex)
    ends_x[even_idx] = ends
    prep_z, read_z = (rotation_matrix(n_qubits) @ ends_x).T
    return ProtocolKernel(n_qubits, interaction, prep_z, read_z)

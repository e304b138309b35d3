"""Time-dependent dynamics: ramps, ramp-time scans and the protocol kernel.

Every ramp goes through ``_exponential_steps``, which advances a (d, K) block
of states, each column by its own signed time step, through exponentials
exp(-i H(h) dt) of the frozen Hamiltonian H(h^x) = A + h^x B, with A real
symmetric tridiagonal and B diagonal.  It checks the ramp and hands it to
one of three exact ways to apply them: a block of two or more columns, a
scan's, to ``_carry_steps``, through the eigendecompositions, and the
protocol kernel's one column to the path the cost model below prices
cheapest from d, the number n of exponentials, the series length and the
node count: the carry, ``_series_steps``, a Chebyshev series whose dropped
terms weigh at most 1e-16, or ``_interpolated_steps``, 1 + G(h) with the
generator G interpolated in the field to within 1e-16.  Each way every
step is unitary to that bound plus round-off, whatever the step size.

The fields come from the fourth-order commutator-free Magnus rule CF4
(Blanes & Moan 2006; Alvermann & Fehske, J. Comput. Phys. 230, 5930, 2011):
a step of length dt samples the field at the Gauss points t_1,2 and applies
exp(-i dt (a_1 H_1 + a_2 H_2)) exp(-i dt (a_2 H_1 + a_1 H_2)), the right
factor first.  Because H is linear in h^x and a_1 + a_2 = 1/2, each factor is
exp(-i (dt/2) H(h')) with h' a weighted mean of the two Gauss-point fields,
so a CF4 step is two exponentials of half the step length, each of the same
tridiagonal form.  Every step count in this module counts exponentials per
ramp (two per CF4 step), so it is even.

The ramps run at h^z = 0 from the even strong-field state, and are computed
inside the even parity sector of the X eigenbasis, where the Hamiltonian is
exactly tridiagonal and B = -2 m is diagonal; parity is then conserved
identically, which is the symmetry protection the prepare/readout ramps rely
on.  Their results reach the Z basis through the even parity block of S_X
(``dicke.sector_to_z``), never through the dense (N+1) x (N+1) rotation.

A ramp-time scan steps all its durations as the columns of one block through
the down ramp alone, the up ramp being its transpose, and keeps the columns
at its optima.  The protocol kernel steps one column, U_down e_0 from the
strong-field state e_0, and reads out through its conjugate U_up^+ e_0.

``_series_steps`` spares the column the eigensolves when its series is
short (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984).  With
[c - r, c + r] holding the spectrum of H and H' = (H - c) / r,

    exp(-i H dt) = e^{-i c dt} sum_j (2 - delta_j0) (-i)^j J_j(r dt) T_j(H'),

and T_j(H') psi = 2 H' T_{j-1} psi - T_{j-2} psi.  The fields are walked in
chunks whose stacks hold at most 2^13 float64 each: a chunk's bands of H'
come from one broadcast and the Bessel coefficients of all its
exponentials, with (-i)^j and e^{-i c dt} folded in, from one FFT.  Each
term is one BLAS banded product (zhbmv), and the state ends as one product
of its coefficients with its terms.
The interval is Gershgorin's: its ends are concave and convex in h, so
their chords between 17 fields spanning the ramp enclose the spectrum at
every field.  The series stops at the least m whose dropped terms weigh at
most 1e-16 by |J_k(x)| <= (|x|/2)^k / k!; m grows with r |dt|, not with d.

``_interpolated_steps`` interpolates in the field instead.  Every
exponential of a ramp has the same dt, so G(h) = exp(-i dt (A + h B)) - 1
is an entire function of the scalar field h.  G is evaluated exactly at the
p + 1 Chebyshev points of the second kind on [min h, max h], one ?stevd
each, as V diag(e^{i theta} - 1) V^T with e^{i theta} - 1 written as
2i sin(theta/2) e^{i theta/2}.  G is complex symmetric, so the table keeps
only its d (d + 1) / 2 entries on and below the diagonal, row by row, which
is BLAS's packed upper triangle.  At each field G is the barycentric
combination of the nodes' packed entries (Berrut & Trefethen, SIAM Rev. 46,
501, 2004), one real-weights times complex product per chunk of fields
(stacks of at most 2^15 float64), and the exponential is one BLAS zspmv,
psi + G psi.  On the Bernstein ellipse E_rho of the field interval the
log-norm of -i dt H is at most s (rho - 1/rho), with
s = |dt| max|B| (max h - min h) / 4, so there
|G| <= M = e^{s (rho - 1/rho)} + 1, and the interpolant errs by at most
4 M rho^-p / (rho - 1) on the interval (Trefethen, Approximation Theory
and Approximation Practice, Thm 8.2).  p is the least degree that some rho
puts below 1e-16, in closed form per rho; the sweep kernels need 7 to 15
nodes.  Interpolating G rather than the exponential keeps the round-off of
the combination at the size of |G|, about r |dt|, rather than 1.

Each path is priced per exponential in units of a series term's work per
row, each operation at one price: a call into BLAS, a series term or a
zspmv step, costs 80 (about 2.2 us, plus 0.028 us per row, on the run
that fitted it), an eigensolve with its d x d product, a carried
exponential's or an interpolation node's, 1100 + 4.4 d^2, and combining
one entry of the packed triangle over the p + 1 nodes 0.012 (p + 1), its
zspmv at the price of 13 more.  So the series costs m_max (80 + d),
m_max being its longest length, the carry 1100 + 4.4 d^2, and the
interpolation 80 + 0.012 (p + 14) d (d + 1) / 2 plus its nodes,
(p + 1)(1100 + 4.4 d^2) / n; the call takes the cheapest.  The
interpolation takes at most n nodes, as more would cost more than the
carry, so a short ramp over a wide field range, which would need millions
of nodes, keeps the other paths; nor does it take nodes whose packed
generators would hold more than 2^21 float64 (16 MB).  These are the times
per exponential (one BLAS thread on a shared 2-core x86 host with AVX-512;
the paths alternate run by run within each row, and each entry is the least
of 7 runs' medians, the host having met bursts of other load; the
eigensolves at N >= 600 over 40 exponentials and the interpolation there
with the 16 MB bound lifted; m is the mean series length over the ramp and
p the degree, at T_a = 11.6 N + 60).  This run read the series 1.6 to 2.5
times faster than the one that fitted its price (0.015 us per unit here);
the eigensolve and combination prices are fitted in those units to
separate timings of the nodes (d = 6..301) and of the interpolation's
steps (d = 6..101, p = 6..24):

       N     d   exps      m    p   eigensolves     series   interpolated   taken
      10     6     40   16.8   16       14.4 us    31.6 us        13.1 us   interpolated
      10     6    400    9.1    9        9.8 us    13.7 us         2.2 us   interpolated
      10     6   4000    5.8    6        9.4 us     8.8 us         1.3 us   interpolated
      20    11   4000    6.5    6       15.4 us    10.7 us         1.6 us   interpolated
      30    16   4000    6.7    7       25.1 us    11.2 us         1.9 us   interpolated
      40    21   4000    7.0    7       40.4 us    12.2 us         2.4 us   interpolated
      50    26   4000    7.3    7       53.2 us    13.3 us         3.0 us   interpolated
      50    26    400   12.2   12       54.2 us    22.0 us         6.7 us   interpolated
     100    51    400   14.6   14        180 us    32.7 us        16.8 us   interpolated
     100    51   4000    8.3    8        173 us    18.7 us         6.6 us   interpolated
     150    76    400   16.5   16        362 us    42.4 us        35.3 us   interpolated
     150    76   4000    9.0    9        360 us    24.5 us        12.7 us   interpolated
     200   101    400   18.2   17        569 us    53.7 us        64.8 us   series
     200   101   4000    9.4    9        570 us    29.5 us        22.1 us   interpolated
     600   301    400   27.9   25       4002 us     162 us        1523 us   series
     600   301     40  112.0   86       4575 us     740 us       18540 us   series
    1000   501    400   35.6   32      12661 us     362 us        6454 us   series

It takes the fastest path on every row.  Beyond d = 101 the
interpolation's steps outgrow their price as the node table leaves the
cache (d = 151: 70 to 240 us against 44 to 77 priced), where the series
is priced lower anyway.

``_carry_steps`` takes every other ramp through the eigendecompositions, one
call of LAPACK ?stevd per exponential (``dicke.eigh_tridiagonal``), and
carries it in the instantaneous eigenbasis: it moves the state between
exponentials by the real transfer matrix W_i = V_{i+1}^T V_i (one d^3
product and one d x d x K product each), with V_{-1} = 1 so that
W_0 = V_0^T rotates it in, and rotates it out by the last V.  The fields
are walked in chunks whose stacks hold at most 2^13 float64 each (one
exponential's worth when that is more): a chunk's diagonals come from one
broadcast, its eigenpairs fill preallocated stacks, its transfer matrices
come from one stacked product and its phase table from one cos and one
sin, so the loop over exponentials keeps only the d x d x K products and
the phase multiplies.

The phase table exp(i w s_k) is applied as two factors, an outer one
exp(i w o_q) and an inner one exp(i w u_r) with k = q B + r.  When K >= 3
signed steps form an arithmetic progression s_k = s_0 + k delta,
o_q = s_0 + q B delta and u_r = r delta with B = ceil(sqrt(K)): two exact
tables of about d sqrt(K) entries each instead of d K cos/sin evaluations.
Other steps are their own outer lengths, beside the one inner length 0.
"""

import math
from typing import NamedTuple

import numpy as np

from .dicke import (eigh_tridiagonal, ghz_state, real_matmul, sector_to_z, z_to_sector, zhbmv,
                    zspmv)
from .model import sector_tridiagonal, z_diagonal

_STEPS_RULE = "steps must be even and at least 2"
_TIMES_RULE = "times must be nonnegative"
_PHASE_LIMIT = 1e8  # rad; float64 round-off of a larger phase exceeds 1e-8 rad
_GAUSS = np.sqrt(3) / 6  # Gauss points of a CF4 step sit at 1/2 -+ _GAUSS


# ---------------------------------------------------------------------------
# The ramp stepper (see the module docstring).
# ---------------------------------------------------------------------------


_ARITHMETIC_TOL = 1e-13  # relative; any np.arange(...) * unit grid passes


def _phase_factors(steps):
    """Outer and inner step lengths o_q and u_r, with o_q + u_r step q B + r.

    For K >= 3 steps s_k = s_0 + k delta (to _ARITHMETIC_TOL relative to
    the largest |s_k|), B = ceil(sqrt(K)) and k = q B + r, returns
    (s_0 + q B delta for q < Q, r delta for r < B) with Q = ceil(K / B).
    Any other steps are their own outer lengths, beside the one inner
    length 0 (B = 1).
    """
    k = len(steps)
    if k >= 3:
        delta = (steps[-1] - steps[0]) / (k - 1)
        ramp = steps[0] + delta * np.arange(k)
        if np.abs(steps - ramp).max() <= _ARITHMETIC_TOL * np.abs(steps).max():
            width = int(np.ceil(np.sqrt(k)))
            rows = -(-k // width)
            return steps[0] + delta * width * np.arange(rows), delta * np.arange(width)
    return steps, np.zeros(1)


_SERIES_TAIL = 1e-16  # bound on the weight of the dropped Chebyshev terms
# Prices of the path choice in units of a series term's work per row, about
# 0.028 us (the formulas and the table: module docstring)
_BLAS_CALL = 80.0  # a series term or a zspmv step
_EIGEN_STEP = 1100.0  # an eigensolve with its d x d product: the per-call part
_EIGEN_COST = 4.4  # and the part per d^2
_GENERATOR_COST = 0.012  # per packed entry of G and node it is combined over
_ELLIPSES = 1 + np.logspace(-3, 8, 111)  # Bernstein ellipse parameters rho tried
_SERIES_KNOTS = 17  # fields at which the Gershgorin bounds are evaluated
_STACK_FLOATS = 1 << 13  # float64 entries per stack of a chunk of exponentials
_GENERATOR_FLOATS = 1 << 15  # float64 entries per stack of interpolated generators
_NODE_FLOATS = 1 << 21  # float64 entries of the packed generators at the nodes, at most (16 MB)


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


def _node_count(s, limit=math.inf):
    """Degree p of the Chebyshev interpolant of G(h) = exp(-i dt H(h)) - 1.

    On the Bernstein ellipse E_rho of the field interval [lo, hi] the
    log-norm of -i dt H(h) is at most s (rho - 1/rho), with
    s = |dt| max|B| (hi - lo) / 4, so |G| <= M = e^{s (rho - 1/rho)} + 1
    there, and the interpolant at the p + 1 Chebyshev points errs by at most
    4 M rho^-p / (rho - 1) on [lo, hi] (Trefethen, ATAP, Thm 8.2).  p is the
    least degree that some rho of _ELLIPSES puts below _SERIES_TAIL, and 0
    where s = 0, as G is then constant.  Returns None if p reaches ``limit``.
    """
    if s == 0:
        return 0
    rho = _ELLIPSES
    log_bound = math.log(4 / _SERIES_TAIL) + np.logaddexp(s * (rho - 1 / rho), 0) - np.log(rho - 1)
    p = int(np.ceil(log_bound / np.log(rho)).min())
    return None if p >= limit else p


def _interpolated_generators(a, b, fields, neg_dt, p):
    """G(h) = exp(-i H(h) dt) - 1 at each field in turn, interpolated in h.

    G is evaluated exactly at the p + 1 Chebyshev points of the second kind
    on [min(fields), max(fields)], as V diag(e^{i theta} - 1) V^T with
    theta = -w dt, and at each field as their barycentric combination
    (Berrut & Trefethen, SIAM Rev. 46, 501, 2004): one real-weights times
    complex product per chunk of fields.  G is complex symmetric, so only
    its lower triangle is kept, row by row, which is BLAS's packed upper
    triangle (column by column).  Yields the d (d + 1) / 2 packed entries.
    """
    d = len(a[0])
    lo, hi = float(np.min(fields)), float(np.max(fields))
    centre, half = (hi + lo) / 2, (hi - lo) / 2
    if p:  # points and barycentric weights on [-1, 1], h = centre + half x
        nodes = np.cos(np.pi / p * np.arange(p + 1))
        weights = (-1.0) ** np.arange(p + 1)
        weights[[0, -1]] /= 2
    else:  # G does not depend on the field
        nodes, weights = np.zeros(1), np.ones(1)
    lower = np.flatnonzero(np.tri(d, dtype=bool))  # flat indices, as np.tril_indices orders them
    table = np.empty((p + 1, len(lower)), dtype=complex)
    for packed, x in zip(table, nodes):
        w, v = eigh_tridiagonal(a[0] + (centre + half * x) * b, a[1])
        theta = w * (neg_dt / 2)  # half the angle
        phases = 2j * np.sin(theta) * np.exp(1j * theta)  # e^{2i theta} - 1 without cancellation
        packed[:] = real_matmul(v, phases[:, None] * v.T).take(lower)
    table = table.view(float)
    scale = 1 / half if p else 0.0  # p > 0 needs fields that differ
    chunk = max(1, _GENERATOR_FLOATS // table.shape[1])
    for start in range(0, len(fields), chunk):
        diff = (fields[start:start + chunk, None] - centre) * scale - nodes
        # Scaled by the distance to the nearest node, every term is at most 1
        # in size, and a field on a node gets that node's G alone.
        near = np.abs(diff).min(axis=1, keepdims=True)
        coefs = weights * np.divide(near, diff, out=np.ones_like(diff), where=diff != 0)
        coefs /= coefs.sum(axis=1, keepdims=True)
        yield from (coefs @ table).view(complex)


def _series_steps(a, b, fields, neg_dt, centres, radii, lengths, column):
    """Step one column through the Chebyshev series, one exponential per field.

    The series of exp(i neg_dt H) at field i is taken on the interval
    centres[i] -+ radii[i], which holds the spectrum there, and cut after
    term lengths[i].  Returns the stepped column as a new array.
    """
    state = np.array(column, dtype=complex)
    d = len(state)
    # exp(-i H dt) = sum_j e^{-i c dt} (2 - delta_j0) i^j J_j(-r dt) T_j(H'):
    # complex weights w_j, so the state ends as one product w @ [T_j].
    weights = np.array([2, 2j, -2, -2j])[np.arange(lengths.max() + 1) % 4]
    weights[0] = 1.0
    size = 1 << int(2 * lengths.max() + 1).bit_length()  # the widest FFT
    chunk = max(1, _STACK_FLOATS // max(2 * size, 4 * d))
    # bands[i].T is H' in BLAS's upper band storage, superdiagonal over
    # diagonal, as a Fortran (2, d) array that f2py passes on uncopied.
    bands = np.zeros((chunk, d, 2), dtype=complex)
    for start in range(0, len(fields), chunk):
        part = slice(start, start + chunk)
        hs, cs, rs = fields[part, None], centres[part, None], radii[part, None]
        ms = lengths[part]
        scale = 1 / np.where(rs > 0, rs, 1)  # r = 0 only where m = 0
        bands.real[: len(ms), :, 1] = (a[0] + hs * b - cs) * scale
        bands.real[: len(ms), 1:, 0] = a[1] * scale
        coefs = _bessel_table(radii[part] * neg_dt, ms.max()) * weights[: ms.max() + 1]
        coefs *= np.exp(1j * cs * neg_dt)
        for band, m, coef in zip(bands.transpose(0, 2, 1), ms, coefs):
            # T_1 = H' T_0 and T_j = 2 H' T_{j-1} - T_{j-2}, by zhbmv(k, alpha,
            # a, x, incx, offx, beta, y) = alpha A x + beta y (keywords cost more)
            terms = [state, zhbmv(1, 1.0, band, state)] if m else [state]
            for _ in range(1, m):
                terms.append(zhbmv(1, 2.0, band, terms[-1], 1, 0, -1.0, terms[-2]))
            state = coef[: m + 1] @ terms
    return state


def _interpolated_steps(a, b, fields, neg_dt, p, column):
    """Step one column by psi + G psi per field, G interpolated from p + 1 nodes."""
    state = np.array(column, dtype=complex)
    d = len(state)
    # state + G state by zspmv(n, alpha, ap, x, incx, offx, beta, y), into a
    # new array: BLAS forbids x and y to share memory
    for gen in _interpolated_generators(a, b, fields, neg_dt, p):
        state = zspmv(d, 1.0, gen, state, 1, 0, 1.0, state)
        del gen  # a view into its chunk's product, which the next chunk replaces
    return state


def _carry_steps(a, b, fields, neg_dts, psi):
    """Carry a (d, K) block in the instantaneous eigenbasis, one ?stevd per field.

    Column k takes exp(i neg_dts[k] H(h)) at each field h in turn.  Returns
    the evolved block as a new array.
    """
    d, k = np.shape(psi)
    outer, inner = _phase_factors(neg_dts)
    table_steps = np.concatenate((outer, inner))  # columns [:rows] and [rows:]
    rows, width = len(outer), len(outer) * len(inner)
    coeffs = np.zeros((d, width), dtype=complex)
    coeffs[:, :k] = psi
    t = len(table_steps)
    chunk = max(1, _STACK_FLOATS // (d * max(d, 2 * t)))
    # The last V^T of a chunk is copied out as the link to the next.  The
    # carried coefficients start out referring to the identity, so the first
    # transfer matrix is V_0^T.
    bases = np.empty((chunk, d, d))
    prev = np.eye(d)
    eigvals = np.empty((chunk, d))
    transfers = np.empty((chunk, d, d))
    phase = np.empty((chunk, d, t), dtype=complex)
    for start in range(0, len(fields), chunk):
        hs = fields[start:start + chunk, None]
        n = len(hs)
        diags = a[0] + hs * b
        for i in range(n):
            w, v = eigh_tridiagonal(diags[i], a[1])
            eigvals[i], bases[i] = w, v.T  # LAPACK's V is column-major: a flat copy
        np.matmul(bases[0], prev.T, out=transfers[0])
        np.matmul(bases[1:n], bases[:n - 1].transpose(0, 2, 1), out=transfers[1:n])
        prev = bases[n - 1].copy()
        tables = phase[:n]  # the angles w s first, in the imaginary parts
        np.multiply(eigvals[:n, :, None], table_steps, out=tables.imag)
        np.cos(tables.imag, out=tables.real)
        np.sin(tables.imag, out=tables.imag)
        for transfer, table in zip(transfers[:n], tables):
            coeffs = real_matmul(transfer, coeffs)
            grid = coeffs.reshape(d, rows, -1)
            grid *= table[:, :rows, None]
            grid *= table[:, None, rows:]
    return real_matmul(prev.T, coeffs)[:, :k]


def _exponential_steps(a, b, fields, durations, psi):
    """Step a (d, K) block through H(h) = A + h B, one exponential per field.

    ``a`` is the pair (diagonal, off-diagonal) of A and ``b`` the diagonal
    of B.  Column k of ``psi`` spans the signed duration ``durations[k]`` in
    len(fields) equal steps; step i applies exp(-i H(fields[i]) dt_k), by
    the path the cost model picks.  Returns a new array.  A ramp whose
    phase max |E| T passes 1e8 rad is rejected (float64 round-off, 1e-8 rad).
    """
    durations = np.asarray(durations, dtype=float)
    neg_dts = -durations / len(fields)
    # One check here stands in for a per-step input scan of the eigensolves.
    if not all(np.isfinite(x).all() for x in (fields, neg_dts, *a, b)):
        raise ValueError("ramp fields, durations and couplings must be finite")
    offs = np.abs(a[1])
    rad = np.pad(offs, (1, 0)) + np.pad(offs, (0, 1))  # Gershgorin radii
    knots = np.linspace(np.min(fields), np.max(fields), _SERIES_KNOTS)[:, None]
    diags = a[0] + knots * b
    # Each row's bound |diag| + rad on |E| is convex in h, so the end knots,
    # the extreme fields, hold its largest; Python floats, as for sensing.
    phase = float((np.abs(diags[[0, -1]]) + rad).max()) * float(np.abs(durations).max())
    if phase > _PHASE_LIMIT:
        raise ValueError(f"largest ramp phase max |E| T_a is {phase:.3g} rad, above 1e8 rad, "
                         "where its float64 round-off exceeds 1e-8 rad")
    d, k = np.shape(psi)
    if k > 1:
        return _carry_steps(a, b, fields, neg_dts, psi)
    n, dt = len(fields), float(neg_dts[0])
    best = eigensolve = _EIGEN_STEP + _EIGEN_COST * d * d  # cost per exponential
    nodes = None
    s = abs(dt) * float(np.abs(b).max()) * float(knots[-1, 0] - knots[0, 0]) / 4
    packed = d * (d + 1) / 2  # entries of a generator's packed triangle
    # More than n nodes would cost more than the carry; nor may they hold
    # more than _NODE_FLOATS.
    p = _node_count(s, limit=min(n, _NODE_FLOATS / (2 * packed)))
    if p is not None:
        cost = (p + 1) * eigensolve / n + _BLAS_CALL + _GENERATOR_COST * (p + 14) * packed
        if cost < best:
            best, nodes = cost, p
    # Gershgorin's ends min(diag - rad), concave in h, and max(diag + rad),
    # convex, have chords between knots that enclose the spectrum at every field.
    lo = np.interp(fields, knots[:, 0], (diags - rad).min(axis=1))
    hi = np.interp(fields, knots[:, 0], (diags + rad).max(axis=1))
    centres, radii = (hi + lo) / 2, (hi - lo) / 2
    lengths = _series_lengths(radii * abs(dt), best / (_BLAS_CALL + d))
    if lengths is not None:
        return _series_steps(a, b, fields, dt, centres, radii, lengths, psi[:, 0])[:, None]
    if nodes is not None:
        return _interpolated_steps(a, b, fields, dt, nodes, psi[:, 0])[:, None]
    return _carry_steps(a, b, fields, neg_dts, psi)


# ---------------------------------------------------------------------------
# Batched ramp-time scans.
#
# The CF4 fields of the cosine down ramp and the sine up ramp depend only on
# the fraction of the ramp elapsed, not on the ramp duration.  A whole grid of
# ramp times therefore shares every per-exponential eigendecomposition, each
# grid column advancing with its own dt.
#
# The up ramp mirrors the down ramp: its field at fraction g is the down
# ramp's at 1 - g (sin(pi g / 2) = cos(pi (1 - g) / 2)), and the Gauss
# fractions of step p are those of step M - 1 - p mirrored with g_1 and g_2
# swapped.  So the up ramp's two exponents of step p are the down ramp's two
# of step M - 1 - p in swapped order: the up ramp runs through the down-ramp
# fields in reverse.
#
# The same mirror makes the up ramp the down ramp's transpose.  Each factor
# E_i = exp(-i H_i dt) of a real symmetric H_i is complex symmetric
# (E_i^T = E_i), and the up ramp applies the down ramp's factors in reverse,
# so U_up = E_0 E_1 ... E_{n-1} = (E_{n-1} ... E_1 E_0)^T = U_down^T.  A scan
# therefore steps only the down ramp: the return amplitude is
# <e_0|U_down^T U_down|e_0> = psi^T psi with psi = U_down e_0.  And the
# readout column U_up^+ e_0 = conj(U_down) e_0 is conj(psi): the protocol
# kernel steps psi alone, and a scan hands on the kernel of each optimum
# from its own column psi there.
# ---------------------------------------------------------------------------


def _down_ramp_fields(h0x, n_exps):
    """CF4 exponent fields of the down ramp; the up ramp's are these reversed.

    Step j of the n_exps / 2 steps samples h(g) = h0x cos(pi g / 2) at the
    Gauss fractions g_1,2 of the ramp and yields 2 (a_2 h(g_1) + a_1 h(g_2)),
    applied first, then 2 (a_1 h(g_1) + a_2 h(g_2)).
    """
    if n_exps < 2 or n_exps % 2:
        raise ValueError(_STEPS_RULE)
    m = n_exps // 2
    profile = lambda frac: h0x * np.cos(np.pi * frac / 2)
    h1 = profile((np.arange(m) + 0.5 - _GAUSS) / m)
    h2 = profile((np.arange(m) + 0.5 + _GAUSS) / m)
    a1, a2 = 0.25 - _GAUSS, 0.25 + _GAUSS
    fields = np.empty(n_exps)
    fields[0::2] = 2 * (a2 * h1 + a1 * h2)
    fields[1::2] = 2 * (a1 * h1 + a2 * h2)
    return fields


def _down_ramp(n_qubits, h0x, ramp_times, ramp_steps):
    """Even-sector columns U_down e_0 after the down ramp, one per ramp time.

    All columns go through one stepper call; ``ramp_times`` is a float array.
    """
    if (ramp_times < 0).any():
        raise ValueError(_TIMES_RULE)
    fields = _down_ramp_fields(h0x, ramp_steps)
    diag, off, b = sector_tridiagonal(n_qubits, 0.0, +1)  # H = A + h^x B, even sector
    start = np.zeros((len(diag), ramp_times.size), dtype=complex)
    start[0] = 1.0
    return _exponential_steps((diag, off), b, fields, ramp_times, start)


class RampScan(NamedTuple):
    ramp_times: np.ndarray
    ghz_fidelity: np.ndarray
    return_fidelity: np.ndarray
    optima: tuple  # (ramp_time, ghz_fidelity) at local maxima, see _peak_indices
    kernels: tuple  # the ProtocolKernel at each of the optima, in their order


_ROUNDOFF_RISE = 1e-12


def _peak_indices(y):
    """Indices of the points of y exceeding both neighbors by more than 1e-12.

    A rise of at most 1e-12 is round-off, not a maximum: at N = 100 the GHZ
    fidelity of the shortest ramps is below 1e-28 and its strict "maxima"
    flip under any 1e-16 change of the inputs.  Real maxima rise by 1e-6
    and more.
    """
    mid = y[1:-1]
    return np.flatnonzero((mid - y[:-2] > _ROUNDOFF_RISE) & (mid - y[2:] > _ROUNDOFF_RISE)) + 1


def scan_ramp_time(n_qubits, h0x, ramp_times, ramp_steps=400):
    """GHZ and return fidelities of the T_int = 0 protocol over a T_a grid.

    Evaluates the protocol with h^z = 0 at every grid point and reports the
    local maxima of the GHZ fidelity (see _peak_indices).  The whole grid is
    propagated in one batch sharing the per-exponential eigendecompositions;
    ``ramp_steps`` counts exponentials per ramp (even, two per CF4 step).
    Only the down ramp is stepped: the up ramp's propagator is its transpose,
    so the return amplitude is psi^T psi with psi the state after the down
    ramp (no complex conjugate; see the scan notes).  The columns psi at the
    optima are kept, as the ProtocolKernel of each, so a sensing sweep there
    needs no further ramp.
    """
    ramp_times = np.asarray(ramp_times, dtype=float)
    if ramp_times.size == 0:
        raise ValueError("empty ramp-time grid")
    after_down = _down_ramp(n_qubits, h0x, ramp_times, ramp_steps)
    ghz_even = z_to_sector(n_qubits, +1, ghz_state(n_qubits))
    fid_ghz = np.abs(ghz_even.conj() @ after_down) ** 2
    fid_init = np.abs(np.sum(after_down * after_down, axis=0)) ** 2
    hits = _peak_indices(fid_ghz)

    return RampScan(
        ramp_times=ramp_times,
        ghz_fidelity=fid_ghz,
        return_fidelity=fid_init,
        optima=tuple((float(ramp_times[i]), float(fid_ghz[i])) for i in hits),
        kernels=tuple(map(ProtocolKernel, sector_to_z(n_qubits, +1, after_down[:, hits]).T)),
    )


def select_optimum(scan, target):
    """The local GHZ-fidelity optimum nearest a target ramp time."""
    if not scan.optima:
        raise ValueError("scan found no local optima")
    return min(scan.optima, key=lambda o: (abs(o[0] - target), o[0]))


# ---------------------------------------------------------------------------
# Protocol kernel: O(N) survival evaluations over the sensing parameters.
# ---------------------------------------------------------------------------


class ProtocolKernel(NamedTuple):
    """The protocol with its ramps stepped once, leaving (T_int, h^z) free.

    The library's one protocol path: every simulated survival, in the
    commands and the demos, comes from a kernel.  Because the ramps carry no
    longitudinal field, the survival amplitude factorizes as
    <e_0| U_up D(T_int, h^z) U_down |e_0> with D the diagonal sensing
    evolution in the Z basis.  ``prep_z`` is U_down e_0, the
    strong-field state after the down ramp, in the Z basis; the readout
    column U_up^+ e_0 is its complex conjugate (see the scan notes), so the
    amplitude is prep_z^T D prep_z and each (T_int, h^z) evaluation costs
    O(N).  Both methods take arrays of T_int and h^z that broadcast against
    each other, and reject a non-finite h^z or T_int, a negative T_int and a
    sensing phase max_m |E_m| T_int past 1e8 rad.  N is read off the
    column's length; a column that is not 1-D, or whose norm squared is more
    than 1e-8 from 1, is rejected too (a stepped one is within about 1e-12).
    """

    prep_z: np.ndarray

    @property
    def n_qubits(self):
        return len(self.prep_z) - 1

    def _terms(self, t_sense, hz):
        """(..., d) summands of the survival amplitude; T_int and h^z broadcast."""
        if np.ndim(self.prep_z) != 1:
            raise ValueError(f"kernel column must be 1-D, got shape {np.shape(self.prep_z)}")
        hz = np.asarray(hz, dtype=float)[..., None]
        t = np.asarray(t_sense, dtype=float)[..., None]
        if not (np.isfinite(hz).all() and np.isfinite(t).all()):
            raise ValueError("T_int and h^z must be finite")
        if np.any(t < 0):
            raise ValueError(_TIMES_RULE)
        energies = z_diagonal(self.n_qubits, hz)  # the sensing Hamiltonian, h^x = 0
        phase = float(np.abs(energies).max(initial=0.0)) * float(t.max(initial=0.0))
        if phase > _PHASE_LIMIT:  # a product of Python floats: an overflow gives inf
            raise ValueError(f"largest sensing phase max_m |E_m| T_int is {phase:.3g} rad, "
                             "above 1e8 rad, where its float64 round-off exceeds 1e-8 rad")
        norm = float(np.vdot(self.prep_z, self.prep_z).real)
        if not abs(norm - 1) <= 1e-8:
            raise ValueError(f"kernel column must have unit norm, got sum |prep_z|^2 = {norm!r}")
        return self.prep_z * np.exp(-1j * energies * t) * self.prep_z

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


def protocol_kernel(n_qubits, h0x, t_ramp, ramp_steps=400):
    """Build the ProtocolKernel of fixed ramps of the standard protocol.

    One column is stepped, the down ramp from |N/2, N/2>_X, the first state
    of the even sector; ``ramp_steps`` counts exponentials per ramp (even,
    two per CF4 step).
    """
    prepared = _down_ramp(n_qubits, h0x, np.array([t_ramp], dtype=float), ramp_steps)
    return ProtocolKernel(sector_to_z(n_qubits, +1, prepared)[:, 0])

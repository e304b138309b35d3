"""Estimation uncertainty, reference limits, offsets, dephasing, budgets.

Limits follow the error-propagation convention delta_omega = dA / (|d<A>/d
omega| sqrt(M)).  The longitudinal field enters through omega = 2 h^z, so
every h^z uncertainty carries an extra factor 1/2 relative to its omega
counterpart.  Energies and fields are in units of JN and times in 1/(JN),
as ``model`` fixes J = 1/N; sweep-facing helpers quote the paper-style
grids, with times in (2 J N^2)^(-1).
"""

import warnings
from typing import NamedTuple

import numpy as np

from . import model


# ---------------------------------------------------------------------------
# Error propagation.
# ---------------------------------------------------------------------------


def error_propagation(std_observable, slope):
    """delta = ΔA / |d<A>/dparam| of one measurement, elementwise over arrays.

    Infinite where the slope vanishes: the division is masked there, so it
    raises no floating-point warning even under np.errstate(all="raise").
    """
    std, slope = np.broadcast_arrays(std_observable, slope)
    out = np.full(std.shape, np.inf)
    return np.divide(std, np.abs(slope), out=out, where=slope != 0)[()]


def projection_noise(p):
    """Bernoulli standard deviation sqrt(P(1-P)) of a projection readout, elementwise."""
    return np.sqrt(np.maximum(p * (1.0 - p), 0.0))


def ideal_survival(hz, n_qubits, t_sense):
    """cos^2(h^z N T_int), the survival probability of the lossless protocol."""
    return np.cos(hz * n_qubits * t_sense) ** 2


def ideal_survival_slope(hz, n_qubits, t_sense):
    """d/dh^z of the ideal survival probability."""
    return -n_qubits * t_sense * np.sin(2 * hz * n_qubits * t_sense)


def calibrate_offset(h_known, n_qubits, t_sense):
    """Offset h^z_0 placing the interferometer phase at maximum slope.

    Solves 2 (h_k + h_0) N T_int = (2n + 1) pi/2 on the branch n = 0, the
    smallest n >= 0 keeping h_0 >= -h_k, as the total field is positive.
    """
    if not t_sense > 0:
        raise ValueError("t_sense must be positive")
    return np.pi / (4 * n_qubits * t_sense) - h_known


# ---------------------------------------------------------------------------
# Reference limits (omega convention; divide by 2 for h^z).
# ---------------------------------------------------------------------------


class LimitSet(NamedTuple):
    hl: float
    sql: float
    hl_min: float | None
    sql_min: float | None
    hl_min_star: float | None


def metrology_limits(n_qubits, shots=1, t_sense=1.0, total_time=None):
    """Heisenberg and standard quantum limits for a phase omega.

    hl = 1/(N sqrt(M) T_int) and sql = 1/sqrt(NM)/T_int.  When a total time
    is supplied the minimized variants 1/(NT), 1/(sqrt(N) T) and the
    statistically honest 1/(N sqrt(T_int T)) are filled in as well.  A total
    time shorter than one sensing window holds no measurement and is rejected.
    """
    if not (n_qubits >= 1 and shots >= 1 and t_sense > 0):
        raise ValueError("need n_qubits >= 1, shots >= 1, t_sense > 0")
    if total_time is not None and not total_time >= t_sense:
        raise ValueError(f"total time {total_time:g} is shorter than the sensing time "
                         f"{t_sense:g}")
    hl = 1.0 / (n_qubits * np.sqrt(shots) * t_sense)
    sql = 1.0 / (np.sqrt(n_qubits * shots) * t_sense)
    if total_time is None:
        return LimitSet(hl, sql, None, None, None)
    return LimitSet(
        hl,
        sql,
        1.0 / (n_qubits * total_time),
        1.0 / (np.sqrt(n_qubits) * total_time),
        1.0 / (n_qubits * np.sqrt(t_sense * total_time)),
    )


# ---------------------------------------------------------------------------
# Dephasing (quadratic-in-time phase noise with rate Gamma).
# ---------------------------------------------------------------------------


def ghz_dephasing_uncertainty(n_qubits, gamma, t_sense, total_time, t_prep=0.0, t_read=0.0):
    """GHZ-scheme h^z uncertainty under dephasing for a given sensing time.

    sqrt(T_prep + T_int + T_read) e^{Gamma^2 N T_int^2 / 2} / (2 N T_int sqrt(T)).
    """
    cycle = t_prep + t_sense + t_read
    return (
        np.sqrt(cycle)
        * np.exp(gamma**2 * n_qubits * t_sense**2 / 2)
        / (2 * n_qubits * t_sense * np.sqrt(total_time))
    )


def sql_dephasing_min(n_qubits, gamma, total_time):
    """(2 e Gamma^2)^{1/4} / (2 sqrt(NT)), the minimized dephased SQL."""
    return (2 * np.e * gamma**2) ** 0.25 / (2 * np.sqrt(n_qubits * total_time))


def zeno_limit(n_qubits, gamma, total_time):
    """(2 e Gamma^2)^{1/4} / (2 N^{3/4} sqrt(T))."""
    return (2 * np.e * gamma**2) ** 0.25 / (
        2 * n_qubits**0.75 * np.sqrt(total_time)
    )


def optimal_sense_time(n_qubits, gamma, prep_read_negligible=True):
    """Sensing time minimizing the GHZ-scheme dephased uncertainty.

    T_int^2 = 1/(2 Gamma^2 N) when preparation and readout are negligible;
    T_int^2 = 1/(Gamma^2 N) when they dominate the cycle time.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive for a finite optimum")
    scale = 2.0 if prep_read_negligible else 1.0
    return 1.0 / (gamma * np.sqrt(scale * n_qubits))


class DephasingAnalysis(NamedTuple):
    regime: str  # "zeno", "slow-prep", or "noiseless"
    sql_deph_min: float
    t_sense_opt: float
    ghz_min: float
    zeno: float


def dephasing_analysis(n_qubits, gamma, total_time, t_prep=0.0, t_read=0.0):
    """Dephased uncertainty analysis of the GHZ scheme against the SQL.

    With gamma = 0 the analysis degenerates to the noiseless minimized
    limits (sensing fills the whole budget).
    """
    if not (gamma >= 0 and total_time > 0):
        raise ValueError("need gamma >= 0 and total_time > 0")
    if gamma == 0:
        hl_min_h = 1.0 / (2 * n_qubits * total_time)
        sql_min_h = 1.0 / (2 * np.sqrt(n_qubits) * total_time)
        return DephasingAnalysis("noiseless", sql_min_h, total_time, hl_min_h, hl_min_h)
    fast = (t_prep + t_read) == 0
    t_opt = optimal_sense_time(n_qubits, gamma, prep_read_negligible=fast)
    ghz_min = ghz_dephasing_uncertainty(n_qubits, gamma, t_opt, total_time, t_prep, t_read)
    return DephasingAnalysis(
        "zeno" if fast else "slow-prep",
        sql_dephasing_min(n_qubits, gamma, total_time),
        t_opt,
        ghz_min,
        zeno_limit(n_qubits, gamma, total_time),
    )


class WindowResult(NamedTuple):
    gamma_c: float
    n_values: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    window: np.ndarray  # N values where the entangled scheme beats the SQL


def sql_beating_window(gamma_c, n_values=None):
    """Even system sizes where Gamma C N^{7/6} < (sqrt(2)/e) N^{1/2} - 1.

    This is the condition for the dephased GHZ scheme with adiabatic-scaling
    prep/read time to beat the minimized dephased SQL.
    """
    if not gamma_c >= 0:
        raise ValueError("gamma_c must be nonnegative")
    if n_values is None:
        n_values = np.arange(2, 2001, 2)
    n_values = np.asarray(n_values)
    lhs = gamma_c * n_values ** (7.0 / 6.0)
    rhs = (np.sqrt(2) / np.e) * np.sqrt(n_values) - 1.0
    return WindowResult(gamma_c, n_values, lhs, rhs, n_values[lhs < rhs])


# ---------------------------------------------------------------------------
# Finite-duration time budgets.
# ---------------------------------------------------------------------------


class TimeBudget(NamedTuple):
    variant: str
    n_qubits: int
    t_ramp: float  # T_a; prep and read each take one T_a
    total_time: float
    t_sense: float
    eta: float  # improvement over the minimized SQL
    eta_prime: float  # fraction of the relevant minimized Heisenberg limit
    tint_threshold: float  # sensing time needed to beat the minimized SQL
    beats_sql: bool


def time_budget(n_qubits, c, epsilon, c_tilde=None, variant="main"):
    """Scaling budget with adiabatic prep/read time 2 T_a = C N^{2/3}.

    variant "main" uses a total time T = C~ N^{2/3} densely repeated
    (M = T / (T_int + 2 T_a)), sensing time sqrt(C C~) N^{1/6 + eps}, and

        eta  = sqrt(N T_int^2 / (T (T_int + 2 T_a))),
        eta' = sqrt(T_int / (T_int + 2 T_a)).

    variant "single-shot" spends the whole budget once (T_int = T - 2 T_a,
    M = 1) with sensing time C N^{1/6 + eps} and the unsquared ratios
    eta = sqrt(N) T_int / (T_int + 2 T_a), eta' = T_int / (T_int + 2 T_a).
    eta > 1 marks beating the minimized SQL; eps = 1/2 reaches the
    Heisenberg-limit scaling (eta' = 1/2 exactly in the single-shot
    accounting).
    """
    if not n_qubits >= 1:
        raise ValueError("n_qubits must be >= 1")
    if not 0 <= epsilon <= 0.5:
        raise ValueError("epsilon must lie in [0, 1/2]")
    if not c > 0:
        raise ValueError("C must be positive")
    t_ramp = c * n_qubits ** (2.0 / 3.0) / 2
    if variant == "main":
        if c_tilde is None or not c_tilde > 0:
            raise ValueError("main variant needs a positive C~")
        total = c_tilde * n_qubits ** (2.0 / 3.0)
        t_sense = np.sqrt(c * c_tilde) * n_qubits ** (1.0 / 6.0 + epsilon)
        eta = np.sqrt(n_qubits * t_sense**2 / (total * (t_sense + 2 * t_ramp)))
        eta_prime = np.sqrt(t_sense / (t_sense + 2 * t_ramp))
        threshold = total / (2 * n_qubits) + np.sqrt(
            2 * t_ramp * total / n_qubits + (total / (2 * n_qubits)) ** 2
        )
    elif variant == "single-shot":
        t_sense = c * n_qubits ** (1.0 / 6.0 + epsilon)
        total = t_sense + 2 * t_ramp
        eta = np.sqrt(n_qubits) * t_sense / (t_sense + 2 * t_ramp)
        eta_prime = t_sense / (t_sense + 2 * t_ramp)
        root_n = np.sqrt(n_qubits)
        # a single qubit never beats the SQL (eta <= 1)
        threshold = np.inf if n_qubits == 1 else 2 * t_ramp / root_n / (1 - 1 / root_n)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return TimeBudget(
        variant,
        n_qubits,
        float(t_ramp),
        float(total),
        float(t_sense),
        float(eta),
        float(eta_prime),
        float(threshold),
        bool(eta > 1),
    )


# ---------------------------------------------------------------------------
# Adiabatic time scale of the prep/read ramps.
# ---------------------------------------------------------------------------


class AdiabaticEstimate(NamedTuple):
    cbar: float  # dimensionless ramp constant
    jn_c: float  # JN C = (h0x/JN) cbar
    t_prep: float  # from 2 JN T_prep ~ eps^{-4/3} (h0x/JN) N^{2/3}


def adiabatic_ramp_constant(ground_probability):
    """Dimensionless ramp constant C-bar = eps^{-4/3} / 2.

    eps^2 is the excited-state weight tolerated at the end of a linear ramp,
    so requiring 95% ground-state probability gives C-bar ~ 3.68 and 99%
    gives ~ 10.8.
    """
    if not 0 <= ground_probability < 1:
        raise ValueError("ground-state probability must lie in [0, 1)")
    eps = np.sqrt(1 - ground_probability)
    return eps ** (-4.0 / 3.0) / 2


def adiabatic_time_estimate(h0x_over_jn, ground_probability, n_qubits):
    """Ramp constant and preparation-time estimate for a linear ramp, in units of 1/(JN)."""
    cbar = adiabatic_ramp_constant(ground_probability)
    if not (h0x_over_jn > 0 and n_qubits >= 1):
        raise ValueError("need h0x_over_jn > 0 and n_qubits >= 1")
    eps = np.sqrt(1 - ground_probability)
    t_prep = eps ** (-4.0 / 3.0) * h0x_over_jn * n_qubits ** (2.0 / 3.0) / 2
    return AdiabaticEstimate(float(cbar), float(h0x_over_jn * cbar), float(t_prep))


# ---------------------------------------------------------------------------
# Global-magnetization (S_Z) readout of the two-level protocol state.
# ---------------------------------------------------------------------------


class SzReadout(NamedTuple):
    expectation: np.ndarray  # each field has the shape of the h^z given
    deviation: np.ndarray
    delta_h: np.ndarray
    delta_h_closed: np.ndarray | None = None


def sz_readout_ideal(n_qubits, hz, t_sense, alpha=0.0):
    """Closed-form S_Z readout statistics of the ideal two-level state.

    The exact matrix elements between the top two X eigenstates give
    <S_Z> = (sqrt(N)/2) cos(alpha) sin(2 h N T) and second moment
    cos^2(theta) N/4 + sin^2(theta) (3N - 2)/4.  ``delta_h_closed`` is the
    two-level reference form 1/(2 N T |cos(alpha) cos(2 h N T)|), which
    exposes the limited dynamic range: the slope carries cos(2hNT), so the
    estimator diverges at the phase quadrature points and whenever the ramp
    phase alpha is not compensated.  ``hz`` may be an array; every field of
    the result then has its shape.
    """
    if not (np.all(np.isfinite(hz)) and np.isfinite(t_sense) and np.isfinite(alpha)):
        raise ValueError("h^z, t_sense and alpha must be finite")
    theta = np.asarray(hz, dtype=float) * n_qubits * t_sense
    root_n = np.sqrt(n_qubits)
    exp_sz = (root_n / 2) * np.cos(alpha) * np.sin(2 * theta)
    second = (
        np.cos(theta) ** 2 * n_qubits / 4
        + np.sin(theta) ** 2 * (3 * n_qubits - 2) / 4
    )
    std = np.sqrt(np.maximum(second - exp_sz**2, 0.0))
    slope = (root_n / 2) * np.cos(alpha) * 2 * n_qubits * t_sense * np.cos(2 * theta)
    denom = np.abs(np.cos(alpha) * np.cos(2 * theta))
    closed = np.divide(1.0, 2 * n_qubits * t_sense * denom, out=np.full(theta.shape, np.inf),
                       where=denom != 0)
    return SzReadout(exp_sz, std, error_propagation(std, slope), closed[()])


# ---------------------------------------------------------------------------
# Survival slope from sector overlaps and its lower bound.  Each function
# takes one instance or a block of them: overlaps of shape (..., N/2 + 1)
# with h^z and T_int broadcast over the leading axes.
# ---------------------------------------------------------------------------


def _first_failure(ok, values, message):
    """ValueError naming the first entry where ``ok`` fails, if any does."""
    bad = np.flatnonzero(~np.asarray(ok))
    if bad.size:
        raise ValueError(f"{message}, got {np.ravel(values)[bad[0]]} at entry {bad[0]}")


def _check_overlaps(overlaps):
    g = np.asarray(overlaps, dtype=complex)
    total = np.sum(np.abs(g) ** 2, axis=-1)
    _first_failure(np.abs(total - 1) <= 1e-8, total, "overlap weights must sum to 1")
    return g


def survival_slope_from_overlaps(overlaps, hz, n_qubits, t_sense):
    """d/dh^z of P = |sum_n |g_n|^2 e^{i gamma_n} cos(h^z (N - 2n) T_int)|^2.

    ``overlaps`` are the complex amplitudes g_n of the initial state on the
    even-sector eigenstates; their phases are the gamma_n.
    """
    g = _check_overlaps(overlaps)
    hz, t_sense = (np.asarray(x, dtype=float)[..., None] for x in (hz, t_sense))
    w = np.abs(g) * g  # |g_n|^2 e^{i gamma_n}
    freq = (n_qubits - 2 * np.arange(g.shape[-1])) * t_sense
    s = np.sum(w * np.cos(hz * freq), axis=-1)
    ds = np.sum(w * (-freq * np.sin(hz * freq)), axis=-1)
    # 2 Re(conj(s) ds) in real arithmetic, as ProtocolKernel.survival_slope takes it
    return 2 * (s.real * ds.real + s.imag * ds.imag)


def slope_lower_bound(g0_sq, hz, n_qubits, t_sense):
    """N T_int (2|g_0|^4 - 1) sin(2 h^z N T_int); meaningful for |g_0|^4 > 1/2."""
    return (
        n_qubits
        * t_sense
        * (2 * g0_sq**2 - 1)
        * np.sin(2 * hz * n_qubits * t_sense)
    )


class BoundCheck(NamedTuple):
    g0_sq: np.ndarray  # |g_0|^2, the weight the bound is built from
    slope_abs: np.ndarray
    bound: np.ndarray
    satisfied: np.ndarray
    trivial: np.ndarray  # |g_0|^4 <= 1/2: only the vacuous bound delta_h <= inf holds
    delta_h_bound: np.ndarray


def check_uncertainty_bound(overlaps, hz, n_qubits, t_sense):
    """Verify |dP/dh^z| >= N T (2|g_0|^4 - 1) sin(2 h N T) on every instance.

    Requires 0 <= 2 h^z N T_int <= pi/2 and unit overlap weight; the first
    entry that breaks either is named in the error.  Where |g_0|^4 <= 1/2 the
    bound is reported as trivial (infinite uncertainty bound) and counts as
    satisfied, as does a bound <= 0.
    """
    phase = 2 * np.asarray(hz, dtype=float) * n_qubits * t_sense
    _first_failure((0 <= phase) & (phase <= np.pi / 2 + 1e-12), phase,
                   "need 0 <= 2 h N T <= pi/2")
    g = _check_overlaps(overlaps)
    g0_sq = np.hypot(g[..., 0].real, g[..., 0].imag) ** 2
    slope = np.abs(survival_slope_from_overlaps(g, hz, n_qubits, t_sense))
    bound = slope_lower_bound(g0_sq, hz, n_qubits, t_sense)
    trivial = g0_sq**2 <= 0.5
    vacuous = trivial | (bound <= 0)
    # uses sqrt(P(1-P)) <= 1/2
    delta_h = np.divide(1.0, 2 * bound, out=np.full(bound.shape, np.inf), where=~vacuous)
    return BoundCheck(g0_sq, slope, bound, vacuous | (slope >= bound - 1e-12), trivial, delta_h)


def random_overlap_instances(n_qubits, count, seed):
    """Seeded random instances satisfying the bound's preconditions:
    |g_0|^4 > 1/2, unit weight, and 0 <= 2 h N T <= pi/2.

    Returns (overlaps, hz, t_sense) of shapes (count, N/2 + 1), (count,) and
    (count,).
    """
    rng = np.random.default_rng(seed)
    n_levels = n_qubits // 2 + 1
    overlaps = np.empty((count, n_levels), dtype=complex)
    hz = np.empty(count)
    t_sense = np.empty(count)
    for i in range(count):  # one draw at a time: the seeded stream interleaves them
        g0_sq = rng.uniform(2**-0.5, 1.0)
        rest = rng.dirichlet(np.ones(n_levels - 1)) * (1 - g0_sq)
        weights = np.concatenate([[g0_sq], rest])
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n_levels))
        overlaps[i] = np.sqrt(weights) * phases
        t_sense[i] = rng.uniform(0.1, 10.0)
        theta = rng.uniform(0, np.pi / 2)
        hz[i] = theta / (2 * n_qubits * t_sense[i])
    return overlaps, hz, t_sense


# ---------------------------------------------------------------------------
# Sensing-time sweep of the simulated protocol.
# ---------------------------------------------------------------------------


def time_unit(n_qubits):
    """(2 J N^2)^(-1), the paper-style time unit."""
    return 1.0 / (2 * model.coupling(n_qubits) * n_qubits**2)


def default_sense_grid(n_qubits):
    """Sensing times (2 J N^2) T_int = 1, 3, ..., 199."""
    return np.arange(1, 200, 2) * time_unit(n_qubits)


class TintSweep(NamedTuple):
    n_qubits: int
    t_sense: np.ndarray
    survival: np.ndarray
    slope: np.ndarray
    delta_h: np.ndarray
    hl: np.ndarray  # Heisenberg limit for h^z, 1/(2 N T_int)
    sql: np.ndarray  # SQL for h^z, 1/(2 sqrt(N) T_int)
    p_values: np.ndarray  # 1 / (2 N T_int delta_h), nan where excluded
    p_mean: float
    p_std: float
    excluded: int  # divergent (zero-slope) points left out of the average


def tint_sweep(kernel, tint_grid=None):
    """Estimation uncertainty of the simulated protocol over sensing times.

    ``kernel`` is the ProtocolKernel of the protocol's ramps, from
    dynamics.protocol_kernel or a scan's RampScan.kernels; N is its own, and
    no ramp is stepped here.  The total longitudinal field is held
    at (pi/2) JN, which sits at an odd multiple of pi/2 in interferometer
    phase for every odd point (2 J N^2) T_int = 1, 3, ... of the default
    grid.  At that field the survival probability and its analytic h^z slope
    are evaluated for every T_int, and the per-shot uncertainty follows from
    error propagation with Bernoulli readout noise.  The index
    p = 1/(2 N T_int delta_h) measures the distance to the Heisenberg limit
    (p = 1).

    Divergent points (vanishing slope) are excluded from the p average and
    counted in ``excluded``; a grid of divergent points only is rejected, and
    so, by the kernel, is one whose largest sensing phase passes 1e8 rad
    (see dynamics.check_sensing_time).
    """
    n_qubits = kernel.n_qubits
    jn = model.coupling(n_qubits) * n_qubits
    grid = (default_sense_grid(n_qubits) if tint_grid is None
            else np.asarray(tint_grid, dtype=float))
    if grid.size == 0 or not np.all(np.isfinite(grid) & (grid > 0)):
        raise ValueError("sensing-time grid must be finite, positive and nonempty")
    h_tot = (np.pi / 2) * jn
    survival = kernel.survival(grid, h_tot)
    slope = kernel.survival_slope(grid, h_tot)
    # Masked divisions: a zero slope gives delta_h = inf and no p, without 0/0.
    delta_h = error_propagation(projection_noise(survival), slope)
    kept = np.isfinite(delta_h) & (delta_h > 0)
    p_values = np.divide(1.0, 2 * n_qubits * grid * delta_h,
                         out=np.full_like(grid, np.nan), where=kept)
    excluded = int(np.count_nonzero(~kept))
    if excluded == grid.size:
        raise ValueError(f"all {excluded} sensing-time grid points diverge: "
                         "no finite delta_h to average into p")
    included = p_values[np.isfinite(p_values)]
    if excluded:
        warnings.warn(
            f"{excluded} divergent grid points excluded from the p average",
            stacklevel=2,
        )
    return TintSweep(
        n_qubits=n_qubits,
        t_sense=grid,
        survival=survival,
        slope=slope,
        delta_h=delta_h,
        hl=1.0 / (2 * n_qubits * grid),
        sql=1.0 / (2 * np.sqrt(n_qubits) * grid),
        p_values=p_values,
        p_mean=float(np.mean(included)),
        p_std=float(np.std(included)),
        excluded=excluded,
    )

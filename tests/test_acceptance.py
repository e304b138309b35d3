"""Acceptance suite: every headline claim at its stated tolerance.

Each test prints one PASS line (visible with pytest -s) after its
assertions; a failing assertion marks the criterion FAIL.  Shared heavy
computations (the ramp-time optima) are session-scoped fixtures.
"""

import time

import numpy as np
import pytest

from spinsense import (
    adiabatic_ramp_constant,
    check_uncertainty_bound,
    ghz_dephasing_uncertainty,
    ghz_state,
    ground_overlap,
    gap_scaling,
    optimal_sense_time,
    protocol_kernel,
    random_overlap_instances,
    scan_ramp_time,
    select_optimum,
    sql_beating_window,
    time_budget,
    time_unit,
    tint_sweep,
    x_polarized_state,
)
from spinsense.cli import OPTIMUM_TREND, _fig5_optima

from conftest import (
    brute_force_protocol,
    cooled_kernel,
    parity_expectation,
    sector_protocol,
    symmetric_isometry,
)


def report(num, elapsed, detail):
    print(f"\nACCEPTANCE {num:2d} PASS ({elapsed:6.1f} s): {detail}")


@pytest.fixture(scope="module")
def ramp_time_optima():
    """Locally optimal T_a per N (nearest the linear trend) on the full grid,
    with its GHZ and return fidelities."""
    slope, intercept = OPTIMUM_TREND
    optima = {}
    for n in range(10, 101, 10):
        unit = time_unit(n)
        line = slope * n + intercept
        taus = np.arange(1.0, np.ceil(1.45 * line) + 1)
        scan = scan_ramp_time(n, 1.0, taus * unit, ramp_steps=400)
        ta, fid = select_optimum(scan, line * unit)
        fid_init = scan.return_fidelity[scan.ramp_times == ta][0]
        optima[n] = (ta / unit, fid, fid_init)
    return optima


def test_criterion_01_overlap_figure():
    start = time.perf_counter()
    grid = np.linspace(0.0, 3.0, 151)
    for n in (10, 50, 100):
        vals = ground_overlap(n, grid)
        assert np.all(np.diff(vals) > 0), f"overlap not monotone for N={n}"
        at2 = ground_overlap(n, [2.0])[0]
        assert at2**2 > 0.5, f"|g0|^4 <= 1/2 at h/JN = 2 for N={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, elapsed, "|g0|^4 > 1/2 at h^x/JN = 2 for N = 10, 50, 100; monotone")


def test_criterion_02_ramp_fidelities():
    start = time.perf_counter()
    n = 10
    kernel = protocol_kernel(n, 1.0, 150 * time_unit(n), ramp_steps=8000)
    fid_ghz = abs(np.vdot(ghz_state(n), kernel.prep_z)) ** 2
    fid_init = kernel.survival(0.0, 0.0)
    assert fid_ghz == pytest.approx(0.97, abs=0.01)
    assert fid_init == pytest.approx(0.91, abs=0.01)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(2, elapsed, f"T_a = 150: GHZ fidelity {fid_ghz:.4f}, return fidelity {fid_init:.4f}")


def test_criterion_03_headline_uncertainty_index():
    start = time.perf_counter()
    n = 10
    sweep = tint_sweep(protocol_kernel(n, 1.0, 150 * time_unit(n), ramp_steps=4000))
    assert sweep.p_mean == pytest.approx(0.935, abs=0.02)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(3, elapsed,
           f"average delta-h = {1 / sweep.p_mean:.3f}/(2 N T_int): "
           f"p = {sweep.p_mean:.4f} +- {sweep.p_std:.4f}")


def test_criterion_04_optimal_ramp_time_fit(ramp_time_optima):
    start = time.perf_counter()
    ns = np.array(sorted(ramp_time_optima))
    tas = np.array([ramp_time_optima[n][0] for n in ns])
    slope, intercept = np.polyfit(ns, tas, 1)
    assert slope == pytest.approx(11.6, abs=1.5)
    assert intercept == pytest.approx(60.0, abs=15.0)
    # every selected optimum sits within 10% of the linear trend
    trend = OPTIMUM_TREND[0] * ns + OPTIMUM_TREND[1]
    assert np.all(np.abs(tas - trend) / trend < 0.10)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(4, elapsed,
           f"optimal T_a fit: {slope:.2f} N + {intercept:.1f} (2JN^2)^-1")


def test_fig5_selects_the_pinned_optima(ramp_time_optima):
    # The exact optima of the 400-exponential scans; a faster stepper or a
    # change of the selection rule must reproduce them point for point.
    assert [ramp_time_optima[n][0] for n in range(10, 101, 10)] == [
        166, 290, 430, 510, 645, 773, 885, 989, 1097, 1203
    ]


def test_fig5_window_selects_the_full_grid_optima(ramp_time_optima):
    # fig5 scans a window around the trend first; it must pick the full
    # grid's optimum and reproduce its fidelities.
    windowed = _fig5_optima(range(10, 101, 10), 400)
    for n, (ta_units, fid_ghz, fid_init) in ramp_time_optima.items():
        assert windowed[n][0] == ta_units
        assert abs(windowed[n][1] - fid_ghz) < 1e-13
        assert abs(windowed[n][2] - fid_init) < 1e-13


def test_criterion_05_index_beats_sql(ramp_time_optima):
    start = time.perf_counter()
    margins = {}
    for n, (ta_units, *_) in sorted(ramp_time_optima.items()):
        ta = ta_units * time_unit(n)
        sweep = tint_sweep(protocol_kernel(n, 1.0, ta, ramp_steps=400))
        sql_line = 1 / np.sqrt(n)
        assert sweep.p_mean > sql_line, f"p fell below the SQL line at N={n}"
        margins[n] = sweep.p_mean - sql_line
    elapsed = time.perf_counter() - start
    report(5, elapsed,
           f"p > 1/sqrt(N) for all N (smallest margin {min(margins.values()):.3f})")


def test_criterion_06_gap_scaling():
    start = time.perf_counter()
    scaling = gap_scaling(range(10, 101, 10))
    # The N^(-1/3) law governs the gap at the critical point h^x/JN = 1.
    # The raw minimum over a wide bracket still drifts toward the critical
    # point at these sizes and fits shallower; both slopes are reported.
    assert scaling.critical_fit[0] == pytest.approx(-1 / 3, abs=0.05)
    elapsed = time.perf_counter() - start
    report(6, elapsed,
           f"critical-point gap slope {scaling.critical_fit[0]:+.4f} "
           f"(raw minimum fits {scaling.min_fit[0]:+.4f})")


def test_criterion_07_dephasing_windows():
    start = time.perf_counter()
    zero = sql_beating_window(0.0)
    assert zero.window.min() == 4
    windows = [sql_beating_window(gc).window for gc in (0.01, 0.03, 0.05)]
    assert windows[0].size > 0
    sizes = [w.size for w in windows]
    assert sizes[0] > sizes[1] > sizes[2]
    for tight, loose in zip(windows[1:], windows[:-1]):
        assert set(tight).issubset(set(loose))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(7, elapsed,
           f"window sizes {sizes} for Gamma C = 0.01, 0.03, 0.05; "
           "zero-noise window starts at N = 4")


def test_criterion_08_slope_bound_monte_carlo():
    start = time.perf_counter()
    overlaps, hz, t_sense = random_overlap_instances(10, 10_000, seed=2024)
    check = check_uncertainty_bound(overlaps, hz, 10, t_sense)
    assert check.satisfied.shape == (10_000,)
    assert np.count_nonzero(~check.satisfied) == 0
    min_margin = np.min((check.slope_abs - check.bound)[~check.trivial], initial=np.inf)
    assert min_margin >= -1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(8, elapsed,
           f"10^4 seeded draws, 0 violations (min margin {min_margin:.3e})")


def test_criterion_09_invariants():
    start = time.perf_counter()
    n = 10
    unit = time_unit(n)
    rng = np.random.default_rng(99)
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    state = amp / np.linalg.norm(amp)
    # each ramp keeps norm and parity, also after sensing with h^z on mixes them
    for h0, ta, tau in [(1.0, 40, 20), (2.0, 60, 0)]:
        prep, sensed, final = sector_protocol(n, h0, ta * unit, tau * unit, 0.3, state, 400)
        for before, out in [(state, prep), (sensed, final)]:
            assert abs(np.linalg.norm(out) - 1) <= 1e-12
            assert abs(parity_expectation(out) - parity_expectation(before)) <= 1e-12

    # brute-force 2^N oracle of the whole protocol at N = 2, 4 and 6: the
    # kernel's column is its state after the down ramp, and the kernel's
    # survival its return probability after both ramps
    for n_small in (2, 4, 6):
        j_small, h0, hz, duration, t_sense, steps = 1.0 / n_small, 1.0, 0.2, 3.0, 0.7, 400
        q = symmetric_isometry(n_small)
        init = q @ x_polarized_state(n_small)
        prep, _, final = brute_force_protocol(n_small, j_small, h0, duration, t_sense, hz,
                                              init, steps)
        kernel = protocol_kernel(n_small, h0, duration, ramp_steps=steps)
        assert np.abs(q @ kernel.prep_z - prep).max() <= 1e-12, f"prep at N={n_small}"
        survival = abs(np.vdot(init, final)) ** 2
        assert abs(kernel.survival(t_sense, hz) - survival) <= 1e-12, f"P at N={n_small}"

    # adiabatic ideal-protocol fringe at h0/JN = 2 (matched cooled
    # preparation and readout; the projected start saturates at the
    # finite-field overlap instead)
    kernel = cooled_kernel(n, 2.0, 6400 * unit, 40_000)
    worst = 0.0
    for hz in (0.2, 0.4, 0.7):
        for tau in (3, 5, 11):
            t_sense = tau * unit
            worst = max(worst, abs(kernel.survival(t_sense, hz)
                                   - np.cos(hz * n * t_sense) ** 2))
    assert worst <= 1e-3
    elapsed = time.perf_counter() - start
    report(9, elapsed,
           f"parity/norm drift <= 1e-12; kernel within 1e-12 of the 2^N oracle; "
           f"ideal fringe deviation {worst:.2e}")


def test_criterion_10_closed_form_cross_checks():
    start = time.perf_counter()
    # ramp constants to three significant figures
    assert adiabatic_ramp_constant(0.95) == pytest.approx(3.68, abs=0.005)
    assert adiabatic_ramp_constant(0.99) == pytest.approx(10.8, abs=0.05)

    # eta and eta' at eps = 1/2 by direct substitution
    c, ct = 1.0, 100.0
    tb = time_budget(1000, c, 0.5, c_tilde=ct)
    t_sense = np.sqrt(c * ct) * 1000 ** (2.0 / 3.0)
    two_ta = c * 1000 ** (2.0 / 3.0)
    assert tb.eta_prime == pytest.approx(np.sqrt(t_sense / (t_sense + two_ta)),
                                         rel=1e-12)
    assert tb.eta_prime == pytest.approx((1 + np.sqrt(c / ct)) ** -0.5, rel=1e-12)
    single = time_budget(1000, c, 0.5, variant="single-shot")
    assert single.eta_prime == pytest.approx(0.5, rel=1e-12)

    # dephasing optimizer against golden-section minimization
    from scipy.optimize import minimize_scalar

    n, gamma, total = 12, 0.07, 500.0
    t_opt = optimal_sense_time(n, gamma, prep_read_negligible=True)
    res = minimize_scalar(
        lambda t: ghz_dephasing_uncertainty(n, gamma, t, total),
        bracket=(t_opt / 10, t_opt, t_opt * 10), method="golden",
        options={"xtol": 1e-12},
    )
    assert t_opt == pytest.approx(res.x, rel=1e-6)
    elapsed = time.perf_counter() - start
    report(10, elapsed,
           "C-bar(95%) = 3.68, C-bar(99%) = 10.8; eta'(1/2) by substitution; "
           "single-shot eta' = 1/2; dephasing optimum matches golden search")

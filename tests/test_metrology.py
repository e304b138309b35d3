"""Uncertainty operations, limits, dephasing, budgets, bounds, and sweeps."""

import re

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from spinsense import (
    adiabatic_ramp_constant,
    adiabatic_time_estimate,
    calibrate_offset,
    check_uncertainty_bound,
    dephasing_analysis,
    error_propagation,
    ghz_dephasing_uncertainty,
    ideal_survival,
    ideal_survival_slope,
    metrology_limits,
    optimal_sense_time,
    projection_noise,
    protocol_kernel,
    random_overlap_instances,
    sql_beating_window,
    sql_dephasing_min,
    survival_slope_from_overlaps,
    sz_readout_ideal,
    time_budget,
    time_unit,
    tint_sweep,
    zeno_limit,
)
from spinsense.dynamics import ProtocolKernel
from spinsense.metrology import default_sense_grid, slope_lower_bound

from conftest import (
    cooled_kernel,
    ideal_readout_state,
    survival_from_overlaps,
    sz_readout_state,
)


NAN = float("nan")


@pytest.mark.parametrize("fn, args, message", [
    pytest.param(metrology_limits, (4, 1, NAN), "need n_qubits >= 1, shots >= 1, t_sense > 0",
                 id="limits-t_sense"),
    pytest.param(calibrate_offset, (0.0, 4, NAN), "t_sense must be positive", id="offset-t_sense"),
    pytest.param(dephasing_analysis, (4, 0.1, NAN), "need gamma >= 0 and total_time > 0",
                 id="dephasing-total_time"),
    pytest.param(dephasing_analysis, (4, NAN, 10.0), "need gamma >= 0 and total_time > 0",
                 id="dephasing-gamma"),
    pytest.param(optimal_sense_time, (4, NAN), "gamma must be positive for a finite optimum",
                 id="optimal-gamma"),
    pytest.param(sql_beating_window, (NAN,), "gamma_c must be nonnegative", id="window-gamma_c"),
    pytest.param(time_budget, (10, NAN, 0.5, 100.0), "C must be positive", id="budget-c"),
    pytest.param(time_budget, (10, 1.0, 0.5, NAN), "main variant needs a positive C~",
                 id="budget-c_tilde"),
    pytest.param(survival_slope_from_overlaps, ([NAN, 1.0], 0.1, 2, 1.0),
                 "overlap weights must sum to 1", id="overlaps-weights"),
    pytest.param(time_budget, (NAN, 1.0, 0.5, 100.0), "n_qubits must be >= 1", id="budget-n"),
    pytest.param(adiabatic_time_estimate, (NAN, 0.95, 10), "need h0x_over_jn > 0 and n_qubits",
                 id="adiabatic-h0x"),
    pytest.param(sz_readout_ideal, (10, NAN, 1.0), "h^z, t_sense and alpha must be finite",
                 id="sz-hz"),
    pytest.param(sz_readout_ideal, (10, [0.1, NAN], 1.0), "h^z, t_sense and alpha must be finite",
                 id="sz-hz-entry"),
])
def test_closed_forms_reject_nan(fn, args, message):
    # A guard written as `x <= 0` is false for NaN, so these calls used to
    # return NaN results (or an empty window, or regime "zeno") instead.
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        fn(*args)


# -- error propagation ----------------------------------------------------------


def test_error_propagation_substitution():
    # dA = 1/2, |dP/dh| = N T_int  ->  delta h = 1/(2 N T_int)
    n, t = 10, 3.0
    assert error_propagation(0.5, n * t) == pytest.approx(1 / (2 * n * t))


def test_error_propagation_divergence_is_reported_not_raised():
    assert error_propagation(0.5, 0.0) == np.inf


def test_error_propagation_on_arrays_masks_zero_slopes():
    # one masked division: a zero slope gives inf without a 0/0 warning
    with np.errstate(all="raise"):
        dh = error_propagation(np.array([0.5, 0.0, 0.3]), np.array([2.0, 0.0, -0.6]))
        noise = projection_noise(np.array([0.5, 1.0, 0.0]))
    assert dh.tolist() == [0.25, np.inf, 0.5]
    assert noise.tolist() == [0.5, 0.0, 0.0]


def test_ideal_heisenberg_limit_at_offset():
    # Projection readout of the ideal protocol at the offset point reaches
    # delta h = 1/(2 N T_int) in one measurement.
    n, t = 10, 2.0
    h_tot = calibrate_offset(0.0, n, t)
    p = ideal_survival(h_tot, n, t)
    slope = ideal_survival_slope(h_tot, n, t)
    dh = error_propagation(projection_noise(p), slope)
    assert dh == pytest.approx(1 / (2 * n * t), rel=1e-6)


# -- offset calibration -------------------------------------------------------


def test_calibrate_offset_defining_equation():
    n, t, h_k = 10, 0.37, 0.21
    h0 = calibrate_offset(h_k, n, t)
    phase = 2 * (h_k + h0) * n * t
    assert phase % np.pi == pytest.approx(np.pi / 2, abs=1e-12)
    assert h0 >= -h_k


def test_calibrate_offset_paper_operating_point():
    # N = 10, JN = 1, (2JN^2) T_int = 1: the offset lands at pi/2 in JN units.
    n, j = 10, 0.1
    t = time_unit(n)
    assert calibrate_offset(0.0, n, t) == pytest.approx(np.pi / 2 * j * n, rel=1e-12)


def test_calibrate_offset_scaling_and_branches():
    n = 10
    assert calibrate_offset(0.0, n, 2.0) == pytest.approx(
        calibrate_offset(0.0, n, 1.0) / 2
    )
    # the branch n = 0: the phase 2 h N T_int is pi/2 itself, not a higher odd multiple
    assert 2 * calibrate_offset(0.0, n, 1.0) * n == pytest.approx(np.pi / 2, rel=1e-12)
    with pytest.raises(ValueError):
        calibrate_offset(0.0, n, 0.0)


def test_offset_maximizes_slope_against_random_phases(rng):
    n, t = 10, 1.3
    h_tot = calibrate_offset(0.0, n, t)
    best = abs(ideal_survival_slope(h_tot, n, t))
    for h in rng.uniform(0, np.pi, 100):
        assert abs(ideal_survival_slope(h, n, t)) <= best + 1e-12


# -- reference limits ----------------------------------------------------------


def test_limits_single_qubit():
    lim = metrology_limits(1, shots=1, t_sense=1.0)
    assert lim.hl == pytest.approx(1.0)
    assert lim.sql == pytest.approx(1.0)


def test_limits_ratio_and_minimized_forms():
    n, m, t, total = 25, 4, 2.0, 100.0
    lim = metrology_limits(n, m, t, total)
    assert lim.hl / lim.sql == pytest.approx(1 / np.sqrt(n))
    assert lim.hl_min == pytest.approx(1 / (n * total))
    assert lim.sql_min == pytest.approx(1 / (np.sqrt(n) * total))
    # the statistically honest minimized HL reduces to 1/(NT) at T_int -> T
    star = metrology_limits(n, m, total, total).hl_min_star
    assert star == pytest.approx(lim.hl_min)


def test_limits_reject_a_budget_shorter_than_one_window():
    # T = 0.5 < T_int = 2 used to give HL_min = 1/(NT) = 0.5, worse than HL = 0.125.
    for total in (0.5, np.nan):
        with pytest.raises(ValueError, match="^total time .* is shorter than the sensing time 2$"):
            metrology_limits(4, 1, 2.0, total)


# -- dephasing -----------------------------------------------------------------


def test_dephasing_uncertainty_continuity_at_zero_noise():
    # Gamma -> 0 recovers the noiseless projection-readout uncertainty.
    n, t, total = 10, 2.0, 1000.0
    dh = ghz_dephasing_uncertainty(n, 0.0, t, total, 0.0, 0.0)
    shots = total / t
    assert dh == pytest.approx(1 / (2 * n * np.sqrt(shots) * t), rel=1e-12)


def test_zeno_limit_reached_at_optimal_sense_time():
    n, gamma, total = 16, 0.05, 500.0
    t_opt = optimal_sense_time(n, gamma, prep_read_negligible=True)
    assert t_opt == pytest.approx(1 / (gamma * np.sqrt(2 * n)))
    dh = ghz_dephasing_uncertainty(n, gamma, t_opt, total)
    assert dh == pytest.approx(zeno_limit(n, gamma, total), rel=1e-12)


@pytest.mark.parametrize("prep_read", [(0.0, 0.0), (30.0, 30.0)])
def test_dephasing_optimum_matches_numerical_minimization(prep_read):
    # golden-section minimization as the independent oracle
    n, gamma, total = 12, 0.08, 1000.0
    t_prep, t_read = prep_read
    if t_prep == 0:
        t_opt = optimal_sense_time(n, gamma, prep_read_negligible=True)

        def f(t):
            return ghz_dephasing_uncertainty(n, gamma, t, total)

    else:
        t_opt = optimal_sense_time(n, gamma, prep_read_negligible=False)

        def f(t):
            # slow-prep regime: the cycle time is dominated by prep/read
            return np.sqrt(t_prep + t_read) * np.exp(
                gamma**2 * n * t**2 / 2
            ) / (2 * n * t * np.sqrt(total))

    res = minimize_scalar(f, bracket=(t_opt / 10, t_opt, t_opt * 10), method="golden",
                          options={"xtol": 1e-12})
    assert t_opt == pytest.approx(res.x, rel=1e-6)


def test_dephasing_analysis_regimes():
    n, gamma, total = 10, 0.05, 800.0
    fast = dephasing_analysis(n, gamma, total)
    assert fast.regime == "zeno"
    assert fast.ghz_min == pytest.approx(zeno_limit(n, gamma, total), rel=1e-12)
    slow = dephasing_analysis(n, gamma, total, t_prep=20.0, t_read=20.0)
    assert slow.regime == "slow-prep"
    assert slow.t_sense_opt == pytest.approx(1 / (gamma * np.sqrt(n)))
    quiet = dephasing_analysis(n, 0.0, total)
    assert quiet.regime == "noiseless"
    assert quiet.sql_deph_min == pytest.approx(1 / (2 * np.sqrt(n) * total))
    grid = np.linspace(0.5, 5, 10)
    curve = ghz_dephasing_uncertainty(n, gamma, grid, total)
    assert curve.shape == grid.shape
    assert curve.min() >= fast.ghz_min - 1e-12


def test_sql_dephasing_min_value():
    n, gamma, total = 10, 0.02, 100.0
    assert sql_dephasing_min(n, gamma, total) == pytest.approx(
        (2 * np.e * gamma**2) ** 0.25 / (2 * np.sqrt(n * total))
    )


# -- SQL-beating window --------------------------------------------------------


def test_window_zero_noise_starts_at_four():
    res = sql_beating_window(0.0)
    assert res.window.min() == 4
    assert 2 not in res.window
    # every even N >= 4 in the grid qualifies
    assert res.window.size == res.n_values.size - 1


def test_windows_nested_decreasing():
    grids = [sql_beating_window(gc).window for gc in (0.01, 0.03, 0.05)]
    for tight, loose in zip(grids[1:], grids[:-1]):
        assert set(tight).issubset(set(loose))
        assert len(tight) < len(loose)
    assert grids[0].size > 0 and grids[1].size > 0
    # Gamma C = 0.05 is already too noisy: the inequality never holds (its
    # left-hand side exceeds the right for every N), so the window is empty.
    assert grids[2].size == 0


def test_window_empty_for_strong_noise():
    assert sql_beating_window(10.0).window.size == 0
    with pytest.raises(ValueError):
        sql_beating_window(-0.1)


# -- time budgets ---------------------------------------------------------------


def test_time_budget_main_heisenberg_scaling():
    n, c, ct = 1000, 1.0, 100.0
    tb = time_budget(n, c, 0.5, c_tilde=ct)
    # direct substitution: eta' = (1 + sqrt(C/C~))^(-1/2) ~ 1
    assert tb.eta_prime == pytest.approx((1 + np.sqrt(c / ct)) ** -0.5, rel=1e-12)
    assert tb.eta_prime > 0.9
    assert tb.beats_sql


def test_time_budget_improvement_exponent():
    # eta = N^eps (1 + sqrt(C~/C) N^{eps - 1/2})^{-1/2} -> N^eps for large N
    c, ct, eps = 1.0, 100.0, 0.25
    for n in (10**4, 10**6):
        tb = time_budget(n, c, eps, c_tilde=ct)
        assert tb.eta == pytest.approx(
            n**eps / np.sqrt(1 + np.sqrt(ct / c) * n ** (eps - 0.5)), rel=1e-12
        )
    small_eps = time_budget(10**8, c, 0.1, c_tilde=ct)
    assert small_eps.eta / (10**8) ** 0.1 == pytest.approx(1.0, abs=0.05)


def test_time_budget_single_shot_half():
    tb = time_budget(64, 2.0, 0.5, variant="single-shot")
    assert tb.eta_prime == pytest.approx(0.5, rel=1e-12)
    assert tb.t_sense == pytest.approx(tb.total_time - 2 * tb.t_ramp, rel=1e-12)
    assert tb.eta == pytest.approx(np.sqrt(64) / 2, rel=1e-12)
    # one qubit never beats the SQL: an infinite threshold, without a 1/0
    single = time_budget(1, 2.0, 0.5, variant="single-shot")
    assert single.tint_threshold == np.inf and not single.beats_sql


def test_time_budget_threshold_and_validation():
    n, c, ct = 100, 1.0, 50.0
    tb = time_budget(n, c, 0.3, c_tilde=ct)
    # the threshold marks eta = 1: sensing longer than it beats the SQL
    total, t_ramp = tb.total_time, tb.t_ramp
    at = tb.tint_threshold
    eta_at = np.sqrt(n * at**2 / (total * (at + 2 * t_ramp)))
    assert eta_at == pytest.approx(1.0, rel=1e-10)
    with pytest.raises(ValueError):
        time_budget(n, c, 0.7, c_tilde=ct)
    with pytest.raises(ValueError):
        time_budget(n, c, 0.3)  # missing C~ in the main variant


# -- adiabatic ramp constants ----------------------------------------------------


def test_ramp_constants_reference_values():
    assert adiabatic_ramp_constant(0.95) == pytest.approx(3.68, abs=0.01)
    assert adiabatic_ramp_constant(0.99) == pytest.approx(10.8, abs=0.05)
    assert adiabatic_ramp_constant(0.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        adiabatic_ramp_constant(1.0)


def test_adiabatic_time_estimate_fields():
    est = adiabatic_time_estimate(2.0, 0.95, 100)
    assert est.cbar == pytest.approx(3.68, abs=0.01)
    assert est.jn_c == pytest.approx(2 * est.cbar)
    assert est.t_prep == pytest.approx(
        (1 - 0.95) ** (-2.0 / 3.0) * 2.0 * 100 ** (2.0 / 3.0) / 2
    )


# -- S_Z readout -----------------------------------------------------------------


def test_sz_readout_quadrature_phase_kills_signal():
    r = sz_readout_ideal(10, 0.3, 1.0, alpha=np.pi / 2)
    assert r.expectation == pytest.approx(0.0, abs=1e-12)
    # cos(pi/2) only reaches ~1e-16 in floating point, so "divergent" shows
    # up as an absurdly large uncertainty rather than a literal infinity
    assert r.delta_h > 1e12


def test_sz_readout_closed_form_uncertainty():
    n, t = 10, 1.0
    hz = np.pi / 8 / (2 * n * t)  # 2 h N T = pi/4, away from quadrature
    r = sz_readout_ideal(n, hz, t, alpha=0.0)
    expected = 1 / (2 * n * t * abs(np.cos(2 * hz * n * t)))
    assert r.delta_h_closed == pytest.approx(expected, rel=1e-12)


def test_sz_readout_general_state_matches_closed_form():
    n, t = 8, 1.3
    for hz, alpha in [(0.05, 0.0), (0.11, 1.2), (0.2, np.pi / 3)]:
        state = ideal_readout_state(n, hz, t, alpha)
        general = sz_readout_state(state)
        ideal = sz_readout_ideal(n, hz, t, alpha)
        assert general.expectation == pytest.approx(ideal.expectation, abs=1e-10)
        assert general.deviation == pytest.approx(ideal.deviation, abs=1e-10)


def test_sz_readout_on_an_array_matches_each_phase():
    # One call on a block of fields gives each field's own scalar result.
    n, t, alpha = 20, 1.0, 0.3
    hz = np.linspace(0, 2 * np.pi, 41) / (2 * n * t)
    block = sz_readout_ideal(n, hz, t, alpha)
    for i, h in enumerate(hz):
        single = sz_readout_ideal(n, h, t, alpha)
        assert [f[i] for f in block] == list(single)


def test_sz_readout_range_limitation():
    # at the projection-readout offset point the S_Z slope vanishes
    n, t = 10, 1.0
    h_tot = calibrate_offset(0.0, n, t)
    r = sz_readout_ideal(n, h_tot, t, alpha=0.0)
    assert r.delta_h_closed > 1e12


# -- survival-slope bound ----------------------------------------------------------


def test_survival_single_term_is_tight():
    n, t, hz = 6, 1.0, 0.05
    g = np.zeros(n // 2 + 1, dtype=complex)
    g[0] = 1.0
    assert survival_from_overlaps(g, hz, n, t) == pytest.approx(
        np.cos(hz * n * t) ** 2
    )
    slope = abs(survival_slope_from_overlaps(g, hz, n, t))
    assert slope == pytest.approx(n * t * np.sin(2 * hz * n * t), rel=1e-12)
    assert slope == pytest.approx(slope_lower_bound(1.0, hz, n, t), rel=1e-12)


def test_survival_slope_matches_finite_difference(rng):
    n = 8
    overlaps, hz, t_sense = (x[0] for x in random_overlap_instances(n, 1, seed=5))
    eps = 1e-7
    fd = (
        survival_from_overlaps(overlaps, hz + eps, n, t_sense)
        - survival_from_overlaps(overlaps, hz - eps, n, t_sense)
    ) / (2 * eps)
    assert survival_slope_from_overlaps(overlaps, hz, n, t_sense) == pytest.approx(
        fd, rel=1e-5, abs=1e-8
    )


def test_bound_monte_carlo_no_violations():
    overlaps, hz, t_sense = random_overlap_instances(10, 2000, seed=42)
    check = check_uncertainty_bound(overlaps, hz, 10, t_sense)
    assert check.satisfied.shape == (2000,)
    assert np.count_nonzero(~check.satisfied) == 0
    margin = (check.slope_abs - check.bound)[~check.trivial]
    assert np.min(margin, initial=np.inf) >= -1e-12


def test_bound_check_on_a_block_matches_each_row():
    # One call on a block gives each instance's own one-row result.
    n = 6
    overlaps, hz, t_sense = random_overlap_instances(n, 50, seed=9)
    block = check_uncertainty_bound(overlaps, hz, n, t_sense)
    for i in range(50):
        row = check_uncertainty_bound(overlaps[i:i + 1], hz[i:i + 1], n, t_sense[i:i + 1])
        assert [f[i] for f in block] == [f[0] for f in row]


def test_bound_trivial_branch_and_preconditions():
    n, t = 6, np.array([1.0])
    weights = np.array([0.5, 0.3, 0.2, 0.0])
    g = np.sqrt(weights).astype(complex)[None]
    res = check_uncertainty_bound(g, np.array([0.01]), n, t)
    assert res.trivial.tolist() == [True]
    assert res.satisfied.tolist() == [True]
    assert res.delta_h_bound.tolist() == [np.inf]
    with pytest.raises(ValueError):
        check_uncertainty_bound(g, np.array([10.0]), n, t)  # phase outside [0, pi/2]
    with pytest.raises(ValueError):
        check_uncertainty_bound(g * 2, np.array([0.01]), n, t)  # weights not normalized


def test_bound_preconditions_name_the_first_bad_entry():
    n = 6
    overlaps, hz, t_sense = random_overlap_instances(n, 4, seed=1)
    hz[2] = np.nan
    with pytest.raises(ValueError, match=r"^need 0 <= 2 h N T <= pi/2, got nan at entry 2$"):
        check_uncertainty_bound(overlaps, hz, n, t_sense)
    hz[2] = 0.0
    overlaps[3] *= 2
    with pytest.raises(ValueError, match=r"^overlap weights must sum to 1, got \S+ at entry 3$"):
        check_uncertainty_bound(overlaps, hz, n, t_sense)


# -- sensing-time sweep --------------------------------------------------------------


def test_default_grid_is_odd_units():
    n = 10
    grid = default_sense_grid(n)
    taus = grid / time_unit(n)
    assert np.allclose(taus, np.arange(1, 200, 2))


def test_tint_sweep_headline_index():
    n = 10
    sweep = tint_sweep(protocol_kernel(n, 1.0, 150 * time_unit(n), ramp_steps=3000))
    assert sweep.p_mean == pytest.approx(1 / 1.07, abs=0.02)
    assert sweep.excluded == 0
    assert np.all(sweep.p_values <= 1 + 1e-6)
    assert np.all(sweep.p_values >= 0)
    # uncertainty sits between the two reference lines
    assert np.all(sweep.delta_h >= sweep.hl - 1e-12)
    assert np.all(sweep.delta_h <= sweep.sql)


def test_tint_sweep_ideal_adiabatic_reaches_heisenberg():
    # with matched cooled preparation/readout the index p is 1 up to leakage
    n = 4
    unit = time_unit(n)
    kernel = cooled_kernel(n, 2.0, 2400 * unit, 20000)
    t = np.arange(1, 40, 2) * unit
    h_tot = np.array([calibrate_offset(0.0, n, x) for x in t])
    p0 = kernel.survival(t, h_tot)
    dh = np.sqrt(p0 * (1 - p0)) / np.abs(kernel.survival_slope(t, h_tot))
    assert np.mean(1 / (2 * n * t * dh)) == pytest.approx(1.0, abs=1e-3)


def test_tint_sweep_offset_policies_and_validation():
    # the offset is fixed at (pi/2) JN; only the grid is validated
    n = 10
    with pytest.raises(ValueError):
        tint_sweep(protocol_kernel(n, 1.0, 150 * time_unit(n), ramp_steps=20),
                   tint_grid=np.array([]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 0.0])
def test_tint_sweep_rejects_bad_grid_entries(bad):
    # A NaN entry used to count as a divergent point beside a valid p average.
    n = 10
    grid = np.array([bad, 3.0]) * time_unit(n)
    kernel = protocol_kernel(n, 1.0, 150 * time_unit(n), ramp_steps=20)
    with pytest.raises(ValueError, match="^sensing-time grid must be finite, positive and "):
        tint_sweep(kernel, tint_grid=grid)


def test_tint_sweep_rejects_phases_past_round_off():
    # At (pi/2) JN the largest |E_m| is (1 + pi) N / 2: 20.7 at N = 10.  A
    # grid of 1e20 units used to print p = 0.9490 +- 0.0000 from pure round-off.
    n = 10
    kernel = protocol_kernel(n, 1.0, 150 * time_unit(n), ramp_steps=20)
    t_bound = 1e8 / ((1 + np.pi) * n / 2)
    tint_sweep(kernel, tint_grid=[t_bound * (1 - 1e-12)])
    for grid in ([t_bound * (1 + 1e-12)], [1.0, 1e20 * time_unit(n)], [1e300]):
        with pytest.raises(ValueError, match="^largest sensing phase max_m [|]E_m[|] T_int is "):
            tint_sweep(kernel, tint_grid=grid)


@pytest.mark.parametrize("n", [-2, 0, 3])
def test_tint_sweep_rejects_bad_n(n):
    # The sweep reads N off the kernel's column of N + 1 amplitudes; a column
    # made by hand for a bad N is refused by the N check.  No column holds
    # -1 amplitudes, so N = -2 is read off the empty one as -1.
    kernel = ProtocolKernel(np.ones(max(n + 1, 0), dtype=complex))
    assert kernel.n_qubits == max(n, -1)
    with pytest.raises(ValueError, match="^n_qubits must be an even integer >= 2, got "):
        tint_sweep(kernel, tint_grid=[1.0])


def test_tint_sweep_rejects_a_column_that_is_not_1d():
    # A square block would pass the N check (N = 2) and broadcast in survival.
    with pytest.raises(ValueError, match=r"^kernel column must be 1-D, got shape \(3, 3\)$"):
        tint_sweep(ProtocolKernel(np.ones((3, 3))), [1.0])


def test_default_sensing_phases_stay_far_below_the_bound():
    # About 206 rad at N = 1000, T_int = 199 (2JN^2)^-1: 5e5 times below 1e8.
    n, j = 1000, 1e-3
    t_max = default_sense_grid(n).max()
    phase = (1 + np.pi) * n / 2 * t_max
    assert 200 < phase < 210
    kernel = ProtocolKernel(np.eye(n + 1)[0])  # the kernel checks every m, whatever its column
    hz = (np.pi / 2) * n * j
    kernel.survival(t_max, hz)
    kernel.survival_slope(t_max, hz)
    with pytest.raises(ValueError, match="^largest sensing phase max_m [|]E_m[|] T_int is 2.0"):
        kernel.survival(1e6 * t_max, hz)


def test_tint_sweep_takes_a_kernel_of_these_ramps(stepper_widths):
    # The sweep steps no ramp: it evaluates the kernel it is given, with the
    # N of that kernel, at (pi/2) JN over the default grid.
    n = 12
    kernel = protocol_kernel(n, 1.0, 150 * time_unit(n))
    assert stepper_widths == [1]
    sweep = tint_sweep(kernel)
    assert stepper_widths == [1]
    assert sweep.n_qubits == kernel.n_qubits == n
    grid = default_sense_grid(n)
    hz = (np.pi / 2) * (1.0 / n * n)
    assert np.array_equal(sweep.t_sense, grid)
    assert np.array_equal(sweep.survival, kernel.survival(grid, hz))
    assert np.array_equal(sweep.slope, kernel.survival_slope(grid, hz))


def test_kernel_arrays_match_scalar_calls():
    n = 8
    unit = time_unit(n)
    kernel = protocol_kernel(n, 1.0, 60 * unit, ramp_steps=200)
    t = np.arange(1.0, 12.0, 2.0)[:, None] * unit
    hz = np.array([0.0, 0.3, np.pi / 2, 2.1])
    for method in (kernel.survival, kernel.survival_slope):
        grid = method(t, hz)
        assert grid.shape == (len(t), len(hz))
        scalar = [[method(t[i, 0], hz[k]) for k in range(len(hz))] for i in range(len(t))]
        # Not bitwise: numpy picks its exp, sin and cos kernels by the CPU's
        # SIMD level, and a block and a scalar call may take different ones
        # (1 ulp apart at NPY_ENABLE_CPU_FEATURES=X86_V2).
        np.testing.assert_array_max_ulp(grid, np.array(scalar), maxulp=2)


def test_tint_sweep_divergent_points_are_excluded():
    # |N/2, 0>_Z has zero sensing energy at every h^z: P = 1 and slope 0
    # exactly (|N/2, N/2>_Z is stationary too, but only up to round-off).
    # With every point divergent there is no p to average: the sweep is
    # rejected, where it used to return p = nan +- nan.
    n = 10
    m0 = np.zeros(n + 1, dtype=complex)
    m0[n // 2] = 1.0
    kernel, grid, hz = ProtocolKernel(m0), np.arange(1.0, 11.0), np.pi / 2
    assert np.all(kernel.survival(grid, hz) == 1.0)
    assert np.all(kernel.survival_slope(grid, hz) == 0.0)
    with np.errstate(all="raise"), pytest.raises(
        ValueError, match="^all 10 sensing-time grid points diverge: no finite delta_h"
    ):
        tint_sweep(kernel, tint_grid=grid)

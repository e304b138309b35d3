"""Propagator correctness, symmetry protection, and protocol dynamics."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from spinsense import (
    DickeBasis,
    DickeState,
    ModelParams,
    Schedule,
    basis_state,
    cosine_ramp_down,
    ghz_state,
    hold,
    linear_ramp,
    local_maxima,
    parity_operator,
    parity_resolved_spectrum,
    propagate,
    protocol_kernel,
    run_protocol,
    scan_ramp_time,
    select_optimum,
    sine_ramp_up,
    x_polarized_state,
)
from spinsense import dynamics
from spinsense.dicke import ladder_elements, rotation_matrix
from spinsense.dynamics import (
    _bessel_table,
    _down_ramp_fields,
    _exponential_steps,
    _phase_factors,
    _sector_terms,
    _series_lengths,
    _z_diagonal,
)
from spinsense.metrology import time_unit
from spinsense.model import sector_indices, sector_tridiagonal

from conftest import brute_force_ramp, symmetric_isometry


def test_segment_validation():
    with pytest.raises(ValueError):
        cosine_ramp_down(1.0, 0.0)
    with pytest.raises(ValueError):
        Schedule(())
    with pytest.raises(ValueError):
        # discontinuous field across the boundary
        Schedule((cosine_ramp_down(1.0, 1.0), hold(0.5, 1.0)))
    sched = Schedule((cosine_ramp_down(2.0, 4.0), hold(0.0, 1.0), sine_ramp_up(2.0, 4.0)))
    assert sched.total_duration == pytest.approx(9.0)
    assert sched.field(0.0) == pytest.approx(2.0)
    assert sched.field(4.5) == pytest.approx(0.0)
    assert sched.field(9.0) == pytest.approx(2.0)


def test_segment_profiles():
    ta = 3.0
    down = cosine_ramp_down(1.5, ta)
    up = sine_ramp_up(1.5, ta)
    t = 1.234
    assert down.field_at(t) == pytest.approx(1.5 * np.cos(np.pi * t / (2 * ta)))
    assert up.field_at(t) == pytest.approx(1.5 * np.sin(np.pi * t / (2 * ta)))
    lin = linear_ramp(2.0, 1.0, 4.0)
    assert lin.field_at(1.0) == pytest.approx(1.75)


def test_stationary_state_picks_up_phase_only():
    # h^x = 0 keeps the Hamiltonian diagonal: |N/2, N/2>_Z is stationary.
    n, j = 4, 0.25
    state = basis_state(DickeBasis(n, "Z"), 0)
    out = propagate(state, Schedule((hold(0.0, 2.3),)), j)
    overlap = state.overlap(out)
    assert abs(abs(overlap) - 1) < 1e-12
    # e^{-iEt} with E = -2J (N/2)^2
    expected = np.exp(-1j * (-2 * j * (n / 2) ** 2) * 2.3)
    assert abs(overlap - expected) < 1e-12


def test_sensing_phase_accumulation_matches_closed_form():
    # At h^x = 0 with h^z on, the GHZ pair turns into the two-component
    # readout superposition with relative weight cos/sin(h N T).
    n, j, hz, t = 6, 1.0 / 6, 0.37, 1.9
    psi0 = ghz_state(n, +1)
    out = propagate(psi0, Schedule((hold(0.0, t),)), j, hz=hz)
    c_even = out.overlap(ghz_state(n, +1))
    c_odd = out.overlap(ghz_state(n, -1))
    assert abs(c_even) == pytest.approx(abs(np.cos(hz * n * t)), abs=1e-12)
    assert abs(c_odd) == pytest.approx(abs(np.sin(hz * n * t)), abs=1e-12)


def test_integrator_matches_exact_sensing():
    # The stepped integrator agrees with the exact diagonal evolution.
    n, j, hz, t = 4, 0.25, 0.21, 1.3
    amp = np.arange(1.0, n + 2) + 0.3j
    state = DickeState(DickeBasis(n, "Z"), amp / np.linalg.norm(amp))
    exact = propagate(state, Schedule((hold(0.0, t),)), j, hz=hz)
    # force stepped evolution through a linear "ramp" at zero field
    stepped = propagate(state, Schedule((linear_ramp(0.0, 0.0, t),)), j, hz=hz,
                        steps_per_unit=2000 / t)
    assert np.abs(exact.amplitudes - stepped.amplitudes).max() < 1e-12


@pytest.mark.parametrize("n", [2, 4])
def test_brute_force_oracle_agreement(n):
    # Full 2^N propagation of the symmetric initial state vs the collective
    # propagator, through half a cosine ramp with the longitudinal field on.
    j, h0, hz, duration, steps = 1.0 / n, 1.0, 0.15, 2.0, 3000
    q = symmetric_isometry(n)
    psi_full = q @ x_polarized_state(n, axis="Z").amplitudes
    ref = brute_force_ramp(
        n, j, lambda t: h0 * np.cos(np.pi * t / (2 * duration)), duration, hz,
        psi_full, steps,
    )
    ours = propagate(
        x_polarized_state(n, axis="Z"),
        Schedule((cosine_ramp_down(h0, duration),)),
        j,
        hz=hz,
        steps_per_unit=steps / duration,
    )
    fidelity = abs(np.vdot(q @ ours.amplitudes, ref)) ** 2
    assert fidelity > 1 - 1e-8


def test_norm_and_parity_conservation():
    n = 10
    sched = Schedule(
        (cosine_ramp_down(1.0, 5.0), hold(0.0, 1.0), sine_ramp_up(1.0, 5.0))
    )
    pi = parity_operator(DickeBasis(n, "Z"))
    rng = np.random.default_rng(7)
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    state = DickeState(DickeBasis(n, "Z"), amp / np.linalg.norm(amp))
    out = propagate(state, sched, 1.0 / n, steps_per_unit=500)
    assert abs(out.norm - 1) < 1e-12
    assert abs(out.expectation(pi) - state.expectation(pi)) < 1e-12


def test_propagate_rejects_unnormalized_input():
    n = 4
    state = DickeState(DickeBasis(n, "Z"), np.ones(n + 1))
    with pytest.raises(ValueError):
        propagate(state, Schedule((hold(0.0, 1.0),)), 0.25)


def test_propagate_needs_a_count_for_ramps():
    # a constant segment is one exact exponential; a ramp has no default count
    state = x_polarized_state(4, axis="Z")
    with pytest.raises(ValueError, match="cosine-down segment needs steps_per_unit"):
        propagate(state, Schedule((cosine_ramp_down(1.0, 1.0), hold(0.0, 1.0))), 0.25)


def test_step_halving_convergence():
    # survival probability settles monotonically under step doubling
    n, j = 8, 1.0 / 8
    sched = Schedule((cosine_ramp_down(1.0, 3.0),))
    state = x_polarized_state(n, axis="Z")
    ref = x_polarized_state(n, axis="Z")
    steps = [200, 400, 800, 1600, 3200]
    surv = [
        propagate(state, sched, j, steps_per_unit=s / 3.0).fidelity(ref) for s in steps
    ]
    deltas = np.abs(np.diff(surv))
    assert np.all(np.diff(deltas) < 0)


@pytest.mark.parametrize("kind", ["cosine-sine", "linear"])
def test_cf4_fourth_order_convergence(kind):
    # Halving the exponential count must cut the error about 16-fold; a
    # second-order rule (such as CF4 with its two exponents swapped) gives 4.
    n, j = 10, 0.1
    unit = time_unit(n, j)
    taus = np.array([50.0, 150.0, 280.0]) * unit
    scans = {s: scan_ramp_time(n, j, 1.0, taus, kind=kind, ramp_steps=s)
             for s in (100, 200, 3200)}
    scan_err = [
        max(np.abs(scans[s].ghz_fidelity - scans[3200].ghz_fidelity).max(),
            np.abs(scans[s].return_fidelity - scans[3200].return_fidelity).max())
        for s in (100, 200)
    ]
    assert scan_err[0] / scan_err[1] >= 12

    ta = 150 * unit
    ramp = cosine_ramp_down(1.0, ta) if kind == "cosine-sine" else linear_ramp(1.0, 0.0, ta)
    rng = np.random.default_rng(5)
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    state = DickeState(DickeBasis(n, "Z"), amp / np.linalg.norm(amp))
    finals = {s: propagate(state, Schedule((ramp,)), j, hz=0.3,
                           steps_per_unit=s / ta).amplitudes for s in (100, 200, 3200)}
    state_err = [np.linalg.norm(finals[s] - finals[3200]) for s in (100, 200)]
    assert state_err[0] / state_err[1] >= 12


def test_protocol_headline_fidelities():
    # N=10, JN=1, cosine/sine ramps at T_a = 150 (2JN^2)^-1.
    n, j = 10, 0.1
    ta = 150 * time_unit(n, j)
    res = run_protocol(n, j, 1.0, ta, 0.0, 0.0, steps_per_ramp=3000)
    assert res.fidelity_to_ghz == pytest.approx(0.97, abs=0.01)
    assert res.fidelity_to_initial == pytest.approx(0.91, abs=0.01)
    assert res.survival_probability == pytest.approx(res.fidelity_to_initial, abs=1e-12)


def test_adiabatic_round_trip():
    # Cooled preparation: ramps from the finite-field ground state return to
    # it.  (With the projected strong-field start the return probability
    # saturates near |g_0|^4 instead; that imperfection is the point of the
    # finite-field analysis.)
    n, j = 4, 0.25
    ta = 2400 * time_unit(n, j)
    cooled = parity_resolved_spectrum(ModelParams(n, j, 2.0)).even_states[0]
    res = run_protocol(n, j, 2.0, ta, 0.0, 0.0, initial_state=cooled,
                       steps_per_ramp=20000)
    assert res.fidelity_to_initial >= 1 - 1e-3


def test_ideal_protocol_survival_cosine_squared():
    # In the adiabatic limit the matched ground-state interferometer shows
    # the full-contrast fringe P = cos^2(h^z N T_int).
    n, j = 4, 0.25
    unit = time_unit(n, j)
    cooled = parity_resolved_spectrum(ModelParams(n, j, 2.0)).even_states[0]
    kernel = protocol_kernel(n, j, 2.0, 2400 * unit, ramp_steps=20000,
                             initial_state=cooled, readout_state=cooled)
    for hz, tu in [(0.4, 3), (0.7, 11)]:
        t_sense = tu * unit
        assert kernel.survival(t_sense, hz) == pytest.approx(
            np.cos(hz * n * t_sense) ** 2, abs=1e-3
        )


def test_cooled_start_strong_field_survival_is_damped_fringe():
    # Projecting the cooled-start protocol back onto |N/2, N/2>_X gives the
    # reduced-contrast fringe |g_0|^2 cos^2(h N T).
    from spinsense import ground_overlap

    n, j = 4, 0.25
    unit = time_unit(n, j)
    cooled = parity_resolved_spectrum(ModelParams(n, j, 2.0)).even_states[0]
    g0_sq = ground_overlap(n, [2.0])[0]
    hz, t_sense = 0.5, 7 * unit
    res = run_protocol(n, j, 2.0, 2400 * unit, t_sense, hz,
                       initial_state=cooled, steps_per_ramp=20000)
    assert res.survival_probability == pytest.approx(
        g0_sq * np.cos(hz * n * t_sense) ** 2, abs=2e-3
    )


def test_protocol_parity_protection_and_cooled_start():
    n, j = 8, 1.0 / 8
    ta = 50 * time_unit(n, j)
    # cooled first-approach start: the finite-field ground state
    start = parity_resolved_spectrum(ModelParams(n, j, 1.0)).even_states[0]
    res = run_protocol(n, j, 1.0, ta, 0.0, 0.0, initial_state=start,
                       steps_per_ramp=2000)
    pi = parity_operator(DickeBasis(n, "Z"))
    assert res.final_state.expectation(pi) == pytest.approx(
        start.expectation(pi), abs=1e-12
    )
    assert res.fidelity_to_initial == pytest.approx(res.survival_probability, abs=0.2)


def test_protocol_sx_observable():
    n, j = 4, 0.25
    res = run_protocol(n, j, 1.0, 10 * time_unit(n, j), 0.0, 0.0,
                       steps_per_ramp=500, observable="sx")
    assert res.expectation <= n / 2 + 1e-9
    assert res.variance >= -1e-9


def test_scan_ramp_time_headline_and_oscillations():
    n, j = 10, 0.1
    unit = time_unit(n, j)
    taus = np.arange(120.0, 200.0)
    scan = scan_ramp_time(n, j, 1.0, taus * unit, ramp_steps=2000)
    # a local optimum sits at T_a = 150 (2JN^2)^-1 with ~0.97 GHZ fidelity
    ta_opt, fid = select_optimum(scan, 150 * unit)
    assert ta_opt / unit == pytest.approx(150, abs=2)
    assert fid == pytest.approx(0.967, abs=0.005)
    # interference makes the curves oscillate: several local maxima
    wide = scan_ramp_time(n, j, 1.0, np.arange(1.0, 301.0) * unit, ramp_steps=1500)
    assert len(wide.optima) >= 3
    with pytest.raises(ValueError):
        scan_ramp_time(n, j, 1.0, np.array([]))


def test_scan_matches_run_protocol():
    n, j = 6, 1.0 / 6
    unit = time_unit(n, j)
    taus = np.array([40.0, 80.0])
    scan = scan_ramp_time(n, j, 1.0, taus * unit, ramp_steps=2000)
    for i, tau in enumerate(taus):
        res = run_protocol(n, j, 1.0, tau * unit, 0.0, 0.0, steps_per_ramp=2000)
        assert scan.ghz_fidelity[i] == pytest.approx(res.fidelity_to_ghz, abs=1e-9)
        assert scan.return_fidelity[i] == pytest.approx(
            res.fidelity_to_initial, abs=1e-9
        )


@pytest.mark.parametrize("kind", ["cosine-sine", "linear"])
@pytest.mark.parametrize("n", [4, 6])
def test_scan_steps_one_ramp_for_both(monkeypatch, n, kind):
    # The scan steps the down ramp only and takes the return amplitude as
    # psi^T psi (U_up = U_down^T); it must match the two-ramp protocol and
    # the full 2^N oracle stepped through both ramps.
    j, steps, h0 = 1.0 / n, 40, 1.0
    taus = np.array([30.0, 70.0]) * time_unit(n, j)
    calls = []
    stepper = dynamics._exponential_steps
    monkeypatch.setattr(dynamics, "_exponential_steps",
                        lambda *args: calls.append(1) or stepper(*args))
    scan = scan_ramp_time(n, j, h0, taus, kind=kind, ramp_steps=steps)
    assert len(calls) == 1
    monkeypatch.undo()

    if kind == "cosine-sine":
        down, up = (lambda g: np.cos(np.pi * g / 2)), (lambda g: np.sin(np.pi * g / 2))
    else:
        down, up = (lambda g: 1 - g), (lambda g: g)
    q = symmetric_isometry(n)
    start = q @ x_polarized_state(n, axis="Z").amplitudes
    ghz = q @ ghz_state(n).amplitudes
    for i, ta in enumerate(taus):
        res = run_protocol(n, j, h0, ta, 0.0, 0.0, kind=kind, steps_per_ramp=steps)
        assert abs(scan.return_fidelity[i] - res.fidelity_to_initial) < 1e-12
        assert abs(scan.ghz_fidelity[i] - res.fidelity_to_ghz) < 1e-12
        mid = brute_force_ramp(n, j, lambda t: h0 * down(t / ta), ta, 0.0, start, steps)
        end = brute_force_ramp(n, j, lambda t: h0 * up(t / ta), ta, 0.0, mid, steps)
        assert abs(scan.return_fidelity[i] - abs(np.vdot(start, end)) ** 2) < 1e-12
        assert abs(scan.ghz_fidelity[i] - abs(np.vdot(ghz, mid)) ** 2) < 1e-12


def test_local_maxima_detection():
    y = np.array([0.0, 1.0, 0.5, 0.7, 0.2])
    opts = local_maxima(np.arange(5.0), y)
    assert opts == ((1.0, 1.0), (3.0, 0.7))
    # a rise of at most 1e-12 over either neighbor is round-off
    y = np.array([0.0, 3e-13, 1e-13, 0.5, 0.5 - 1e-12, 0.1])
    assert local_maxima(np.arange(6.0), y) == ()


def test_scan_drops_roundoff_maxima():
    # The GHZ fidelity of the shortest ramps at N = 100 is below 1e-28; its
    # strict local maxima there are round-off and must not be reported.
    n = 100
    unit = time_unit(n, 1.0 / n)
    scan = scan_ramp_time(n, 1.0 / n, 1.0, np.arange(1.0, 41.0) * unit, ramp_steps=400)
    assert scan.ghz_fidelity.max() < 1e-20
    assert scan.optima == ()


def test_kernel_matches_run_protocol():
    n, j = 8, 1.0 / 8
    unit = time_unit(n, j)
    ta = 100 * unit
    kernel = protocol_kernel(n, j, 1.0, ta, ramp_steps=2000)
    for tau, hz in [(5.0, 0.3), (27.0, np.pi / 2)]:
        res = run_protocol(n, j, 1.0, ta, tau * unit, hz, steps_per_ramp=2000)
        assert kernel.survival(tau * unit, hz) == pytest.approx(
            res.survival_probability, abs=1e-8
        )


def test_kernel_analytic_slope_matches_finite_difference():
    n, j = 6, 1.0 / 6
    unit = time_unit(n, j)
    kernel = protocol_kernel(n, j, 1.0, 60 * unit, ramp_steps=1500)
    t, hz, eps = 11 * unit, 0.8, 1e-7
    fd = (kernel.survival(t, hz + eps) - kernel.survival(t, hz - eps)) / (2 * eps)
    assert kernel.survival_slope(t, hz) == pytest.approx(fd, rel=1e-5)


def test_linear_schedule_kind():
    n, j = 6, 1.0 / 6
    res = run_protocol(n, j, 1.0, 30 * time_unit(n, j), 0.0, 0.0,
                       kind="linear", steps_per_ramp=1500)
    assert 0 <= res.fidelity_to_ghz <= 1
    with pytest.raises(ValueError):
        run_protocol(n, j, 1.0, 1.0, 0.0, 0.0, kind="bogus")


# ---------------------------------------------------------------------------
# The ramp stepper against straightforward per-column loops.
# ---------------------------------------------------------------------------

_C = np.sqrt(3) / 6  # Gauss points of a CF4 step at 1/2 -+ _C


def _sector_matrix(n, j, h):
    diag, off, _ = sector_tridiagonal(n, j, h, +1)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _loop_ramp(n, j, profile, duration, steps, psi, adjoint=False):
    """One even-sector state through a CF4 ramp, one dense eigensolve per exponential.

    Each of the steps / 2 CF4 steps of length dt applies
    exp(-i dt (a_1 H_1 + a_2 H_2)) exp(-i dt (a_2 H_1 + a_1 H_2)), the right
    factor first, with H_1,2 the Hamiltonians at the step's Gauss points.  The
    adjoint applies the daggered exponentials in reverse order.
    """
    m, a1, a2 = steps // 2, 0.25 - _C, 0.25 + _C
    dt = duration / m
    exponents = []  # generators in order of application
    for i in range(m):
        h1, h2 = (_sector_matrix(n, j, profile((i + 0.5 + c) / m)) for c in (-_C, _C))
        exponents += [a2 * h1 + a1 * h2, a1 * h1 + a2 * h2]
    sign = 1j if adjoint else -1j
    psi = psi.astype(complex)
    for h in exponents[::-1] if adjoint else exponents:
        w, v = np.linalg.eigh(h)
        psi = v @ (np.exp(sign * w * dt) * (v.T @ psi))
    return psi


@pytest.mark.parametrize("kind", ["cosine-sine", "linear"])
@pytest.mark.parametrize("n", [6, 20])
def test_kernel_shared_steps_match_separate_ramps(n, kind):
    # The kernel steps preparation and adjoint readout through the same
    # eigendecompositions; stepping the down ramp forward and the up ramp's
    # adjoint backwards, each from its own CF4 exponents, must agree.
    j, steps = 1.0 / n, 300
    ta = 80 * time_unit(n, j)
    if kind == "cosine-sine":
        down, up = (lambda g: np.cos(np.pi * g / 2)), (lambda g: np.sin(np.pi * g / 2))
    else:
        down, up = (lambda g: 1 - g), (lambda g: g)
    rng = np.random.default_rng(n)
    d = n // 2 + 1
    start = rng.normal(size=d) + 1j * rng.normal(size=d)
    start /= np.linalg.norm(start)
    idx = sector_indices(n, +1)
    full_x = np.zeros(n + 1, dtype=complex)
    full_x[idx] = start
    state = DickeState(DickeBasis(n, "X"), full_x)

    kernel = protocol_kernel(n, j, 1.0, ta, kind=kind, ramp_steps=steps,
                             initial_state=state, readout_state=state)
    u = rotation_matrix(n)
    for column, profile, adjoint in [(kernel.prep_z, down, False), (kernel.read_z, up, True)]:
        expected = np.zeros(n + 1, dtype=complex)
        expected[idx] = _loop_ramp(n, j, profile, ta, steps, start, adjoint)
        assert np.abs(column - u @ expected).max() < 1e-12


@pytest.mark.parametrize("hz", [0.0, 0.3])
@pytest.mark.parametrize("n", [2, 4])
def test_propagate_matches_brute_force_amplitudes(n, hz):
    # N = 2 has a one-dimensional odd sector; the random start fills both.
    j, h0, duration, steps = 1.0 / n, 1.0, 1.5, 400
    rng = np.random.default_rng(n)
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    state = DickeState(DickeBasis(n, "Z"), amp / np.linalg.norm(amp))
    q = symmetric_isometry(n)
    ref = brute_force_ramp(
        n, j, lambda t: h0 * np.cos(np.pi * t / (2 * duration)), duration, hz,
        q @ state.amplitudes, steps,
    )
    ours = propagate(state, Schedule((cosine_ramp_down(h0, duration),)), j, hz=hz,
                     steps_per_unit=steps / duration)
    assert np.abs(q @ ours.amplitudes - ref).max() < 1e-12


def test_block_columns_match_single_columns():
    n, j = 12, 1.0 / 12
    a, b, _ = _sector_terms(n, j, +1)
    d, fields = len(a[0]), np.linspace(1.5, 0.1, 50)
    rng = np.random.default_rng(3)
    # The even sector has d = 7, so every grid takes the eigensolves; the
    # arithmetic grids (the middle three) get the factored phase table.
    grids = [
        np.array([0.9]),
        np.arange(3.0) * 0.4 + 0.5,
        np.arange(1.0, 38.0) * 0.13,
        np.arange(2.0, -2.0, -0.1),
        np.array([0.7, -0.7, 2.0, 0.0, -3.1]),
    ]
    for durations in grids:
        block = rng.normal(size=(d, len(durations))) + 1j * rng.normal(size=(d, len(durations)))
        out = _exponential_steps(a, b, fields, durations, block)
        assert out.shape == block.shape
        for k, duration in enumerate(durations):
            single = _exponential_steps(a, b, fields, [duration], block[:, k:k + 1])
            assert np.abs(out[:, k] - single[:, 0]).max() < 1e-13
    # a zero duration is the identity, and +T then -T over reversed fields
    # undoes the ramp
    assert np.abs(out[:, 3] - block[:, 3]).max() < 1e-13
    back = _exponential_steps(a, b, fields[::-1], [-0.7], out[:, :1])
    assert np.abs(back[:, 0] - block[:, 0]).max() < 1e-12


def test_phase_factors_of_arithmetic_grids():
    unit = time_unit(30, 1.0 / 30)
    for steps in (np.arange(1.0, 593.0) * unit, np.arange(2.0, -2.0, -0.1), np.zeros(5)):
        outer, inner = _phase_factors(steps)
        width = len(inner)
        assert width == int(np.ceil(np.sqrt(len(steps))))
        assert len(outer) * width >= len(steps) > (len(outer) - 1) * width
        rebuilt = (outer[:, None] + inner[None, :]).ravel()[:len(steps)]
        assert np.abs(rebuilt - steps).max() <= 1e-13 * max(1.0, np.abs(steps).max())
    for steps in ([0.7, -0.7, 2.0], [1.0, 2.0], [1.0], [1.0, 2.0, 3.0 + 1e-9]):
        assert _phase_factors(np.array(steps)) is None


def _plain_steps(a, b, fields, durations, block):
    """The step loop through V^T and V at every exponential, scipy's eigensolves."""
    psi = block.copy()
    neg_dts = -np.asarray(durations) / len(fields)
    for h in fields:
        w, v = eigh_tridiagonal(a[0] + h * b[0], a[1] + h * b[1])
        theta = w[:, None] * neg_dts
        coeffs = (v.T @ psi.view(float)).view(complex)
        coeffs *= np.cos(theta) + 1j * np.sin(theta)
        psi = (v @ coeffs.view(float)).view(complex)
    return psi


def test_narrow_block_is_the_plain_step_loop():
    # K <= d and not arithmetic: the eigenbasis carry with a direct cos/sin
    # phase table is the loop through V^T and V at every exponential, up to
    # round-off.
    n, j = 12, 1.0 / 12
    a, b, _ = _sector_terms(n, j, +1)
    fields = np.linspace(1.5, 0.1, 40)
    durations = np.array([0.7, -0.7, 2.0, 0.0, -3.1])
    rng = np.random.default_rng(4)
    block = rng.normal(size=(len(a[0]), 5)) + 1j * rng.normal(size=(len(a[0]), 5))
    ref = _plain_steps(a, b, fields, durations, block)
    assert np.abs(_exponential_steps(a, b, fields, durations, block) - ref).max() < 1e-13


@pytest.mark.parametrize("durations", [
    np.array([2500.0, -2500.0]),  # direct table; series far too long to take
    np.arange(-40.0, 40.0) * 0.05,  # K = 80 > d: the factored table
])
def test_chunked_carry_is_the_plain_step_loop(monkeypatch, durations):
    # At d = 51 a chunk holds three exponentials, so 400 of them run through
    # 134 chunks, the last one short, each linked to the one before.
    n = 100
    a, b, _ = _sector_terms(n, 1.0 / n, +1)
    fields = _down_ramp_fields("cosine-sine", 1.0, 400)
    rng = np.random.default_rng(6)
    block = rng.normal(size=(len(a[0]), len(durations))) * (1 + 1j)
    block /= np.linalg.norm(block, axis=0)
    calls = _count_eigensolves(monkeypatch)
    out = _exponential_steps(a, b, fields, durations, block)
    assert len(calls) == len(fields)
    assert np.abs(out - _plain_steps(a, b, fields, durations, block)).max() < 1e-13


@pytest.mark.parametrize("n", [1, 2, 50, 600])  # d = 1, 2, 26, 301
def test_eigh_tridiagonal_is_scipys(n):
    diag, off, _ = sector_tridiagonal(n, 1.0 / n, 0.7, +1)
    w, v = dynamics.eigh_tridiagonal(diag, off)
    w_ref, v_ref = eigh_tridiagonal(diag, off)
    assert w.dtype == w_ref.dtype and v.dtype == v_ref.dtype
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


def test_eigh_tridiagonal_reports_lapack_failure(monkeypatch):
    diag, off, _ = sector_tridiagonal(10, 0.1, 0.7, +1)
    monkeypatch.setattr(dynamics, "_STEVD", lambda d, e: (d, np.eye(len(d)), 1))
    # LinAlgError is a ValueError, so the CLI reports it in one line
    with pytest.raises(np.linalg.LinAlgError, match="info = 1") as err:
        dynamics.eigh_tridiagonal(diag, off)
    assert isinstance(err.value, ValueError)


def test_kernel_build_memory_stays_small():
    # The eigenbasis carry keeps fixed-size chunk stacks: stacks over the
    # whole 4000-exponential ramp would take about 22 MB.
    n = 50
    tracemalloc.start()
    try:
        protocol_kernel(n, 1.0 / n, 1.0, 645 * time_unit(n, 1.0 / n), ramp_steps=4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_stepper_rejects_bad_input():
    n, j = 6, 1.0 / 6
    with pytest.raises(ValueError, match="must be finite"):
        protocol_kernel(n, j, np.nan, 1.0, ramp_steps=10)
    with pytest.raises(ValueError, match="must be finite"):
        scan_ramp_time(n, j, 1.0, np.array([1.0, np.inf]), ramp_steps=10)
    for steps in (0, -3, 1, 7):
        with pytest.raises(ValueError, match="steps must be even and at least 2"):
            scan_ramp_time(n, j, 1.0, np.array([1.0, 2.0]), ramp_steps=steps)
        with pytest.raises(ValueError, match="steps must be even and at least 2"):
            protocol_kernel(n, j, 1.0, 1.0, ramp_steps=steps)
        with pytest.raises(ValueError, match="steps must be even and at least 2"):
            run_protocol(n, j, 1.0, 1.0, 0.0, 0.0, steps_per_ramp=steps)


def _count_eigensolves(monkeypatch):
    calls = []
    solve = dynamics.eigh_tridiagonal

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(dynamics, "eigh_tridiagonal", counted)
    return calls


def _carried(a, b, fields, durations, block):
    """The same columns padded to K > d, so the eigenbasis carry steps them."""
    d, k = block.shape
    padded = np.zeros((d, d + 1), dtype=complex)
    padded[:, :k] = block
    out = _exponential_steps(a, b, fields, np.resize(durations, d + 1), padded)
    return out[:, :k]


@pytest.mark.parametrize("durations", [[1.0], [-1.0], [1.0, -1.0], [0.7, 0.0]])
@pytest.mark.parametrize("n, n_exps", [(200, 400), (600, 40)])
def test_series_path_matches_eigenbasis_carry(monkeypatch, n, n_exps, durations):
    # Narrow blocks whose series is short skip the eigensolves; the ramp is
    # the protocol kernel's at the fig5 line T_a = 11.6 N + 60.
    a, b, _ = _sector_terms(n, 1.0 / n, +1)
    fields = _down_ramp_fields("cosine-sine", 1.0, n_exps)
    durations = np.array(durations) * (11.6 * n + 60) * time_unit(n, 1.0 / n)
    rng = np.random.default_rng(n)
    block = rng.normal(size=(len(a[0]), len(durations))) * (1 + 1j)
    block /= np.linalg.norm(block, axis=0)
    calls = _count_eigensolves(monkeypatch)
    out = _exponential_steps(a, b, fields, durations, block)
    assert not calls
    assert np.abs(out - _carried(a, b, fields, durations, block)).max() <= 1e-12
    assert np.abs(np.linalg.norm(out, axis=0) - 1).max() <= 1e-12


def test_series_path_in_the_z_basis(monkeypatch):
    # With h^z != 0 propagate steps the whole Z basis, d = N + 1, where the
    # transverse field sits on the off-diagonal.
    n, j, hz, duration, steps = 200, 1.0 / 200, 0.3, 2.0, 200
    rng = np.random.default_rng(5)
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    state = DickeState(DickeBasis(n, "Z"), amp / np.linalg.norm(amp))
    calls = _count_eigensolves(monkeypatch)
    out = propagate(state, Schedule((cosine_ramp_down(1.0, duration),)), j, hz=hz,
                    steps_per_unit=steps / duration)
    assert not calls
    a = (_z_diagonal(n, j, hz), np.zeros(n))
    b = (np.zeros(n + 1), -ladder_elements(n))
    fields = dynamics._segment_fields(cosine_ramp_down(1.0, duration), steps / duration)
    ref = _carried(a, b, fields, [duration], state.amplitudes[:, None])[:, 0]
    assert np.abs(out.amplitudes - ref).max() <= 1e-12
    assert abs(out.norm - 1) <= 1e-12


def test_bessel_table_and_series_tail():
    from scipy.special import jv

    x = np.linspace(-100.0, 100.0, 401)
    m = int(_series_lengths(100.0))
    table = _bessel_table(x, m)
    assert table.shape == (len(x), m + 1)
    assert np.abs(table - jv(np.arange(m + 1), x[:, None])).max() <= 1e-13
    # The dropped coefficients weigh at most the stated 1e-16; up to x = 15
    # (the N = 600 kernel reaches 8.8) the bound keeps at most one term more
    # than that needs.
    for x in (0.0, 1e-3, 0.1, 1.0, 8.8, 15.0, 30.0, 100.0):
        m = int(_series_lengths(x))
        assert 2 * np.abs(jv(np.arange(m + 1, m + 80), x)).sum() <= 1e-16
        if 0 < x <= 15:
            assert 2 * np.abs(jv(np.arange(m - 1, m + 80), x)).sum() > 1e-16
    assert _series_lengths(np.array([0.5, 30.0]), limit=20) is None


@pytest.mark.parametrize("n, n_exps, eigensolves", [(600, 400, 0), (600, 4, 4), (50, 4000, 4000)])
def test_kernel_path_follows_the_series_length(monkeypatch, n, n_exps, eigensolves):
    # The choice follows the series length, not the size alone: at N = 600
    # four exponentials need a series of about 2600 terms.
    calls = _count_eigensolves(monkeypatch)
    t_ramp = (11.6 * n + 60) * time_unit(n, 1.0 / n)
    protocol_kernel(n, 1.0 / n, 1.0, t_ramp, ramp_steps=n_exps)
    assert len(calls) == eigensolves

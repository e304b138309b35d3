"""Propagator correctness, symmetry protection, and protocol dynamics."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from spinsense import (
    ProtocolKernel,
    ghz_state,
    protocol_kernel,
    scan_ramp_time,
    select_optimum,
    x_polarized_state,
)
from spinsense import dicke, dynamics
from spinsense.dicke import rotation_matrix
from spinsense.dynamics import (
    _bessel_table,
    _carry_steps,
    _down_ramp_fields,
    _exponential_steps,
    _interpolated_generators,
    _interpolated_steps,
    _node_count,
    _peak_indices,
    _phase_factors,
    _series_lengths,
    _series_steps,
)
from spinsense.metrology import time_unit
from spinsense.model import sector_tridiagonal

from conftest import (
    brute_force_protocol,
    brute_force_ramp,
    cooled_kernel,
    cooled_start,
    parity_expectation,
    ramp_profiles,
    sector_protocol,
    sector_ramp,
    sector_terms,
    sensing_phases,
    symmetric_isometry,
)


def _random_state(n, seed):
    """Z amplitudes of a normalized state with both parity sectors filled."""
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return amp / np.linalg.norm(amp)


def test_stationary_state_picks_up_phase_only():
    # h^x = 0 keeps the Hamiltonian diagonal: |N/2, N/2>_Z is stationary.
    n, j = 4, 0.25
    state = np.eye(n + 1)[0]
    overlap = np.vdot(state, state * sensing_phases(n, 0.0, 2.3))
    assert abs(abs(overlap) - 1) < 1e-12
    # e^{-iEt} with E = -2J (N/2)^2
    expected = np.exp(-1j * (-2 * j * (n / 2) ** 2) * 2.3)
    assert abs(overlap - expected) < 1e-12


def test_sensing_phase_accumulation_matches_closed_form():
    # At h^x = 0 with h^z on, the GHZ pair turns into the two-component
    # readout superposition with relative weight cos/sin(h N T).
    n, hz, t = 6, 0.37, 1.9
    psi0 = ghz_state(n)
    out = psi0 * sensing_phases(n, hz, t)
    psi1 = psi0.copy()
    psi1[-1] *= -1  # the odd GHZ state
    c_even = np.vdot(out, psi0)
    c_odd = np.vdot(out, psi1)
    assert abs(c_even) == pytest.approx(abs(np.cos(hz * n * t)), abs=1e-12)
    assert abs(c_odd) == pytest.approx(abs(np.sin(hz * n * t)), abs=1e-12)


def test_integrator_matches_exact_sensing():
    # The exact sensing phases agree with the 2^N oracle's exponentials at
    # h^x = 0, here through 2000 of them.
    n, j, hz, t = 4, 0.25, 0.21, 1.3
    amp = np.arange(1.0, n + 2) + 0.3j
    state = amp / np.linalg.norm(amp)
    exact = state * sensing_phases(n, hz, t)
    q = symmetric_isometry(n)
    stepped = q.T @ brute_force_ramp(n, j, lambda _: 0.0, t, hz, q @ state, 2000)
    assert np.abs(exact - stepped).max() < 1e-12


@pytest.mark.parametrize("n", [2, 4, 6])
def test_brute_force_oracle_agreement(n):
    # Full 2^N protocol against the collective one: from |N/2, N/2>_X the
    # kernel's column and its survival, which never steps the up ramp, and
    # from a start with both parity sectors filled the state after each
    # stage of the sector reference (N = 2 has a one-dimensional odd sector).
    j, h0, hz, steps = 1.0 / n, 1.0, 0.3, 40
    unit = time_unit(n)
    ta, t_sense = 30 * unit, 3 * unit
    q = symmetric_isometry(n)
    start = q @ x_polarized_state(n)
    prep, _, final = brute_force_protocol(n, j, h0, ta, t_sense, hz, start, steps)
    kernel = protocol_kernel(n, h0, ta, ramp_steps=steps)
    assert np.abs(q @ kernel.prep_z - prep).max() < 1e-12
    assert abs(kernel.survival(t_sense, hz) - abs(np.vdot(start, final)) ** 2) < 1e-12
    state = _random_state(n, n)
    refs = brute_force_protocol(n, j, h0, ta, t_sense, hz, q @ state, steps)
    for out, ref in zip(sector_protocol(n, h0, ta, t_sense, hz, state, steps), refs):
        assert np.abs(q @ out - ref).max() < 1e-12


@pytest.mark.parametrize("hz", [0.0])
@pytest.mark.parametrize("n", [2, 4])
def test_propagate_matches_brute_force_amplitudes(n, hz):
    # One cosine down ramp against the 2^N oracle's exponentials, amplitude
    # by amplitude.  Ramps run at h^z = 0, the only field they are stepped
    # at; N = 2 has a one-dimensional odd sector; the random start fills both.
    j, h0, duration, steps = 1.0 / n, 1.0, 1.5, 400
    rng = np.random.default_rng(n)
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    state = amp / np.linalg.norm(amp)
    q = symmetric_isometry(n)
    ref = brute_force_ramp(
        n, j, lambda t: h0 * np.cos(np.pi * t / (2 * duration)), duration, hz,
        q @ state, steps,
    )
    ours = sector_ramp(n, _down_ramp_fields(h0, steps), duration, state)
    assert np.abs(q @ ours - ref).max() < 1e-12


def test_norm_and_parity_conservation():
    # Each ramp keeps the norm and the parity of a start with both sectors
    # filled; the sensing between them, with h^z on, mixes the sectors.
    n = 10
    state = _random_state(n, 7)
    prep, sensed, final = sector_protocol(n, 1.0, 5.0, 1.0, 0.3, state, 2500)
    for before, after in [(state, prep), (sensed, final)]:
        assert abs(np.linalg.norm(after) - 1) < 1e-12
        assert abs(parity_expectation(after) - parity_expectation(before)) < 1e-12
    assert abs(parity_expectation(sensed) - parity_expectation(state)) > 1e-3


def _kernel_methods():
    kernel = ProtocolKernel(np.full(11, 1 / np.sqrt(11), dtype=complex))  # N = 10
    return kernel.survival, kernel.survival_slope


@pytest.mark.parametrize("times", [
    (np.nan, 0.5), (np.inf, 0.5), ([1.0, np.nan], 0.5), (1.0, np.nan), (1.0, -np.inf),
    (1.0, [0.5, np.inf]),
])
def test_kernel_rejects_non_finite_times(times):
    # survival(nan, 0.5) returned nan.
    for method in _kernel_methods():
        with pytest.raises(ValueError, match=r"^T_int and h\^z must be finite$"):
            method(*times)


def test_kernel_rejects_phases_past_round_off():
    # Largest |E_m| at h^z = 0.5, J = 0.1, N = 10: 2 J 25 + 2 h^z 5 = 10.
    # survival(1e20, 0.5) returned 0.816, a number made of round-off.
    past = "^largest sensing phase max_m [|]E_m[|] T_int is 1e[+]"
    for method in _kernel_methods():
        method(1e7 * (1 - 1e-9), 0.5)
        method([0.0, 1e7 * (1 - 1e-9)], [[0.5], [-0.5]])
        for t_sense in (1e7 * (1 + 1e-9), [1.0, 1e7 * (1 + 1e-9)]):
            with pytest.raises(ValueError, match=past + "08 rad"):
                method(t_sense, 0.5)
        with pytest.raises(ValueError, match=past + "21 rad"):
            method(1e20, 0.5)


def test_kernel_rejects_negative_sensing_times():
    # survival(-1, 0.5) returned 0.487; T_int = 0 stays legal.
    for method in _kernel_methods():
        method(0.0, 0.5)
        for t_sense in (-1.0, [1.0, -1e-300]):
            with pytest.raises(ValueError, match="^times must be nonnegative$"):
                method(t_sense, 0.5)


@pytest.mark.parametrize("n", [0, 3])
def test_kernel_rejects_bad_n(n):
    # The kernel reads N off its column; the sensing-time check must not
    # reach numpy with a bad N first.
    kernel = ProtocolKernel(np.ones(n + 1))
    for method in (kernel.survival, kernel.survival_slope):
        with pytest.raises(ValueError, match="^n_qubits must be an even integer >= 2, got "):
            method(1.0, 0.5)


@pytest.mark.parametrize("column, message", [
    (np.ones((3, 3)) / 3, r"^kernel column must be 1-D, got shape \(3, 3\)$"),
    (2 * np.ones(11), r"^kernel column must have unit norm, got sum \|prep_z\|\^2 = 44\.0$"),
    (np.full(11, np.sqrt((1 + 2e-8) / 11)), r"^kernel column must have unit norm, got "),
])
def test_kernel_rejects_a_malformed_column(column, message):
    # The block gave three survivals; 2 * ones(11) gave a survival of 1.0 at
    # (0, 0), clipped by np.minimum, and a slope of -2047.4 at (0.3, 0.5).
    kernel = ProtocolKernel(column)
    for method in (kernel.survival, kernel.survival_slope):
        with pytest.raises(ValueError, match=message):
            method(0.3, 0.5)


def test_kernel_accepts_round_off_in_the_norm():
    # A stepped column is within about 1e-12 of unit norm; 1e-8 is the limit.
    kernel = ProtocolKernel(np.full(11, np.sqrt((1 + 5e-9) / 11)))
    assert 0 <= kernel.survival(0.3, 0.5) <= 1
    assert np.isfinite(kernel.survival_slope(0.3, 0.5))


def test_ramps_past_round_off_are_rejected():
    # Gershgorin bounds |E| over the N = 10 ramp from h0x = 1 by 11.17 (the rows
    # at its extreme fields), so its phase passes 1e8 rad at T_a = 8.95e6.
    protocol_kernel(10, 1.0, 8.9e6, ramp_steps=4)
    for ramp in (lambda: protocol_kernel(10, 1.0, 9e6, ramp_steps=4),
                 lambda: scan_ramp_time(10, 1.0, [1.0, 9e6], ramp_steps=4)):
        with pytest.raises(ValueError, match="^largest ramp phase max [|]E[|] T_a is 1e[+]08 rad"):
            ramp()


def test_step_halving_convergence():
    # survival probability settles monotonically under step doubling
    n = 8
    steps = [200, 400, 800, 1600, 3200]
    surv = [protocol_kernel(n, 1.0, 3.0, ramp_steps=s).survival(0.0, 0.0) for s in steps]
    deltas = np.abs(np.diff(surv))
    assert np.all(np.diff(deltas) < 0)


def test_cf4_fourth_order_convergence():
    # Halving the exponential count must cut the error about 16-fold; a
    # second-order rule (such as CF4 with its two exponents swapped) gives 4.
    n = 10
    unit = time_unit(n)
    taus = np.array([50.0, 150.0, 280.0]) * unit
    scans = {s: scan_ramp_time(n, 1.0, taus, ramp_steps=s)
             for s in (100, 200, 3200)}
    scan_err = [
        max(np.abs(scans[s].ghz_fidelity - scans[3200].ghz_fidelity).max(),
            np.abs(scans[s].return_fidelity - scans[3200].return_fidelity).max())
        for s in (100, 200)
    ]
    assert scan_err[0] / scan_err[1] >= 12

    state = _random_state(n, 5)
    finals = {
        s: sector_protocol(n, 1.0, 150 * unit, 3 * unit, 0.3, state, s)[-1]
        for s in (100, 200, 3200)
    }
    state_err = [np.linalg.norm(finals[s] - finals[3200]) for s in (100, 200)]
    assert state_err[0] / state_err[1] >= 12


def test_protocol_headline_fidelities():
    # N=10, JN=1, cosine/sine ramps at T_a = 150 (2JN^2)^-1.
    n = 10
    ta = 150 * time_unit(n)
    kernel = protocol_kernel(n, 1.0, ta, ramp_steps=3000)
    assert abs(np.vdot(ghz_state(n), kernel.prep_z)) ** 2 == pytest.approx(0.97, abs=0.01)
    assert kernel.survival(0.0, 0.0) == pytest.approx(0.91, abs=0.01)


def test_adiabatic_round_trip():
    # Cooled preparation: ramps from the finite-field ground state return to
    # it.  (With the projected strong-field start the return probability
    # saturates near |g_0|^4 instead; that imperfection is the point of the
    # finite-field analysis.)
    n = 4
    kernel = cooled_kernel(n, 2.0, 2400 * time_unit(n), 20000)
    assert kernel.survival(0.0, 0.0) >= 1 - 1e-3


def test_ideal_protocol_survival_cosine_squared():
    # In the adiabatic limit the matched ground-state interferometer shows
    # the full-contrast fringe P = cos^2(h^z N T_int).
    n = 4
    unit = time_unit(n)
    kernel = cooled_kernel(n, 2.0, 2400 * unit, 20000)
    for hz, tu in [(0.4, 3), (0.7, 11)]:
        t_sense = tu * unit
        assert kernel.survival(t_sense, hz) == pytest.approx(
            np.cos(hz * n * t_sense) ** 2, abs=1e-3
        )


def test_cooled_start_strong_field_survival_is_damped_fringe():
    # Projecting the cooled-start protocol back onto |N/2, N/2>_X gives the
    # reduced-contrast fringe |g_0|^2 cos^2(h N T).
    from spinsense import ground_overlap

    n = 4
    unit = time_unit(n)
    g0_sq = ground_overlap(n, [2.0])[0]
    hz, t_sense = 0.5, 7 * unit
    final = sector_protocol(n, 2.0, 2400 * unit, t_sense, hz, cooled_start(n, 2.0),
                            20000)[-1]
    survival = abs(np.vdot(x_polarized_state(n), final)) ** 2
    assert survival == pytest.approx(g0_sq * np.cos(hz * n * t_sense) ** 2, abs=2e-3)


def test_protocol_parity_protection_and_cooled_start():
    n = 8
    ta = 50 * time_unit(n)
    # cooled first-approach start: the finite-field ground state
    start = cooled_start(n, 1.0)
    final = sector_protocol(n, 1.0, ta, 0.0, 0.0, start, 2000)[-1]
    assert parity_expectation(final) == pytest.approx(parity_expectation(start), abs=1e-12)
    back = abs(np.vdot(final, start)) ** 2
    assert back == pytest.approx(abs(np.vdot(final, x_polarized_state(n))) ** 2, abs=0.2)
    # the kernel of the cooled column reads out through the cooled start
    assert cooled_kernel(n, 1.0, ta, 2000).survival(0.0, 0.0) == pytest.approx(
        back, abs=1e-12
    )


def test_scan_ramp_time_headline_and_oscillations():
    n = 10
    unit = time_unit(n)
    taus = np.arange(120.0, 200.0)
    scan = scan_ramp_time(n, 1.0, taus * unit, ramp_steps=2000)
    # a local optimum sits at T_a = 150 (2JN^2)^-1 with ~0.97 GHZ fidelity
    ta_opt, fid = select_optimum(scan, 150 * unit)
    assert ta_opt / unit == pytest.approx(150, abs=2)
    assert fid == pytest.approx(0.967, abs=0.005)
    # interference makes the curves oscillate: several local maxima
    wide = scan_ramp_time(n, 1.0, np.arange(1.0, 301.0) * unit, ramp_steps=1500)
    assert len(wide.optima) >= 3
    with pytest.raises(ValueError):
        scan_ramp_time(n, 1.0, np.array([]))


def test_scan_matches_both_ramps_stepped():
    # The scan's psi^T psi against the sector reference, which steps the up
    # ramp too, from |N/2, N/2>_X.
    n = 6
    unit = time_unit(n)
    taus = np.array([40.0, 80.0])
    scan = scan_ramp_time(n, 1.0, taus * unit, ramp_steps=2000)
    start = x_polarized_state(n)
    for i, tau in enumerate(taus):
        prep, _, final = sector_protocol(n, 1.0, tau * unit, 0.0, 0.0, start, 2000)
        assert scan.ghz_fidelity[i] == pytest.approx(
            abs(np.vdot(ghz_state(n), prep)) ** 2, abs=1e-12
        )
        assert scan.return_fidelity[i] == pytest.approx(
            abs(np.vdot(start, final)) ** 2, abs=1e-12
        )


@pytest.mark.parametrize("n", [4, 6])
def test_scan_steps_one_ramp_for_both(monkeypatch, stepper_widths, n):
    # The scan steps the down ramp only and takes the return amplitude as
    # psi^T psi (U_up = U_down^T); it must match the sector reference and
    # the full 2^N oracle, both stepped through both ramps.
    j, steps, h0 = 1.0 / n, 40, 1.0
    taus = np.array([30.0, 70.0]) * time_unit(n)
    scan = scan_ramp_time(n, h0, taus, ramp_steps=steps)
    assert stepper_widths == [len(taus)]
    monkeypatch.undo()

    down, up = ramp_profiles()
    q = symmetric_isometry(n)
    start = q @ x_polarized_state(n)
    ghz = q @ ghz_state(n)
    for i, ta in enumerate(taus):
        prep, _, final = sector_protocol(n, h0, ta, 0.0, 0.0, q.T @ start, steps)
        assert abs(scan.return_fidelity[i] - abs(np.vdot(start, q @ final)) ** 2) < 1e-12
        assert abs(scan.ghz_fidelity[i] - abs(np.vdot(ghz, q @ prep)) ** 2) < 1e-12
        mid = brute_force_ramp(n, j, lambda t: h0 * down(t / ta), ta, 0.0, start, steps)
        end = brute_force_ramp(n, j, lambda t: h0 * up(t / ta), ta, 0.0, mid, steps)
        assert abs(scan.return_fidelity[i] - abs(np.vdot(start, end)) ** 2) < 1e-12
        assert abs(scan.ghz_fidelity[i] - abs(np.vdot(ghz, mid)) ** 2) < 1e-12


@pytest.mark.parametrize("n", [4, 6])
def test_default_kernel_reads_out_the_conjugate(stepper_widths, n):
    # The kernel steps one column U_down e_0 and reads out through its
    # conjugate; the full 2^N oracle must find U_up^+ e_0 there.  The same
    # holds for any real start c, here also the cooled even ground state:
    # U_up^+ c = conj(U_down c).  The adjoint up ramp is the oracle run
    # backwards: negative duration, the field sampled at T_a + t for t in
    # [-T_a, 0].
    j, steps, h0 = 1.0 / n, 40, 1.0
    ta = 50 * time_unit(n)
    kernel = protocol_kernel(n, h0, ta, ramp_steps=steps)
    assert stepper_widths == [1]

    cooled = cooled_start(n, h0)
    columns = [kernel.prep_z, sector_ramp(n, _down_ramp_fields(h0, steps), ta, cooled)]
    down, up = ramp_profiles()
    q = symmetric_isometry(n)
    for start, column in zip([x_polarized_state(n), cooled], columns):
        prep = brute_force_ramp(n, j, lambda t: h0 * down(t / ta), ta, 0.0, q @ start, steps)
        read = brute_force_ramp(n, j, lambda t: h0 * up((ta + t) / ta), -ta, 0.0, q @ start,
                                steps)
        assert np.abs(column - q.T @ prep).max() < 1e-12
        assert np.abs(column.conj() - q.T @ read).max() < 1e-12


def test_one_column_kernel_matches_two_columns_at_large_n():
    # At N = 600 the kernel takes the Chebyshev series.  Stepped with
    # duration -T_a, e_0 meets the up ramp's adjoint (its exponents are the
    # down ramp's, walked backwards), so that second column is U_up^+ e_0:
    # the conjugate the kernel reads out through.  Each column is its own
    # call, so both stay on the series path; as one block of two they would
    # take the eigenbasis carry.
    n = 600
    ta = (11.6 * n + 60) * time_unit(n)
    kernel = protocol_kernel(n, 1.0, ta)
    a, b = sector_terms(n, +1)
    e0 = np.zeros((len(a[0]), 1), dtype=complex)
    e0[0] = 1.0
    fields = _down_ramp_fields(1.0, 400)
    ends = [_exponential_steps(a, b, fields, [t], e0)[:, 0] for t in (ta, -ta)]
    prep_z, read_z = dicke.sector_to_z(n, +1, np.transpose(ends)).T
    assert np.abs(kernel.prep_z - prep_z).max() < 1e-13
    assert np.abs(kernel.prep_z.conj() - read_z).max() < 1e-13


def test_default_kernel_matches_the_dense_rotation_at_large_n(monkeypatch):
    # The even parity block and the unfold take the stepped column to the Z
    # basis as the full rotation did, at 400 exponentials on the series path.
    n, steps = 600, 400
    ta = (11.6 * n + 60) * time_unit(n)
    columns = []
    step = dynamics._exponential_steps

    def recorded(a, b, fields, durations, psi):
        columns.append(step(a, b, fields, durations, psi))
        return columns[-1]

    monkeypatch.setattr(dynamics, "_exponential_steps", recorded)
    kernel = protocol_kernel(n, 1.0, ta, ramp_steps=steps)
    full = np.zeros(n + 1, dtype=complex)
    full[0::2] = columns[0][:, 0]  # the even sector's X states
    dense = rotation_matrix(n) @ full
    scale = np.abs(dense).max()
    assert np.abs(kernel.prep_z - dense).max() < 1e-13 * scale


def test_default_kernel_keeps_the_dense_rotation_out():
    # One (N+1)^2 float64 array at N = 600 is 2.89 MB; the kernel build,
    # which solves the even parity block afresh, stays below that.
    n = 600
    ta = (11.6 * n + 60) * time_unit(n)
    protocol_kernel(n, 1.0, ta, ramp_steps=4)  # first calls into numpy and BLAS
    tracemalloc.start()
    try:
        protocol_kernel(n, 1.0, ta, ramp_steps=400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (n + 1) ** 2


def test_ramps_never_build_the_rotation_matrix(monkeypatch):
    def refused(n_qubits):
        raise AssertionError("the dense rotation was built")

    monkeypatch.setattr(dicke, "rotation_matrix", refused)
    n = 10
    unit = time_unit(n)
    scan_ramp_time(n, 1.0, np.arange(100.0, 200.0) * unit, ramp_steps=40)
    protocol_kernel(n, 1.0, 150 * unit, ramp_steps=40).survival(3 * unit, 0.2)
    for start in (x_polarized_state(n), cooled_start(n, 1.0), _random_state(n, 8)):
        sector_protocol(n, 1.0, 150 * unit, 3 * unit, 0.2, start, 40)


def test_scan_keeps_the_kernel_of_each_optimum(stepper_widths):
    n = 10
    unit = time_unit(n)
    scan = scan_ramp_time(n, 1.0, np.arange(1.0, 301.0) * unit)
    assert stepper_widths == [300]
    assert len(scan.kernels) == len(scan.optima) >= 3
    for (ta, _), kernel in zip(scan.optima, scan.kernels):
        built = protocol_kernel(n, 1.0, ta)
        assert np.abs(kernel.prep_z - built.prep_z).max() < 1e-13


@pytest.mark.parametrize("build", [
    lambda: protocol_kernel(10, 1.0, -1.0),
    lambda: scan_ramp_time(10, 1.0, np.array([1.0, -1.0, 2.0])),
])
def test_negative_ramp_times_rejected(build):
    with pytest.raises(ValueError, match="^times must be nonnegative$"):
        build()


def test_local_maxima_detection():
    y = np.array([0.0, 1.0, 0.5, 0.7, 0.2])
    assert _peak_indices(y).tolist() == [1, 3]
    # a rise of at most 1e-12 over either neighbor is round-off
    y = np.array([0.0, 3e-13, 1e-13, 0.5, 0.5 - 1e-12, 0.1])
    assert _peak_indices(y).tolist() == []


def test_scan_drops_roundoff_maxima():
    # The GHZ fidelity of the shortest ramps at N = 100 is below 1e-28; its
    # strict local maxima there are round-off and must not be reported.
    n = 100
    unit = time_unit(n)
    scan = scan_ramp_time(n, 1.0, np.arange(1.0, 41.0) * unit, ramp_steps=400)
    assert scan.ghz_fidelity.max() < 1e-20
    assert scan.optima == ()


def test_kernel_matches_both_ramps_stepped():
    # prep_z^T D prep_z against the sector reference, which steps the up
    # ramp through both parity sectors that sensing fills.
    n = 8
    unit = time_unit(n)
    ta = 100 * unit
    kernel = protocol_kernel(n, 1.0, ta, ramp_steps=2000)
    start = x_polarized_state(n)
    for tau, hz in [(5.0, 0.3), (27.0, np.pi / 2)]:
        final = sector_protocol(n, 1.0, ta, tau * unit, hz, start, 2000)[-1]
        assert kernel.survival(tau * unit, hz) == pytest.approx(
            abs(np.vdot(start, final)) ** 2, abs=1e-12
        )


def test_kernel_analytic_slope_matches_finite_difference():
    n = 6
    unit = time_unit(n)
    kernel = protocol_kernel(n, 1.0, 60 * unit, ramp_steps=1500)
    t, hz, eps = 11 * unit, 0.8, 1e-7
    fd = (kernel.survival(t, hz + eps) - kernel.survival(t, hz - eps)) / (2 * eps)
    assert kernel.survival_slope(t, hz) == pytest.approx(fd, rel=1e-5)


# ---------------------------------------------------------------------------
# The ramp stepper against straightforward per-column loops.
# ---------------------------------------------------------------------------

_C = np.sqrt(3) / 6  # Gauss points of a CF4 step at 1/2 -+ _C


def _sector_matrix(n, j, h):
    diag, off, _ = sector_tridiagonal(n, h, +1)
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


@pytest.mark.parametrize("n", [6, 20])
def test_kernel_shared_steps_match_separate_ramps(n):
    # The kernel's one column serves both ramps: it is the down ramp from
    # e_0, and its conjugate the up ramp's adjoint applied to e_0, each
    # stepped here from its own CF4 exponents.  A complex even start goes
    # through both ramps of the sector reference, the up ramp on the down
    # ramp's fields reversed.
    j, steps = 1.0 / n, 300
    ta = 80 * time_unit(n)
    down, up = ramp_profiles()
    rng = np.random.default_rng(n)
    d = n // 2 + 1
    start = rng.normal(size=d) + 1j * rng.normal(size=d)
    start /= np.linalg.norm(start)
    e0 = np.eye(d)[0]
    idx = np.arange(0, n + 1, 2)  # X indices of the even sector
    u = rotation_matrix(n)

    def z_amplitudes(even):
        full_x = np.zeros(n + 1, dtype=complex)
        full_x[idx] = even
        return u @ full_x

    kernel = protocol_kernel(n, 1.0, ta, ramp_steps=steps)
    fields = _down_ramp_fields(1.0, steps)
    start_z = z_amplitudes(start)
    checks = [
        (kernel.prep_z, _loop_ramp(n, j, down, ta, steps, e0)),
        (kernel.prep_z.conj(), _loop_ramp(n, j, up, ta, steps, e0, adjoint=True)),
        (sector_ramp(n, fields, ta, start_z), _loop_ramp(n, j, down, ta, steps, start)),
        (sector_ramp(n, fields[::-1], ta, start_z), _loop_ramp(n, j, up, ta, steps, start)),
    ]
    for column, expected in checks:
        assert np.abs(column - z_amplitudes(expected)).max() < 1e-12


def test_block_columns_match_single_columns():
    n = 12
    a, b = sector_terms(n, +1)
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
    # Arithmetic grids of K >= 3 steps factor into about sqrt(K) outer and
    # inner lengths; any other steps are their own outer lengths beside the
    # one inner length 0.  Either way outer q plus inner r rebuilds step
    # q B + r, B being the number of inner lengths.
    unit = time_unit(30)
    arithmetic = (np.arange(1.0, 593.0) * unit, np.arange(2.0, -2.0, -0.1), np.zeros(5))
    others = ([0.7, -0.7, 2.0], [1.0, 2.0], [1.0], [1.0, 2.0, 3.0 + 1e-9])
    for steps in arithmetic:
        outer, inner = _phase_factors(steps)
        width = len(inner)
        assert width == int(np.ceil(np.sqrt(len(steps))))
        assert len(outer) * width >= len(steps) > (len(outer) - 1) * width
    for steps in others:
        outer, inner = _phase_factors(np.array(steps))
        assert np.array_equal(outer, steps) and np.array_equal(inner, [0.0])
    for steps in (*arithmetic, *map(np.array, others)):
        outer, inner = _phase_factors(steps)
        rebuilt = (outer[:, None] + inner[None, :]).ravel()[:len(steps)]
        assert np.abs(rebuilt - steps).max() <= 1e-13 * max(1.0, np.abs(steps).max())


def _plain_steps(a, b, fields, durations, block):
    """The step loop through V^T and V at every exponential, scipy's eigensolves."""
    psi = block.copy()
    neg_dts = -np.asarray(durations) / len(fields)
    for h in fields:
        w, v = eigh_tridiagonal(a[0] + h * b, a[1])
        theta = w[:, None] * neg_dts
        coeffs = (v.T @ psi.view(float)).view(complex)
        coeffs *= np.cos(theta) + 1j * np.sin(theta)
        psi = (v @ coeffs.view(float)).view(complex)
    return psi


def test_narrow_block_is_the_plain_step_loop():
    # Not arithmetic: the eigenbasis carry, each step its own outer phase
    # length beside the inner length 0, is the loop through V^T and V at
    # every exponential, up to round-off.
    n = 12
    a, b = sector_terms(n, +1)
    fields = np.linspace(1.5, 0.1, 40)
    durations = np.array([0.7, -0.7, 2.0, 0.0, -3.1])
    rng = np.random.default_rng(4)
    block = rng.normal(size=(len(a[0]), 5)) + 1j * rng.normal(size=(len(a[0]), 5))
    ref = _plain_steps(a, b, fields, durations, block)
    assert np.abs(_carry(a, b, fields, durations, block) - ref).max() < 1e-13


@pytest.mark.parametrize("durations", [
    np.array([2500.0, -2500.0]),  # K = 2: each step its own outer phase length
    np.arange(-40.0, 40.0) * 0.05,  # K = 80 > d: the factored table
])
def test_chunked_carry_is_the_plain_step_loop(monkeypatch, durations):
    # At d = 51 a chunk holds three exponentials, so 400 of them run through
    # 134 chunks, the last one short, each linked to the one before.
    n = 100
    a, b = sector_terms(n, +1)
    fields = _down_ramp_fields(1.0, 400)
    rng = np.random.default_rng(6)
    block = rng.normal(size=(len(a[0]), len(durations))) * (1 + 1j)
    block /= np.linalg.norm(block, axis=0)
    calls = _count_eigensolves(monkeypatch)
    out = _carry(a, b, fields, durations, block)
    assert len(calls) == len(fields)
    assert np.abs(out - _plain_steps(a, b, fields, durations, block)).max() < 1e-13


@pytest.mark.parametrize("n", [1, 2, 50, 600])  # d = 1, 2, 26, 301
def test_eigh_tridiagonal_is_scipys(n):
    if n == 1:  # N must be even: d = 1 is the odd sector of N = 2
        diag, off, _ = sector_tridiagonal(2, 0.7, -1)
    else:
        diag, off, _ = sector_tridiagonal(n, 0.7, +1)
    w, v = dynamics.eigh_tridiagonal(diag, off)
    w_ref, v_ref = eigh_tridiagonal(diag, off)
    assert w.dtype == w_ref.dtype and v.dtype == v_ref.dtype
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


def test_eigh_tridiagonal_reports_lapack_failure(monkeypatch):
    diag, off, _ = sector_tridiagonal(10, 0.7, +1)
    monkeypatch.setattr(dicke, "dstevd", lambda d, e: (d, np.eye(len(d)), 1))
    # LinAlgError is a ValueError, so the CLI reports it in one line
    with pytest.raises(np.linalg.LinAlgError, match="info = 1") as err:
        dynamics.eigh_tridiagonal(diag, off)
    assert isinstance(err.value, ValueError)


def test_kernel_build_memory_stays_small(monkeypatch):
    # Every path keeps fixed-size chunk stacks: the eigenbasis carry's over
    # the whole 4000-exponential ramp would take about 22 MB, and the
    # interpolated generators of all 4000 exponentials 43 MB.  The sweep
    # kernel's column at N = 50 goes through each path by name: the
    # interpolation with its 8 nodes, the series and the carry.
    n = 50
    a, b = sector_terms(n, +1)
    fields = _down_ramp_fields(1.0, 4000)
    neg_dt = -645 * time_unit(n) / len(fields)
    e0 = np.zeros(len(a[0]), dtype=complex)
    e0[0] = 1.0
    p = _node_count(abs(neg_dt) * np.abs(b).max() * np.ptp(fields) / 4)
    series = _series_inputs(a, b, fields, neg_dt)
    for path, args, eigensolves in ((_interpolated_steps, (neg_dt, p, e0), 8),
                                    (_series_steps, (neg_dt, *series, e0), 0),
                                    (_carry_steps, (np.array([neg_dt]), e0[:, None]), 4000)):
        calls = _count_eigensolves(monkeypatch)
        tracemalloc.start()
        try:
            path(a, b, fields, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert len(calls) == eigensolves
        assert peak < 4e5


def test_stepper_rejects_bad_input():
    n = 6
    with pytest.raises(ValueError, match="must be finite"):
        protocol_kernel(n, np.nan, 1.0, ramp_steps=10)
    with pytest.raises(ValueError, match="must be finite"):
        scan_ramp_time(n, 1.0, np.array([1.0, np.inf]), ramp_steps=10)
    for steps in (0, -3, 1, 7):
        with pytest.raises(ValueError, match="steps must be even and at least 2"):
            scan_ramp_time(n, 1.0, np.array([1.0, 2.0]), ramp_steps=steps)
        with pytest.raises(ValueError, match="steps must be even and at least 2"):
            protocol_kernel(n, 1.0, 1.0, ramp_steps=steps)


def _count_eigensolves(monkeypatch):
    calls = []
    solve = dynamics.eigh_tridiagonal

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(dynamics, "eigh_tridiagonal", counted)
    return calls


def _series_inputs(a, b, fields, neg_dt):
    """Centres, radii and lengths of the series on each field's own
    Gershgorin interval, which holds the spectrum there."""
    offs = np.abs(a[1])
    rad = np.pad(offs, (1, 0)) + np.pad(offs, (0, 1))
    diags = a[0] + fields[:, None] * b
    lo, hi = (diags - rad).min(axis=1), (diags + rad).max(axis=1)
    radii = (hi - lo) / 2
    return (hi + lo) / 2, radii, _series_lengths(radii * abs(neg_dt))


# The three stepper paths by name, each called as _exponential_steps is.


def _series(a, b, fields, durations, psi):
    """One column through _series_steps, on each field's Gershgorin interval."""
    neg_dt = -float(durations[0]) / len(fields)
    return _series_steps(a, b, fields, neg_dt, *_series_inputs(a, b, fields, neg_dt), psi[:, 0])[:, None]


def _interpolated(a, b, fields, durations, psi):
    """One column through _interpolated_steps, with the nodes its bound asks for."""
    neg_dt = -float(durations[0]) / len(fields)
    p = _node_count(abs(neg_dt) * np.abs(b).max() * np.ptp(fields) / 4)
    return _interpolated_steps(a, b, fields, neg_dt, p, psi[:, 0])[:, None]


def _carry(a, b, fields, durations, psi):
    """Any block through _carry_steps."""
    return _carry_steps(a, b, fields, -np.asarray(durations, dtype=float) / len(fields), psi)


@pytest.mark.parametrize("durations", [[1.0], [-1.0], [1e-3], [0.0]])
@pytest.mark.parametrize("n, n_exps", [(30, 4000), (50, 4000), (200, 400), (600, 40)])
def test_series_path_matches_eigenbasis_carry(monkeypatch, n, n_exps, durations):
    # One column through the Chebyshev series makes no eigensolve; the ramp
    # is the protocol kernel's at the fig5 line T_a = 11.6 N + 60.  N = 30
    # and 50 at 4000 exponentials are sensing-sweep kernels.  A short
    # duration keeps a few terms of the series, and a zero duration T_0
    # alone.  At N >= 200 the call takes the series itself, on its own
    # interval: the chords of Gershgorin's ends between 17 knots.
    a, b = sector_terms(n, +1)
    fields = _down_ramp_fields(1.0, n_exps)
    durations = np.array(durations) * (11.6 * n + 60) * time_unit(n)
    rng = np.random.default_rng(n)
    block = rng.normal(size=(len(a[0]), 1)) * (1 + 1j)
    block /= np.linalg.norm(block)
    ref = _carry(a, b, fields, durations, block)
    for step in (_series, _exponential_steps) if n >= 200 else (_series,):
        calls = _count_eigensolves(monkeypatch)
        out = step(a, b, fields, durations, block)
        monkeypatch.undo()
        assert not calls
        assert np.abs(out - ref).max() <= 1e-12
        assert np.abs(np.linalg.norm(out, axis=0) - 1).max() <= 1e-12


@pytest.mark.parametrize("n, n_exps", [(50, 4000), (200, 400)])
def test_blocks_take_the_eigenbasis_carry(monkeypatch, n, n_exps):
    # Only one column may take the series or the interpolation.  A
    # block of two, whose series would be short here, makes one eigensolve
    # per exponential, and each column matches its own one-column call.
    a, b = sector_terms(n, +1)
    fields = _down_ramp_fields(1.0, n_exps)
    durations = np.array([1.0, -1.0]) * (11.6 * n + 60) * time_unit(n)
    rng = np.random.default_rng(n)
    block = rng.normal(size=(len(a[0]), 2)) * (1 + 1j)
    block /= np.linalg.norm(block, axis=0)
    calls = _count_eigensolves(monkeypatch)
    out = _exponential_steps(a, b, fields, durations, block)
    assert len(calls) == n_exps
    for k, duration in enumerate(durations):
        single = _exponential_steps(a, b, fields, [duration], block[:, k:k + 1])
        assert np.abs(out[:, k] - single[:, 0]).max() <= 1e-12


@pytest.mark.parametrize("duration", [1.0, -1.0, 0.0])
@pytest.mark.parametrize("n, n_exps", [(10, 4000), (30, 4000), (50, 4000), (100, 400)])
def test_interpolated_path_matches_eigenbasis_carry(monkeypatch, n, n_exps, duration):
    # One column through the interpolated generators alone, on the protocol
    # kernel's ramp at the fig5 line: N = 10..50 at 4000 exponentials are
    # sensing-sweep kernels, N = 100 at 400 a CLI default.  A zero duration
    # has one node, where G = 0.
    a, b = sector_terms(n, +1)
    fields = _down_ramp_fields(1.0, n_exps)
    durations = np.array([duration]) * (11.6 * n + 60) * time_unit(n)
    rng = np.random.default_rng(n)
    block = rng.normal(size=(len(a[0]), 1)) * (1 + 1j)
    block /= np.linalg.norm(block)
    ref = _carry(a, b, fields, durations, block)
    calls = _count_eigensolves(monkeypatch)
    out = _interpolated(a, b, fields, durations, block)
    assert 0 < len(calls) <= 15  # one per node
    assert np.abs(out - ref).max() <= 1e-12
    assert np.abs(np.linalg.norm(out) - 1) <= 1e-12


@pytest.mark.parametrize("n, n_exps", [(10, 4000), (30, 4000), (50, 4000), (100, 400)])
def test_interpolated_generators_meet_their_bound(n, n_exps):
    # At 50 random fields, G(h) = exp(-i H(h) dt) - 1 combined from the
    # p + 1 nodes matches G from an eigensolve at h itself within 1e-15: the
    # interpolation errs by at most 1e-16, and both sides carry round-off of
    # about 5 ulp of |G|, which passes 1e-15 only where |G| nears 1 (0.87 at
    # N = 100; at most 0.04 in the sweep kernels).  With two nodes fewer the
    # sweep kernels miss the bound by far.  Only the lower triangle is
    # combined, row by row, which is all of G as G is symmetric.
    a, b = sector_terms(n, +1)
    neg_dt = -(11.6 * n + 60) * time_unit(n) / n_exps
    fields = np.random.default_rng(n).uniform(0.0, 1.0, 50)
    p = _node_count(abs(neg_dt) * np.abs(b).max() * np.ptp(fields) / 4)
    exact = []
    for h in fields:
        w, v = eigh_tridiagonal(a[0] + h * b, a[1])
        exact.append((v * (2j * np.sin(w * neg_dt / 2) * np.exp(0.5j * w * neg_dt))) @ v.T)
    exact = np.array(exact)
    assert np.abs(exact - exact.transpose(0, 2, 1)).max() <= 1e-15 * max(1.0, np.abs(exact).max())
    rows, cols = np.tril_indices(len(a[0]))
    lower = exact[:, rows, cols]
    tol = 1e-15 * max(1.0, 10 * np.abs(exact).max())
    gens = np.array(list(_interpolated_generators(a, b, fields, neg_dt, p)))
    assert gens.shape == lower.shape
    assert np.abs(gens - lower).max() <= tol
    if n_exps == 4000:
        fewer = np.array(list(_interpolated_generators(a, b, fields, neg_dt, p - 2)))
        assert np.abs(fewer - lower).max() > 10 * tol


def _assert_kernel_path(monkeypatch, n, n_exps, eigensolves):
    """The kernel's one column at the fig5 line takes the path named by its
    eigensolves: one per node on the interpolated generators, none on the
    series, one per exponential on the carry."""
    taken = []

    def spy(name):
        step = getattr(dynamics, name)

        def recorded(*args):
            taken.append((name, args[4] + 1 if name == "_interpolated_steps" else 0))
            return step(*args)

        return recorded

    for name in ("_series_steps", "_interpolated_steps", "_carry_steps"):
        monkeypatch.setattr(dynamics, name, spy(name))
    t_ramp = (11.6 * n + 60) * time_unit(n)
    protocol_kernel(n, 1.0, t_ramp, ramp_steps=n_exps)
    path = {0: "_series_steps", n_exps: "_carry_steps"}.get(eigensolves, "_interpolated_steps")
    assert taken == [(path, eigensolves if path == "_interpolated_steps" else 0)]


@pytest.mark.parametrize("n, n_exps, eigensolves", [
    (10, 4000, 7), (50, 4000, 8), (50, 400, 13), (100, 400, 15), (150, 400, 17),
    (200, 4000, 10), (200, 400, 0), (600, 400, 0), (10, 40, 17), (10, 100, 13),
    (70, 20, 0), (10, 10, 10),
])
def test_kernel_path_follows_the_node_count(monkeypatch, n, n_exps, eigensolves):
    # The interpolation is taken where its nodes cost little beside the
    # exponentials they serve: up to N = 150 at 400 exponentials and N = 200
    # at 4000, and at N = 10 down to 40 exponentials, whose 17 nodes cost
    # less than 40 eigensolves.  At N = 200 and 600 and 400 exponentials the
    # series is cheaper; at N = 600 its 26 nodes of 301 * 302 / 2 packed
    # entries would pass 16 MB anyway.  At N = 70 and 20 exponentials the
    # series is cheaper than the nodes, and at N = 10 and 10 exponentials
    # more nodes than exponentials would be needed: the carry.
    _assert_kernel_path(monkeypatch, n, n_exps, eigensolves)


@pytest.mark.parametrize("n, n_exps, eigensolves", [(600, 400, 0), (600, 4, 4)])
def test_kernel_path_follows_the_series_length(monkeypatch, n, n_exps, eigensolves):
    # Between the series and the carry the choice follows the series length,
    # not the size alone: at N = 600 four exponentials would need a series of
    # about 2600 terms and take the carry.
    _assert_kernel_path(monkeypatch, n, n_exps, eigensolves)


def test_node_count_stops_early():
    # A ramp of four exponentials whose generators vary over a huge field
    # range would need millions of nodes; the count stops at its limit.
    assert _node_count(0.0) == 0
    assert _node_count(1e7) > 1e6
    assert _node_count(1e7, limit=4) is None
    for s in (1e-3, 0.02, 0.4, 2.2):
        p = _node_count(s)
        assert 1 <= p < 40
        assert _node_count(s, limit=p) is None and _node_count(s, limit=p + 1) == p


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


@pytest.mark.parametrize("n", [4, 6, 8])
def test_series_kernels_match_the_oracle(n):
    _kernels_match_the_oracle(n, 10, _series)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_interpolated_kernels_match_the_oracle(n):
    _kernels_match_the_oracle(n, 10, _interpolated)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_carry_kernels_match_the_oracle(n):
    _kernels_match_the_oracle(n, 10, _carry)


def _kernels_match_the_oracle(n, steps, path):
    """The kernel column and the cooled column, each stepped through the
    down ramp by ``path``, and their conjugates match the full 2^N oracle,
    which steps the two start states as columns through the down ramp and,
    run backwards, the adjoint up ramp."""
    j, h0 = 1.0 / n, 1.0
    ta = 50 * time_unit(n)
    starts = [x_polarized_state(n), cooled_start(n, h0)]
    fields = _down_ramp_fields(h0, steps)
    columns = [sector_ramp(n, fields, ta, start, path) for start in starts]
    q = symmetric_isometry(n)
    start = q @ np.column_stack(starts)
    down, up = ramp_profiles()
    prep = q.T @ brute_force_ramp(n, j, lambda t: h0 * down(t / ta), ta, 0.0, start, steps)
    read = q.T @ brute_force_ramp(
        n, j, lambda t: h0 * up((ta + t) / ta), -ta, 0.0, start, steps
    )
    for column, prep_z, read_z in zip(columns, prep.T, read.T):
        assert np.abs(column - prep_z).max() < 1e-12
        assert np.abs(column.conj() - read_z).max() < 1e-12

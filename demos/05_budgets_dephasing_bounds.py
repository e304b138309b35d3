"""Resource accounting: time budgets, dephasing, and analytic bounds.

Adiabatic preparation and readout cost 2 T_a = C N^(2/3).  These closed-form
analyses answer when the scheme still beats uncorrelated probes: for finite
time budgets, under quadratic-in-time dephasing, and for imperfect (finite
transverse field) preparation.
"""

import numpy as np

from spinsense import (
    adiabatic_time_estimate,
    check_uncertainty_bound,
    dephasing_analysis,
    metrology_limits,
    random_overlap_instances,
    sql_beating_window,
    sz_readout_ideal,
    time_budget,
)

# Reference limits for a phase omega (divide by 2 for the field h^z).
lim = metrology_limits(100, shots=100, t_sense=1.0, total_time=300.0)
print(f"N = 100, M = 100, T_int = 1: HL = {lim.hl:.2e}, SQL = {lim.sql:.2e}")

# Finite-duration budget: sensing only N^(1/6) long already beats the SQL,
# and eps = 1/2 reaches Heisenberg-limit scaling.
for eps in (0.0, 0.25, 0.5):
    tb = time_budget(10_000, 1.0, eps, c_tilde=100.0)
    print(f"eps = {eps:4.2f}: eta = {tb.eta:8.2f}, eta' = {tb.eta_prime:.3f}, "
          f"beats SQL: {tb.beats_sql}")

# Ramp constants: 95% / 99% ground-state probability on a linear ramp.
for prob in (0.95, 0.99):
    est = adiabatic_time_estimate(2.0, prob, 100)
    print(f"ground-state probability {prob:.0%}: C-bar = {est.cbar:.3g}, "
          f"JN C = {est.jn_c:.3g}")

# Dephasing: the Zeno-limit sensing time and the window of system sizes
# where the entangled scheme still beats the minimized dephased SQL.
ana = dephasing_analysis(100, gamma=0.05, total_time=1000.0)
print(f"\ndephasing gamma = 0.05: optimal T_int = {ana.t_sense_opt:.3f}, "
      f"scheme minimum {ana.ghz_min:.2e} vs dephased SQL {ana.sql_deph_min:.2e}")
for gc in (0.01, 0.03, 0.05):
    window = sql_beating_window(gc).window
    span = f"N in [{window.min()}, {window.max()}]" if window.size else "empty"
    print(f"Gamma C = {gc}: beating window {span}")

# The survival-slope lower bound holds on every random admissible instance,
# checked on all 2000 draws in one call.
overlaps, hz, t_sense = random_overlap_instances(10, 2000, seed=7)
check = check_uncertainty_bound(overlaps, hz, 10, t_sense)
print(f"\nslope bound: {np.count_nonzero(~check.satisfied)} violations in {len(hz)} draws")

# Global-magnetization readout: full Heisenberg scaling, but only near the
# right fringe phase and only if the ramp phase alpha is compensated.
for alpha in (0.0, np.pi / 3):
    r = sz_readout_ideal(10, 0.01, 1.0, alpha=alpha)
    print(f"S_Z readout, alpha = {alpha:.2f}: <S_Z> = {r.expectation:+.4f}, "
          f"delta-h = {r.delta_h:.3f}")

"""Collective-spin simulation of GHZ-state metrology with symmetry-protected
adiabatic transverse-field ramps in the infinite-range Ising model."""

from .dicke import (
    CollectiveOperator,
    DickeBasis,
    DickeState,
    basis_state,
    collective_operators,
    ghz_state,
    parity_operator,
    rotate_basis,
    rotation_matrix,
    x_polarized_state,
)
from .dynamics import (
    ProtocolKernel,
    ProtocolResult,
    RampScan,
    protocol_kernel,
    run_protocol,
    scan_ramp_time,
    select_optimum,
)
from .metrology import (
    AdiabaticEstimate,
    BoundCheck,
    DephasingAnalysis,
    LimitSet,
    SzReadout,
    TimeBudget,
    TintSweep,
    WindowResult,
    adiabatic_ramp_constant,
    adiabatic_time_estimate,
    calibrate_offset,
    check_uncertainty_bound,
    default_sense_grid,
    dephasing_analysis,
    error_propagation,
    ghz_dephasing_uncertainty,
    ideal_survival,
    ideal_survival_slope,
    metrology_limits,
    optimal_sense_time,
    projection_noise,
    sql_beating_window,
    sql_dephasing_min,
    survival_from_overlaps,
    survival_slope_from_overlaps,
    sz_readout_ideal,
    time_budget,
    time_unit,
    tint_sweep,
    verify_bound_samples,
    zeno_limit,
)
from .model import (
    GapMinimum,
    GapScaling,
    SpectrumData,
    even_gap_at,
    gap_scaling,
    ground_overlap,
    minimum_gap,
    parity_resolved_spectrum,
)

__version__ = "0.1.0"

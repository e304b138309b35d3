"""Config-driven experiment runner emitting deterministic CSV tables.

Units in all input and output follow the plotting conventions: transverse
and longitudinal fields in units of JN, times in units of (2 J N^2)^(-1),
uncertainties in units of JN (the library works in JN = 1).
Floats are written with 17 significant digits so identical configurations
produce byte-identical files.

Configuration files are INI-style with a single [experiment] section of
flat key = value pairs; command-line flags override config values.

Each command is a row of ``COMMANDS`` (``FIGURES`` for the ``figure`` presets)
naming the config keys it reads; ``OPTS`` turns the raw text of each key, from
a flag, a config file or a default, into a checked value.

Runners compute and write nothing: each takes its checked values and returns
``(tables, summary lines)``, every table a ``(file suffix, header, rows)`` whose
rows are iterated once.  ``_run`` alone writes them, to
``<out stem><suffix><out ext>`` (the suffix is empty for a single file), and
prints ``wrote <paths>`` and the summary lines.
"""

import math
import os
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import click
import numpy as np

from . import dynamics, metrology, model

ENV_OUTDIR = "SPINSENSE_OUTDIR"

# Linear trend of the locally optimal ramp times, in (2JN^2)^-1 units; used
# to select one local optimum per system size in the fig5/fig6/fig8 runs.
OPTIMUM_TREND = (11.6, 60.0)
# Half-width of the ramp-time window scanned first, as a fraction of the trend.
OPTIMUM_WINDOW = 0.1


# ---------------------------------------------------------------------------
# Small utilities: parsing, formatting, config handling.
# ---------------------------------------------------------------------------


def write_csv(path, header, rows):
    path = Path(path)
    # .17g round-trips every float64 and prints an int below 1e17 (True: 1) as its digits
    values = np.array(list(rows), dtype=float).tolist()
    lines = [",".join(header)]
    lines += [",".join([format(x, ".17g") for x in row]) for row in values]
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc}") from exc
    return path


def parse_int_list(text):
    return [int(tok) for tok in str(text).split(",") if tok.strip()]


def parse_float_list(text):
    return [float(tok) for tok in str(text).split(",") if tok.strip()]


class TooManyPoints(ValueError):
    """Well-formed text for a grid too long to allocate; the message is the diagnostic."""


def _points(count, diagnostic):
    """np.arange(int(count)), or TooManyPoints(diagnostic) if it cannot be allocated."""
    try:  # an infinite count overflows, numpy refuses 1e300 points and cannot allocate 1e18
        return np.arange(int(count))
    except (OverflowError, ValueError, MemoryError):
        raise TooManyPoints(diagnostic) from None


def parse_grid(text):
    """Grid spec 'lo:hi:step' (inclusive) or a comma list; ValueError unless nonempty,
    finite and of few enough points to allocate."""
    text = str(text)
    if ":" in text:
        fields = [float(t) for t in text.split(":")]
        if len(fields) != 3 or not all(map(math.isfinite, fields)) or fields[2] <= 0:
            raise ValueError(f"grid {text!r} is not lo:hi:step with finite fields and step > 0")
        lo, hi, step = fields
        count = np.floor((hi - lo) / step + 1e-9) + 1
        grid = lo + step * _points(count, f"grid {text!r} has too many points")
    else:
        grid = np.array(parse_float_list(text))
    if grid.size == 0 or not np.isfinite(grid).all():
        raise ValueError(f"grid {text!r} is empty or not finite")
    return grid


def parse_ta_grid(text):
    """Ramp times 1, 2, ..., floor(ta_max) of a scan; empty unless 1 <= ta_max < inf."""
    ta_max = float(text)
    if not 1 <= ta_max < math.inf:
        return np.empty(0)
    return 1.0 + _points(ta_max, f"ta_max {ta_max:g} makes a grid with too many points")


def load_config(path):
    import configparser  # only --config reads a file; a plain run need not import it

    cp = configparser.ConfigParser()
    if not Path(path).is_file():
        raise click.ClickException(f"config file not found: {path}")
    try:
        cp.read(path)
        if not cp.has_section("experiment"):
            raise click.ClickException(f"config {path} is missing an [experiment] section")
        return dict(cp["experiment"])  # values are interpolated here
    except configparser.Error as exc:
        raise click.ClickException(f"malformed config {path}: {exc}") from exc


def resolve_out(out, default_name):
    if out is None:
        out = os.environ.get(ENV_OUTDIR, ".")
    out = Path(out)
    if out.is_dir() or not out.suffix:
        return out / default_name
    return out


# ---------------------------------------------------------------------------
# Experiment implementations (shared by figure presets and named commands).
# ---------------------------------------------------------------------------


def run_overlap(ns, field_grid):
    header = ["h_x_over_JN"] + [f"overlap_g0_sq_N{n}" for n in ns]
    columns = [model.ground_overlap(n, field_grid) for n in ns]
    rows = [[field_grid[i]] + [c[i] for c in columns] for i in range(len(field_grid))]
    at2 = [model.ground_overlap(n, [2.0])[0] for n in ns]
    return [("", header, rows)], [f"N={n}: |g0|^2 at h^x/JN=2 is {a:.6f} (|g0|^4 = {a**2:.6f})"
                                  for n, a in zip(ns, at2)]


def run_gap_scaling(ns, bracket):
    scaling = model.gap_scaling(ns, bracket)
    header = ["N", "h_x_min_over_JN", "gap_min_over_JN", "gap_critical_over_JN"]
    rows = zip(scaling.n_values, scaling.min_locations, scaling.min_gaps, scaling.critical_gaps)
    return [("", header, rows)], [
        f"log-log slope of the minimum gap:        {scaling.min_fit[0]:+.4f}",
        f"log-log slope of the critical-point gap: {scaling.critical_fit[0]:+.4f}",
        "(the critical-point gap follows the asymptotic -1/3 law at these sizes;",
        " the location of the raw minimum still drifts with N)",
    ]


def run_scan_ta(n, h0x_over_jn, ta_grid_units, steps):
    unit = metrology.time_unit(n)
    scan = dynamics.scan_ramp_time(n, h0x_over_jn, ta_grid_units * unit,
                                   ramp_steps=steps)
    rows = zip(ta_grid_units, scan.ghz_fidelity, scan.return_fidelity)
    lines = [f"  T_a = {ta / unit:7.1f} (2JN^2)^-1  fid_ghz = {fid:.4f}"
             for ta, fid in scan.optima[:10]]
    return [("", ["T_a_2JN2", "fid_ghz", "fid_init"], rows)], [
        f"{len(scan.optima)} local optima of the GHZ fidelity", *lines]


SWEEP_HEADER = ["T_int_2JN2", "delta_h_over_JN", "HL", "SQL"]


def run_uncertainty_sweep(n, ta_units, tint_units, h0x_over_jn, steps):
    unit = metrology.time_unit(n)
    kernel = dynamics.protocol_kernel(n, h0x_over_jn, ta_units * unit, ramp_steps=steps)
    sweep = metrology.tint_sweep(kernel, np.asarray(tint_units) * unit)
    rows = zip(tint_units, sweep.delta_h, sweep.hl, sweep.sql)
    return [("", SWEEP_HEADER, rows)], [
        f"index p = {sweep.p_mean:.4f} +- {sweep.p_std:.4f} "
        f"(Heisenberg limit p = 1, SQL p = {1 / np.sqrt(n):.4f})",
        f"divergent points excluded: {sweep.excluded}",
    ]


def run_limits(n, shots, t_int, total_time):
    lim = metrology.metrology_limits(n, shots, t_int, total_time)
    header = ["N", "M", "T_int", "T", "HL", "SQL", "HL_min", "SQL_min", "HL_min_star"]
    row = [n, shots, t_int, total_time, lim.hl, lim.sql, lim.hl_min, lim.sql_min, lim.hl_min_star]
    rows = [[float("nan") if x is None else x for x in row]]
    return [("", header, rows)], [f"HL = {lim.hl:.6g}, SQL = {lim.sql:.6g}"]


def run_dephasing_window(gamma_cs, n_max):
    tables, lines = [], []
    for gc in gamma_cs:
        res = metrology.sql_beating_window(gc, np.arange(2, n_max + 1, 2))
        suffix = f"_gammaC{gc:g}" if len(gamma_cs) > 1 else ""
        tables.append((suffix, ["N", "lhs", "rhs"], zip(res.n_values, res.lhs, res.rhs)))
        if res.window.size:
            lines.append(
                f"Gamma C = {gc:g}: beats the SQL for N in "
                f"[{res.window.min()}, {res.window.max()}] ({res.window.size} sizes)"
            )
        else:
            lines.append(f"Gamma C = {gc:g}: never beats the SQL on this grid")
    return tables, lines


def run_time_budget(ns, c, c_tilde, eps, variant):
    header = ["N", "T_a", "T", "T_int", "eta", "eta_prime", "tint_threshold", "beats_SQL"]
    budgets = [metrology.time_budget(n, c, eps, c_tilde=c_tilde, variant=variant) for n in ns]
    rows = [[n, tb.t_ramp, tb.total_time, tb.t_sense, tb.eta, tb.eta_prime, tb.tint_threshold,
             tb.beats_sql] for n, tb in zip(ns, budgets)]
    last = budgets[-1]
    return [("", header, rows)], [
        f"variant {variant}, eps = {eps}: at N = {ns[-1]} eta = {last.eta:.4f}, "
        f"eta' = {last.eta_prime:.4f}, beats SQL: {bool(last.beats_sql)}"
    ]


def run_bounds_check(n, draws, seed):
    overlaps, hz, t_sense = metrology.random_overlap_instances(n, draws, seed)
    check = metrology.check_uncertainty_bound(overlaps, hz, n, t_sense)
    rows = zip(range(draws), check.g0_sq, 2 * hz * n * t_sense, check.slope_abs, check.bound,
               check.satisfied)
    header = ["draw", "g0_sq", "two_hNT", "slope_abs", "lower_bound", "satisfied"]
    return [("", header, rows)], [
        f"{draws} seeded draws (seed {seed}), violations of the slope bound: "
        f"{np.count_nonzero(~check.satisfied)}"
    ]


def run_sz_readout(n, alpha):
    t_sense = 1.0
    phases = np.round(np.arange(0, 2 * np.pi + 1e-9, np.pi / 50), 12)  # 2 h^z N T_int
    r = metrology.sz_readout_ideal(n, phases / (2 * n * t_sense), t_sense, alpha=alpha)
    header = ["two_hNT", "exp_sz", "std_sz", "delta_h_est", "delta_h_closed"]
    return [("", header, zip(phases, *r))], [
        f"alpha = {alpha:g}: the slope carries cos(2 h N T), so the estimator "
        "diverges at odd multiples of pi/2"
    ]


def _fig5_optima(ns, steps):
    """Per-N locally optimal ramp time nearest the linear trend, in units,
    with its GHZ and return fidelities and its ProtocolKernel.

    The candidates are the local maxima on the grid T_a = 1, 2, ... up to
    1.45 times the trend.  The grid points within OPTIMUM_WINDOW x trend of
    the trend are scanned first, with one neighbour on each side so that each
    of them has both of its own: a maximum among them is the full grid's
    nearest, since any other lies farther than that half-width.  If there is
    none, the full grid is scanned.  The kernel comes from the scan's own
    column at the optimum, so a sweep there steps no ramp again.
    """
    slope, intercept = OPTIMUM_TREND
    optima = {}
    for n in ns:
        unit = metrology.time_unit(n)
        line = slope * n + intercept
        taus = np.arange(1.0, np.ceil(1.45 * line) + 1)
        near = np.flatnonzero(np.abs(taus - line) <= OPTIMUM_WINDOW * line)
        for grid in (taus[max(near[0] - 1, 0):near[-1] + 2], taus):
            scan = dynamics.scan_ramp_time(n, 1.0, grid * unit, ramp_steps=steps)
            if scan.optima:
                break
        ta, fid = optimum = dynamics.select_optimum(scan, line * unit)
        i = int(np.argmin(np.abs(scan.ramp_times - ta)))
        kernel = scan.kernels[scan.optima.index(optimum)]
        optima[n] = (ta / unit, fid, scan.return_fidelity[i], kernel)
    return optima


def run_fig5(ns, steps):
    optima = _fig5_optima(ns, steps)
    rows = [[n, *optima[n][:3]] for n in ns]
    tables = [("", ["N", "T_a_opt_2JN2", "fid_ghz", "fid_init"], rows)]
    if len(ns) < 2:
        return tables, ["a linear fit of the selected optima needs two or more N"]
    fit = np.polyfit(ns, [optima[n][0] for n in ns], 1)
    return tables, [
        f"linear fit of the selected optima: T_a = {fit[0]:.2f} N + {fit[1]:.1f} (2JN^2)^-1"
    ]


def run_fig6(ns, steps):
    optima = _fig5_optima(ns, steps)
    rows = []
    for n in ns:
        _, fid_ghz, fid_init, kernel = optima[n]
        sweep = metrology.tint_sweep(kernel)
        rows.append([n, sweep.p_mean, sweep.p_std, fid_ghz, fid_init])
    tables = [("", ["N", "p", "p_std", "fid_ghz", "fid_init"], rows)]
    margins = [r[1] - 1 / np.sqrt(r[0]) for r in rows]
    if all(m > 0 for m in margins):
        return tables, [f"p exceeds the SQL line 1/sqrt(N) for every N "
                        f"(smallest margin {min(margins):.4f})"]
    warnings.warn("p fell below the SQL line for some N")
    return tables, []


def run_fig8(ns, steps):
    optima = _fig5_optima(ns, steps)
    tables, lines = [], []
    for n in ns:
        ta_units, _, _, kernel = optima[n]
        sweep = metrology.tint_sweep(kernel)
        taus = sweep.t_sense / metrology.time_unit(n)
        tables.append((f"_N{n}", SWEEP_HEADER, zip(taus, sweep.delta_h, sweep.hl, sweep.sql)))
        lines.append(f"N={n}: T_a = {ta_units:.0f} (2JN^2)^-1, p = {sweep.p_mean:.4f}")
    return tables, lines


# ---------------------------------------------------------------------------
# The option table (the one place raw text becomes a checked value) and the
# command table (the keys each command reads, their defaults, its runner).
# ---------------------------------------------------------------------------


class Opt(NamedTuple):
    flag: str
    parse: Callable  # raw text -> value; raises ValueError on malformed text
    form: str  # what parse accepts, for the diagnostic
    ok: Callable  # range check on the parsed value
    rule: str  # what ok accepts, for the diagnostic
    help: str


def _integer(flag, least, help):
    return Opt(flag, int, "an integer", lambda v: v >= least, f"at least {least}", help)


def _number(flag, help, ok=lambda x: math.isfinite(x) and x > 0, rule="positive and finite"):
    return Opt(flag, float, "a number", ok, rule, help)


GRID = "a nonempty grid 'lo:hi:step' with step > 0 or a comma list, all finite"

OPTS = {
    "n": Opt("--N", parse_int_list, "an integer or comma list",
             lambda ns: len(ns) > 0 and min(ns) >= 1 and len(set(ns)) == len(ns),
             "positive and distinct",
             "System size(s), comma separated."),
    "h0x_over_jn": _number("--h0x-over-JN", "Initial transverse field in units of JN.",
                           math.isfinite, "finite"),
    "ta": _number("--Ta", "Ramp time in units of (2JN^2)^-1."),
    "tint_grid": Opt("--tint-grid", parse_grid, GRID,
                     lambda g: bool((g > 0).all()), "positive",
                     "Sensing-time grid 'lo:hi:step' in (2JN^2)^-1 units."),
    "gamma_c": Opt("--gamma-c", parse_float_list, "a comma list of numbers",
                   # distinct as written into the file names, _gammaC{g:g}
                   lambda gs: (len(gs) > 0 and all(0 <= g < math.inf for g in gs)
                               and len({f"{g:g}" for g in gs}) == len(gs)),
                   "nonnegative and distinct",
                   "Gamma*C value(s), comma separated."),
    "seed": _integer("--seed", 0, "RNG seed."),
    "steps": Opt("--steps", int, "an integer", lambda v: v >= 2 and v % 2 == 0,
                 "even and at least 2", "Exponentials per ramp (two per CF4 step)."),
    "grid": Opt("--grid", parse_grid, GRID,
                lambda g: bool((g >= 0).all()), "nonnegative",
                "Transverse-field grid in JN units."),
    "bracket": Opt("--bracket", lambda t: parse_float_list(t.replace(":", ",")), "'lo:hi'",
                   lambda b: len(b) == 2 and 0 <= b[0] < 1 < b[1] < math.inf,
                   "a range lo:hi with 0 <= lo < 1 < hi", "Field bracket lo:hi in JN units."),
    "ta_max": Opt("--ta-max", parse_ta_grid, "a number", lambda g: g.size > 0,
                  "at least 1 and finite",
                  "Largest ramp time scanned (the scan steps by 1 from 1)."),
    "m": _integer("--M", 1, "Number of measurements."),
    "t_int": _number("--T-int", "Sensing time."),
    "t": _number("--T", "Total time budget."),
    "n_max": _integer("--n-max", 2, "Largest system size scanned."),
    "c": _number("--c", "Adiabatic time constant C."),
    "c_tilde": _number("--c-tilde", "Total-time constant C~."),
    "eps": _number("--eps", "Sensing-time exponent in [0, 1/2].",
                   lambda e: 0 <= e <= 0.5, "in [0, 1/2]"),
    "variant": Opt("--variant", str, "text", lambda v: v in ("main", "single-shot"),
                   "'main' or 'single-shot'", "Time-budget accounting."),
    "draws": _integer("--draws", 1, "Number of random instances."),
    "alpha": _number("--alpha", "Residual ramp phase.", math.isfinite, "finite"),
}


class Command(NamedTuple):
    help: str
    defaults: dict  # config key read -> default text, or None for unset
    run: Callable  # parsed values -> (tables, summary lines); see the module docstring
    sizes: tuple = (1, math.inf)  # least and most values of N taken
    even: bool = True  # N even and >= 2; False allows any positive N


ONE = (1, 1)
TEN_TO_100 = ",".join(str(n) for n in range(10, 101, 10))


COMMANDS = {
    "overlap": Command(
        "Ground-state overlap |g0|^2 against the transverse field.",
        {"n": "10,50,100", "grid": "0:3:0.02"},
        lambda v: run_overlap(v["n"], v["grid"])),
    "gap-scaling": Command(
        "Minimum and critical-point even-sector gaps against N.",
        {"n": TEN_TO_100, "bracket": "0.3:1.5"},
        lambda v: run_gap_scaling(v["n"], tuple(v["bracket"])),
        sizes=(2, math.inf)),
    "scan-ta": Command(
        "GHZ and return fidelity against the ramp time.",
        {"n": "10", "h0x_over_jn": "1", "ta_max": "300", "steps": "400"},
        lambda v: run_scan_ta(v["n"][0], v["h0x_over_jn"], v["ta_max"], v["steps"]),
        sizes=ONE),
    "uncertainty-sweep": Command(
        "Estimation uncertainty against the sensing time.",
        {"n": "10", "h0x_over_jn": "1", "ta": "150", "tint_grid": "1:199:2", "steps": "400"},
        lambda v: run_uncertainty_sweep(v["n"][0], v["ta"], v["tint_grid"],
                                        v["h0x_over_jn"], v["steps"]),
        sizes=ONE),
    "limits": Command(
        "Closed-form Heisenberg and standard quantum limits.",
        {"n": "10", "m": "1", "t_int": "1", "t": None},
        lambda v: run_limits(v["n"][0], v["m"], v["t_int"], v["t"]),
        sizes=ONE, even=False),
    "dephasing-window": Command(
        "System sizes where the entangled scheme beats the dephased SQL.",
        {"gamma_c": "0.01", "n_max": "2000"},
        lambda v: run_dephasing_window(v["gamma_c"], v["n_max"])),
    "time-budget": Command(
        "Finite-duration scaling budget (eta, eta', SQL threshold).",
        {"n": "10,100,1000", "c": "1", "c_tilde": "100", "eps": "0.5", "variant": "main"},
        lambda v: run_time_budget(v["n"], v["c"], v["c_tilde"], v["eps"], v["variant"]),
        even=False),
    "bounds-check": Command(
        "Monte-Carlo check of the survival-slope lower bound.",
        {"n": "10", "draws": "10000", "seed": "0"},
        lambda v: run_bounds_check(v["n"][0], v["draws"], v["seed"]),
        sizes=ONE),
    "sz-readout": Command(
        "Global-magnetization readout statistics of the ideal probe state.",
        {"n": "10", "alpha": "0"},
        lambda v: run_sz_readout(v["n"][0], v["alpha"]),
        sizes=ONE),
}

FIGURES = {
    "fig1": Command(
        "Ground-state overlap |g0|^2 at N = 10, 50, 100.",
        {"n": "10,50,100"},
        lambda v: run_overlap(v["n"], np.round(np.arange(0, 3.0 + 1e-9, 0.02), 10))),
    "fig2": Command(
        "SQL-beating windows under dephasing, one file per Gamma*C.",
        {"gamma_c": "0.01,0.03,0.05"},
        lambda v: run_dephasing_window(v["gamma_c"], 1000)),
    "fig3": COMMANDS["scan-ta"]._replace(
        help="GHZ and return fidelity against the ramp time at N = 10."),
    "fig4": COMMANDS["uncertainty-sweep"]._replace(
        help="Estimation uncertainty against the sensing time at N = 10."),
    "fig5": Command(
        "Locally optimal ramp time against N.",
        {"n": TEN_TO_100, "steps": "400"},
        lambda v: run_fig5(v["n"], v["steps"])),
    "fig6": Command(
        "Uncertainty index p against N at the fig5 optima.",
        {"n": TEN_TO_100, "steps": "400"},
        lambda v: run_fig6(v["n"], v["steps"])),
    "fig8": Command(
        "Uncertainty sweeps at the fig5 optima, one file per N.",
        {"n": "20,30,40,50", "steps": "400"},
        lambda v: run_fig8(v["n"], v["steps"])),
}

ROWS = {**COMMANDS, **FIGURES}


def _parse(kind, raw):
    """(values, diagnostics) of the raw text values of one command."""
    row = ROWS[kind]
    diags = [f"{kind} does not read key {key!r}" for key in raw
             if key not in row.defaults and key not in ("kind", "out")]
    values = dict.fromkeys(row.defaults)  # unset or malformed keys stay None
    for key in row.defaults:
        text, opt = raw.get(key), OPTS[key]
        if text is None:
            continue
        try:
            value = opt.parse(text)
        except TooManyPoints as exc:
            diags.append(str(exc))
            continue
        except ValueError:
            diags.append(f"{key} must be {opt.form}, got {text!r}")
            continue
        if opt.ok(value):
            values[key] = value
        else:
            diags.append(f"{key} must be {opt.rule}, got {text}")
    ns = values.get("n")
    if ns:
        odd = [n for n in ns if n < 2 or n % 2] if row.even else []
        least, most = row.sizes
        if odd:
            diags.append(f"N must be even and >= 2, got {odd[0]}")
        elif len(ns) > most:
            diags.append(f"{kind} takes a single N, got {raw['n']!r}")
        elif len(ns) < least:
            diags.append(f"{kind} takes at least {least} values of N, got {raw['n']!r}")
    return values, diags


def validate_config(kind, values):
    """Diagnostics for an experiment configuration; empty list means valid."""
    if kind not in ROWS:
        return [f"unknown experiment kind {kind!r}"]
    return _parse(kind, values)[1]


def _run(kind, config_path, flags):
    """Merge flag over config over default, check through OPTS, run, and write
    each table the runner returns to ``<out stem><suffix><out ext>``."""
    config = load_config(config_path) if config_path else {}
    raw = {**ROWS[kind].defaults, **config}
    raw.update((key, text) for key, text in flags.items() if text is not None)
    values, diags = _parse(kind, raw)
    if diags:
        raise click.ClickException(f"invalid configuration: {diags[0]}")
    out = resolve_out(raw.get("out"), kind.replace("-", "_") + ".csv")
    try:  # a floating-point overflow or 0/0 stops the run instead of writing inf/nan
        with np.errstate(divide="raise", over="raise", invalid="raise"), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            tables, lines = ROWS[kind].run(values)
            paths = [write_csv(out.with_name(out.stem + suffix + out.suffix), header, rows)
                     for suffix, header, rows in tables]
    except (ValueError, ArithmeticError, MemoryError) as exc:
        raise click.ClickException(str(exc) or type(exc).__name__) from exc
    click.echo("\n".join(["wrote " + ", ".join(map(str, paths)), *lines]))
    for caught_warning in caught:  # one line on stderr, not a Python warning with its source line
        click.echo(f"warning: {caught_warning.message}", err=True)


# ---------------------------------------------------------------------------
# Click commands.
# ---------------------------------------------------------------------------


def _command(kind, row):
    """Click command of one row: --config, --out and the flags it reads."""
    params = [
        click.Option(["--config", "config_path"], type=click.Path(),
                     help="INI config with an [experiment] section; flags override."),
        click.Option(["--out"], help="Output CSV file or directory."),
    ]
    params += [click.Option([OPTS[key].flag, key], help=OPTS[key].help) for key in row.defaults]
    return click.Command(kind, params=params, help=row.help,
                         callback=lambda config_path, **flags: _run(kind, config_path, flags))


@click.group()
def main():
    """Simulation and analysis runner for adiabatic GHZ-state metrology."""


@main.group()
def figure():
    """Reproduce one of the standard analysis figures as CSV."""


for _group, _rows in ((main, COMMANDS), (figure, FIGURES)):
    for _kind, _row in _rows.items():
        _group.add_command(_command(_kind, _row))


@main.command()
@click.option("--config", "config_path", type=click.Path(), required=True)
def validate(config_path):
    """Check a configuration file; prints diagnostics, one per line."""
    cfg = load_config(config_path)
    kind = cfg.get("kind")
    if kind is None:
        click.echo("missing 'kind' key in [experiment] section")
        raise SystemExit(1)
    diags = validate_config(kind, cfg)
    if diags:
        for d in diags:
            click.echo(d)
        raise SystemExit(1)
    click.echo("ok")


if __name__ == "__main__":
    main()

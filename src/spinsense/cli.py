"""Config-driven experiment runner emitting deterministic CSV tables.

Units in all input and output follow the plotting conventions: transverse
and longitudinal fields in units of JN, times in units of (2 J N^2)^(-1),
uncertainties in units of JN (the library itself sets J = 1/N so JN = 1).
Floats are written with 17 significant digits so identical configurations
produce byte-identical files.

Configuration files are INI-style with a single [experiment] section of
flat key = value pairs; command-line flags override config values.
"""

import configparser
import os
from pathlib import Path

import click
import numpy as np

from . import dynamics, metrology, model

ENV_OUTDIR = "SPINSENSE_OUTDIR"

# Linear trend of the locally optimal ramp times, in (2JN^2)^-1 units; used
# to select one local optimum per system size in the fig5/fig6/fig8 runs.
OPTIMUM_TREND = (11.6, 60.0)

EXPERIMENT_KINDS = (
    "overlap",
    "gap-scaling",
    "scan-ta",
    "uncertainty-sweep",
    "limits",
    "dephasing-window",
    "time-budget",
    "bounds-check",
    "sz-readout",
)
FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig8")


# ---------------------------------------------------------------------------
# Small utilities: parsing, formatting, config handling.
# ---------------------------------------------------------------------------


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    path = Path(path)
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
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


def parse_grid(text):
    """Grid spec 'lo:hi:step' (inclusive) or a comma list of values."""
    text = str(text)
    if ":" in text:
        lo, hi, step = (float(t) for t in text.split(":"))
        n = int(np.floor((hi - lo) / step + 1e-9)) + 1
        return lo + step * np.arange(n)
    return np.array(parse_float_list(text))


def load_config(path):
    cp = configparser.ConfigParser()
    if not Path(path).is_file():
        raise click.ClickException(f"config file not found: {path}")
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise click.ClickException(f"malformed config {path}: {exc}") from exc
    if not cp.has_section("experiment"):
        raise click.ClickException(f"config {path} is missing an [experiment] section")
    return dict(cp["experiment"])


def merged(flag_value, config, key, default=None):
    """Flag wins over config value wins over default."""
    if flag_value is not None:
        return flag_value
    if config and key in config:
        return config[key]
    return default


def resolve_out(out, default_name):
    if out is None:
        out = os.environ.get(ENV_OUTDIR, ".")
    out = Path(out)
    if out.is_dir() or not out.suffix:
        return out / default_name
    return out


def _unit(n):
    return metrology.time_unit(n, 1.0 / n)  # (2JN^2)^-1 with JN = 1


# ---------------------------------------------------------------------------
# Config validation.
# ---------------------------------------------------------------------------


def validate_config(kind, values):
    """Diagnostics for an experiment configuration; empty list means valid."""
    diags = []
    if kind not in EXPERIMENT_KINDS and kind not in FIGURES:
        return [f"unknown experiment kind {kind!r}"]

    # Closed-form analyses accept any positive N; everything that simulates
    # the collective-spin model needs N even.
    needs_even = kind not in ("limits", "time-budget", "dephasing-window")

    def check_n(key="n", many=True):
        raw = values.get(key)
        if raw is None:
            return
        try:
            ns = parse_int_list(raw)
        except ValueError:
            diags.append(f"{key} must be an integer or comma list, got {raw!r}")
            return
        if not many and len(ns) != 1:
            diags.append(f"{kind} takes a single N, got {raw!r}")
        for n in ns:
            if needs_even and (n < 2 or n % 2):
                diags.append(f"N must be even and >= 2, got {n}")
            elif n < 1:
                diags.append(f"N must be positive, got {n}")

    check_n(many=kind not in ("scan-ta", "uncertainty-sweep", "bounds-check", "sz-readout"))
    if "eps" in values:
        try:
            eps = float(values["eps"])
            if not 0 <= eps <= 0.5:
                diags.append(f"eps must lie in [0, 1/2], got {eps}")
        except ValueError:
            diags.append(f"eps must be a float, got {values['eps']!r}")
    if "gamma_c" in values:
        try:
            if any(g < 0 for g in parse_float_list(values["gamma_c"])):
                diags.append("gamma_c values must be nonnegative")
        except ValueError:
            diags.append(f"gamma_c must be a comma list of floats, got {values['gamma_c']!r}")
    if "ta" in values:
        try:
            if float(values["ta"]) <= 0:
                diags.append("ta must be positive")
        except ValueError:
            diags.append(f"ta must be a float, got {values['ta']!r}")
    if "tint_grid" in values:
        try:
            grid = parse_grid(values["tint_grid"])
            if len(grid) == 0 or np.any(grid <= 0):
                diags.append("tint_grid must be positive and nonempty")
        except ValueError:
            diags.append(f"unparseable tint_grid {values['tint_grid']!r}")
    if "seed" in values:
        try:
            int(values["seed"])
        except ValueError:
            diags.append(f"seed must be an integer, got {values['seed']!r}")
    if "steps" in values:
        try:
            if int(values["steps"]) < 1:
                diags.append(f"steps must be at least 1, got {values['steps']}")
        except ValueError:
            diags.append(f"steps must be an integer, got {values['steps']!r}")
    if kind == "time-budget" and values.get("variant", "main") not in ("main", "single-shot"):
        diags.append(f"variant must be 'main' or 'single-shot', got {values['variant']!r}")
    return diags


def _ensure_valid(kind, values):
    diags = validate_config(kind, values)
    if diags:
        raise click.ClickException(f"invalid configuration: {diags[0]}")


# ---------------------------------------------------------------------------
# Experiment implementations (shared by figure presets and named commands).
# ---------------------------------------------------------------------------


def run_overlap(ns, field_grid, out):
    header = ["h_x_over_JN"] + [f"overlap_g0_sq_N{n}" for n in ns]
    columns = [model.ground_overlap(n, field_grid) for n in ns]
    rows = [[field_grid[i]] + [c[i] for c in columns] for i in range(len(field_grid))]
    path = write_csv(out, header, rows)
    lines = [f"wrote {path}"]
    for n, col in zip(ns, columns):
        at2 = model.ground_overlap(n, [2.0])[0]
        lines.append(f"N={n}: |g0|^2 at h^x/JN=2 is {at2:.6f} (|g0|^4 = {at2**2:.6f})")
    return [path], "\n".join(lines)


def run_gap_scaling(ns, bracket, out):
    scaling = model.gap_scaling(ns, bracket)
    header = ["N", "h_x_min_over_JN", "gap_min_over_JN", "gap_critical_over_JN"]
    rows = list(
        zip(scaling.n_values, scaling.min_locations, scaling.min_gaps, scaling.critical_gaps)
    )
    path = write_csv(out, header, rows)
    summary = (
        f"wrote {path}\n"
        f"log-log slope of the minimum gap:        {scaling.min_fit[0]:+.4f}\n"
        f"log-log slope of the critical-point gap: {scaling.critical_fit[0]:+.4f}\n"
        "(the critical-point gap follows the asymptotic -1/3 law at these sizes;\n"
        " the location of the raw minimum still drifts with N)"
    )
    return [path], summary


def run_scan_ta(n, h0x_over_jn, ta_grid_units, steps, out):
    unit = _unit(n)
    scan = dynamics.scan_ramp_time(
        n, 1.0 / n, h0x_over_jn, np.asarray(ta_grid_units) * unit, ramp_steps=steps
    )
    header = ["T_a_2JN2", "fid_ghz", "fid_init"]
    rows = list(zip(ta_grid_units, scan.ghz_fidelity, scan.return_fidelity))
    path = write_csv(out, header, rows)
    lines = [f"wrote {path}", f"{len(scan.optima)} local optima of the GHZ fidelity"]
    for ta, fid in scan.optima[:10]:
        lines.append(f"  T_a = {ta / unit:7.1f} (2JN^2)^-1  fid_ghz = {fid:.4f}")
    return [path], "\n".join(lines)


def run_uncertainty_sweep(n, ta_units, tint_units, h0x_over_jn, steps, out):
    unit = _unit(n)
    sweep = metrology.tint_sweep(
        n,
        ta_units * unit,
        tint_grid=np.asarray(tint_units) * unit,
        h0x=h0x_over_jn,
        ramp_steps=steps,
    )
    header = ["T_int_2JN2", "delta_h_over_JN", "HL", "SQL"]
    rows = list(zip(tint_units, sweep.delta_h, sweep.hl, sweep.sql))
    path = write_csv(out, header, rows)
    summary = (
        f"wrote {path}\n"
        f"index p = {sweep.p_mean:.4f} +- {sweep.p_std:.4f} "
        f"(Heisenberg limit p = 1, SQL p = {1 / np.sqrt(n):.4f})\n"
        f"divergent points excluded: {sweep.excluded}"
    )
    return [path], summary


def run_limits(n, shots, t_int, total_time, out):
    lim = metrology.metrology_limits(n, shots, t_int, total_time)
    header = ["N", "M", "T_int", "T", "HL", "SQL", "HL_min", "SQL_min", "HL_min_star"]
    nan = float("nan")
    rows = [
        [
            n,
            shots,
            t_int,
            total_time if total_time is not None else nan,
            lim.hl,
            lim.sql,
            lim.hl_min if lim.hl_min is not None else nan,
            lim.sql_min if lim.sql_min is not None else nan,
            lim.hl_min_star if lim.hl_min_star is not None else nan,
        ]
    ]
    path = write_csv(out, header, rows)
    summary = f"wrote {path}\nHL = {lim.hl:.6g}, SQL = {lim.sql:.6g}"
    return [path], summary


def run_dephasing_window(gamma_cs, n_max, out):
    paths = []
    lines = []
    for gc in gamma_cs:
        res = metrology.sql_beating_window(gc, np.arange(2, n_max + 1, 2))
        suffix = f"_gammaC{gc:g}" if len(gamma_cs) > 1 else ""
        target = Path(out)
        p = target.with_name(target.stem + suffix + target.suffix)
        rows = list(zip(res.n_values, res.lhs, res.rhs))
        paths.append(write_csv(p, ["N", "lhs", "rhs"], rows))
        if res.window.size:
            lines.append(
                f"Gamma C = {gc:g}: beats the SQL for N in "
                f"[{res.window.min()}, {res.window.max()}] ({res.window.size} sizes)"
            )
        else:
            lines.append(f"Gamma C = {gc:g}: never beats the SQL on this grid")
    return paths, "wrote " + ", ".join(str(p) for p in paths) + "\n" + "\n".join(lines)


def run_time_budget(ns, c, c_tilde, eps, variant, out):
    header = ["N", "T_a", "T", "T_int", "eta", "eta_prime", "tint_threshold", "beats_SQL"]
    rows = []
    for n in ns:
        tb = metrology.time_budget(n, c, eps, c_tilde=c_tilde, variant=variant)
        rows.append(
            [n, tb.t_ramp, tb.total_time, tb.t_sense, tb.eta, tb.eta_prime,
             tb.tint_threshold, tb.beats_sql]
        )
    path = write_csv(out, header, rows)
    last = rows[-1]
    summary = (
        f"wrote {path}\n"
        f"variant {variant}, eps = {eps}: at N = {last[0]} "
        f"eta = {last[4]:.4f}, eta' = {last[5]:.4f}, beats SQL: {bool(last[7])}"
    )
    return [path], summary


def run_bounds_check(n, draws, seed, out):
    instances = metrology.random_overlap_instances(n, draws, seed)
    rows = []
    violations = 0
    for i, (overlaps, hz, t_sense) in enumerate(instances):
        res = metrology.check_uncertainty_bound(overlaps, hz, n, t_sense)
        if not res.satisfied:
            violations += 1
        rows.append(
            [i, abs(overlaps[0]) ** 2, 2 * hz * n * t_sense, res.slope_abs,
             res.bound, res.satisfied]
        )
    header = ["draw", "g0_sq", "two_hNT", "slope_abs", "lower_bound", "satisfied"]
    path = write_csv(out, header, rows)
    summary = (
        f"wrote {path}\n"
        f"{draws} seeded draws (seed {seed}), violations of the slope bound: {violations}"
    )
    return [path], summary


def run_sz_readout(n, alpha, phase_grid, out):
    rows = []
    t_sense = 1.0
    for phase in phase_grid:  # phase = 2 h^z N T_int
        hz = phase / (2 * n * t_sense)
        r = metrology.sz_readout_ideal(n, hz, t_sense, alpha=alpha)
        rows.append([phase, r.expectation, r.deviation, r.delta_h, r.delta_h_closed])
    header = ["two_hNT", "exp_sz", "std_sz", "delta_h_est", "delta_h_closed"]
    path = write_csv(out, header, rows)
    summary = (
        f"wrote {path}\n"
        f"alpha = {alpha:g}: the slope carries cos(2 h N T), so the estimator "
        "diverges at odd multiples of pi/2"
    )
    return [path], summary


def _fig5_optima(ns, steps):
    """Per-N locally optimal ramp time nearest the linear trend, in units."""
    slope, intercept = OPTIMUM_TREND
    optima = {}
    for n in ns:
        unit = _unit(n)
        line = slope * n + intercept
        taus = np.arange(1.0, np.ceil(1.45 * line) + 1)
        scan = dynamics.scan_ramp_time(n, 1.0 / n, 1.0, taus * unit, ramp_steps=steps)
        ta, fid = dynamics.select_optimum(scan, line * unit)
        i = int(np.argmin(np.abs(scan.ramp_times - ta)))
        optima[n] = (ta / unit, fid, scan.return_fidelity[i], scan)
    return optima


def run_fig5(ns, steps, out):
    optima = _fig5_optima(ns, steps)
    header = ["N", "T_a_opt_2JN2", "fid_ghz", "fid_init"]
    rows = [[n, optima[n][0], optima[n][1], optima[n][2]] for n in ns]
    path = write_csv(out, header, rows)
    fit = np.polyfit(ns, [optima[n][0] for n in ns], 1)
    summary = (
        f"wrote {path}\n"
        f"linear fit of the selected optima: T_a = {fit[0]:.2f} N + {fit[1]:.1f} "
        "(2JN^2)^-1"
    )
    return [path], summary, optima


def run_fig6(ns, scan_steps, sweep_steps, out):
    optima = _fig5_optima(ns, scan_steps)
    rows = []
    for n in ns:
        ta_units, fid_ghz, fid_init, _ = optima[n]
        sweep = metrology.tint_sweep(n, ta_units * _unit(n), ramp_steps=sweep_steps)
        rows.append([n, sweep.p_mean, sweep.p_std, fid_ghz, fid_init])
    path = write_csv(out, ["N", "p", "p_std", "fid_ghz", "fid_init"], rows)
    margins = [r[1] - 1 / np.sqrt(r[0]) for r in rows]
    summary = (
        f"wrote {path}\n"
        f"p exceeds the SQL line 1/sqrt(N) for every N "
        f"(smallest margin {min(margins):.4f})"
        if all(m > 0 for m in margins)
        else f"wrote {path}\nwarning: p fell below the SQL line for some N"
    )
    return [path], summary


def run_fig8(ns, scan_steps, sweep_steps, out):
    optima = _fig5_optima(ns, scan_steps)
    paths = []
    lines = []
    for n in ns:
        ta_units = optima[n][0]
        unit = _unit(n)
        sweep = metrology.tint_sweep(n, ta_units * unit, ramp_steps=sweep_steps)
        taus = sweep.t_sense / unit
        rows = list(zip(taus, sweep.delta_h, sweep.hl, sweep.sql))
        target = Path(out)
        p = target.with_name(f"{target.stem}_N{n}{target.suffix}")
        paths.append(write_csv(p, ["T_int_2JN2", "delta_h_over_JN", "HL", "SQL"], rows))
        lines.append(f"N={n}: T_a = {ta_units:.0f} (2JN^2)^-1, p = {sweep.p_mean:.4f}")
    return paths, "wrote " + ", ".join(str(p) for p in paths) + "\n" + "\n".join(lines)


# ---------------------------------------------------------------------------
# Click commands.
# ---------------------------------------------------------------------------


def _common_options(f):
    decorators = [
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="INI config with an [experiment] section; flags override."),
        click.option("--out", default=None, help="Output CSV file or directory."),
        click.option("--N", "n_spec", default=None, help="System size(s), comma separated."),
        click.option("--h0x-over-JN", "h0x", type=float, default=None,
                     help="Initial transverse field in units of JN."),
        click.option("--Ta", "ta", type=float, default=None,
                     help="Ramp time in units of (2JN^2)^-1."),
        click.option("--tint-grid", default=None,
                     help="Sensing-time grid 'lo:hi:step' in (2JN^2)^-1 units."),
        click.option("--gamma-c", default=None, help="Gamma*C value(s), comma separated."),
        click.option("--seed", type=int, default=None, help="RNG seed (bounds-check)."),
        click.option("--steps", type=int, default=None, help="Integrator steps per ramp."),
    ]
    for dec in reversed(decorators):
        f = dec(f)
    return f


def _gather(config_path, **kw):
    cfg = load_config(config_path) if config_path else {}
    return cfg, kw


@click.group()
def main():
    """Simulation and analysis runner for adiabatic GHZ-state metrology."""


@main.command()
@click.argument("name", type=click.Choice(FIGURES))
@_common_options
def figure(name, config_path, out, n_spec, h0x, ta, tint_grid, gamma_c, seed, steps):
    """Reproduce one of the standard analysis figures as CSV."""
    cfg, _ = _gather(config_path)
    n_spec = merged(n_spec, cfg, "n")
    h0x = merged(h0x, cfg, "h0x_over_jn")
    ta = merged(ta, cfg, "ta")
    tint_grid = merged(tint_grid, cfg, "tint_grid")
    gamma_c = merged(gamma_c, cfg, "gamma_c")
    steps = merged(steps, cfg, "steps")
    out = merged(out, cfg, "out")
    values = {k: v for k, v in [("n", n_spec), ("ta", ta), ("tint_grid", tint_grid),
                                ("gamma_c", gamma_c), ("steps", steps)] if v is not None}
    _ensure_valid(name, values)
    scan_steps = int(steps) if steps is not None else 3000
    sweep_steps = int(steps) if steps is not None else 4000

    if name == "fig1":
        ns = parse_int_list(n_spec) if n_spec else [10, 50, 100]
        grid = np.round(np.arange(0, 3.0 + 1e-9, 0.02), 10)
        _, summary = run_overlap(ns, grid, resolve_out(out, "fig1.csv"))
    elif name == "fig2":
        gcs = parse_float_list(gamma_c) if gamma_c else [0.01, 0.03, 0.05]
        _, summary = run_dephasing_window(gcs, 1000, resolve_out(out, "fig2.csv"))
    elif name == "fig3":
        n = parse_int_list(n_spec)[0] if n_spec else 10
        taus = np.arange(1.0, (float(ta) if ta else 300.0) + 1)
        _, summary = run_scan_ta(n, float(h0x) if h0x else 1.0, taus, scan_steps,
                                 resolve_out(out, "fig3.csv"))
    elif name == "fig4":
        n = parse_int_list(n_spec)[0] if n_spec else 10
        taus = parse_grid(tint_grid) if tint_grid else np.arange(1.0, 200.0, 2)
        _, summary = run_uncertainty_sweep(
            n, float(ta) if ta else 150.0, taus, float(h0x) if h0x else 1.0,
            sweep_steps, resolve_out(out, "fig4.csv"))
    elif name == "fig5":
        ns = parse_int_list(n_spec) if n_spec else list(range(10, 101, 10))
        _, summary, _ = run_fig5(ns, scan_steps, resolve_out(out, "fig5.csv"))
    elif name == "fig6":
        ns = parse_int_list(n_spec) if n_spec else list(range(10, 101, 10))
        _, summary = run_fig6(ns, scan_steps, sweep_steps, resolve_out(out, "fig6.csv"))
    else:  # fig8
        ns = parse_int_list(n_spec) if n_spec else [20, 30, 40, 50]
        _, summary = run_fig8(ns, scan_steps, sweep_steps, resolve_out(out, "fig8.csv"))
    click.echo(summary)


@main.command()
@_common_options
@click.option("--grid", default="0:3:0.02", help="Transverse-field grid in JN units.")
def overlap(config_path, out, n_spec, h0x, ta, tint_grid, gamma_c, seed, steps, grid):
    """Ground-state overlap |g0|^2 against the transverse field."""
    cfg, _ = _gather(config_path)
    n_spec = merged(n_spec, cfg, "n", "10,50,100")
    grid = merged(None, cfg, "grid", grid)
    out = merged(out, cfg, "out")
    _ensure_valid("overlap", {"n": n_spec})
    _, summary = run_overlap(parse_int_list(n_spec), parse_grid(grid),
                             resolve_out(out, "overlap.csv"))
    click.echo(summary)


@main.command("gap-scaling")
@_common_options
@click.option("--bracket", default="0.3:1.5", help="Field bracket lo:hi in JN units.")
def gap_scaling_cmd(config_path, out, n_spec, h0x, ta, tint_grid, gamma_c, seed, steps, bracket):
    """Minimum and critical-point even-sector gaps against N."""
    cfg, _ = _gather(config_path)
    n_spec = merged(n_spec, cfg, "n", ",".join(str(n) for n in range(10, 101, 10)))
    bracket = merged(None, cfg, "bracket", bracket)
    out = merged(out, cfg, "out")
    _ensure_valid("gap-scaling", {"n": n_spec})
    toks = parse_float_list(str(bracket).replace(":", ","))
    _, summary = run_gap_scaling(parse_int_list(n_spec), (toks[0], toks[1]),
                                 resolve_out(out, "gap_scaling.csv"))
    click.echo(summary)


@main.command("scan-ta")
@_common_options
@click.option("--ta-max", type=float, default=300.0, help="Largest ramp time scanned.")
def scan_ta(config_path, out, n_spec, h0x, ta, tint_grid, gamma_c, seed, steps, ta_max):
    """GHZ and return fidelity against the ramp time."""
    cfg, _ = _gather(config_path)
    n_spec = merged(n_spec, cfg, "n", "10")
    h0x = merged(h0x, cfg, "h0x_over_jn", 1.0)
    steps = merged(steps, cfg, "steps", 3000)
    ta_max = float(merged(None, cfg, "ta_max", ta_max))
    out = merged(out, cfg, "out")
    _ensure_valid("scan-ta", {"n": n_spec, "steps": steps})
    taus = np.arange(1.0, ta_max + 1)
    _, summary = run_scan_ta(parse_int_list(n_spec)[0], float(h0x), taus, int(steps),
                             resolve_out(out, "scan_ta.csv"))
    click.echo(summary)


@main.command("uncertainty-sweep")
@_common_options
def uncertainty_sweep(config_path, out, n_spec, h0x, ta, tint_grid, gamma_c, seed, steps):
    """Estimation uncertainty against the sensing time."""
    cfg, _ = _gather(config_path)
    n_spec = merged(n_spec, cfg, "n", "10")
    h0x = merged(h0x, cfg, "h0x_over_jn", 1.0)
    ta = merged(ta, cfg, "ta", 150.0)
    tint_grid = merged(tint_grid, cfg, "tint_grid", "1:199:2")
    steps = merged(steps, cfg, "steps", 4000)
    out = merged(out, cfg, "out")
    _ensure_valid("uncertainty-sweep",
                  {"n": n_spec, "ta": ta, "tint_grid": tint_grid, "steps": steps})
    _, summary = run_uncertainty_sweep(
        parse_int_list(n_spec)[0], float(ta), parse_grid(tint_grid), float(h0x),
        int(steps), resolve_out(out, "uncertainty_sweep.csv"))
    click.echo(summary)


@main.command()
@_common_options
@click.option("--M", "shots", type=int, default=1, help="Number of measurements.")
@click.option("--T-int", "t_int", type=float, default=1.0, help="Sensing time.")
@click.option("--T", "total_time", type=float, default=None, help="Total time budget.")
def limits(config_path, out, n_spec, h0x, ta, tint_grid, gamma_c, seed, steps,
           shots, t_int, total_time):
    """Closed-form Heisenberg and standard quantum limits."""
    cfg, _ = _gather(config_path)
    n_spec = merged(n_spec, cfg, "n", "10")
    shots = int(merged(None, cfg, "m", shots))
    t_int = float(merged(None, cfg, "t_int", t_int))
    if total_time is None and "t" in cfg:
        total_time = float(cfg["t"])
    out = merged(out, cfg, "out")
    n = parse_int_list(n_spec)[0]
    if n < 1:
        raise click.ClickException("N must be positive")
    _, summary = run_limits(n, shots, t_int, total_time, resolve_out(out, "limits.csv"))
    click.echo(summary)


@main.command("dephasing-window")
@_common_options
@click.option("--n-max", type=int, default=2000, help="Largest system size scanned.")
def dephasing_window(config_path, out, n_spec, h0x, ta, tint_grid, gamma_c, seed, steps, n_max):
    """System sizes where the entangled scheme beats the dephased SQL."""
    cfg, _ = _gather(config_path)
    gamma_c = merged(gamma_c, cfg, "gamma_c", "0.01")
    n_max = int(merged(None, cfg, "n_max", n_max))
    out = merged(out, cfg, "out")
    _ensure_valid("dephasing-window", {"gamma_c": gamma_c})
    _, summary = run_dephasing_window(parse_float_list(gamma_c), n_max,
                                      resolve_out(out, "dephasing_window.csv"))
    click.echo(summary)


@main.command("time-budget")
@_common_options
@click.option("--c", type=float, default=1.0, help="Adiabatic time constant C.")
@click.option("--c-tilde", type=float, default=100.0, help="Total-time constant C~.")
@click.option("--eps", type=float, default=0.5, help="Sensing-time exponent in [0, 1/2].")
@click.option("--variant", type=click.Choice(["main", "single-shot"]), default="main")
def time_budget_cmd(config_path, out, n_spec, h0x, ta, tint_grid, gamma_c, seed, steps,
                    c, c_tilde, eps, variant):
    """Finite-duration scaling budget (eta, eta', SQL threshold)."""
    cfg, _ = _gather(config_path)
    n_spec = merged(n_spec, cfg, "n", "10,100,1000")
    c = float(merged(None, cfg, "c", c))
    c_tilde = float(merged(None, cfg, "c_tilde", c_tilde))
    eps = float(merged(None, cfg, "eps", eps))
    variant = merged(None, cfg, "variant", variant)
    out = merged(out, cfg, "out")
    _ensure_valid("time-budget", {"n": n_spec, "eps": str(eps), "variant": variant})
    _, summary = run_time_budget(parse_int_list(n_spec), c, c_tilde, eps, variant,
                                 resolve_out(out, "time_budget.csv"))
    click.echo(summary)


@main.command("bounds-check")
@_common_options
@click.option("--draws", type=int, default=10000, help="Number of random instances.")
def bounds_check(config_path, out, n_spec, h0x, ta, tint_grid, gamma_c, seed, steps, draws):
    """Monte-Carlo check of the survival-slope lower bound."""
    cfg, _ = _gather(config_path)
    n_spec = merged(n_spec, cfg, "n", "10")
    seed = int(merged(seed, cfg, "seed", 0))
    draws = int(merged(None, cfg, "draws", draws))
    out = merged(out, cfg, "out")
    _ensure_valid("bounds-check", {"n": n_spec, "seed": str(seed)})
    _, summary = run_bounds_check(parse_int_list(n_spec)[0], draws, seed,
                                  resolve_out(out, "bounds_check.csv"))
    click.echo(summary)


@main.command("sz-readout")
@_common_options
@click.option("--alpha", type=float, default=0.0, help="Residual ramp phase.")
def sz_readout(config_path, out, n_spec, h0x, ta, tint_grid, gamma_c, seed, steps, alpha):
    """Global-magnetization readout statistics of the ideal probe state."""
    cfg, _ = _gather(config_path)
    n_spec = merged(n_spec, cfg, "n", "10")
    alpha = float(merged(None, cfg, "alpha", alpha))
    out = merged(out, cfg, "out")
    _ensure_valid("sz-readout", {"n": n_spec})
    phases = np.round(np.arange(0, 2 * np.pi + 1e-9, np.pi / 50), 12)
    _, summary = run_sz_readout(parse_int_list(n_spec)[0], alpha, phases,
                                resolve_out(out, "sz_readout.csv"))
    click.echo(summary)


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

"""CLI commands: CSV output, config handling, validation, reproducibility."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spinsense import cli, dynamics, metrology
from spinsense.cli import COMMANDS, OPTS, ROWS, main, parse_grid, validate_config
from spinsense.metrology import time_unit


@pytest.fixture()
def runner():
    return CliRunner()


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


def _run_python(code):
    """stdout of ``python -c code`` in a fresh interpreter that imports from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_cli_import_leaves_slow_scipy_modules_out():
    # scipy is used only through its compiled LAPACK/BLAS wrappers, which
    # spinsense.dicke loads from the files of scipy.linalg._flapack and _fblas
    # without running the scipy package: importing scipy itself, scipy.linalg
    # (which also imports numpy.f2py and numpy.testing) or scipy.optimize took
    # most of the start-up of every command.
    for module in ("spinsense.cli", "spinsense"):
        probe = (f"import sys, {module}; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert _run_python(probe) == "['scipy.linalg._fblas', 'scipy.linalg._flapack']", module


def test_eigensolver_commands_leave_slow_modules_out(tmp_path):
    # overlap, fig1 and gap-scaling take selected eigenpairs (?stebz + ?stein)
    # and gap-scaling a minimum; none of them needs scipy.linalg or scipy.optimize.
    probe = "\n".join([
        "import sys",
        "from spinsense.cli import main",
        "for argv in (['overlap'], ['figure', 'fig1'], ['gap-scaling']):",
        f"    main(argv + ['--out', {str(tmp_path)!r}], standalone_mode=False)",
        "slow = {'scipy.linalg', 'scipy.optimize', 'numpy.f2py', 'numpy.testing'}",
        "print(sorted(slow & set(sys.modules)))",
    ])
    assert _run_python(probe).splitlines()[-1] == "[]"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig1.csv", "gap_scaling.csv",
                                                          "overlap.csv"]


def test_parse_grid_forms():
    assert np.allclose(parse_grid("1:5:2"), [1, 3, 5])
    assert np.allclose(parse_grid("0.5,1.5"), [0.5, 1.5])
    # The last two used to raise OverflowError (an infinite count) and
    # MemoryError (8e18 bytes, past any 64-bit address space, so nothing is touched).
    for bad in ["1:5:0", "1:5:-1", "1:5", "1:2:3:4", "1:0:0.1", "1:inf:1", "1,nan", "",
                "1:1e300:1e-300", "1:1e18:1"]:
        with pytest.raises(ValueError):
            parse_grid(bad)


def test_limits_single_qubit(runner, tmp_path):
    out = tmp_path / "lim.csv"
    result = runner.invoke(
        main, ["limits", "--N", "1", "--M", "1", "--T-int", "1", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    header, rows = _read_csv(out)
    assert header[:6] == ["N", "M", "T_int", "T", "HL", "SQL"]
    assert rows[0][4] == 1.0 and rows[0][5] == 1.0


def test_limits_reject_a_budget_shorter_than_one_window(runner, tmp_path):
    # exited 0 with HL_min = 0.5, worse than HL = 0.125; T = T_int stays valid
    line = _diagnostic(runner, tmp_path, ["limits", "--N", "4", "--T-int", "2", "--T", "0.5"])
    assert line == "Error: total time 0.5 is shorter than the sensing time 2"
    result = runner.invoke(main, ["limits", "--N", "4", "--T-int", "2", "--T", "2",
                                  "--out", str(tmp_path / "lim.csv")])
    assert result.exit_code == 0, result.output


def test_fig1_crossing(runner, tmp_path):
    out = tmp_path / "fig1.csv"
    result = runner.invoke(main, ["figure", "fig1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    header, rows = _read_csv(out)
    assert header == [
        "h_x_over_JN",
        "overlap_g0_sq_N10",
        "overlap_g0_sq_N50",
        "overlap_g0_sq_N100",
    ]
    h = rows[:, 0]
    g100 = rows[:, 3]
    # the N=100 column crosses |g0|^4 = 1/2 below h^x/JN = 2
    crossing = h[np.argmax(g100**2 > 0.5)]
    assert 0 < crossing < 2.0
    assert np.all(np.diff(g100) > 0)


def test_fig3_local_max_near_150(runner, tmp_path):
    out = tmp_path / "fig3.csv"
    result = runner.invoke(
        main, ["figure", "fig3", "--N", "10", "--ta-max", "200", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    header, rows = _read_csv(out)
    assert header == ["T_a_2JN2", "fid_ghz", "fid_init"]
    ta, fid = rows[:, 0], rows[:, 1]
    local = [
        ta[i] for i in range(1, len(ta) - 1)
        if fid[i] > fid[i - 1] and fid[i] > fid[i + 1]
    ]
    assert any(abs(t - 150) <= 5 for t in local)


def test_uncertainty_sweep_small(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    result = runner.invoke(
        main, ["uncertainty-sweep", "--N", "10", "--Ta", "150",
               "--tint-grid", "1:19:2", "--steps", "1500", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    header, rows = _read_csv(out)
    assert header == ["T_int_2JN2", "delta_h_over_JN", "HL", "SQL"]
    assert np.all(rows[:, 1] >= rows[:, 2] - 1e-12)  # delta_h >= HL
    assert np.all(rows[:, 1] <= rows[:, 3])  # beats the SQL here


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-ta", "--N", "10", "--ta-max", "5", "--steps", "0"],
        ["scan-ta", "--N", "10", "--ta-max", "5", "--steps", "-3"],
        ["uncertainty-sweep", "--N", "10", "--tint-grid", "1:3:2", "--steps", "0"],
        ["figure", "fig3", "--N", "10", "--ta-max", "5", "--steps", "0"],
        ["figure", "fig4", "--N", "10", "--tint-grid", "1:3:2", "--steps", "-3"],
        ["scan-ta", "--N", "10", "--ta-max", "5", "--steps", "1"],
        ["figure", "fig5", "--N", "10", "--steps", "401"],
    ],
)
def test_nonpositive_steps_rejected(runner, tmp_path, argv):
    # A step count is a number of exponentials per ramp, two per CF4 step.
    out = tmp_path / "out.csv"
    result = runner.invoke(main, argv + ["--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a diagnostic, not a traceback
    assert result.output.strip().splitlines() == [
        f"Error: invalid configuration: steps must be even and at least 2, got {argv[-1]}"
    ]
    assert not out.exists()


def test_dephasing_window_multiple_gammas(runner, tmp_path):
    result = runner.invoke(
        main, ["dephasing-window", "--gamma-c", "0.01,0.05", "--n-max", "500",
               "--out", str(tmp_path / "win.csv")]
    )
    assert result.exit_code == 0, result.output
    files = sorted(tmp_path.glob("win_gammaC*.csv"))
    assert len(files) == 2
    header, rows = _read_csv(files[0])
    assert header == ["N", "lhs", "rhs"]
    assert "never beats" in result.output  # the 0.05 window is empty


def test_time_budget_and_bounds_check(runner, tmp_path):
    out = tmp_path / "tb.csv"
    result = runner.invoke(
        main, ["time-budget", "--N", "100", "--eps", "0.5", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    header, rows = _read_csv(out)
    assert header[-1] == "beats_SQL"
    assert rows[0][-1] == 1.0

    result = runner.invoke(
        main, ["time-budget", "--N", "100", "--eps", "0.7", "--out", str(out)]
    )
    assert result.exit_code != 0
    assert "eps" in result.output

    out2 = tmp_path / "bc.csv"
    result = runner.invoke(
        main, ["bounds-check", "--N", "6", "--draws", "200", "--seed", "3",
               "--out", str(out2)]
    )
    assert result.exit_code == 0, result.output
    assert "violations of the slope bound: 0" in result.output


def test_sz_readout_command(runner, tmp_path):
    out = tmp_path / "sz.csv"
    result = runner.invoke(main, ["sz-readout", "--N", "10", "--out", str(out)])
    assert result.exit_code == 0, result.output
    header, rows = _read_csv(out)
    assert header[0] == "two_hNT"
    assert rows[0][1] == pytest.approx(0.0, abs=1e-12)  # sin(0) = 0


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("argv, pinned", [
    (["sz-readout"], "sz_readout.csv"),
    (["sz-readout", "--N", "20", "--alpha", "0.3"], "sz_readout_N20_alpha0.3.csv"),
    (["bounds-check", "--N", "6", "--draws", "200", "--seed", "3"],
     "bounds_check_N6_draws200_seed3.csv"),
    (["uncertainty-sweep"], "uncertainty_sweep.csv"),
    (["figure", "fig5", "--N", "10,20"], "fig5_N10_20.csv"),
    (["figure", "fig6", "--N", "10,20"], "fig6_N10_20.csv"),
])
def test_array_commands_match_their_pinned_csvs(runner, tmp_path, argv, pinned):
    # The sz-readout and bounds-check files were written by the per-row loops
    # that the array calls replaced.  sz-readout is byte-for-byte the same; bounds-check squares
    # |g_0| as x * x instead of a scalar pow, which may move g0_sq by 1 ulp
    # and, through the cancelling 2|g_0|^4 - 1, lower_bound by 1e-13 relative.
    # slope_abs sums cos and sin terms, whose last bit depends on the SIMD
    # kernels numpy dispatches to on the CPU at hand (the file was written at
    # AVX-512; at NPY_ENABLE_CPU_FEATURES=X86_V2 it moves by up to 5 ulp).
    out = tmp_path / pinned
    result = runner.invoke(main, argv + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    if argv[0] == "sz-readout":
        assert out.read_bytes() == (DATA / pinned).read_bytes()
        return
    header, rows = _read_csv(out)
    ref_header, ref = _read_csv(DATA / pinned)
    assert header == ref_header
    col = {name: i for i, name in enumerate(header)}
    if argv[0] != "bounds-check":
        # The ramp commands: their integer columns (the grid and the selected
        # optima) are exact.  Their floats pass through the ramps' cos, sin
        # and exp, whose last bits depend on numpy's SIMD level: the files were
        # written at AVX-512 and match at AVX2 bit for bit, while at
        # NPY_ENABLE_CPU_FEATURES=X86_V2 delta_h moves by up to 44 ulp, the
        # fidelities by up to 67 ulp and fig6's p and p_std (the scan's kernels
        # through the sweep) by up to 61 and 85 ulp, so 128 ulp are allowed.
        for name in header:
            if name in ("N", "T_a_opt_2JN2", "T_int_2JN2"):
                assert np.array_equal(rows[:, col[name]], ref[:, col[name]]), name
            else:
                np.testing.assert_array_max_ulp(rows[:, col[name]], ref[:, col[name]],
                                                maxulp=128)
        return
    for name in ("draw", "two_hNT", "satisfied"):
        assert np.array_equal(rows[:, col[name]], ref[:, col[name]]), name
    np.testing.assert_array_max_ulp(rows[:, col["slope_abs"]], ref[:, col["slope_abs"]], maxulp=8)
    g0_sq = ref[:, col["g0_sq"]]
    assert np.all(np.abs(rows[:, col["g0_sq"]] - g0_sq) <= np.spacing(g0_sq))
    bound = ref[:, col["lower_bound"]]
    assert np.all(np.abs(rows[:, col["lower_bound"]] - bound) <= 1e-13 * np.abs(bound))


GAP_SUMMARY = """\
log-log slope of the minimum gap:        -0.2133
log-log slope of the critical-point gap: -0.3410
(the critical-point gap follows the asymptotic -1/3 law at these sizes;
 the location of the raw minimum still drifts with N)"""


PINNED_STDOUT = {
    "overlap --N 10 --grid 0:1:0.5":
        "wrote {out}/overlap.csv\nN=10: |g0|^2 at h^x/JN=2 is 0.988853 (|g0|^4 = 0.977830)",
    "gap-scaling --N 10,20": "wrote {out}/gap_scaling.csv\n" + GAP_SUMMARY,
    "scan-ta --ta-max 20":
        "wrote {out}/scan_ta.csv\n0 local optima of the GHZ fidelity",
    "uncertainty-sweep --steps 40":
        "wrote {out}/uncertainty_sweep.csv\n"
        "index p = 0.9377 +- 0.0097 (Heisenberg limit p = 1, SQL p = 0.3162)\n"
        "divergent points excluded: 0",
    "limits --T 2": "wrote {out}/limits.csv\nHL = 0.1, SQL = 0.316228",
    "time-budget":
        "wrote {out}/time_budget.csv\n"
        "variant main, eps = 0.5: at N = 1000 eta = 9.5346, eta' = 0.9535, beats SQL: True",
    "dephasing-window --gamma-c 0.01,0.03 --n-max 100":
        "wrote {out}/dephasing_window_gammaC0.01.csv, {out}/dephasing_window_gammaC0.03.csv\n"
        "Gamma C = 0.01: beats the SQL for N in [6, 100] (48 sizes)\n"
        "Gamma C = 0.03: beats the SQL for N in [6, 42] (19 sizes)",
    "bounds-check --draws 20":
        "wrote {out}/bounds_check.csv\n"
        "20 seeded draws (seed 0), violations of the slope bound: 0",
    "sz-readout":
        "wrote {out}/sz_readout.csv\n"
        "alpha = 0: the slope carries cos(2 h N T), so the estimator diverges at odd "
        "multiples of pi/2",
    "figure fig2":
        "wrote {out}/fig2_gammaC0.01.csv, {out}/fig2_gammaC0.03.csv, {out}/fig2_gammaC0.05.csv\n"
        "Gamma C = 0.01: beats the SQL for N in [6, 316] (156 sizes)\n"
        "Gamma C = 0.03: beats the SQL for N in [6, 42] (19 sizes)\n"
        "Gamma C = 0.05: never beats the SQL on this grid",
    "figure fig8 --N 20,30":
        "wrote {out}/fig8_N20.csv, {out}/fig8_N30.csv\n"
        "N=20: T_a = 290 (2JN^2)^-1, p = 0.5076\n"
        "N=30: T_a = 430 (2JN^2)^-1, p = 0.6534",
}


@pytest.mark.parametrize("command", list(PINNED_STDOUT))
def test_command_stdout_is_pinned(runner, tmp_path, command):
    # The complete stdout with the output directory as {out}: the file names
    # the command writes, in order, and its summary.  The printed digits do
    # not depend on numpy's SIMD level.
    result = runner.invoke(main, command.split() + ["--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert result.stdout.replace(str(tmp_path), "{out}") == PINNED_STDOUT[command] + "\n"
    assert result.stderr == ""


def test_sweep_warning_is_one_line_on_stderr(runner, tmp_path):
    # At T_int = 1e-300 the slope rounds to 0, so the point is excluded; the
    # point at 1 is kept.  The sweep's UserWarning used to escape the command
    # as a Python warning (an exception under warnings-as-errors).
    result = runner.invoke(main, ["uncertainty-sweep", "--N", "2", "--steps", "2",
                                  "--tint-grid", "1e-300,1", "--out", str(tmp_path / "s.csv")])
    assert result.exit_code == 0, result.output
    assert result.exception is None
    assert "index p = 0.9811 +- 0.0000" in result.stdout
    assert "divergent points excluded: 1" in result.stdout
    assert result.stderr == "warning: 1 divergent grid points excluded from the p average\n"


def test_fig6_warning_is_one_line_on_stderr(runner, tmp_path):
    # At 2 exponentials per ramp p falls below 1/sqrt(N); the warning used to
    # be printed on stdout after the "wrote" line, with stderr empty.
    out = tmp_path / "f6.csv"
    result = runner.invoke(main, ["figure", "fig6", "--N", "10,20,30", "--steps", "2",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert result.stdout == f"wrote {out}\n"
    assert result.stderr == "warning: p fell below the SQL line for some N\n"


def test_fig2_files(runner, tmp_path):
    result = runner.invoke(main, ["figure", "fig2", "--out", str(tmp_path / "f2.csv")])
    assert result.exit_code == 0, result.output
    assert len(sorted(tmp_path.glob("f2_gammaC*.csv"))) == 3


def test_fig5_fig6_fig8_small(runner, tmp_path):
    # reduced sizes and resolution: exercises the scan/select/sweep plumbing
    result = runner.invoke(
        main, ["figure", "fig5", "--N", "10,20", "--steps", "800",
               "--out", str(tmp_path / "f5.csv")]
    )
    assert result.exit_code == 0, result.output
    header, rows = _read_csv(tmp_path / "f5.csv")
    assert header == ["N", "T_a_opt_2JN2", "fid_ghz", "fid_init"]
    assert rows.shape == (2, 4)
    assert "linear fit" in result.output

    result = runner.invoke(
        main, ["figure", "fig6", "--N", "10,20", "--steps", "800",
               "--out", str(tmp_path / "f6.csv")]
    )
    assert result.exit_code == 0, result.output
    header, rows = _read_csv(tmp_path / "f6.csv")
    assert header == ["N", "p", "p_std", "fid_ghz", "fid_init"]
    assert np.all(rows[:, 1] > 1 / np.sqrt(rows[:, 0]))

    result = runner.invoke(
        main, ["figure", "fig8", "--N", "20", "--steps", "800",
               "--out", str(tmp_path / "f8.csv")]
    )
    assert result.exit_code == 0, result.output
    header, _ = _read_csv(tmp_path / "f8_N20.csv")
    assert header == ["T_int_2JN2", "delta_h_over_JN", "HL", "SQL"]


def test_fig5_single_n_reports_no_fit(runner, tmp_path):
    out = tmp_path / "f5.csv"
    result = runner.invoke(main, ["figure", "fig5", "--N", "10", "--steps", "200",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[1:] == [
        "a linear fit of the selected optima needs two or more N"
    ]
    _, rows = _read_csv(out)
    assert rows.shape == (1, 4) and rows[0][1] == 166


def test_reproducibility_byte_identical(runner, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        result = runner.invoke(
            main, ["bounds-check", "--N", "6", "--draws", "100", "--seed", "11",
                   "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
    assert a.read_bytes() == b.read_bytes()


def test_gap_scaling_command(runner, tmp_path):
    out = tmp_path / "gap.csv"
    result = runner.invoke(
        main, ["gap-scaling", "--N", "10,20,30", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    header, rows = _read_csv(out)
    assert header[0] == "N" and rows.shape == (3, 4)
    assert "critical-point gap" in result.output


def test_config_file_merging_and_flag_override(runner, tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\nkind = scan-ta\nn = 10\nta_max = 20\nsteps = 800\n"
        f"out = {tmp_path / 'from_config.csv'}\n"
    )
    result = runner.invoke(main, ["scan-ta", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "from_config.csv").exists()
    _, rows = _read_csv(tmp_path / "from_config.csv")
    assert rows[-1][0] == 20
    # flags win over config, also for the command's own options
    result = runner.invoke(
        main, ["scan-ta", "--config", str(cfg), "--out", str(tmp_path / "flag.csv"),
               "--ta-max", "40"]
    )
    assert result.exit_code == 0, result.output
    _, rows = _read_csv(tmp_path / "flag.csv")
    assert rows[-1][0] == 40

    cfg.write_text("[experiment]\nkind = time-budget\nn = 100\neps = 0.3\n")
    out = tmp_path / "tb.csv"
    result = runner.invoke(
        main, ["time-budget", "--config", str(cfg), "--eps", "0.5", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert "eps = 0.5:" in result.output

    # a key the command does not read is an error, in the command and in validate
    cfg.write_text("[experiment]\nkind = scan-ta\nn = 10\nstep = 50\n")
    for argv in (["scan-ta", "--config", str(cfg), "--out", str(out)],
                 ["validate", "--config", str(cfg)]):
        result = runner.invoke(main, argv)
        assert result.exit_code == 1
        assert "scan-ta does not read key 'step'" in result.output


@pytest.mark.parametrize(
    "argv",
    [["limits", "--steps", "3", "--Ta", "5"], ["figure", "fig5", "--Ta", "3"],
     ["figure", "fig3", "--Ta", "0.5"]],
)
def test_flags_a_command_does_not_read_are_rejected(runner, tmp_path, argv):
    result = runner.invoke(main, argv + ["--out", str(tmp_path / "out.csv")])
    assert result.exit_code == 2
    assert "No such option" in result.output
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("extra", [[], ["--h0x-over-JN", "0"], ["--h0x-over-JN", "0.5"]])
def test_fig4_matches_uncertainty_sweep(runner, tmp_path, extra):
    flags = ["--N", "6", "--Ta", "60", "--tint-grid", "1:9:2", "--steps", "200"] + extra
    a, b = tmp_path / "fig4.csv", tmp_path / "sweep.csv"
    result = runner.invoke(main, ["figure", "fig4", *flags, "--out", str(a)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["uncertainty-sweep", *flags, "--out", str(b)])
    assert result.exit_code == 0, result.output
    assert a.read_bytes() == b.read_bytes()


def test_validate_command(runner, tmp_path):
    good = tmp_path / "good.ini"
    good.write_text("[experiment]\nkind = uncertainty-sweep\nn = 10\nta = 150\n")
    result = runner.invoke(main, ["validate", "--config", str(good)])
    assert result.exit_code == 0
    assert result.output.strip() == "ok"

    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nkind = uncertainty-sweep\nn = 7\nta = 150\n")
    result = runner.invoke(main, ["validate", "--config", str(bad)])
    assert result.exit_code == 1
    assert "even" in result.output

    eps = tmp_path / "eps.ini"
    eps.write_text("[experiment]\nkind = time-budget\nn = 10\neps = 0.7\n")
    result = runner.invoke(main, ["validate", "--config", str(eps)])
    assert result.exit_code == 1
    assert "eps" in result.output

    missing = tmp_path / "missing.ini"
    missing.write_text("[experiment]\nn = 10\n")
    result = runner.invoke(main, ["validate", "--config", str(missing)])
    assert result.exit_code == 1

    result = runner.invoke(main, ["validate", "--config", str(tmp_path / "nope.ini")])
    assert result.exit_code == 1

    percent = tmp_path / "percent.ini"
    percent.write_text("[experiment]\nkind = limits\nout = 100%.csv\n")
    for argv in (["validate", "--config", str(percent)], ["limits", "--config", str(percent)]):
        result = runner.invoke(main, argv)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "malformed config" in result.output


BAD_INPUTS = [
    ["limits", "--N", "abc"],
    ["uncertainty-sweep", "--tint-grid", "1:5:0"],
    ["scan-ta", "--ta-max", "0"],
    ["gap-scaling", "--N", "10"],
    ["gap-scaling", "--bracket", "2:3"],
    ["limits", "--T-int", "0"],
    ["limits", "--M", "0"],
    ["time-budget", "--c", "0"],
    ["uncertainty-sweep", "--h0x-over-JN", "nan"],
    ["gap-scaling", "--N", "10,10"],
    ["uncertainty-sweep", "--tint-grid", "1:1e300:1e-300"],  # these two gave tracebacks
    ["overlap", "--grid", "0:1e18:1"],
    ["dephasing-window", "--gamma-c", "0.01,0.0100000001"],  # these two wrote one file twice
    ["dephasing-window", "--gamma-c", "0.01,0.01"],
    ["scan-ta", "--ta-max", "1e300"],  # validate said ok, the run exited 1
]


def _diagnostic(runner, tmp_path, argv):
    """The one-line diagnostic of a rejected command, checked to write nothing."""
    out = tmp_path / "out.csv"
    result = runner.invoke(main, argv + ["--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a diagnostic, not a traceback
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    assert not list(tmp_path.glob("*.csv"))
    return lines[0]


@pytest.mark.parametrize("argv", BAD_INPUTS)
def test_bad_input_gives_one_line_diagnostic(runner, tmp_path, argv):
    _diagnostic(runner, tmp_path, argv)


def test_fig2_gamma_c_values_name_distinct_files(runner, tmp_path):
    # As dephasing-window in BAD_INPUTS: two values with one {:g} file suffix
    # wrote one file twice and exited 0.
    line = _diagnostic(runner, tmp_path, ["figure", "fig2", "--gamma-c", "0.01,0.0100000001"])
    assert line == ("Error: invalid configuration: gamma_c must be nonnegative and "
                    "distinct, got 0.01,0.0100000001")


@pytest.mark.parametrize("argv", BAD_INPUTS)
def test_validate_gives_the_command_diagnostic(runner, tmp_path, argv):
    kind, flag, value = argv
    key = next(key for key, opt in OPTS.items() if opt.flag == flag)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[experiment]\nkind = {kind}\n{key} = {value}\n")
    result = runner.invoke(main, ["validate", "--config", str(cfg)])
    assert result.exit_code == 1
    expected = _diagnostic(runner, tmp_path, argv)
    assert expected == "Error: invalid configuration: " + result.output.strip()


@pytest.mark.parametrize(
    "argv",
    [
        ["time-budget", "--c", "1e-200", "--c-tilde", "1e-200"],  # 0/0
        ["dephasing-window", "--gamma-c", "1e307"],  # overflow
        ["limits", "--N", "1" + "0" * 400],  # too large for a float
    ],
)
def test_numerical_failure_gives_one_line_diagnostic(runner, tmp_path, argv):
    _diagnostic(runner, tmp_path, argv)


def test_repeated_sizes_rejected(runner, tmp_path):
    line = _diagnostic(runner, tmp_path, ["figure", "fig5", "--N", "10,20,10"])
    assert line == "Error: invalid configuration: n must be positive and distinct, got 10,20,10"
    assert validate_config("fig5", {"n": "10,10"}) == [
        "n must be positive and distinct, got 10,10"
    ]


@pytest.mark.parametrize("argv", [
    ["uncertainty-sweep", "--N", "10", "--tint-grid", "1e20"],  # printed p = 0.9490 +- 0.0000
    ["figure", "fig4", "--tint-grid", "1,3,1e300"],  # printed p = 0.8890 on all three
])
def test_sensing_phase_past_round_off_is_rejected(runner, tmp_path, argv):
    line = _diagnostic(runner, tmp_path, argv)
    assert line.startswith("Error: largest sensing phase max_m |E_m| T_int is ")
    assert line.endswith(" rad, above 1e8 rad, where its float64 round-off exceeds 1e-8 rad")


@pytest.mark.parametrize("argv", [
    ["uncertainty-sweep", "--N", "10", "--Ta", "1e300"],  # printed p = 0.6858
    ["uncertainty-sweep", "--N", "10", "--Ta", "1e15"],  # printed p = 0.7695
    ["uncertainty-sweep", "--h0x-over-JN", "1e300"],  # printed p = 0.0657
    ["scan-ta", "--ta-max", "3", "--h0x-over-JN", "1e300"],  # wrote a CSV
])
def test_ramp_phase_past_round_off_is_rejected(runner, tmp_path, argv):
    line = _diagnostic(runner, tmp_path, argv)
    assert line.startswith("Error: largest ramp phase max |E| T_a is ")
    assert line.endswith(" rad, above 1e8 rad, where its float64 round-off exceeds 1e-8 rad")


@pytest.mark.parametrize("ta_max", ["1e300", "1e14"])
def test_scan_grid_past_allocation_names_ta_max(runner, tmp_path, ta_max):
    # numpy refuses both grids at once.  They printed "Error: Maximum allowed
    # size exceeded" and "Error: Unable to allocate 728. TiB ...", naming no key.
    # The grid is built as the configuration is checked, so validate sees it too.
    for argv in (["scan-ta", "--ta-max", ta_max], ["figure", "fig3", "--ta-max", ta_max]):
        line = _diagnostic(runner, tmp_path, argv)
        assert line == ("Error: invalid configuration: "
                        f"ta_max {float(ta_max):g} makes a grid with too many points")


def test_grid_past_allocation_says_so(runner, tmp_path):
    # The parser's own message was replaced by the generic grid form, which
    # does not say that the grid is too long.
    line = _diagnostic(runner, tmp_path, ["overlap", "--grid", "0:1e18:1"])
    assert line == "Error: invalid configuration: grid '0:1e18:1' has too many points"


def test_scan_stops_at_the_largest_ramp_time(runner, tmp_path):
    # --ta-max 2.5 also wrote a row for T_a = 3.
    out = tmp_path / "scan.csv"
    result = runner.invoke(main, ["scan-ta", "--ta-max", "2.5", "--steps", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert [row.split(",")[0] for row in out.read_text().splitlines()] == ["T_a_2JN2", "1", "2"]


def test_sweep_of_divergent_points_only_is_rejected(runner, tmp_path):
    # It used to print "index p = nan +- nan" and exit 0.
    line = _diagnostic(runner, tmp_path, ["uncertainty-sweep", "--N", "2", "--steps", "2",
                                          "--tint-grid", "1e-300"])
    assert line == ("Error: all 1 sensing-time grid points diverge: "
                    "no finite delta_h to average into p")


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 122. TiB"), MemoryError()])
def test_memory_error_gives_one_line_diagnostic(runner, tmp_path, monkeypatch, exc):
    def out_of_memory(*args):
        raise exc

    monkeypatch.setattr(cli, "run_fig5", out_of_memory)
    line = _diagnostic(runner, tmp_path, ["figure", "fig5", "--N", "10"])
    assert line == "Error: " + (str(exc) or "MemoryError")


def _recorded_scans(monkeypatch):
    """(N, ramp-time grid in units) of every scan_ramp_time call made from here on."""
    calls = []
    scan = dynamics.scan_ramp_time

    def recorded(n, h0x, ramp_times, **kwargs):
        calls.append((n, np.asarray(ramp_times) / time_unit(n)))
        return scan(n, h0x, ramp_times, **kwargs)

    monkeypatch.setattr(dynamics, "scan_ramp_time", recorded)
    return calls


def test_fig5_scans_only_the_window(monkeypatch):
    calls = _recorded_scans(monkeypatch)
    cli._fig5_optima(range(10, 41, 10), 400)
    slope, intercept = cli.OPTIMUM_TREND
    assert [n for n, _ in calls] == [10, 20, 30, 40]
    for n, taus in calls:
        assert len(taus) <= 0.2 * (slope * n + intercept) + 3


def test_fig5_falls_back_to_the_full_grid(monkeypatch):
    # At N = 20 the 400-exponential maxima sit at T_a = 196, 290 and 477; a
    # trend of 380 puts none within 10 % of it, and 290 is the nearest.
    monkeypatch.setattr(cli, "OPTIMUM_TREND", (0.0, 380.0))
    unit = time_unit(20)
    full = dynamics.scan_ramp_time(20, 1.0, np.arange(1.0, 552.0) * unit,
                                   ramp_steps=400)
    expected = dynamics.select_optimum(full, 380 * unit)
    calls = _recorded_scans(monkeypatch)
    ta, fid, *_ = cli._fig5_optima([20], 400)[20]
    assert len(calls) == 2 and len(calls[1][1]) == 551
    assert ta == 290 and ta == expected[0] / unit
    assert fid == expected[1]


def test_fig6_fig8_take_the_kernel_from_the_scan(monkeypatch, stepper_widths):
    # fig6 and fig8 sweep at the fig5 optima with the kernel the scan kept:
    # one stepper call per N (the scan) and no kernel build of their own.
    builds = []
    monkeypatch.setattr(dynamics, "protocol_kernel", lambda *args, **kw: builds.append(1))
    ns = [10, 20, 30, 40]
    [(_, _, fig6)], _ = cli.run_fig6(ns, 400)
    assert len(stepper_widths) == len(ns) and min(stepper_widths) > 1
    fig8, summary = cli.run_fig8(ns, 400)
    assert len(stepper_widths) == 2 * len(ns) and min(stepper_widths) > 1
    assert not builds
    monkeypatch.undo()

    tas = [float(line.split()[3]) for line in summary]
    assert tas == [166, 290, 430, 510]
    for (n, p, p_std, *_), ta, (suffix, _, rows) in zip(fig6, tas, fig8):
        assert suffix == f"_N{n}"
        kernel = dynamics.protocol_kernel(n, 1.0, ta * time_unit(n))
        sweep = metrology.tint_sweep(kernel)
        assert p == pytest.approx(sweep.p_mean, rel=1e-12, abs=0)
        assert p_std == pytest.approx(sweep.p_std, rel=1e-12, abs=0)
        delta_h = [row[1] for row in rows]
        assert delta_h == pytest.approx(sweep.delta_h, rel=1e-12, abs=0)


@pytest.mark.parametrize("kind", list(ROWS))
def test_every_row_default_validates(kind):
    assert validate_config(kind, ROWS[kind].defaults) == []


def test_validate_config_function():
    assert validate_config("bogus-kind", {}) == ["unknown experiment kind 'bogus-kind'"]
    assert validate_config("uncertainty-sweep", {"n": "10", "ta": "150"}) == []
    diags = validate_config("scan-ta", {"n": "10,20"})
    assert any("single N" in d for d in diags)
    # closed-form kinds accept odd N
    assert validate_config("limits", {"n": "1"}) == []
    assert validate_config("scan-ta", {"n": "10", "steps": "800"}) == []
    assert validate_config("scan-ta", {"n": "10", "steps": "0"}) == [
        "steps must be even and at least 2, got 0"
    ]
    assert validate_config("fig3", {"ta_max": "0.5"}) == [
        "ta_max must be at least 1 and finite, got 0.5"
    ]
    assert validate_config("fig5", {"steps": "many"}) == [
        "steps must be an integer, got 'many'"
    ]


def test_unwritable_output_fails_cleanly(runner, tmp_path):
    target = tmp_path / "not_a_dir"
    target.write_text("occupied")
    result = runner.invoke(
        main, ["limits", "--N", "2", "--out", str(target / "x" / "y.csv")]
    )
    assert result.exit_code != 0


def test_environment_default_outdir(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("SPINSENSE_OUTDIR", str(tmp_path))
    result = runner.invoke(main, ["limits", "--N", "2"])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "limits.csv").exists()


# Closed-form commands, plus the two simulating commands with N <= 6 and at
# most 20 steps (and bounds-check with at most 40 draws) so each example is fast.
FUZZED = ("limits", "time-budget", "dephasing-window", "bounds-check", "sz-readout",
          "scan-ta", "uncertainty-sweep")
SMALL = {
    "scan-ta": {"--N": 6, "--steps": 20},
    "uncertainty-sweep": {"--N": 6, "--steps": 20},
    "bounds-check": {"--draws": 40},
}
TEXT = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)
INTS = st.integers(-3, 40).map(str)
VALUES = st.one_of(
    INTS,
    st.floats(-10, 400).map(repr),
    st.lists(INTS, min_size=1, max_size=3).map(",".join),
    st.lists(INTS, min_size=2, max_size=3).map(":".join),
    st.sampled_from(["nan", "inf", "-inf", "-0.0", "1e-300", "main", "single-shot"]),
    TEXT,
)


@st.composite
def fuzz_argv(draw):
    kind = draw(st.sampled_from(FUZZED))
    keys = draw(st.lists(st.sampled_from(list(COMMANDS[kind].defaults)), max_size=3, unique=True))
    argv = [kind]
    for key in keys:
        argv += [OPTS[key].flag, draw(VALUES)]
    for flag, most in SMALL.get(kind, {}).items():  # the last occurrence wins
        argv += [flag, draw(st.integers(-1, most).map(str) | st.sampled_from(["", "x", "2,4"]))]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzz_argv())
def test_fuzzed_flags_never_raise(runner, tmp_path, argv):
    result = runner.invoke(main, argv + ["--out", str(tmp_path / "fuzz.csv")])
    assert result.exit_code in (0, 1, 2), (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        argv, result.exception)

"""CLI commands: CSV output, config handling, validation, reproducibility."""

import numpy as np
import pytest
from click.testing import CliRunner

from spinsense.cli import main, parse_grid, validate_config


@pytest.fixture()
def runner():
    return CliRunner()


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


def test_parse_grid_forms():
    assert np.allclose(parse_grid("1:5:2"), [1, 3, 5])
    assert np.allclose(parse_grid("0.5,1.5"), [0.5, 1.5])


def test_limits_single_qubit(runner, tmp_path):
    out = tmp_path / "lim.csv"
    result = runner.invoke(
        main, ["limits", "--N", "1", "--M", "1", "--T-int", "1", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    header, rows = _read_csv(out)
    assert header[:6] == ["N", "M", "T_int", "T", "HL", "SQL"]
    assert rows[0][4] == 1.0 and rows[0][5] == 1.0


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
        main, ["figure", "fig3", "--N", "10", "--Ta", "200", "--steps", "1500",
               "--out", str(out)]
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
        ["figure", "fig3", "--N", "10", "--Ta", "5", "--steps", "0"],
        ["figure", "fig4", "--N", "10", "--tint-grid", "1:3:2", "--steps", "-3"],
    ],
)
def test_nonpositive_steps_rejected(runner, tmp_path, argv):
    out = tmp_path / "out.csv"
    result = runner.invoke(main, argv + ["--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a diagnostic, not a traceback
    assert result.output.strip().splitlines() == [
        f"Error: invalid configuration: steps must be at least 1, got {argv[-1]}"
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
    # flags win over config
    result = runner.invoke(
        main, ["scan-ta", "--config", str(cfg), "--out", str(tmp_path / "flag.csv")]
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "flag.csv").exists()


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


def test_validate_config_function():
    assert validate_config("bogus-kind", {}) == ["unknown experiment kind 'bogus-kind'"]
    assert validate_config("uncertainty-sweep", {"n": "10", "ta": "150"}) == []
    diags = validate_config("scan-ta", {"n": "10,20"})
    assert any("single N" in d for d in diags)
    # closed-form kinds accept odd N
    assert validate_config("limits", {"n": "1"}) == []
    assert validate_config("scan-ta", {"n": "10", "steps": "800"}) == []
    assert validate_config("scan-ta", {"n": "10", "steps": "0"}) == [
        "steps must be at least 1, got 0"
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

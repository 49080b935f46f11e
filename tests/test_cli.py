"""Command line behavior: subcommands, outputs, exit codes."""

import csv
import dataclasses
import re
from pathlib import Path

import pytest

from netpricing import ScenarioConfig
from netpricing.cli import main

BASELINE_SWEEP = """
sweep.parameter = alpha
sweep.range = 0.8:1.2:3
output.path = {out}
"""


def _write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_solve_eq_prints_equilibrium(tmp_path, capsys):
    cfg = _write(tmp_path, "price.user = 0\nprice.cp = 0\ncapacity = 0.5\n")
    assert main(["solve-eq", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "congestion = 1" in out
    assert "throughput = 0.5" in out


def test_solve_eq_requires_prices(tmp_path, capsys):
    cfg = _write(tmp_path, "capacity = 0.5\n")
    assert main(["solve-eq", "--config", str(cfg)]) == 1
    assert "price.user" in capsys.readouterr().err


def test_solve_eq_verify_and_out(tmp_path, capsys):
    cfg = _write(tmp_path, "price.user = 0.2\nprice.cp = 0.3\n")
    out_csv = tmp_path / "eq.csv"
    assert main(["solve-eq", "--config", str(cfg), "--verify",
                 "--out", str(out_csv)]) == 0
    assert "fixed-point congestion gap" in capsys.readouterr().out
    with out_csv.open(newline="", encoding="utf-8") as f:
        header, *rows = csv.reader(f)
    assert header == ["name", "value"]
    assert rows[2][0] == "congestion"


def test_set_overrides_defaults(capsys):
    assert main(["solve-eq", "--set", "price.user=0", "--set", "price.cp=0",
                 "--set", "capacity=0.5"]) == 0
    assert "congestion = 1" in capsys.readouterr().out


def test_successive_calls_do_not_share_overrides(capsys):
    # one parser serves every main call; the --set list of one call must not
    # reach the next (argparse appends to a copy of the default list)
    assert main(["solve-eq", "--set", "price.user=0", "--set", "price.cp=0",
                 "--set", "capacity=0.5"]) == 0
    assert "congestion = 1" in capsys.readouterr().out
    assert main(["solve-eq", "--set", "price.user=0.2"]) == 1
    assert "price.cp" in capsys.readouterr().err
    # at the default capacity 1, not the first call's 0.5
    assert main(["solve-eq", "--set", "price.user=0", "--set", "price.cp=0"]) == 0
    assert "congestion = 0.61803398875" in capsys.readouterr().out


def test_unknown_key_exits_1(capsys):
    assert main(["solve-eq", "--set", "bogus=1"]) == 1
    assert "config error" in capsys.readouterr().err


def test_optimize_reports_growth(capsys):
    assert main(["optimize"]) == 0
    out = capsys.readouterr().out
    assert "p_star = 0.584719" in out
    assert "profit_growth = 2.533" in out
    assert "q_welfare = 0.35" in out
    assert "iterations_profit_opt = " in out


@pytest.mark.parametrize("argv", [
    ["optimize", "--set", "cost=0"],
    ["sensitivity", "--set", "cost=0", "--set", "sweep.parameter=capacity"],
    ["solve-eq", "--set", "price.user=-0.1", "--set", "price.cp=0.3"],
    ["solve-eq", "--set", "price.user=nan", "--set", "price.cp=0.3"],
    ["optimize", "--set", "user_demand.alpha=1e300"],
    ["optimize", "--set", "capacity=inf"],
    ["optimize", "--set", "sensitivity=inf"],
    ["optimize", "--set", "cp_demand.beta=inf"],
    ["sweep", "--set", "sweep.parameter=alpha", "--set", "sweep.range=inf:inf:1"],
    ["sweep", "--set", "sweep.parameter=alpha", "--set", "sweep.range=0.5:inf:3"],
], ids=["optimize-zero-cost", "sensitivity-zero-cost", "solve-eq-negative-price",
         "solve-eq-nan-price",
        "optimize-demand-zero-above-p-zero", "optimize-infinite-capacity",
        "optimize-infinite-sensitivity", "optimize-infinite-beta",
        "sweep-infinite-alpha", "sweep-infinite-stop"])
def test_out_of_domain_config_value_exits_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


def test_nan_price_is_named_as_not_a_nonnegative_number(capsys):
    assert main(["solve-eq", "--set", "price.user=nan", "--set", "price.cp=0.3"]) == 1
    assert capsys.readouterr().err == (
        "config error: prices must be nonnegative numbers, got p = nan, q = 0.3\n")


GOLDEN_DIR = Path(__file__).parent / "data"
GOLDEN_CONFIGS = {
    "mm1_capacity_beta2": ["--set", "congestion=mm1", "--set", "capacity=2.5",
                           "--set", "cp_demand.beta=2", "--set", "sweep.parameter=capacity"],
    "exponential_sensitivity": ["--set", "gain=exponential",
                                "--set", "sweep.parameter=sensitivity"],
}


@pytest.mark.parametrize("command", ["optimize", "sensitivity"])
@pytest.mark.parametrize("config", list(GOLDEN_CONFIGS))
def test_out_csv_matches_golden(tmp_path, capsys, command, config):
    # tests/data holds each command's --out file for two configs; a change that
    # moves any printed digit of an optimum or a sensitivity shows here
    out = tmp_path / "out.csv"
    assert main([command, *GOLDEN_CONFIGS[config], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{command}_{config}.csv").read_bytes()


def test_optimize_degenerate_baseline_exits_2(capsys):
    assert main(["optimize", "--set", "cost=1.2"]) == 2
    assert "growth rate undefined" in capsys.readouterr().err


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    cfg = _write(tmp_path, BASELINE_SWEEP.format(out=out))
    assert main(["sweep", "--config", str(cfg)]) == 0
    with out.open(newline="", encoding="utf-8") as f:
        header, *rows = csv.reader(f)
    assert len(rows) == 3
    assert "wrote 3 rows" in capsys.readouterr().out


@pytest.mark.parametrize("sweep_range, error", [
    ("1e300:1e308:2", "DomainError: demand must be positive"),    # m(p) = 0 at every p > 0
], ids=["demand-zero-above-p-zero"])
def test_sweep_over_degenerate_demands_writes_error_rows(tmp_path, sweep_range, error):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--set", "sweep.parameter=alpha", "--set", f"sweep.range={sweep_range}",
                 "--out", str(out)]) == 0
    with out.open(newline="", encoding="utf-8") as f:
        header, *rows = csv.reader(f)
    assert rows and all(row[header.index("error")].startswith(error) for row in rows)


def test_sweep_verify_checks_the_rows_against_the_oracle(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    cfg = _write(tmp_path, BASELINE_SWEEP.format(out=out))
    assert main(["sweep", "--config", str(cfg), "--verify"]) == 0
    assert "verify: max price gap vs oracle" in capsys.readouterr().out


def test_sweep_out_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path, "sweep.parameter = alpha\nsweep.range = 1:1.1:2\n")
    out = tmp_path / "explicit.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()


def test_sweep_without_output_path_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, "sweep.parameter = alpha\nsweep.range = 1:1.1:2\n")
    assert main(["sweep", "--config", str(cfg)]) == 1


def test_sensitivity_command(capsys):
    assert main(["sensitivity", "--set", "sweep.parameter=mu",
                 "--set", "cp_demand.beta=2"]) == 0
    out = capsys.readouterr().out
    assert "dp_star" in out
    assert "profit_prices_vs_capacity: ok" in out


def test_sensitivity_requires_parameter(capsys):
    assert main(["sensitivity"]) == 1


def test_sensitivity_verify_passes(capsys):
    assert main(["sensitivity", "--set", "sweep.parameter=mu",
                 "--set", "cp_demand.beta=2", "--verify"]) == 0
    assert "all conclusive sign predictions hold" in capsys.readouterr().out


def test_sensitivity_verify_at_a_held_welfare_optimum(capsys):
    assert main(["sensitivity", "--set", "sweep.parameter=capacity",
                 "--set", "cp_demand.beta=3", "--set", "cost=0.3", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "dp_welfare = 0\ndq_welfare = 0\n" in out
    assert "welfare_prices_vs_capacity: inconclusive" in out


def test_sensitivity_verify_catches_a_wrong_derivative(monkeypatch, capsys):
    import netpricing.cli as cli_mod
    exact = cli_mod.optimal_price_sensitivity

    def skewed(model, parameter):
        report = exact(model, parameter)
        dp, dq = report.profit_price_derivs
        return dataclasses.replace(report, profit_price_derivs=(dp * 1.001, dq))
    monkeypatch.setattr(cli_mod, "optimal_price_sensitivity", skewed)
    assert main(["sensitivity", "--set", "sweep.parameter=mu",
                 "--set", "cp_demand.beta=2", "--verify"]) == 3
    captured = capsys.readouterr()
    assert "all conclusive sign predictions hold" in captured.out
    assert "re-optimized price derivatives disagree" in captured.err


def test_sensitivity_verify_exits_3_on_a_conclusive_sign_mismatch(monkeypatch, capsys):
    import netpricing.sensitivity as sensitivity_mod
    exact = sensitivity_mod._implicit_derivatives
    monkeypatch.setattr(sensitivity_mod, "_implicit_derivatives",
                        lambda *args: tuple(-v for v in exact(*args)))
    assert main(["sensitivity", "--set", "sweep.parameter=mu",
                 "--set", "cp_demand.beta=2", "--verify"]) == 3
    captured = capsys.readouterr()
    assert "profit_prices_vs_capacity: MISMATCH" in captured.out
    assert "conclusive sign predictions failed: profit_prices_vs_capacity" in captured.err


def test_verification_mismatch_exits_3(monkeypatch, capsys):
    import netpricing.cli as cli_mod
    monkeypatch.setattr(cli_mod, "fixed_point_equilibrium",
                        lambda model, p, q: 123.456)
    assert main(["solve-eq", "--set", "price.user=0.3",
                 "--set", "price.cp=0.3", "--verify"]) == 3
    assert "verification mismatch" in capsys.readouterr().err


def test_optimize_verify_against_dense_grid(capsys):
    assert main(["optimize", "--verify"]) == 0
    assert "verify: max price gap" in capsys.readouterr().out


def test_optimize_verify_with_a_welfare_optimum_next_to_p_zero(capsys):
    assert main(["optimize", "--set", "user_demand.alpha=0.99",
                 "--set", "cp_demand.beta=1.67", "--set", "cost=0.225",
                 "--set", "capacity=2.44", "--set", "sensitivity=0.82", "--verify"]) == 0
    assert "verify: max price gap" in capsys.readouterr().out


def test_optimize_honours_verify_from_config(capsys):
    assert main(["optimize", "--set", "verify=true"]) == 0
    assert "verify: max price gap" in capsys.readouterr().out


def test_option_surface(capsys):
    # every option of every subcommand, and every config field; a new knob
    # has to change this test
    for command in ("solve-eq", "optimize", "sweep", "sensitivity"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {
            "--help", "--config", "--set", "--out", "--verify"}
    assert [f.name for f in dataclasses.fields(ScenarioConfig)] == [
        "gain", "congestion", "alpha", "beta", "cost", "capacity", "sensitivity",
        "price_user", "price_cp", "sweep_parameter", "sweep_range", "output_path",
        "output_columns", "verify", "source"]

"""Command line behavior: subcommands, outputs, exit codes."""

import dataclasses
import re

import pytest

from netpricing import ScenarioConfig
from netpricing.cli import main
from netpricing.experiments import parse_csv

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
    header, rows = parse_csv(out_csv)
    assert header == ["name", "value"]
    assert rows[2][0] == "congestion"


def test_set_overrides_defaults(capsys):
    assert main(["solve-eq", "--set", "price.user=0", "--set", "price.cp=0",
                 "--set", "capacity=0.5"]) == 0
    assert "congestion = 1" in capsys.readouterr().out


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


def test_optimize_degenerate_baseline_exits_2(capsys):
    assert main(["optimize", "--set", "cost=1.2"]) == 2
    assert "growth rate undefined" in capsys.readouterr().err


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    cfg = _write(tmp_path, BASELINE_SWEEP.format(out=out))
    assert main(["sweep", "--config", str(cfg)]) == 0
    header, rows = parse_csv(out)
    assert len(rows) == 3
    assert "wrote 3 rows" in capsys.readouterr().out


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

"""Sweep engine and CSV emission: integrity, determinism, error capture."""

import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import netpricing.experiments as experiments_mod
import netpricing.optimize as optimize_mod
from netpricing import (PricePair, ScenarioConfig, SweepResult, SweepRow, baseline_model,
                        emit_csv, optimize_profit, optimize_welfare, parse_config, run_sweep,
                        verify_optima, verify_sweep)
from netpricing.curves import with_parameter
from netpricing.equilibrium import solve_many
from netpricing.errors import ConfigError, ConvergenceError, VerificationError
from netpricing.experiments import (ALL_COLUMNS, PRICE_COLUMNS, format_value,
                                    sweep_values)


def small_sweep_config(**overrides) -> ScenarioConfig:
    cfg = parse_config("sweep.parameter = alpha\nsweep.range = 0.5:2:4")
    return dataclasses.replace(cfg, **overrides)


def test_sweep_rows_sorted_and_nonnegative_growth():
    result = run_sweep(small_sweep_config())
    assert result.parameter == "alpha"
    values = [row.param_value for row in result.rows]
    assert values == sorted(values) and len(values) == 4
    for row in result.rows:
        assert row.error is None
        assert row.profit_growth >= -1e-10
        assert row.welfare_growth >= -1e-10
        assert row.p_welfare + row.q_welfare == pytest.approx(0.7, abs=1e-15)


def test_sweep_requires_sweep_block():
    with pytest.raises(ConfigError):
        run_sweep(ScenarioConfig())


def test_sweep_error_rows_do_not_abort():
    # cost above the user support bound: the one-sided welfare benchmark is
    # degenerate at every row, which must be captured, not raised
    cfg = small_sweep_config(cost=1.2)
    result = run_sweep(cfg)
    assert all(row.error is not None for row in result.rows)
    assert all(row.p_star is None for row in result.rows)


def test_price_trend_sweep_restricts_columns():
    result = run_sweep(small_sweep_config(output_columns="prices"))
    assert result.columns == PRICE_COLUMNS


def test_emit_csv_round_trip(tmp_path):
    result = run_sweep(small_sweep_config())
    path = emit_csv(result, tmp_path / "sweep.csv")
    with path.open(newline="", encoding="utf-8") as f:
        header, *rows = csv.reader(f)
    assert header == list(ALL_COLUMNS)
    assert len(rows) == 4
    for parsed, row in zip(rows, result.rows):
        for col, cell in zip(header, parsed):
            want = getattr(row, col)
            assert cell == format_value(want)
            if isinstance(want, float):
                # 12 significant digits survive the round trip
                assert float(cell) == pytest.approx(want, rel=1e-11)


def test_emit_csv_empty_sweep_header_only(tmp_path):
    empty = SweepResult(parameter="alpha", columns=ALL_COLUMNS, rows=())
    path = emit_csv(empty, tmp_path / "empty.csv")
    text = path.read_text()
    assert text == ",".join(ALL_COLUMNS) + "\n"


def test_emit_csv_deterministic_across_runs(tmp_path):
    cfg = small_sweep_config()
    blobs = []
    for name in ("a.csv", "b.csv", "c.csv"):
        result = run_sweep(cfg)
        path = emit_csv(result, tmp_path / name)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    assert b"\r" not in blobs[0]


GOLDEN_DIR = Path(__file__).parent / "data"


@pytest.mark.parametrize("gain", ["reciprocal", "exponential"])
@pytest.mark.parametrize("law", ["sharing", "mm1"])
def test_capacity_sweep_matches_golden_csv(tmp_path, gain, law):
    # tests/data holds 3-row capacity sweeps of each gain x law model; a change
    # that moves any printed digit of a sweep shows here
    cfg = parse_config(f"gain = {gain}\ncongestion = {law}\n"
                       "sweep.parameter = capacity\nsweep.range = 0.5:2:3")
    path = emit_csv(run_sweep(cfg), tmp_path / "sweep.csv")
    golden = GOLDEN_DIR / f"sweep_capacity_{gain}_{law}.csv"
    assert path.read_bytes() == golden.read_bytes()


def _golden_sweeps() -> dict[str, str]:
    """The config of every sweep in tests/data, by file name."""
    sweeps = {f"sweep_capacity_{gain}_{law}.csv": f"gain = {gain}\ncongestion = {law}\n"
              "sweep.parameter = capacity\nsweep.range = 0.5:2:3"
              for gain in ("reciprocal", "exponential") for law in ("sharing", "mm1")}
    sweeps.update({f"sweep_{parameter}_{gain}_{law}.csv": f"gain = {gain}\ncongestion = {law}\n"
                   f"sweep.parameter = {parameter}\nsweep.range = 0.5:3:3"
                   for parameter in ("alpha", "beta", "sensitivity")
                   for gain in ("reciprocal", "exponential") for law in ("sharing", "mm1")})
    # two DomainError rows (a sensitivity of -0.5 and of 0), then two good rows
    sweeps["sweep_sensitivity_mixed_mm1.csv"] = ("congestion = mm1\ncapacity = 2.5\n"
                                                 "sweep.parameter = sensitivity\n"
                                                 "sweep.range = -0.5:1:4")
    return sweeps


GOLDEN_SWEEPS = _golden_sweeps()


@pytest.mark.parametrize("name", [name for name in GOLDEN_SWEEPS
                                  if not name.startswith("sweep_capacity_")])
def test_sweep_matches_golden_csv(tmp_path, name):
    # the alpha, beta and sensitivity sweeps of each gain x law model, and a
    # sweep whose first rows fail to build their model
    path = emit_csv(run_sweep(parse_config(GOLDEN_SWEEPS[name])), tmp_path / "sweep.csv")
    assert path.read_bytes() == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", sorted(path.name for path in GOLDEN_DIR.glob("sweep_*.csv")))
def test_sweep_run_whole_equals_its_rows_run_one_at_a_time(tmp_path, name):
    # the rows of a sweep share their solves, yet no row reads another's:
    # each row's bytes are those of a one-row sweep at its parameter value
    cfg = parse_config(GOLDEN_SWEEPS[name])
    whole = emit_csv(run_sweep(cfg), tmp_path / "whole.csv").read_bytes()
    rows = tuple(row for value in sweep_values(cfg)
                 for row in run_sweep(dataclasses.replace(cfg, sweep_range=(value, value, 1))).rows)
    one_at_a_time = emit_csv(SweepResult(parameter=cfg.sweep_parameter, columns=ALL_COLUMNS,
                                         rows=rows), tmp_path / "rows.csv").read_bytes()
    assert whole == one_at_a_time == (GOLDEN_DIR / name).read_bytes()


def test_a_sweep_makes_two_solve_many_calls(monkeypatch):
    # every row's global stages go through one grid_argmax call
    sizes = []

    def counted(gain, congestion, mn, capacity, sensitivity):
        sizes.append(mn.size)
        return solve_many(gain, congestion, mn, capacity, sensitivity)
    monkeypatch.setattr(optimize_mod, "solve_many", counted)
    cfg = parse_config(GOLDEN_SWEEPS["sweep_capacity_exponential_mm1.csv"])
    assert all(row.error is None for row in run_sweep(cfg).rows)
    assert len(sizes) == 2


def test_a_sweep_builds_each_row_model_once(monkeypatch):
    # the golden sweep whose first rows fail to build: every row's model is
    # built once, failed or not, and only the rows that build are searched
    built, searched = [], []

    def counted_build(model, parameter, value):
        built.append(value)
        return with_parameter(model, parameter, value)

    def counted_search(models, kinds, *args):
        searched.append(len(models))
        return starts(models, kinds, *args)
    starts = optimize_mod._starts
    monkeypatch.setattr(experiments_mod, "with_parameter", counted_build)
    monkeypatch.setattr(experiments_mod, "_starts", counted_search)
    cfg = parse_config(GOLDEN_SWEEPS["sweep_sensitivity_mixed_mm1.csv"])
    rows = run_sweep(cfg).rows
    assert built == sweep_values(cfg)
    assert searched == [sum(row.error is None for row in rows)]


def test_a_row_whose_search_fails_carries_its_error_alone(monkeypatch):
    # a solve that raises whenever the middle row's capacity is in its input:
    # the shared search fails, so every row searches alone; only the middle
    # row carries the error, and every other row is as without the fault
    cfg = parse_config(GOLDEN_SWEEPS["sweep_capacity_reciprocal_mm1.csv"])
    clean = run_sweep(cfg).rows
    bad = clean[1].param_value

    def failing(gain, congestion, mn, capacity, sensitivity):
        if np.any(np.asarray(capacity) == bad):
            raise ConvergenceError("injected failure")
        return solve_many(gain, congestion, mn, capacity, sensitivity)
    monkeypatch.setattr(optimize_mod, "solve_many", failing)
    rows = run_sweep(cfg).rows
    assert rows[1] == SweepRow(param_value=bad, error="ConvergenceError: injected failure")
    assert rows[0] == clean[0] and rows[2] == clean[2]


def test_csv_uses_lf_and_12_digits(tmp_path):
    result = run_sweep(small_sweep_config())
    raw = emit_csv(result, tmp_path / "fmt.csv").read_bytes()
    assert raw.endswith(b"\n") and b"\r\n" not in raw
    assert format_value(1.0 / 3.0) == "0.333333333333"
    assert format_value(None) == ""
    assert format_value(1234567.0) == "1234567"


def test_error_rows_emit_blank_cells(tmp_path):
    result = run_sweep(small_sweep_config(cost=1.2))
    with emit_csv(result, tmp_path / "err.csv").open(newline="", encoding="utf-8") as f:
        header, *rows = csv.reader(f)
    error_col = header.index("error")
    p_col = header.index("p_star")
    for parsed in rows:
        assert parsed[p_col] == ""
        assert "DegenerateBaselineError" in parsed[error_col]
    # no row to check: the oracle searches nothing
    outcome = verify_sweep(small_sweep_config(cost=1.2), result)
    assert outcome == experiments_mod.VerificationOutcome(0.0, 0.0, 0)


def test_verify_sweep_against_small_grid():
    cfg = dataclasses.replace(
        parse_config("sweep.parameter = alpha\nsweep.range = 0.8:1.2:3"))
    result = run_sweep(cfg)
    outcome = verify_sweep(cfg, result)
    assert outcome.max_value_shortfall <= 1e-8


def test_verify_sweep_searches_every_row_in_one_call(monkeypatch):
    # the rows share two solve_many calls, and the outcome is each row's
    # own check combined
    cfg = small_sweep_config()
    result = run_sweep(cfg)
    alone = [verify_sweep(cfg, dataclasses.replace(result, rows=(row,)))
             for row in result.rows]
    calls = []

    def counted(*args):
        calls.append(args[2].size)
        return solve_many(*args)
    monkeypatch.setattr(optimize_mod, "solve_many", counted)
    outcome = verify_sweep(cfg, result)
    assert len(calls) == 2 and outcome.oracle_solves == sum(calls)
    assert outcome == experiments_mod.VerificationOutcome(
        max(o.max_price_gap for o in alone), max(o.max_value_shortfall for o in alone),
        sum(o.oracle_solves for o in alone))


def test_verification_errors_name_the_row_and_the_optimum():
    cfg = small_sweep_config()
    result = run_sweep(cfg)
    rows = list(result.rows)
    rows[1] = dataclasses.replace(rows[1], welfare_two_sided=0.0)
    with pytest.raises(VerificationError,
                       match=r"^row 1\.0: welfare optimum: refined objective 0 falls"):
        verify_sweep(cfg, dataclasses.replace(result, rows=tuple(rows)))
    model = baseline_model()
    profit = optimize_profit(model)
    moved = dataclasses.replace(profit, prices=PricePair(0.1, profit.prices.cp))
    with pytest.raises(VerificationError, match=r"^profit optimum: refined prices \(0\.1, "):
        verify_optima(model, moved, optimize_welfare(model))

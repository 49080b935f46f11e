"""Config-driven parameter sweeps with deterministic CSV output.

Each sweep row builds the model at one parameter value once, computes all
four optima from scratch, and records prices, objectives, growth rates, and
the equilibrium state at the two two-sided optima.  The rows whose model
builds share one global search (``optimize._starts``), each with its own
grids and table, then refine their optima alone: no row reads another's
result (no warm starts), so every row depends on its parameter value alone.
Numerical failures are captured per row in the ``error`` column rather than
aborting the sweep; if the shared search fails, each row searches alone.

CSV output is RFC-4180 style: comma separated, header row, LF line endings,
12 significant digits.  Identical configs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, build_model
from .curves import MarketModel, with_parameter
from .errors import ConfigError, NumericalError, VerificationError
from .optimize import _GROWTH_KINDS, GrowthRates, OptimumReport, _growth_rates, _starts
from .oracle import GridOptimum, grid_optima


@dataclass(frozen=True)
class SweepRow:
    param_value: float
    p_star: float | None = None
    q_star: float | None = None
    profit_two_sided: float | None = None
    profit_one_sided: float | None = None
    profit_growth: float | None = None
    p_welfare: float | None = None
    q_welfare: float | None = None
    welfare_two_sided: float | None = None
    welfare_one_sided: float | None = None
    welfare_growth: float | None = None
    congestion_profit_opt: float | None = None
    elasticity_profit_opt: float | None = None
    congestion_welfare_opt: float | None = None
    elasticity_welfare_opt: float | None = None
    error: str | None = None


ALL_COLUMNS = tuple(f.name for f in fields(SweepRow))
PRICE_COLUMNS = ("param_value", "p_star", "q_star", "p_welfare", "q_welfare", "error")


@dataclass(frozen=True)
class SweepResult:
    parameter: str
    columns: tuple[str, ...]
    rows: tuple[SweepRow, ...]


def sweep_values(cfg: ScenarioConfig) -> list[float]:
    if cfg.sweep_parameter is None or cfg.sweep_range is None:
        raise ConfigError("sweep needs both sweep.parameter and sweep.range")
    values = np.linspace(*cfg.sweep_range)
    return sorted(float(v) for v in values)


def _row_from_rates(value: float, rates: GrowthRates) -> SweepRow:
    pt, wt = rates.profit_two_sided, rates.welfare_two_sided
    return SweepRow(
        param_value=value,
        p_star=pt.prices.user,
        q_star=pt.prices.cp,
        profit_two_sided=pt.objective,
        profit_one_sided=rates.profit_one_sided.objective,
        profit_growth=rates.profit_growth,
        p_welfare=wt.prices.user,
        q_welfare=wt.prices.cp,
        welfare_two_sided=wt.objective,
        welfare_one_sided=rates.welfare_one_sided.objective,
        welfare_growth=rates.welfare_growth,
        congestion_profit_opt=pt.equilibrium.congestion,
        elasticity_profit_opt=pt.equilibrium.elasticity,
        congestion_welfare_opt=wt.equilibrium.congestion,
        elasticity_welfare_opt=wt.equilibrium.elasticity,
    )


def _evaluate_row(value: float, model, starts) -> SweepRow:
    """The row at ``value`` from its model or build error and ``_starts`` (None: its own)."""
    try:
        if isinstance(model, Exception):
            raise model
        rates = _growth_rates(model, starts or _starts([model], _GROWTH_KINDS)[0])
        return _row_from_rates(value, rates)
    except (NumericalError, ValueError) as exc:
        return SweepRow(param_value=value, error=f"{type(exc).__name__}: {exc}")


def run_sweep(cfg: ScenarioConfig) -> SweepResult:
    """Evaluate the configured sweep; rows are assembled in parameter order."""
    parameter = cfg.sweep_parameter
    values = sweep_values(cfg)
    base_model = build_model(cfg)
    built = []
    for value in values:
        try:
            built.append(with_parameter(base_model, parameter, value))
        except (NumericalError, ValueError) as exc:     # the row reports it
            built.append(exc)
    models = [model for model in built if isinstance(model, MarketModel)]
    try:
        shared = iter(_starts(models, _GROWTH_KINDS))
    except (NumericalError, ValueError):        # each row searches alone
        shared = iter([None] * len(models))
    rows = tuple(_evaluate_row(v, m, next(shared) if isinstance(m, MarketModel) else None)
                 for v, m in zip(values, built))
    columns = ALL_COLUMNS if cfg.output_columns == "all" else PRICE_COLUMNS
    return SweepResult(parameter=parameter, columns=columns, rows=rows)


def format_value(v: float | str | None) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v.replace(",", ";")
    return f"{v:.12g}"


def emit_csv(result: SweepResult, path: str | Path) -> Path:
    """Write the sweep table; header row always present, LF endings."""
    path = Path(path)
    try:
        lines = [",".join(result.columns)]
        for row in result.rows:
            lines.append(",".join(format_value(getattr(row, col))
                                  for col in result.columns))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from None
    return path


# ---------------------------------------------------------------------------
# Oracle verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationOutcome:
    max_price_gap: float
    max_value_shortfall: float
    oracle_solves: int          # equilibria the grid oracle solved

    def __str__(self) -> str:
        return (f"max price gap vs oracle {self.max_price_gap:.3e}, "
                f"max value shortfall {self.max_value_shortfall:.3e}, "
                f"{self.oracle_solves} oracle equilibria solved")


def _check_against_grid(price_user: float, price_cp: float, objective: float,
                        grid_best: GridOptimum, label: str) -> tuple[float, float]:
    gap_p = abs(price_user - grid_best.price_user)
    gap_q = abs(price_cp - grid_best.price_cp)
    cell = max(grid_best.cell_user, grid_best.cell_cp)
    shortfall = grid_best.value - objective
    if gap_p > cell or gap_q > cell:
        raise VerificationError(
            f"{label}: refined prices ({price_user:.6g}, {price_cp:.6g}) "
            f"sit more than one grid cell from the oracle's "
            f"({grid_best.price_user:.6g}, {grid_best.price_cp:.6g})")
    if shortfall > 1e-8:
        raise VerificationError(
            f"{label}: refined objective {objective:.12g} falls "
            f"{shortfall:.3e} below the grid oracle's {grid_best.value:.12g}")
    return max(gap_p, gap_q), max(0.0, shortfall)


def _verify_models(checks) -> VerificationOutcome:
    """Check each (label, model, profit, welfare) of ``checks``, its optima
    each (p, q, objective), against the grid oracle, whose ``grid_optima``
    searches every model's two scans in one call; ``label`` starts each
    error message."""
    grids = grid_optima([model for _, model, *_ in checks])
    gaps = [_check_against_grid(*found, best, f"{label}{objective} optimum")
            for (label, _, *optima), bests in zip(checks, grids)
            for objective, found, best in zip(("profit", "welfare"), optima, bests)]
    return VerificationOutcome(max((g for g, _ in gaps), default=0.0),
                               max((s for _, s in gaps), default=0.0),
                               sum(best.solved_points for bests in grids for best in bests))


def verify_optima(model: MarketModel, profit_report: OptimumReport,
                  welfare_report: OptimumReport) -> VerificationOutcome:
    """Cross-check refined optima against the grid oracle."""
    return _verify_models([(
        "", model,
        (profit_report.prices.user, profit_report.prices.cp, profit_report.objective),
        (welfare_report.prices.user, welfare_report.prices.cp, welfare_report.objective))])


def verify_sweep(cfg: ScenarioConfig, result: SweepResult) -> VerificationOutcome:
    """Re-run the grid oracle on every successful sweep row, all in one search."""
    base_model = build_model(cfg)
    return _verify_models([
        (f"row {row.param_value}: ",
         with_parameter(base_model, result.parameter, row.param_value),
         (row.p_star, row.q_star, row.profit_two_sided),
         (row.p_welfare, row.q_welfare, row.welfare_two_sided))
        for row in result.rows if row.error is None and row.p_star is not None])

"""Command line front end.

Subcommands: ``solve-eq``, ``optimize``, ``sweep``, ``sensitivity``.  Each
takes ``--config PATH`` plus repeatable ``--set key=value`` overrides, an
optional ``--out PATH`` for CSV output, and ``--verify`` to cross-check
results against the brute-force oracles.

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 verification
mismatch.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ScenarioConfig, apply_overrides, build_model, load_config
from .equilibrium import solve_equilibrium
from .errors import ConfigError, NumericalError, VerificationError
from .experiments import (emit_csv, format_value, run_sweep, verify_optima,
                          verify_sweep)
from .optimize import growth_rates
from .oracle import fixed_point_equilibrium, reoptimization_gap
from .sensitivity import optimal_price_sensitivity

FIXED_POINT_AGREEMENT = 1e-10


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netpricing",
        description="Two-sided congested-network pricing: equilibria, optima, sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
            ("solve-eq", "solve the congestion equilibrium at price.user/price.cp"),
            ("optimize", "profit and welfare optima plus one-sided growth rates"),
            ("sweep", "parameter sweep per the config's sweep block"),
            ("sensitivity", "optimal-price derivatives in the sweep parameter")):
        cmd = sub.add_parser(name, help=help_)
        cmd.add_argument("--config", type=Path, default=None,
                         help="scenario config file (defaults are the baseline)")
        cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override a config key (repeatable)")
        cmd.add_argument("--out", type=Path, default=None,
                         help="write results as CSV to this path")
        cmd.add_argument("--verify", action="store_true",
                         help="cross-check against the brute-force oracles")
    return parser


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    cfg = apply_overrides(cfg, args.set)
    return replace(cfg, verify=True) if args.verify else cfg


def _write_pairs(path: Path, pairs: list[tuple[str, object]]) -> None:
    lines = ["name,value"]
    lines += [f"{name},{format_value(value)}" for name, value in pairs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _cmd_solve_eq(args) -> int:
    cfg = _load(args)
    if cfg.price_user is None or cfg.price_cp is None:
        raise ConfigError("solve-eq needs price.user and price.cp")
    model = build_model(cfg)
    eq = solve_equilibrium(model, cfg.price_user, cfg.price_cp)
    pairs = [
        ("price_user", eq.price_user), ("price_cp", eq.price_cp),
        ("congestion", eq.congestion), ("throughput", eq.throughput),
        ("elasticity", eq.elasticity), ("gap_residual", eq.gap_residual),
        ("iterations", eq.iterations), ("degenerate", int(eq.degenerate)),
    ]
    for name, value in pairs:
        print(f"{name} = {format_value(value) if isinstance(value, float) else value}")
    if args.out:
        _write_pairs(args.out, pairs)
    if cfg.verify:
        phi_fp = fixed_point_equilibrium(model, cfg.price_user, cfg.price_cp)
        gap = abs(phi_fp - eq.congestion)
        print(f"verify: fixed-point congestion gap = {gap:.3e}")
        if gap > FIXED_POINT_AGREEMENT * max(1.0, eq.congestion):
            raise VerificationError(
                f"Newton and fixed-point equilibria disagree by {gap:.3e}")
    return 0


def _cmd_optimize(args) -> int:
    cfg = _load(args)
    model = build_model(cfg)
    rates = growth_rates(model)
    pt, po = rates.profit_two_sided, rates.profit_one_sided
    wt, wo = rates.welfare_two_sided, rates.welfare_one_sided
    pairs = [
        ("p_star", pt.prices.user), ("q_star", pt.prices.cp),
        ("profit_two_sided", pt.objective), ("profit_one_sided", po.objective),
        ("profit_growth", rates.profit_growth),
        ("p_welfare", wt.prices.user), ("q_welfare", wt.prices.cp),
        ("welfare_two_sided", wt.objective), ("welfare_one_sided", wo.objective),
        ("welfare_growth", rates.welfare_growth),
        ("congestion_profit_opt", pt.equilibrium.congestion),
        ("elasticity_profit_opt", pt.equilibrium.elasticity),
        ("kkt_residual", pt.diagnostics.kkt_residual),
        ("lerner_residual", pt.diagnostics.lerner_residual),
        ("iterations_profit_opt", pt.iterations),
        ("congestion_welfare_opt", wt.equilibrium.congestion),
        ("elasticity_welfare_opt", wt.equilibrium.elasticity),
        ("ramsey_residual", wt.diagnostics.ramsey_residual),
        ("iterations_welfare_opt", wt.iterations),
    ]
    for name, value in pairs:
        print(f"{name} = {format_value(value)}")
    if args.out:
        _write_pairs(args.out, pairs)
    if cfg.verify:
        outcome = verify_optima(model, pt, wt)
        print(f"verify: {outcome}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    result = run_sweep(cfg)
    out = args.out or (Path(cfg.output_path) if cfg.output_path else None)
    if out is None:
        raise ConfigError("sweep needs output.path in the config or --out")
    emit_csv(result, out)
    failures = sum(1 for row in result.rows if row.error is not None)
    print(f"wrote {len(result.rows)} rows to {out}"
          + (f" ({failures} rows carry errors)" if failures else ""))
    if cfg.verify:
        outcome = verify_sweep(cfg, result)
        print(f"verify: {outcome}")
    return 0


def _cmd_sensitivity(args) -> int:
    cfg = _load(args)
    if cfg.sweep_parameter is None:
        raise ConfigError("sensitivity needs sweep.parameter")
    model = build_model(cfg)
    report = optimal_price_sensitivity(model, cfg.sweep_parameter)
    pairs = [
        ("parameter", report.parameter),
        ("base_value", report.base_value), ("step", report.step),
        ("dp_star", report.profit_price_derivs[0]),
        ("dq_star", report.profit_price_derivs[1]),
        ("dp_welfare", report.welfare_price_derivs[0]),
        ("dq_welfare", report.welfare_price_derivs[1]),
        ("elasticity_slope_profit_opt", report.profit_context.elasticity_slope),
        ("elasticity_slope_welfare_opt", report.welfare_context.elasticity_slope),
        ("user_hazard_profit_opt", report.profit_context.user_hazard),
        ("cp_hazard_profit_opt", report.profit_context.cp_hazard),
    ]
    for name, value in pairs:
        print(f"{name} = {value if isinstance(value, str) else format_value(value)}")
    for check in report.predictions:
        print(check.describe())
    if args.out:
        _write_pairs(args.out, [(n, v) for n, v in pairs if not isinstance(v, str)])
    if cfg.verify:
        mismatched = [c.name for c in report.predictions
                      if c.conclusive and c.signs_satisfied is False]
        if mismatched:
            raise VerificationError(
                f"conclusive sign predictions failed: {', '.join(mismatched)}")
        print("verify: all conclusive sign predictions hold")
        gap, agrees = reoptimization_gap(model, report)
        print(f"verify: re-optimization derivative gap = {gap:.3e}")
        if not agrees:
            raise VerificationError(
                f"implicit-function and re-optimized price derivatives disagree by {gap:.3e}")
    return 0


_COMMANDS = {
    "solve-eq": _cmd_solve_eq,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "sensitivity": _cmd_sensitivity,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Congestion-aware two-sided network pricing.

Equilibrium congestion of a priced two-sided network platform, profit- and
welfare-optimal two-sided prices, their parameter sensitivities, and a
config-driven sweep harness with brute-force verification oracles.
"""

from .curves import (CapacitySharing, CpPowerDemand, CustomCongestion,
                     CustomDemand, CustomGain, ExponentialGain, MarketModel,
                     MM1Queue, ReciprocalGain, UserPowerDemand, baseline_model)
from .equilibrium import (ComparativeStatics, Equilibrium, comparative_statics,
                          solve_equilibrium)
from .errors import (BracketError, ConfigError, ConvergenceError,
                     DegenerateBaselineError, DomainError, NumericalError,
                     VerificationError)
from .experiments import (SweepResult, SweepRow, emit_csv, run_sweep, verify_optima,
                          verify_sweep)
from .objectives import ObjectiveGradients, ObjectiveReport, evaluate_objectives
from .optimize import (GrowthRates, OptimumReport, PricePair, growth_rates,
                       optimize_one_sided, optimize_profit, optimize_welfare)
from .oracle import GridOptimum, finite_difference, fixed_point_equilibrium, grid_optimize
from .sensitivity import (SensitivityReport, SignRuleCheck,
                          elasticity_slope_vs_congestion,
                          optimal_price_sensitivity)
from .config import ScenarioConfig, apply_overrides, build_model, load_config, parse_config

__all__ = [
    "BracketError", "CapacitySharing", "ComparativeStatics", "ConfigError",
    "ConvergenceError", "CpPowerDemand", "CustomCongestion", "CustomDemand",
    "CustomGain", "DegenerateBaselineError", "DomainError",
    "Equilibrium", "ExponentialGain", "GridOptimum", "GrowthRates",
    "MarketModel", "MM1Queue", "NumericalError", "ObjectiveGradients",
    "ObjectiveReport", "OptimumReport", "PricePair", "ReciprocalGain",
    "ScenarioConfig", "SensitivityReport", "SignRuleCheck", "SweepResult", "SweepRow",
    "UserPowerDemand", "VerificationError", "apply_overrides", "baseline_model",
    "build_model", "comparative_statics", "elasticity_slope_vs_congestion",
    "emit_csv", "evaluate_objectives", "finite_difference",
    "fixed_point_equilibrium", "grid_optimize", "growth_rates", "load_config",
    "optimal_price_sensitivity", "optimize_one_sided", "optimize_profit",
    "optimize_welfare", "parse_config", "run_sweep", "solve_equilibrium",
    "verify_optima", "verify_sweep",
]

"""Brute-force reference implementations used to validate the fast paths.

Three independent routes live here:

* ``grid_optimize``: exhaustive dense-grid search for the profit surface or
  the zero-profit welfare segment, with a deterministic lexicographic
  tie-break (smallest user price, then smallest content price);
* ``fixed_point_equilibrium``: damped fixed-point iteration on the
  congestion map, an alternative to the Newton equilibrium solver;
* ``finite_difference``: central (optionally five-point) differencing for
  gradient cross-checks;
* ``reoptimized_price_derivatives``: central differences of re-optimized
  prices, the reference for the implicit-function price sensitivities
  (``reoptimization_gap`` compares a sensitivity report with it).

These ship in the library, not the test tree, so the CLI can re-verify any
result against them (``--verify``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import MarketModel, parameter_value, with_parameter
from .equilibrium import solve_many
from .errors import ConvergenceError, DomainError, NumericalError
from .optimize import optimize_profit, optimize_welfare
from .sensitivity import SensitivityReport

FIXED_POINT_THETA = 0.5
FIXED_POINT_MAX_ITER = 100_000
FIXED_POINT_REL_TOL = 1e-12
REOPTIMIZATION_AGREEMENT = 1e-4     # relative to the largest |price derivative|
_CHUNK = 250_000


@dataclass(frozen=True)
class GridSpec:
    """Dense search grid: points per axis and optional explicit ranges."""

    points_user: int = 2001
    points_cp: int = 2001
    range_user: tuple[float, float] | None = None
    range_cp: tuple[float, float] | None = None

    def __post_init__(self):
        if self.points_user < 3 or self.points_cp < 3:
            raise DomainError("grids need at least 3 points per axis")


@dataclass(frozen=True)
class GridOptimum:
    price_user: float
    price_cp: float
    value: float
    cell_user: float            # grid spacing on the user axis
    cell_cp: float


def _axis(range_: tuple[float, float] | None, hi_default: float, n: int) -> np.ndarray:
    lo, hi = range_ if range_ is not None else (0.0, hi_default)
    if not 0.0 <= lo < hi:
        raise DomainError(f"bad grid range ({lo}, {hi})")
    if hi > hi_default * (1.0 + 1e-12):
        raise DomainError(f"grid range ({lo}, {hi}) leaves the demand support")
    return np.linspace(lo, hi, n)


def grid_optimize(model: MarketModel, objective: str = "profit",
                  grid: GridSpec | None = None) -> GridOptimum:
    """Exhaustive grid argmax of the profit surface or the welfare segment.

    ``objective="welfare"`` scans the zero-profit segment p + q = cost using
    the user-axis point count.  Evaluation is chunked and the running argmax
    keeps the first (lexicographically smallest) maximizer, so the result is
    independent of chunking.
    """
    grid = grid or GridSpec()
    clamp = 1.0 - 1e-9
    if objective == "profit":
        p_axis = _axis(grid.range_user, model.user_demand.support * clamp, grid.points_user)
        q_axis = _axis(grid.range_cp, model.cp_demand.support * clamp, grid.points_cp)
        m_vals = model.user_demand.value(p_axis)
        n_vals = model.cp_demand.value(q_axis)
        best_value, best_i, best_j = -np.inf, 0, 0
        rows_per_chunk = max(1, _CHUNK // grid.points_cp)
        for row0 in range(0, grid.points_user, rows_per_chunk):
            row1 = min(row0 + rows_per_chunk, grid.points_user)
            mn = np.outer(m_vals[row0:row1], n_vals).reshape(-1)
            _, lam = solve_many(model.gain, model.congestion, mn,
                                model.capacity, model.sensitivity)
            margin = (p_axis[row0:row1, None] + q_axis[None, :] - model.cost).reshape(-1)
            values = margin * lam
            k = int(np.argmax(values))
            if values[k] > best_value:
                best_value = float(values[k])
                best_i = row0 + k // grid.points_cp
                best_j = k % grid.points_cp
        return GridOptimum(
            price_user=float(p_axis[best_i]),
            price_cp=float(q_axis[best_j]),
            value=best_value,
            cell_user=float(p_axis[1] - p_axis[0]),
            cell_cp=float(q_axis[1] - q_axis[0]),
        )
    if objective == "welfare":
        c = model.cost
        p_hi_cap = model.user_demand.support * clamp
        q_hi_cap = model.cp_demand.support * clamp
        lo = max(0.0, c - q_hi_cap)
        hi = min(c, p_hi_cap)
        if not lo < hi:
            raise DomainError("empty zero-profit segment; check cost against supports")
        p_axis = np.linspace(lo, hi, grid.points_user)
        m_vals = model.user_demand.value(p_axis)
        n_vals = model.cp_demand.value(c - p_axis)
        s_m = model.user_demand.per_unit_surplus(p_axis)
        s_n = model.cp_demand.per_unit_surplus(c - p_axis)
        _, lam = solve_many(model.gain, model.congestion, m_vals * n_vals,
                            model.capacity, model.sensitivity)
        values = (s_m + s_n) * lam
        k = int(np.argmax(values))
        return GridOptimum(
            price_user=float(p_axis[k]),
            price_cp=float(c - p_axis[k]),
            value=float(values[k]),
            cell_user=float(p_axis[1] - p_axis[0]),
            cell_cp=float(p_axis[1] - p_axis[0]),
        )
    raise DomainError(f"unknown objective {objective!r}")


def fixed_point_equilibrium(model: MarketModel, price_user: float, price_cp: float,
                            theta: float = FIXED_POINT_THETA,
                            start: float | None = None) -> float:
    """Damped congestion fixed point phi <- (1-theta) phi + theta Phi(lam(phi), mu).

    Deliberately shares nothing with the Newton solver beyond the curve
    objects.  When the implied throughput leaves the congestion map's domain
    (M/M/1 with lam >= mu), the update is replaced by halving the remaining
    headroom, i.e. doubling phi, which restores feasibility monotonically.
    """
    m, n = model.demands(price_user, price_cp)
    floor = model.congestion.congestion_floor(model.capacity)
    if m <= 0.0 or n <= 0.0:
        return floor
    mn = m * n
    phi = start if start is not None else floor + 1e-6
    for _ in range(FIXED_POINT_MAX_ITER):
        lam = mn * model.gain.value(phi, model.sensitivity)
        try:
            target = model.congestion.congestion(lam, model.capacity)
        except DomainError:
            phi_next = 2.0 * phi
        else:
            phi_next = (1.0 - theta) * phi + theta * target
        if abs(phi_next - phi) <= FIXED_POINT_REL_TOL * max(1.0, abs(phi)):
            return phi_next
        phi = phi_next
    raise ConvergenceError("damped fixed-point iteration did not converge")


def finite_difference(f, x: float, rel_step: float = 1e-5,
                      five_point: bool = False) -> float:
    """Central difference df/dx with step rel_step * max(1, |x|)."""
    h = rel_step * max(1.0, abs(x))
    if five_point:
        return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
    return (f(x + h) - f(x - h)) / (2 * h)


def reoptimized_price_derivatives(model: MarketModel, parameter: str,
                                  step: float) -> tuple[float, float, float, float]:
    """(dp*/dx, dq*/dx, dp_o/dx, dq_o/dx) by re-optimizing at x -/+ ``step``.

    Four optima, central-differenced; the profit optima must be interior on
    both sides of the stencil.
    """
    base = parameter_value(model, parameter)
    lo_model = with_parameter(model, parameter, base - step)
    hi_model = with_parameter(model, parameter, base + step)
    profit_lo, profit_hi = optimize_profit(lo_model), optimize_profit(hi_model)
    welfare_lo, welfare_hi = optimize_welfare(lo_model), optimize_welfare(hi_model)
    if profit_lo.boundary or profit_hi.boundary:
        raise NumericalError("profit optimum is not interior across the stencil")

    def slopes(lo, hi):
        return ((hi.prices.user - lo.prices.user) / (2 * step),
                (hi.prices.cp - lo.prices.cp) / (2 * step))
    return slopes(profit_lo, profit_hi) + slopes(welfare_lo, welfare_hi)


def reoptimization_gap(model: MarketModel, report: SensitivityReport) -> tuple[float, bool]:
    """Largest gap between the report's four price derivatives and
    ``reoptimized_price_derivatives`` at the report's own step, and whether it
    is within ``REOPTIMIZATION_AGREEMENT`` times the largest |derivative|."""
    derivs = report.profit_price_derivs + report.welfare_price_derivs
    reference = reoptimized_price_derivatives(model, report.parameter, report.step)
    gap = max(abs(a - b) for a, b in zip(derivs, reference))
    return gap, gap <= REOPTIMIZATION_AGREEMENT * max(abs(d) for d in derivs)

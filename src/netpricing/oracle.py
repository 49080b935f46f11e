"""Reference routes used to validate the fast paths.

* ``grid_optimize``: dense-grid argmax of the profit surface or of the
  zero-profit welfare segment, with a deterministic lexicographic tie-break
  (smallest user price, then smallest content price);
* ``fixed_point_equilibrium``: damped fixed-point iteration on the
  congestion map, an alternative to the Newton equilibrium solver;
* ``finite_difference``: central differencing for gradient cross-checks;
* ``reoptimized_price_derivatives``: central differences of re-optimized
  prices, the reference for the implicit-function price sensitivities
  (``reoptimization_gap`` compares a sensitivity report with it).

``grid_optimize`` runs the optimizers' own global-stage routines,
``optimize.profit_argmax`` and ``optimize.welfare_scan``, on 2001 points
per profit axis by default, finer than the optimizers' 101 x 101 profit
grid.  The welfare segment gets 2 * 2001 - 1 = 4001 points: every point of
the optimizer's 2001-point start scan plus each midpoint, so the check does
not rest on the grid Newton started from, and a segment end at which an
optimum is held stays on the grid.  The oracle checks that Newton
refinement ends within a cell of the best grid point, not how that point
was found.  The independent reference for both routines is the exhaustive
argmax in the test tree (``tests/test_oracle.py``), which solves every grid
point.

These ship in the library, not the test tree, so the CLI can re-verify any
result against them (``--verify``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import MarketModel, parameter_value, with_parameter
from .errors import ConvergenceError, DomainError, NumericalError
from .optimize import (optimize_profit, optimize_welfare, profit_argmax, profit_box,
                       welfare_scan)
from .sensitivity import SensitivityReport

FIXED_POINT_THETA = 0.5
FIXED_POINT_MAX_ITER = 100_000
FIXED_POINT_REL_TOL = 1e-12
REOPTIMIZATION_AGREEMENT = 1e-4     # relative to the largest |price derivative|


@dataclass(frozen=True)
class GridSpec:
    """Dense search grid: points per axis and optional explicit ranges.

    The welfare segment is scanned at ``2 * points_user - 1`` points: those of
    a ``points_user`` scan and their midpoints (``grid_optimize``).
    """

    points_user: int = 2001
    points_cp: int = 2001
    range_user: tuple[float, float] | None = None
    range_cp: tuple[float, float] | None = None

    def __post_init__(self):
        if self.points_user < 3 or self.points_cp < 3:
            raise DomainError("grids need at least 3 points per axis")


@dataclass(frozen=True)
class GridOptimum:
    """Grid argmax, its value, the grid spacing and the equilibria solved."""

    price_user: float
    price_cp: float
    value: float
    cell_user: float            # grid spacing on the user axis
    cell_cp: float
    solved_points: int          # equilibria solved to find the optimum


def _axis(range_: tuple[float, float] | None, hi_default: float, n: int) -> np.ndarray:
    lo, hi = range_ if range_ is not None else (0.0, hi_default)
    if not 0.0 <= lo < hi:
        raise DomainError(f"bad grid range ({lo}, {hi})")
    if hi > hi_default * (1.0 + 1e-12):
        raise DomainError(f"grid range ({lo}, {hi}) leaves the demand support")
    return np.linspace(lo, hi, n)


def grid_optimize(model: MarketModel, objective: str = "profit",
                  grid: GridSpec | None = None) -> GridOptimum:
    """Grid argmax of the profit surface or the welfare segment.

    The first (lexicographically smallest) maximizer wins.  The profit grid
    goes to ``optimize.profit_argmax``; ``objective="welfare"`` solves every
    point of ``optimize.welfare_scan`` on the zero-profit segment
    p + q = cost at ``2 * points_user - 1`` points, so that the optimizer's
    own start scan is not the grid that checks it.
    """
    grid = grid or GridSpec()
    if objective == "profit":
        p_hi, q_hi = profit_box(model)
        p_axis = _axis(grid.range_user, p_hi, grid.points_user)
        q_axis = _axis(grid.range_cp, q_hi, grid.points_cp)
        i, j, value, solved = profit_argmax(model, p_axis, q_axis)
        return GridOptimum(
            price_user=float(p_axis[i]),
            price_cp=float(q_axis[j]),
            value=value,
            cell_user=float(p_axis[1] - p_axis[0]),
            cell_cp=float(q_axis[1] - q_axis[0]),
            solved_points=solved,
        )
    if objective == "welfare":
        p_axis, values = welfare_scan(model, 2 * grid.points_user - 1)
        k = int(np.argmax(values))
        cell = float(p_axis[1] - p_axis[0])
        return GridOptimum(
            price_user=float(p_axis[k]),
            price_cp=float(model.cost - p_axis[k]),
            value=float(values[k]),
            cell_user=cell,
            cell_cp=cell,
            solved_points=p_axis.size,
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


def finite_difference(f, x: float, rel_step: float = 1e-5) -> float:
    """Central difference df/dx with step rel_step * max(1, |x|)."""
    h = rel_step * max(1.0, abs(x))
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

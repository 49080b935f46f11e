"""Brute-force reference implementations used to validate the fast paths.

Four independent routes live here:

* ``grid_optimize``: dense-grid argmax of the profit surface or of the
  zero-profit welfare segment, with a deterministic lexicographic tie-break
  (smallest user price, then smallest content price);
* ``fixed_point_equilibrium``: damped fixed-point iteration on the
  congestion map, an alternative to the Newton equilibrium solver;
* ``finite_difference``: central (optionally five-point) differencing for
  gradient cross-checks;
* ``reoptimized_price_derivatives``: central differences of re-optimized
  prices, the reference for the implicit-function price sensitivities
  (``reoptimization_gap`` compares a sensitivity report with it).

The profit argmax is a branch-and-bound that returns exactly what solving
every grid point would, value and tie-break included.  The throughput lam
depends on the prices only through the demand product m(p) n(q), and it
rises with it: at fixed lam, h(lam) = lam - m n rho(Phi(lam, mu)) falls as
m n rises, so the unique root moves right.  One vectorized solve tabulates
lam at ``TABLE_STEPS`` + 1 evenly spaced products T_k on [0, max m * max n]
(a table that falls anywhere raises ``NumericalError``), and a point's profit
is at most max(p + q - cost, 0) * lam(T_k), T_k the first node at or above
its m n, times 1 + ``BOUND_SLACK`` for solver error and the rounding of k.
The best exact profit on a subset of about 101 x 101 of the grid's own
points is the incumbent.  A point whose bound falls below it is strictly
below the grid maximum, so skipping it cannot move the first-occurrence
argmax.  Only the points whose bound reaches the incumbent are solved:
with the table and the incumbent, about 0.4% of a 2001^2 grid on the
builtin baseline models (``GridOptimum.solved_points``).

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
TABLE_STEPS = 4096                  # intervals of the throughput bound table
BOUND_SLACK = 1e-8                  # relative slack of the profit bound: 10x NEWTON_REL_TOL
_INCUMBENT_POINTS = 101             # about this many incumbent points per axis
_CHUNK = 65_536                     # grid points bounded per pass step


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


def _profit_argmax(model: MarketModel, p_axis: np.ndarray,
                   q_axis: np.ndarray) -> tuple[int, int, float, int]:
    """First-occurrence argmax (i, j) of the profit on the grid p_axis x q_axis,
    its value, and the number of equilibria solved to find it."""
    m_vals = model.user_demand.value(p_axis)
    n_vals = model.cp_demand.value(q_axis)
    cost = model.cost

    def throughput(mn):
        return solve_many(model.gain, model.congestion, mn,
                          model.capacity, model.sensitivity)[1]

    top = float(np.max(m_vals) * np.max(n_vals))
    table = throughput(np.linspace(0.0, top, TABLE_STEPS + 1))
    if np.any(np.diff(table) < 0.0):
        raise NumericalError("equilibrium throughput is not monotone in the demand "
                             "product; the congestion equilibrium may not be unique")
    table *= 1.0 + BOUND_SLACK
    scale = TABLE_STEPS / top if top > 0.0 else 0.0

    def profit_bound(p, q, mn):
        return np.maximum(p + q - cost, 0.0) * table.take(
            np.ceil(mn * scale).astype(np.intp), mode="clip")

    si = max(1, (p_axis.size - 1) // (_INCUMBENT_POINTS - 1))
    sj = max(1, (q_axis.size - 1) // (_INCUMBENT_POINTS - 1))
    mn = np.outer(m_vals[::si], n_vals[::sj])
    margin = p_axis[::si, None] + q_axis[None, ::sj] - cost
    incumbent = float(np.max(margin * throughput(mn.reshape(-1)).reshape(mn.shape)))

    # a point whose bound is below the incumbent is strictly below the grid
    # maximum, so dropping it cannot move the first-occurrence argmax.  Each
    # chunk of rows first bounds whole columns by its largest user price and
    # user demand (rounding is monotone, so no point bound exceeds its
    # column's), then bounds the points of the columns that remain.
    cols = q_axis.size
    rows_per_chunk = max(1, _CHUNK // cols)
    kept = []
    for row0 in range(0, p_axis.size, rows_per_chunk):
        p_rows = p_axis[row0:row0 + rows_per_chunk]
        m_rows = m_vals[row0:row0 + rows_per_chunk]
        column = profit_bound(np.max(p_rows), q_axis, np.max(m_rows) * n_vals)
        live = np.flatnonzero(column >= incumbent)
        bound = profit_bound(p_rows[:, None], q_axis[live], np.outer(m_rows, n_vals[live]))
        r, c = np.nonzero(bound >= incumbent)
        kept.append((row0 + r) * cols + live[c])
    flat = np.concatenate(kept)
    i, j = np.divmod(flat, cols)
    values = (p_axis[i] + q_axis[j] - cost) * throughput(m_vals[i] * n_vals[j])
    k = int(np.argmax(values))
    return int(i[k]), int(j[k]), float(values[k]), table.size + mn.size + flat.size


def grid_optimize(model: MarketModel, objective: str = "profit",
                  grid: GridSpec | None = None) -> GridOptimum:
    """Grid argmax of the profit surface or the welfare segment.

    The first (lexicographically smallest) maximizer wins.  The profit
    argmax solves the equilibrium only where a point's profit bound reaches
    an incumbent (module docstring); ``objective="welfare"`` solves every
    point of the zero-profit segment p + q = cost, using the user-axis point
    count.
    """
    grid = grid or GridSpec()
    clamp = 1.0 - 1e-9
    if objective == "profit":
        p_axis = _axis(grid.range_user, model.user_demand.support * clamp, grid.points_user)
        q_axis = _axis(grid.range_cp, model.cp_demand.support * clamp, grid.points_cp)
        i, j, value, solved = _profit_argmax(model, p_axis, q_axis)
        return GridOptimum(
            price_user=float(p_axis[i]),
            price_cp=float(q_axis[j]),
            value=value,
            cell_user=float(p_axis[1] - p_axis[0]),
            cell_cp=float(q_axis[1] - q_axis[0]),
            solved_points=solved,
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

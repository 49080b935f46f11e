"""Reference routes used to validate the fast paths.

* ``grid_optima``: dense-grid argmaxes of the profit surface and of the
  zero-profit welfare segment, with a deterministic lexicographic tie-break
  (smallest user price, then smallest content price); ``grid_optimize`` is
  its one-model, one-objective case;
* ``fixed_point_equilibrium``: damped fixed-point iteration on the
  congestion map, an alternative to the Newton equilibrium solver;
* ``reoptimized_price_derivatives``: central differences of re-optimized
  prices, the reference for the implicit-function price sensitivities
  (``reoptimization_gap`` compares a sensitivity report with it).

``grid_optima`` scans each model more finely than the optimizers do:
``GRID_POINTS`` prices per axis of the clamped profit price box, against
their 101 x 101 grid, and ``SEGMENT_POINTS`` user prices on the welfare
segment, every point of their 2001-point start scan plus each midpoint.  So
the check does not rest on the grid Newton started from, and a segment end
at which an optimum is held stays on the grid.  It checks that Newton
refinement ends within a cell of the best grid point, not how that point was
found: it finds it with the optimizers' own search (``optimize._starts``),
whose references are the exhaustive argmaxes in ``tests/test_oracle.py``,
which solve every grid point.

These ship in the library, not the test tree, so the CLI can re-verify any
result against them (``--verify``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import MarketModel, parameter_value, with_parameter
from .errors import ConvergenceError, DomainError, NumericalError
from .optimize import _optima, _starts
from .sensitivity import SensitivityReport

FIXED_POINT_THETA = 0.5
FIXED_POINT_MAX_ITER = 100_000
FIXED_POINT_REL_TOL = 1e-12
REOPTIMIZATION_AGREEMENT = 1e-4     # relative to the largest |price derivative|
GRID_POINTS = 2001                  # per profit axis
SEGMENT_POINTS = 2 * GRID_POINTS - 1    # welfare segment: a 2001-point scan and its midpoints
_POINTS = {"profit_two_sided": GRID_POINTS, "welfare_two_sided": SEGMENT_POINTS}


@dataclass(frozen=True)
class GridOptimum:
    """Grid argmax, its value, the grid spacing and the equilibria solved."""

    price_user: float
    price_cp: float
    value: float
    cell_user: float            # grid spacing on the user axis
    cell_cp: float
    solved_points: int          # equilibria solved to find the optimum


def grid_optima(models, objectives=("profit", "welfare")) -> list[list[GridOptimum]]:
    """For each model, the grid argmax of each of ``objectives`` on the
    module docstring's scans, all found by one ``optimize._starts`` search.
    Each argmax and its value are the ones its scan gives alone, the first
    (lexicographically smallest) maximizer winning; the first objective's
    ``solved_points`` also counts the model's throughput table.
    """
    kinds = [f"{objective}_two_sided" for objective in objectives]
    if not set(kinds) <= _POINTS.keys():
        raise DomainError(f"unknown objective in {tuple(objectives)!r}")

    def optimum(model, objective, start):
        axes, point, value, solved = start
        # welfare scans p alone; its cells are p's spacing (cost - p rounds differently)
        p, q = point if objective == "profit" else (point[0], model.cost - point[0])
        cells = [v[1] - v[0] for v in axes]
        return GridOptimum(price_user=float(p), price_cp=float(q), value=value,
                           cell_user=float(cells[0]), cell_cp=float(cells[-1]),
                           solved_points=solved)
    return [[optimum(model, objective, start) for objective, start in zip(objectives, starts)]
            for model, starts in zip(models, _starts(models, kinds, _POINTS))]


def grid_optimize(model: MarketModel, objective: str = "profit") -> GridOptimum:
    """``grid_optima`` of one model and one objective."""
    return grid_optima([model], (objective,))[0][0]


def fixed_point_equilibrium(model: MarketModel, price_user: float, price_cp: float) -> float:
    """Damped congestion fixed point phi <- (1-theta) phi + theta Phi(lam(phi), mu),
    theta = ``FIXED_POINT_THETA``.

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
    phi = floor + 1e-6
    for _ in range(FIXED_POINT_MAX_ITER):
        lam = mn * model.gain.value(phi, model.sensitivity)
        try:
            target = model.congestion.congestion(lam, model.capacity)
        except DomainError:
            phi_next = 2.0 * phi
        else:
            phi_next = (1.0 - FIXED_POINT_THETA) * phi + FIXED_POINT_THETA * target
        if abs(phi_next - phi) <= FIXED_POINT_REL_TOL * max(1.0, abs(phi)):
            return phi_next
        phi = phi_next
    raise ConvergenceError("damped fixed-point iteration did not converge")


def reoptimized_price_derivatives(model: MarketModel, parameter: str,
                                  step: float) -> tuple[float, float, float, float]:
    """(dp*/dx, dq*/dx, dp_o/dx, dq_o/dx) by re-optimizing at x -/+ ``step``.

    Four optima, searched in one call and central-differenced; the profit
    optima must be interior on both sides of the stencil.
    """
    base = parameter_value(model, parameter)
    [profit_lo, welfare_lo], [profit_hi, welfare_hi] = _optima(
        [with_parameter(model, parameter, base + d) for d in (-step, step)],
        ("profit_two_sided", "welfare_two_sided"))
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

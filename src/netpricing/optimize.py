"""Profit-optimal and zero-profit welfare-optimal two-sided prices.

Each optimizer runs a deterministic global stage, then solves its
first-order conditions by projected Newton from the best point found:

* profit: a 101 x 101 coarse grid over the clamped price box (argmax ties
  broken toward the smallest user price, then the smallest content price),
  then Newton on the analytic gradient (dU/dp, dU/dq);
* welfare: q = cost - p on the zero-profit segment; a 2001-point scan of p,
  then Newton on the derivative along the segment, dW/dp - dW/dq;
* one-sided profit: a 2001-point scan of p at q = 0, then Newton on dU/dp.
  The one-sided welfare benchmark has no freedom left: it is (cost, 0).

Newton is projected onto the price box: a coordinate at an edge whose
gradient points out of the box is held exactly there, so corner optima
(q* = 0 under a strongly convex content demand) are exact.  The Hessian is a
central difference of the analytic gradient and every step is backtracked on
the objective.  Prices are accepted once the free gradient is below
``GRAD_TOL`` or a step moves them less than ``STEP_TOL``; reaching
``NEWTON_MAX_STEPS`` raises ``ConvergenceError``.  The objectives
(``profit_objective``, ``welfare_objective``) and ``differenced_hessian``
are public: the price sensitivities differentiate the same first-order
conditions.

First-order-condition residuals: the KKT residual of hazard equalization
over the prices not held at a box edge, and, for interior optima only, the
Lerner form for profit and the cross-product hazard ratio for welfare; a
residual whose condition does not apply is None, never inf or nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import MarketModel
# solve_for_demands is re-exported: perfbench's tracer tests patch and
# restore it in this namespace
from .equilibrium import Equilibrium, solve_for_demands, solve_many  # noqa: F401
from .errors import ConvergenceError, DegenerateBaselineError, DomainError
from .objectives import evaluate_objectives

NEWTON_MAX_STEPS = 50
GRAD_TOL = 1e-10            # free gradient entries at which prices are stationary
STEP_TOL = 1e-13            # price move below which prices are resolved
HESSIAN_STEP = 1e-6         # relative step of the gradient's central difference
ROUNDOFF = 4.0 * np.finfo(float).eps
BOUNDARY_EPS = 1e-6
_CLAMP = 1.0 - 1e-9
_COARSE_POINTS = 101
_SCAN_POINTS = 2001


def differenced_hessian(objective, x: np.ndarray, free: np.ndarray,
                        lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Symmetrized central difference of the objective's gradient on the free
    coordinates, at a relative step of ``HESSIAN_STEP`` clipped to [lo, hi]."""
    idx = np.flatnonzero(free)
    hess = np.empty((idx.size, idx.size))
    for col, j in enumerate(idx):
        h = HESSIAN_STEP * max(1.0, abs(x[j]))
        up, down = x.copy(), x.copy()
        up[j], down[j] = min(x[j] + h, hi[j]), max(x[j] - h, lo[j])
        hess[:, col] = (objective(up)[1][idx] - objective(down)[1][idx]) / (up[j] - down[j])
    return 0.5 * (hess + hess.T)


def is_negative_definite(hess: np.ndarray) -> bool:
    """Whether a symmetric matrix is finite with only negative eigenvalues."""
    return bool(np.all(np.isfinite(hess)) and np.all(np.linalg.eigvalsh(hess) < 0.0))


def _newton_direction(objective, x: np.ndarray, g: np.ndarray, free: np.ndarray,
                      lo: np.ndarray, hi: np.ndarray, width: float) -> np.ndarray:
    """Newton ascent direction on the free coordinates.

    Falls back to a step of one scan cell (``width``) along the gradient's
    signs when the differenced Hessian is not negative definite there; the
    signs stay defined where a hazard, and so the gradient, diverges.
    """
    hess = differenced_hessian(objective, x, free, lo, hi)
    g_free = g[free]
    if is_negative_definite(hess):
        return np.linalg.solve(hess, -g_free)
    return np.sign(g_free) * width


def _projected_newton(objective, x0, lo, hi, width: float):
    """Maximize over the box [lo, hi] from x0.

    ``objective(x)`` returns the value at the point x, its gradient, and the
    report the value came from; the result is (x, that report, Newton steps).
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    x = np.asarray(x0, dtype=float)
    f, g, report = objective(x)
    for steps in range(NEWTON_MAX_STEPS):
        free = ~(((x <= lo) & (g <= 0.0)) | ((x >= hi) & (g >= 0.0)))
        if not free.any() or np.max(np.abs(g[free])) <= GRAD_TOL:
            return x, report, steps
        d = np.zeros_like(x)
        d[free] = _newton_direction(objective, x, g, free, lo, hi, width)
        if not np.all(np.isfinite(d)):
            raise ConvergenceError(f"no finite ascent direction at {x.tolist()}")
        t = 1.0
        while True:
            x_new = np.clip(x + t * d, lo, hi)
            if np.max(np.abs(x_new - x)) <= STEP_TOL:
                return x, report, steps
            f_new, g_new, report_new = objective(x_new)
            # objective differences below round-off carry no information
            if f_new >= f - ROUNDOFF * abs(f):
                break
            t *= 0.5
        x, f, g, report = x_new, f_new, g_new, report_new
    raise ConvergenceError(
        f"projected Newton did not converge in {NEWTON_MAX_STEPS} steps "
        f"(last point {x.tolist()}, gradient {g.tolist()})")


@dataclass(frozen=True)
class PricePair:
    user: float     # p
    cp: float       # q

    def __post_init__(self):
        if self.user < 0 or self.cp < 0:
            raise DomainError("prices must be nonnegative")

    @property
    def total(self) -> float:
        return self.user + self.cp


@dataclass(frozen=True)
class OptimumDiagnostics:
    user_hazard: float
    cp_hazard: float
    elasticity: float
    kkt_residual: float | None = None
    lerner_residual: float | None = None
    ramsey_residual: float | None = None
    user_surplus_per_unit: float | None = None
    cp_surplus_per_unit: float | None = None


@dataclass(frozen=True)
class OptimumReport:
    kind: str                   # profit_two_sided | welfare_two_sided | profit_one_sided | welfare_one_sided
    prices: PricePair
    objective: float
    equilibrium: Equilibrium
    diagnostics: OptimumDiagnostics
    boundary: bool              # optimum pinned at the search box edge; FOC residuals not guaranteed
    held: bool                  # a price is fixed or exactly at a search-set edge; its FOC need not hold
    iterations: int             # Newton steps taken; 0 when nothing is searched


def _coarse_profit_grid(model: MarketModel, p_hi: float, q_hi: float) -> tuple[float, float]:
    p_axis = np.linspace(0.0, p_hi, _COARSE_POINTS)
    q_axis = np.linspace(0.0, q_hi, _COARSE_POINTS)
    m_vals = model.user_demand.value(p_axis)
    n_vals = model.cp_demand.value(q_axis)
    mn = np.outer(m_vals, n_vals).reshape(-1)
    _, lam = solve_many(model.gain, model.congestion, mn,
                        model.capacity, model.sensitivity)
    margin = (p_axis[:, None] + q_axis[None, :] - model.cost).reshape(-1)
    values = margin * lam
    k = int(np.argmax(values))     # first occurrence: smallest p, then smallest q
    return float(p_axis[k // _COARSE_POINTS]), float(q_axis[k % _COARSE_POINTS])


def _profit_diagnostics(model: MarketModel, p: float, q: float, eq: Equilibrium,
                        held: tuple[bool, bool]) -> OptimumDiagnostics:
    """FOC residuals.  ``held`` flags the prices (p, q) held at a box edge: the
    KKT residual skips them, and the Lerner residual is None if either is."""
    margin = p + q - model.cost
    mh = model.user_demand.hazard(p)
    nh = model.cp_demand.hazard(q)
    eps = eq.elasticity
    focs = [abs(h * margin * eps - 1.0) for h, pinned in zip((mh, nh), held) if not pinned]
    lerner = None if any(held) else abs(margin / (p + q) - 1.0 / (eps * (p * mh + q * nh)))
    return OptimumDiagnostics(
        user_hazard=mh, cp_hazard=nh, elasticity=eps,
        kkt_residual=max(focs, default=0.0), lerner_residual=lerner,
    )


def profit_box(model: MarketModel) -> tuple[float, float]:
    """Upper corner (p_hi, q_hi) of the clamped profit price box; (0, 0) is its lower one."""
    return model.user_demand.support * _CLAMP, model.cp_demand.support * _CLAMP


def profit_objective(model: MarketModel):
    """x = (p, q) -> (U, (dU/dp, dU/dq), report): what ``optimize_profit`` maximizes."""
    def objective(x):
        report = evaluate_objectives(model, float(x[0]), float(x[1]))
        g = report.gradients
        return report.profit, np.array([g.profit_price_user, g.profit_price_cp]), report
    return objective


def optimize_profit(model: MarketModel) -> OptimumReport:
    """Two-sided profit maximizer over the clamped price box."""
    p_hi, q_hi = profit_box(model)
    start = _coarse_profit_grid(model, p_hi, q_hi)
    width = max(p_hi, q_hi) / (_COARSE_POINTS - 1)
    x, report, steps = _projected_newton(profit_objective(model), start, (0.0, 0.0),
                                         (p_hi, q_hi), width)
    p, q = float(x[0]), float(x[1])
    eq = report.equilibrium
    boundary = (min(p, p_hi - p) < BOUNDARY_EPS) or (min(q, q_hi - q) < BOUNDARY_EPS)
    held = (p in (0.0, p_hi), q in (0.0, q_hi))
    return OptimumReport(
        kind="profit_two_sided",
        prices=PricePair(p, q),
        objective=report.profit,
        equilibrium=eq,
        diagnostics=_profit_diagnostics(model, p, q, eq, held),
        boundary=boundary,
        held=any(held),
        iterations=steps,
    )


def welfare_segment(model: MarketModel) -> tuple[float, float]:
    """Range [lo, hi] of the user price p on the zero-profit segment q = cost - p."""
    c = model.cost
    p_hi_cap, q_hi_cap = profit_box(model)
    if not 0.0 < c < p_hi_cap + q_hi_cap:
        raise DomainError("zero-profit pricing needs 0 < cost < combined support")
    lo, hi = max(0.0, c - q_hi_cap), min(c, p_hi_cap)
    if not lo < hi:
        raise DomainError("empty zero-profit segment")
    return lo, hi


def _welfare_diagnostics(model: MarketModel, p: float, q: float, eq: Equilibrium,
                         held: bool) -> OptimumDiagnostics:
    """Ramsey residual; None when p is held at a segment end (``held``)."""
    mh = model.user_demand.hazard(p)
    nh = model.cp_demand.hazard(q)
    s_m = model.user_demand.per_unit_surplus(p)
    s_n = model.cp_demand.per_unit_surplus(q)
    eps = eq.elasticity
    share_m = s_m / (s_m + s_n)
    share_n = s_n / (s_m + s_n)
    residual = abs(mh * (eps - 1.0 + share_n) - nh * (eps - 1.0 + share_m))
    return OptimumDiagnostics(
        user_hazard=mh, cp_hazard=nh, elasticity=eps,
        ramsey_residual=None if held else residual / max(mh, nh),
        user_surplus_per_unit=s_m, cp_surplus_per_unit=s_n,
    )


def welfare_objective(model: MarketModel):
    """x = (p,) -> (W_m + W_n, (dW/dp - dW/dq,), report) along q = cost - p:
    what ``optimize_welfare`` maximizes."""
    c = model.cost

    def objective(x):
        report = evaluate_objectives(model, float(x[0]), c - float(x[0]))
        g = report.gradients
        return (report.surplus_welfare,
                np.array([g.welfare_price_user - g.welfare_price_cp]), report)
    return objective


def optimize_welfare(model: MarketModel) -> OptimumReport:
    """Welfare maximizer on the zero-profit segment p + q = cost."""
    lo, hi = welfare_segment(model)
    c = model.cost
    p_axis = np.linspace(lo, hi, _SCAN_POINTS)
    m_vals = model.user_demand.value(p_axis)
    n_vals = model.cp_demand.value(model.cost - p_axis)
    _, lam = solve_many(model.gain, model.congestion, m_vals * n_vals,
                        model.capacity, model.sensitivity)
    with np.errstate(invalid="ignore", divide="ignore"):
        s_m = model.user_demand.per_unit_surplus(p_axis)
        s_n = model.cp_demand.per_unit_surplus(model.cost - p_axis)
        scan = np.where((m_vals > 0) & (n_vals > 0), (s_m + s_n) * lam, 0.0)
    start = float(p_axis[int(np.argmax(scan))])
    width = (hi - lo) / (_SCAN_POINTS - 1)
    x, report, steps = _projected_newton(welfare_objective(model), [start], [lo], [hi],
                                         width)
    p = float(x[0])
    q = c - p

    eq = report.equilibrium
    boundary = min(p - lo, hi - p) < BOUNDARY_EPS
    held = p in (lo, hi)
    return OptimumReport(
        kind="welfare_two_sided",
        prices=PricePair(p, q),
        objective=report.surplus_welfare,
        equilibrium=eq,
        diagnostics=_welfare_diagnostics(model, p, q, eq, held),
        boundary=boundary,
        held=held,
        iterations=steps,
    )


def optimize_one_sided(model: MarketModel, kind: str) -> OptimumReport:
    """Benchmarks with the content side priced at zero.

    ``kind="profit"`` searches the user price; ``kind="welfare"`` is fully
    pinned by the zero-profit constraint at (cost, 0).
    """
    if kind == "profit":
        p_hi = profit_box(model)[0]

        def objective(x):
            report = evaluate_objectives(model, float(x[0]), 0.0)
            return report.profit, np.array([report.gradients.profit_price_user]), report

        p_axis = np.linspace(0.0, p_hi, _SCAN_POINTS)
        m_vals = model.user_demand.value(p_axis)
        n0 = model.cp_demand.value(0.0)
        _, lam = solve_many(model.gain, model.congestion, m_vals * n0,
                            model.capacity, model.sensitivity)
        scan = (p_axis - model.cost) * lam
        start = float(p_axis[int(np.argmax(scan))])
        width = p_hi / (_SCAN_POINTS - 1)
        x, report, steps = _projected_newton(objective, [start], [0.0], [p_hi], width)
        p = float(x[0])

        eq = report.equilibrium
        return OptimumReport(
            kind="profit_one_sided",
            prices=PricePair(p, 0.0),
            objective=report.profit,
            equilibrium=eq,
            diagnostics=_profit_diagnostics(model, p, 0.0, eq, (p in (0.0, p_hi), True)),
            boundary=min(p, p_hi - p) < BOUNDARY_EPS,
            held=True,          # q is fixed at 0
            iterations=steps,
        )
    if kind == "welfare":
        p = model.cost
        report = evaluate_objectives(model, p, 0.0)
        eq = report.equilibrium
        mh = (model.user_demand.hazard(p)
              if p < model.user_demand.support else math.inf)
        return OptimumReport(
            kind="welfare_one_sided",
            prices=PricePair(p, 0.0),
            objective=report.surplus_welfare,
            equilibrium=eq,
            diagnostics=OptimumDiagnostics(
                user_hazard=mh,
                cp_hazard=model.cp_demand.hazard(0.0),
                elasticity=eq.elasticity,
            ),
            boundary=True,      # the constraint leaves no interior freedom
            held=True,
            iterations=0,
        )
    raise DomainError(f"unknown one-sided kind {kind!r}")


@dataclass(frozen=True)
class GrowthRates:
    """Relative gains of two-sided over one-sided pricing."""

    profit_growth: float        # r* = (U_two - U_one) / U_one
    welfare_growth: float       # (W_two - W_one) / W_one
    profit_two_sided: OptimumReport
    profit_one_sided: OptimumReport
    welfare_two_sided: OptimumReport
    welfare_one_sided: OptimumReport


def growth_rates(model: MarketModel) -> GrowthRates:
    """All four optima plus both growth rates; errors on a degenerate baseline."""
    profit_two = optimize_profit(model)
    profit_one = optimize_one_sided(model, "profit")
    welfare_two = optimize_welfare(model)
    welfare_one = optimize_one_sided(model, "welfare")
    if profit_one.objective <= 0.0:
        raise DegenerateBaselineError(
            f"one-sided profit optimum is {profit_one.objective}; growth rate undefined")
    if welfare_one.objective <= 0.0:
        raise DegenerateBaselineError(
            f"one-sided welfare benchmark is {welfare_one.objective}; growth rate undefined")
    return GrowthRates(
        profit_growth=(profit_two.objective - profit_one.objective) / profit_one.objective,
        welfare_growth=(welfare_two.objective - welfare_one.objective) / welfare_one.objective,
        profit_two_sided=profit_two,
        profit_one_sided=profit_one,
        welfare_two_sided=welfare_two,
        welfare_one_sided=welfare_one,
    )

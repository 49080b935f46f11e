"""How the optimal prices move as capacity or congestion sensitivity moves.

Derivatives come from the implicit function theorem at each base optimum,
as the paper derives its corollaries: differentiate the first-order
conditions instead of re-optimizing.

* profit: g(p, q; x) = (dU/dp, dU/dq) = 0 at (p*, q*), so
  d(p*, q*)/dx = -H^-1 dg/dx, with H the optimizer's differenced Hessian
  and dg/dx a central difference of the analytic gradient in x at the fixed
  optimal prices (relative step 1e-3: one equilibrium solve on each side,
  where re-optimizing would take one optimum);
* welfare: f(p; x) = dW/dp - dW/dq = 0 along q = cost - p, so
  dp_o/dx = -f_x / f_p and dq_o/dx = -dp_o/dx.  A welfare optimum held at a
  segment end stays there (no sensitivity parameter moves the ends, which
  depend only on cost and the supports), so both derivatives are 0.

The theorem needs an interior profit optimum and a nonsingular curvature
there: a boundary profit optimum, a Hessian that is not negative definite
and an f_p >= 0 raise ``NumericalError``.  ``oracle.reoptimized_price_derivatives``
re-optimizes at x -/+ the same step as the brute-force reference.

The direction of the throughput-elasticity response to congestion decides
the qualitative predictions.  The relevant slope is taken along the
capacity-parameterized trace: hold prices and sensitivity fixed, perturb the
capacity over a five-point stencil, re-solve each equilibrium, and fit
d(elasticity)/d(congestion) by least squares on the (phi, eps) pairs.  The
partial at fixed capacity is a different object and would falsify the sign
rules for capacity-dependent congestion laws.

Sign predictions (populated only when their premises are numerically
conclusive):

* capacity, profit prices: both price derivatives carry the trace-slope
  sign, and their ratio equals the cross ratio of hazard-rate slopes;
* capacity, welfare prices: the user-side derivative carries
  sign(hazard gap) * sign(trace slope); the content side is its negative;
* sensitivity, profit prices (positive trace slope only): both derivatives
  are positive, with the same hazard-slope ratio;
* sensitivity, welfare prices (positive trace slope only): the user-side
  derivative carries sign(hazard gap), the content side its negative.

On the negative trace-slope branch the sensitivity rules are not asserted;
observed signs are still reported.  The welfare rules assume an interior
welfare optimum: at one held at a segment end they are inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import MarketModel, parameter_value, with_parameter
from .equilibrium import solve_equilibrium
from .errors import DomainError, NumericalError
from .optimize import (OptimumReport, differenced_hessian, is_negative_definite,
                       optimize_profit, optimize_welfare, profit_box,
                       profit_objective, welfare_objective, welfare_segment)

TRACE_REL_STEP = 1e-3
PARAM_REL_STEP = 1e-3
CONCLUSIVE_EPS = 1e-6
RATIO_REL_TOL = 1e-2
HAZARD_FD_STEP = 1e-5


def elasticity_slope_vs_congestion(model: MarketModel, price_user: float,
                                   price_cp: float,
                                   rel_step: float = TRACE_REL_STEP) -> float:
    """d eps / d phi along the capacity trace at fixed prices and sensitivity."""
    m, n = model.demands(price_user, price_cp)
    if m <= 0.0 or n <= 0.0:
        raise DomainError("elasticity trace needs positive demand on both sides")
    pairs = []
    for k in (-2, -1, 0, 1, 2):
        mu = model.capacity * (1.0 + rel_step * k)
        eq = solve_equilibrium(with_parameter(model, "capacity", mu), price_user, price_cp)
        pairs.append((eq.congestion, eq.elasticity))
    phis = np.array([p for p, _ in pairs])
    epss = np.array([e for _, e in pairs])
    if np.max(np.abs(phis - phis[2])) < 1e-10:
        raise NumericalError("congestion did not respond to the capacity stencil")
    dphi = phis - phis.mean()
    deps = epss - epss.mean()
    return float(np.dot(dphi, deps) / np.dot(dphi, dphi))


def _hazard_slope(demand, price: float) -> float:
    h = HAZARD_FD_STEP * max(1.0, abs(price))
    lo = max(0.0, price - h)
    hi = min(demand.support * (1.0 - 1e-9), price + h)
    return (demand.hazard(hi) - demand.hazard(lo)) / (hi - lo)


def _sign(x: float, eps: float = 0.0) -> int:
    if x > eps:
        return 1
    if x < -eps:
        return -1
    return 0


@dataclass(frozen=True)
class OptimumContext:
    """Local curvature data at one optimum."""

    price_user: float
    price_cp: float
    user_hazard: float
    cp_hazard: float
    user_hazard_slope: float
    cp_hazard_slope: float
    elasticity_slope: float     # trace slope at this optimum
    interior: bool              # False when a price is held at an edge of its search set


@dataclass(frozen=True)
class SignRuleCheck:
    """One sign rule: expected versus observed derivative signs.

    ``ratio_residual`` reports the price-derivative proportion against the
    cross hazard-slope ratio where the rule defines one; it is informational
    here and bounded by the test suite on the branch that asserts it.
    """

    name: str
    conclusive: bool
    expected: dict[str, int]
    observed: dict[str, int]
    ratio_residual: float | None
    signs_satisfied: bool | None

    def describe(self) -> str:
        if not self.conclusive:
            return f"{self.name}: inconclusive (premise below resolution)"
        verdict = "ok" if self.signs_satisfied else "MISMATCH"
        extra = "" if self.ratio_residual is None else f", ratio residual {self.ratio_residual:.2e}"
        return f"{self.name}: {verdict} expected={self.expected} observed={self.observed}{extra}"


@dataclass(frozen=True)
class SensitivityReport:
    parameter: str
    base_value: float
    step: float                                 # absolute parameter step used
    profit_price_derivs: tuple[float, float]    # (dp*/dx, dq*/dx)
    welfare_price_derivs: tuple[float, float]   # (dp_o/dx, dq_o/dx)
    profit_context: OptimumContext
    welfare_context: OptimumContext
    predictions: list[SignRuleCheck]


def _context(model: MarketModel, report: OptimumReport) -> OptimumContext:
    p, q = report.prices.user, report.prices.cp
    return OptimumContext(
        price_user=p,
        price_cp=q,
        user_hazard=model.user_demand.hazard(p),
        cp_hazard=model.cp_demand.hazard(q),
        user_hazard_slope=_hazard_slope(model.user_demand, p),
        cp_hazard_slope=_hazard_slope(model.cp_demand, q),
        elasticity_slope=elasticity_slope_vs_congestion(model, p, q),
        interior=not report.held,
    )


def _ratio_residual(dp: float, dq: float, ctx: OptimumContext) -> float:
    """Residual of dp : dq = cp_hazard_slope : user_hazard_slope."""
    left = dp * ctx.user_hazard_slope
    right = dq * ctx.cp_hazard_slope
    scale = max(abs(left), abs(right))
    if scale == 0.0:
        return 0.0
    return abs(left - right) / scale


def _capacity_checks(dp_star, dq_star, dp_ring, dq_ring, profit_ctx,
                     welfare_ctx) -> list[SignRuleCheck]:
    checks = []
    slope = profit_ctx.elasticity_slope
    conclusive = abs(slope) > CONCLUSIVE_EPS
    expected = {"dp_star": _sign(slope), "dq_star": _sign(slope)}
    observed = {"dp_star": _sign(dp_star), "dq_star": _sign(dq_star)}
    ratio = _ratio_residual(dp_star, dq_star, profit_ctx)
    checks.append(SignRuleCheck(
        name="profit_prices_vs_capacity",
        conclusive=conclusive,
        expected=expected,
        observed=observed,
        ratio_residual=ratio,
        signs_satisfied=(expected == observed) if conclusive else None,
    ))
    slope_w = welfare_ctx.elasticity_slope
    gap = welfare_ctx.user_hazard - welfare_ctx.cp_hazard
    conclusive_w = (welfare_ctx.interior and abs(slope_w) > CONCLUSIVE_EPS
                    and abs(gap) > CONCLUSIVE_EPS)
    expected_w = {"dp_ring": _sign(gap) * _sign(slope_w),
                  "dq_ring": -_sign(gap) * _sign(slope_w)}
    observed_w = {"dp_ring": _sign(dp_ring), "dq_ring": _sign(dq_ring)}
    checks.append(SignRuleCheck(
        name="welfare_prices_vs_capacity",
        conclusive=conclusive_w,
        expected=expected_w,
        observed=observed_w,
        ratio_residual=None,
        signs_satisfied=(expected_w == observed_w) if conclusive_w else None,
    ))
    return checks


def _sensitivity_checks(dp_star, dq_star, dp_ring, dq_ring, profit_ctx,
                        welfare_ctx) -> list[SignRuleCheck]:
    checks = []
    # stated for the rising-elasticity branch only
    positive_branch = profit_ctx.elasticity_slope > CONCLUSIVE_EPS
    expected = {"dp_star": 1, "dq_star": 1}
    observed = {"dp_star": _sign(dp_star), "dq_star": _sign(dq_star)}
    ratio = _ratio_residual(dp_star, dq_star, profit_ctx)
    checks.append(SignRuleCheck(
        name="profit_prices_vs_sensitivity",
        conclusive=positive_branch,
        expected=expected if positive_branch else {},
        observed=observed,
        ratio_residual=ratio,
        signs_satisfied=(expected == observed) if positive_branch else None,
    ))
    gap = welfare_ctx.user_hazard - welfare_ctx.cp_hazard
    positive_branch_w = (welfare_ctx.interior
                         and welfare_ctx.elasticity_slope > CONCLUSIVE_EPS
                         and abs(gap) > CONCLUSIVE_EPS)
    expected_w = {"dp_ring": _sign(gap), "dq_ring": -_sign(gap)}
    observed_w = {"dp_ring": _sign(dp_ring), "dq_ring": _sign(dq_ring)}
    checks.append(SignRuleCheck(
        name="welfare_prices_vs_sensitivity",
        conclusive=positive_branch_w,
        expected=expected_w if positive_branch_w else {},
        observed=observed_w,
        ratio_residual=None,
        signs_satisfied=(expected_w == observed_w) if positive_branch_w else None,
    ))
    return checks


def _implicit_derivatives(objective_of, model: MarketModel, stencil, step: float,
                          x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                          name: str) -> list[float]:
    """-H^-1 dg/dx at the stationary point x of ``objective_of(model)``.

    ``stencil`` holds the models with the parameter at base -/+ step; g is
    evaluated in both at the same prices x.
    """
    hess = differenced_hessian(objective_of(model), x, np.ones(x.size, dtype=bool), lo, hi)
    if not is_negative_definite(hess):
        raise NumericalError(f"{name} Hessian {hess.tolist()} is not negative definite")
    g_lo, g_hi = (objective_of(m)(x)[1] for m in stencil)
    return np.linalg.solve(hess, -(g_hi - g_lo) / (2 * step)).tolist()


def optimal_price_sensitivity(model: MarketModel, parameter: str,
                              rel_step: float = PARAM_REL_STEP) -> SensitivityReport:
    """Derivatives of the optimal prices in ``parameter`` by the implicit function theorem."""
    base = parameter_value(model, parameter)
    step = rel_step * abs(base)
    if step == 0.0:
        raise DomainError("parameter step collapsed to zero")
    stencil = (with_parameter(model, parameter, base - step),
               with_parameter(model, parameter, base + step))

    profit_base = optimize_profit(model)
    if profit_base.boundary:
        raise NumericalError("profit optimum is not interior")
    dp_star, dq_star = _implicit_derivatives(
        profit_objective, model, stencil, step,
        np.array([profit_base.prices.user, profit_base.prices.cp]),
        np.zeros(2), np.array(profit_box(model)), "profit")

    welfare_base = optimize_welfare(model)
    dp_ring = dq_ring = 0.0
    if not welfare_base.held:
        # the Hessian's stencil stays on the segment, as in the optimizer
        lo, hi = welfare_segment(model)
        dp_ring, = _implicit_derivatives(
            welfare_objective, model, stencil, step, np.array([welfare_base.prices.user]),
            np.array([lo]), np.array([hi]), "welfare")
        dq_ring = -dp_ring

    profit_ctx = _context(model, profit_base)
    welfare_ctx = _context(model, welfare_base)
    if parameter == "capacity":
        predictions = _capacity_checks(dp_star, dq_star, dp_ring, dq_ring,
                                       profit_ctx, welfare_ctx)
    elif parameter == "sensitivity":
        predictions = _sensitivity_checks(dp_star, dq_star, dp_ring, dq_ring,
                                          profit_ctx, welfare_ctx)
    else:
        predictions = []
    return SensitivityReport(
        parameter=parameter,
        base_value=base,
        step=step,
        profit_price_derivs=(dp_star, dq_star),
        welfare_price_derivs=(dp_ring, dq_ring),
        profit_context=profit_ctx,
        welfare_context=welfare_ctx,
        predictions=predictions,
    )

"""How the optimal prices move as capacity or congestion sensitivity moves.

Derivatives come from the implicit function theorem at each base optimum,
as the paper derives its corollaries: differentiate the first-order
conditions instead of re-optimizing.

* profit: g(p, q; x) = (dU/dp, dU/dq) = 0 at (p*, q*), so
  d(p*, q*)/dx = -H^-1 dg/dx, with H the analytic Hessian
  (``objectives.profit_hessian``) at the optimum's own equilibrium and
  dg/dx a central difference of the analytic gradient in x at the fixed
  optimal prices (relative step 1e-3: one equilibrium solve on each side,
  where re-optimizing would take one optimum);
* welfare: f(p; x) = dW/dp - dW/dq = 0 along q = cost - p, so
  dp_o/dx = -f_x / f_p, f_p from ``objectives.welfare_segment_curvature``,
  and dq_o/dx = -dp_o/dx.  A welfare optimum held at a segment end stays
  there (no sensitivity parameter moves the ends, which depend only on cost
  and the supports), so both derivatives are 0.

A call solves the two optima, whose global stages share one
``optimize._starts`` search, and the four equilibria of the dg/dx
stencils, nothing more: the Hessians, the hazard slopes and the trace
slopes below are closed forms at the optima's equilibria.

The theorem needs an interior profit optimum and a nonsingular curvature
there.  Both solves are ``optimize.concave_step``, the step Newton refinement
takes, so a boundary profit optimum, a Hessian that is not negative definite
and an f_p >= 0 raise ``NumericalError``.  ``oracle.reoptimized_price_derivatives``
re-optimizes at x -/+ the same step as the brute-force reference.

The direction of the throughput-elasticity response to congestion decides
the qualitative predictions.  The relevant slope is taken along the
capacity-parameterized trace: hold prices and sensitivity fixed and let the
capacity move, so d eps/d phi = (d eps/d mu) / (d phi/d mu).  With the demand
product T = m n fixed, eps = 1/D with D = 1 - T rho' Phi_lam, and lam_mu =
T rho' Phi_mu eps from ``equilibrium.capacity_response``, differentiating
the equilibrium condition in mu gives

    phi_mu = Phi_lam lam_mu + Phi_mu,
    D_mu   = -T (rho'' phi_mu Phi_lam + rho' (Phi_lamlam lam_mu + Phi_lammu)),

d eps/d mu = -D_mu eps^2, and the slope is -D_mu eps^2 / phi_mu.  A
congestion that does not respond to capacity (|mu phi_mu| at most
``TRACE_RESOLUTION`` times phi) leaves the slope undefined and raises
``NumericalError``.  The partial at fixed capacity is a different object and
would falsify the sign rules for capacity-dependent congestion laws.  The
hazard slopes are closed-form too: h' = h^2 - m''/m.

Sign predictions, one family for both parameters.  The user-side sign is
sign(trace slope) for capacity and +1 for sensitivity, whose rules are
stated for a rising trace slope only:

* profit prices: both derivatives carry the user-side sign, and their ratio
  equals the cross ratio of hazard-rate slopes;
* welfare prices: the user-side derivative carries the user-side sign times
  sign(hazard gap); the content side is its negative.

On the negative trace-slope branch the sensitivity rules are not asserted.
The welfare rules assume an interior welfare optimum: at one held at a
segment end they are inconclusive.  An inconclusive rule expects nothing
(``expected`` is empty), still reports the observed signs, and names the
premise that failed: the held welfare optimum, the falling-elasticity
branch, or a trace slope or hazard gap within ``CONCLUSIVE_EPS`` of zero
("premise below resolution").
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import MarketModel, parameter_value, with_parameter
from .equilibrium import Equilibrium, capacity_response, solve_equilibrium
from .errors import DomainError, NumericalError
from .objectives import profit_hessian, welfare_segment_curvature
from .optimize import (OptimumReport, _optima, concave_step, profit_objective,
                       welfare_objective)

PARAM_REL_STEP = 1e-3
CONCLUSIVE_EPS = 1e-6
TRACE_RESOLUTION = 1e-10    # capacity elasticity of congestion below which it does not respond


def _trace_slope(model: MarketModel, eq: Equilibrium) -> float:
    """d eps / d phi along the capacity trace at a solved, non-degenerate equilibrium."""
    t, eps = eq.user_level * eq.cp_level, eq.elasticity
    phi, lam, mu, s = eq.congestion, eq.throughput, model.capacity, model.sensitivity
    rho_1 = model.gain._slope(phi, s)
    law = model.congestion
    phi_lam = law._congestion_slope(lam, mu)
    law_mu, lam_mu = capacity_response(model, eq)
    phi_mu = phi_lam * lam_mu + law_mu
    if not abs(mu * phi_mu) > TRACE_RESOLUTION * phi:
        raise NumericalError("congestion does not respond to capacity")
    d_mu = -t * (model.gain._curvature(phi, s) * phi_mu * phi_lam
                 + rho_1 * (law._congestion_curvature(lam, mu) * lam_mu
                            + law._congestion_cross_slope(lam, mu)))
    return -d_mu * eps * eps / phi_mu


def elasticity_slope_vs_congestion(model: MarketModel, price_user: float,
                                   price_cp: float) -> float:
    """d eps / d phi along the capacity trace at fixed prices and sensitivity."""
    m, n = model.demands(price_user, price_cp)
    if m <= 0.0 or n <= 0.0:
        raise DomainError("elasticity trace needs positive demand on both sides")
    return _trace_slope(model, solve_equilibrium(model, price_user, price_cp))


def _hazard_slope(demand, price: float, h: float, level: float) -> float:
    """h' = h^2 - m''/m of the hazard h = -m'/m at the price, m = ``level``."""
    return h * h - demand.curvature(price) / level


def _sign(x: float) -> int:
    return int(x > 0.0) - int(x < 0.0)


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
    inconclusive_reason: str | None     # the premise that failed; None when conclusive
    expected: dict[str, int]
    observed: dict[str, int]
    ratio_residual: float | None
    signs_satisfied: bool | None

    @property
    def conclusive(self) -> bool:
        return self.inconclusive_reason is None

    def describe(self) -> str:
        if not self.conclusive:
            return f"{self.name}: inconclusive ({self.inconclusive_reason})"
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
    mh, nh = report.diagnostics.user_hazard, report.diagnostics.cp_hazard
    eq = report.equilibrium
    return OptimumContext(
        price_user=p,
        price_cp=q,
        user_hazard=mh,
        cp_hazard=nh,
        user_hazard_slope=_hazard_slope(model.user_demand, p, mh, eq.user_level),
        cp_hazard_slope=_hazard_slope(model.cp_demand, q, nh, eq.cp_level),
        elasticity_slope=_trace_slope(model, eq),
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


def _failed_premise(slope: float, gap: float | None = None, interior: bool = True,
                    rising_only: bool = False) -> str | None:
    """Why a sign rule's premise fails, or None when it holds conclusively.

    ``gap`` is the hazard gap of a welfare rule, ``interior`` whether its
    optimum is interior, and ``rising_only`` marks a rule stated for a rising
    trace slope only.
    """
    if not interior:
        return "welfare optimum held at a segment end"
    if rising_only and slope < -CONCLUSIVE_EPS:
        return "falling-elasticity branch"
    if abs(slope) <= CONCLUSIVE_EPS or (gap is not None and abs(gap) <= CONCLUSIVE_EPS):
        return "premise below resolution"
    return None


def _sign_rules(parameter: str, derivs, profit_ctx: OptimumContext,
                welfare_ctx: OptimumContext) -> list[SignRuleCheck]:
    """The profit and the welfare sign rule of ``parameter`` (capacity or
    sensitivity) for the price derivatives (dp*, dq*, dp_o, dq_o)."""
    rising_only = parameter == "sensitivity"    # its rules premise a rising trace slope
    dp_star, dq_star, dp_ring, dq_ring = derivs

    def user_sign(ctx):
        return 1 if rising_only else _sign(ctx.elasticity_slope)

    def check(objective, keys, signs, pair, reason, ratio):
        expected = dict(zip(keys, signs)) if reason is None else {}
        observed = {key: _sign(v) for key, v in zip(keys, pair)}
        return SignRuleCheck(
            name=f"{objective}_prices_vs_{parameter}",
            inconclusive_reason=reason,
            expected=expected,
            observed=observed,
            ratio_residual=ratio,
            signs_satisfied=(expected == observed) if reason is None else None,
        )

    profit_sign = user_sign(profit_ctx)
    gap = welfare_ctx.user_hazard - welfare_ctx.cp_hazard
    welfare_sign = user_sign(welfare_ctx) * _sign(gap)
    return [
        check("profit", ("dp_star", "dq_star"), (profit_sign, profit_sign), (dp_star, dq_star),
              _failed_premise(profit_ctx.elasticity_slope, rising_only=rising_only),
              _ratio_residual(dp_star, dq_star, profit_ctx)),
        check("welfare", ("dp_ring", "dq_ring"), (welfare_sign, -welfare_sign),
              (dp_ring, dq_ring),
              _failed_premise(welfare_ctx.elasticity_slope, gap, welfare_ctx.interior,
                              rising_only),
              None),
    ]


def _implicit_derivatives(objective_of, hess, stencil, step: float, x, name: str):
    """-H^-1 dg/dx at the stationary point x, H the Hessian there.

    ``stencil`` holds the models with the parameter at base -/+ step; the
    gradient g of ``objective_of(model)`` is evaluated in both at the same
    prices x.
    """
    g_lo, g_hi = (objective_of(m)(x)[1] for m in stencil)
    derivs = concave_step(hess, [(h - l) / (2 * step) for l, h in zip(g_lo, g_hi)])
    if derivs is None:
        raise NumericalError(f"{name} Hessian {hess} is not negative definite")
    return derivs


def optimal_price_sensitivity(model: MarketModel, parameter: str,
                              rel_step: float = PARAM_REL_STEP) -> SensitivityReport:
    """Derivatives of the optimal prices in ``parameter`` by the implicit function theorem."""
    base = parameter_value(model, parameter)
    step = rel_step * abs(base)
    if step == 0.0:
        raise DomainError("parameter step collapsed to zero")
    stencil = (with_parameter(model, parameter, base - step),
               with_parameter(model, parameter, base + step))

    [[profit_base, welfare_base]] = _optima([model], ("profit_two_sided", "welfare_two_sided"))
    if profit_base.boundary:
        raise NumericalError("profit optimum is not interior")
    dp_star, dq_star = _implicit_derivatives(
        profit_objective, profit_hessian(model, profit_base.equilibrium), stencil, step,
        (profit_base.prices.user, profit_base.prices.cp), "profit")

    dp_ring = dq_ring = 0.0
    if not welfare_base.held:
        dp_ring, = _implicit_derivatives(
            welfare_objective,
            ((welfare_segment_curvature(model, welfare_base.equilibrium),),),
            stencil, step, (welfare_base.prices.user,), "welfare")
        dq_ring = -dp_ring

    profit_ctx = _context(model, profit_base)
    welfare_ctx = _context(model, welfare_base)
    predictions = (_sign_rules(parameter, (dp_star, dq_star, dp_ring, dq_ring),
                               profit_ctx, welfare_ctx)
                   if parameter in ("capacity", "sensitivity") else [])
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
